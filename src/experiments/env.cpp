#include "experiments/env.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "util/logging.h"
#include "util/strings.h"

namespace layergcn::experiments {
namespace {

bool FlagValue(std::string_view arg, std::string_view name,
               std::string_view* value) {
  if (!util::StartsWith(arg, name)) return false;
  arg.remove_prefix(name.size());
  if (arg.empty() || arg[0] != '=') return false;
  *value = arg.substr(1);
  return true;
}

}  // namespace

Env ParseEnv(int argc, char** argv) {
  Env env;
  if (const char* s = std::getenv("REPRO_SCALE")) {
    double v;
    if (util::ParseDouble(s, &v)) env.scale = v;
  }
  // A value that does not fit its field is ignored, like a malformed one.
  if (const char* s = std::getenv("REPRO_EPOCHS")) {
    util::ParseInt(s, &env.max_epochs);
  }
  if (const char* s = std::getenv("REPRO_SEED")) {
    util::ParseInt(s, &env.seed);
  }
  if (const char* s = std::getenv("REPRO_FULL")) {
    env.full = std::string_view(s) == "1";
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    std::string_view value;
    if (FlagValue(arg, "--scale", &value)) {
      double v;
      LAYERGCN_CHECK(util::ParseDouble(value, &v)) << "bad --scale";
      env.scale = v;
    } else if (FlagValue(arg, "--epochs", &value)) {
      LAYERGCN_CHECK(util::ParseInt(value, &env.max_epochs)) << "bad --epochs";
    } else if (FlagValue(arg, "--seed", &value)) {
      LAYERGCN_CHECK(util::ParseInt(value, &env.seed)) << "bad --seed";
    } else if (arg == "--full") {
      env.full = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--scale=F] [--epochs=N] [--seed=N] [--full]\n",
          argv[0]);
      std::exit(0);
    } else {
      LAYERGCN_CHECK(false) << "unknown flag: " << arg;
    }
  }
  return env;
}

void PrintBanner(const std::string& title, const Env& env) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("scale=%.2f seed=%llu%s%s\n", env.scale,
              static_cast<unsigned long long>(env.seed),
              env.max_epochs > 0 ? " (epoch override)" : "",
              env.full ? " [FULL]" : " [fast profile]");
}

}  // namespace layergcn::experiments
