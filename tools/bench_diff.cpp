// bench_diff — compare two BENCH_*.json files and flag regressions.
//
// Usage: bench_diff BASE.json NEW.json [--threshold=0.10]
//                   [--allow-env-mismatch]
//
// Walks both documents and pairs up every numeric leaf by its dotted path
// ("passes.cold.p99_us", "quant.int8.scores_per_sec", ...). Array elements
// are labeled by their "pass" / "encoding" / "name" member when present so
// reordering passes does not misalign the comparison. Each paired metric
// is classified by its key:
//
//   lower-better    keys ending in _us / _seconds / _fraction, or
//                   containing "overhead" — latencies, durations, costs
//   higher-better   keys containing per_sec / speedup / throughput /
//                   recall / ndcg / hit_rate / overlap — rates & quality
//   ignored         anything else (configuration echoes like topk,
//                   num_users, counts) — compared documents may disagree
//                   on them freely
//
// perfbench result lines (BENCH_perfbench_<workload>.json) carry each
// metric as {"value": v, "unit": u}. Such an object is one leaf, named by
// its metric and classified by its unit first: us / ms / s / MiB are
// lower-better, 1/s higher-better; other units (ratio, count) fall back to
// the metric's name.
//
// A metric regresses when it moves in the bad direction by more than
// --threshold (relative, default 0.10 = 10%). Metrics whose base value is
// zero are skipped (no meaningful relative delta).
//
// Cross-hardware comparisons are refused: the "env" stamps written by
// bench/bench_env.h (hardware_concurrency, compute_pool_threads, compiler,
// build, obs_enabled, sanitizer) and the "bench" name must match, else
// exit 3 — a p99 measured on a different machine or build flavor is not a
// regression signal. --allow-env-mismatch downgrades that to a warning.
//
// Exit codes: 0 = comparable and within threshold, 2 = at least one
// regression, 3 = documents not comparable (env/bench mismatch),
// 1 = usage or I/O error. check.sh uses the self-compare (exit 0) and an
// injected-regression fixture (exit 2) as smoke tests.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

using layergcn::obs::JsonValue;

struct Flags {
  std::string base_path;
  std::string new_path;
  double threshold = 0.10;
  bool allow_env_mismatch = false;
};

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s BASE.json NEW.json [--threshold=F] "
               "[--allow-env-mismatch]\n",
               argv0);
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--allow-env-mismatch") {
      flags->allow_env_mismatch = true;
    } else if (arg.rfind("--threshold=", 0) == 0) {
      const std::string value = arg.substr(std::strlen("--threshold="));
      char* end = nullptr;
      flags->threshold = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(flags->threshold > 0.0)) {
        std::fprintf(stderr, "bad --threshold value: '%s'\n", value.c_str());
        return false;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return false;
  flags->base_path = positional[0];
  flags->new_path = positional[1];
  return true;
}

bool LoadJson(const std::string& path, JsonValue* out) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  if (!layergcn::obs::ParseJson(buf.str(), out, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

// Stable label for an array element: a distinguishing string member when
// the element is an object carrying one, else the index.
std::string ElementLabel(const JsonValue& element, size_t index) {
  if (element.type == JsonValue::Type::kObject) {
    for (const char* key : {"pass", "encoding", "name", "bench"}) {
      const JsonValue* v = element.Find(key);
      if (v != nullptr && v->is_string()) return v->string;
    }
  }
  return std::to_string(index);
}

// One numeric leaf; `unit` is set for a perfbench {"value", "unit"} metric.
struct Leaf {
  double value = 0.0;
  std::string unit;
};

// Flattens every numeric leaf under `value` into path -> leaf. The
// "env" subtree is machine identity, not a metric, and is skipped here
// (it is compared separately, strictly).
void CollectNumericLeaves(const JsonValue& value, const std::string& prefix,
                          std::map<std::string, Leaf>* out) {
  switch (value.type) {
    case JsonValue::Type::kNumber:
      (*out)[prefix] = {value.number, ""};
      break;
    case JsonValue::Type::kObject: {
      const JsonValue* number = value.Find("value");
      const JsonValue* unit = value.Find("unit");
      if (value.object.size() == 2 && number != nullptr &&
          number->type == JsonValue::Type::kNumber && unit != nullptr &&
          unit->is_string()) {
        (*out)[prefix] = {number->number, unit->string};
        break;
      }
      for (const auto& [key, member] : value.object) {
        if (prefix.empty() && key == "env") continue;
        CollectNumericLeaves(member, prefix.empty() ? key : prefix + "." + key,
                             out);
      }
      break;
    }
    case JsonValue::Type::kArray:
      for (size_t i = 0; i < value.array.size(); ++i) {
        CollectNumericLeaves(value.array[i],
                             prefix + "." + ElementLabel(value.array[i], i),
                             out);
      }
      break;
    default:
      break;
  }
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool Contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

enum class Direction { kLowerBetter, kHigherBetter, kIgnored };

Direction Classify(const std::string& path, const std::string& unit) {
  if (unit == "us" || unit == "ms" || unit == "s" || unit == "MiB") {
    return Direction::kLowerBetter;
  }
  if (unit == "1/s") return Direction::kHigherBetter;
  const size_t dot = path.rfind('.');
  const std::string key = dot == std::string::npos ? path : path.substr(dot + 1);
  if (EndsWith(key, "_us") || EndsWith(key, "_seconds") ||
      EndsWith(key, "_fraction") || Contains(key, "overhead")) {
    return Direction::kLowerBetter;
  }
  if (Contains(key, "per_sec") || Contains(key, "speedup") ||
      Contains(key, "throughput") || Contains(key, "recall") ||
      Contains(key, "ndcg") || Contains(key, "hit_rate") ||
      Contains(key, "overlap")) {
    return Direction::kHigherBetter;
  }
  return Direction::kIgnored;
}

// Renders a scalar env member for the strict comparison (numbers as %g so
// 8 == 8.0; strings/bools verbatim).
std::string EnvMemberString(const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNumber: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", v.number);
      return buf;
    }
    case JsonValue::Type::kString:
      return v.string;
    case JsonValue::Type::kBool:
      return v.boolean ? "true" : "false";
    default:
      return "<non-scalar>";
  }
}

// True when the env stamps + bench names make the two documents
// comparable; prints every difference found.
bool Comparable(const JsonValue& base, const JsonValue& next) {
  bool ok = true;
  const JsonValue* base_bench = base.Find("bench");
  const JsonValue* next_bench = next.Find("bench");
  const std::string base_name =
      base_bench != nullptr && base_bench->is_string() ? base_bench->string
                                                       : "<missing>";
  const std::string next_name =
      next_bench != nullptr && next_bench->is_string() ? next_bench->string
                                                       : "<missing>";
  if (base_name != next_name) {
    std::fprintf(stderr, "bench name mismatch: \"%s\" vs \"%s\"\n",
                 base_name.c_str(), next_name.c_str());
    ok = false;
  }
  const JsonValue* base_env = base.Find("env");
  const JsonValue* next_env = next.Find("env");
  if (base_env == nullptr || next_env == nullptr ||
      base_env->type != JsonValue::Type::kObject ||
      next_env->type != JsonValue::Type::kObject) {
    std::fprintf(stderr, "missing \"env\" stamp in %s\n",
                 base_env == nullptr ? "base" : "new");
    return false;
  }
  static const char* const kEnvKeys[] = {
      "hardware_concurrency", "compute_pool_threads", "compiler",
      "build",                "obs_enabled",          "sanitizer"};
  for (const char* key : kEnvKeys) {
    const JsonValue* b = base_env->Find(key);
    const JsonValue* n = next_env->Find(key);
    const std::string bs = b != nullptr ? EnvMemberString(*b) : "<missing>";
    const std::string ns = n != nullptr ? EnvMemberString(*n) : "<missing>";
    if (bs != ns) {
      std::fprintf(stderr, "env mismatch on %s: \"%s\" vs \"%s\"\n", key,
                   bs.c_str(), ns.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    PrintUsage(argv[0]);
    return 1;
  }

  JsonValue base, next;
  if (!LoadJson(flags.base_path, &base) || !LoadJson(flags.new_path, &next)) {
    return 1;
  }

  if (!Comparable(base, next)) {
    if (!flags.allow_env_mismatch) {
      std::fprintf(stderr,
                   "documents are not comparable (different machine, build, "
                   "or bench); pass --allow-env-mismatch to force\n");
      return 3;
    }
    std::fprintf(stderr, "continuing despite mismatch (--allow-env-mismatch)\n");
  }

  std::map<std::string, Leaf> base_leaves, next_leaves;
  CollectNumericLeaves(base, "", &base_leaves);
  CollectNumericLeaves(next, "", &next_leaves);

  int64_t compared = 0, skipped = 0;
  std::vector<std::string> regressions;
  for (const auto& [path, base_leaf] : base_leaves) {
    const auto it = next_leaves.find(path);
    if (it == next_leaves.end()) continue;
    const double base_value = base_leaf.value;
    const double next_value = it->second.value;
    const Direction dir = Classify(path, base_leaf.unit);
    if (dir == Direction::kIgnored || base_value == 0.0 ||
        !std::isfinite(base_value) || !std::isfinite(next_value)) {
      ++skipped;
      continue;
    }
    ++compared;
    const double rel = (next_value - base_value) / std::fabs(base_value);
    const double bad = dir == Direction::kLowerBetter ? rel : -rel;
    const char* marker = "";
    if (bad > flags.threshold) {
      marker = "  REGRESSION";
      char line[512];
      std::snprintf(line, sizeof(line), "%s: %.6g -> %.6g (%+.1f%%)",
                    path.c_str(), base_value, next_value, rel * 100.0);
      regressions.push_back(line);
    } else if (-bad > flags.threshold) {
      marker = "  improved";
    }
    std::printf("%-56s %14.6g %14.6g %+7.1f%%%s\n", path.c_str(), base_value,
                next_value, rel * 100.0, marker);
  }

  std::printf(
      "compared %lld metrics (%lld skipped), threshold %.1f%%: "
      "%zu regression(s)\n",
      static_cast<long long>(compared), static_cast<long long>(skipped),
      flags.threshold * 100.0, regressions.size());
  for (const std::string& r : regressions) {
    std::printf("REGRESSION %s\n", r.c_str());
  }
  if (compared == 0) {
    std::fprintf(stderr, "no comparable metrics found\n");
    return 1;
  }
  return regressions.empty() ? 0 : 2;
}
