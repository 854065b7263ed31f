#include "pipeline/publisher.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "train/checkpoint.h"
#include "util/fault_injection.h"
#include "util/file_image.h"
#include "util/logging.h"

namespace layergcn::pipeline {
namespace {

constexpr int kMaxRetries = 3;
/// Uniform jitter fraction applied to each backoff.
constexpr double kBackoffJitter = 0.25;
/// Jitter stream seed: every publisher draws the same backoff schedule.
constexpr uint64_t kJitterSeed = 0x9e3779b97f4a7c15ull;

}  // namespace

SnapshotPublisher::SnapshotPublisher(serve::SnapshotStore* store,
                                     PublisherOptions options)
    : store_(store), options_(std::move(options)), jitter_rng_(kJitterSeed) {}

util::Status SnapshotPublisher::Publish(
    const train::EmbeddingView& view,
    const std::vector<std::vector<int32_t>>& user_history, int64_t version) {
  if (!view.valid()) {
    return util::InvalidArgumentError("publish with an invalid embedding view");
  }
  if (static_cast<int64_t>(user_history.size()) != view.user->rows()) {
    return util::InvalidArgumentError(
        "publish history size does not match the user count");
  }

  train::ServingExport ex;
  ex.version = version;
  ex.user_emb = *view.user;
  ex.item_emb = *view.item;
  ex.user_history = user_history;
  ex.write_int8 = true;
  ex.write_bf16 = true;

  const std::string path =
      serve::SnapshotStore::SnapshotPath(store_->dir(), version);
  std::error_code ec;
  std::filesystem::create_directories(store_->dir(), ec);

  util::Status last = util::OkStatus();
  uint64_t backoff = options_.backoff_base_us;
  for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
    if (attempt > 0) {
      OBS_COUNT("pipeline.publish.retries", 1);
      const double u = jitter_rng_.NextDouble() * 2.0 - 1.0;
      const auto delay = static_cast<uint64_t>(
          static_cast<double>(backoff) * (1.0 + kBackoffJitter * u));
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
      backoff = std::min(backoff * 2, options_.backoff_max_us);
    }
    OBS_COUNT("pipeline.publish.attempts", 1);

    {
      OBS_SPAN("pipeline.export_write");
      last = train::SaveServingExport(path, ex);
    }
    if (last.ok() && util::fault::Fire("publish.torn_rename")) {
      // Simulated crash inside the write: a prefix of the export lands
      // under the final name. The store's newest-valid fallback keeps
      // readers on the previous snapshot until the retry rewrites it.
      std::string image;
      last = util::ReadFileImage(path, &image);
      if (last.ok()) {
        (void)util::SyncedWrite(
            path, std::string_view(image).substr(0, image.size() * 3 / 5));
        last = util::DataLossError("simulated torn write of " + path);
      }
    }
    if (last.ok()) {
      OBS_SPAN("pipeline.store_reload");
      last = store_->Reload();
    }
    if (last.ok()) {
      const auto current = store_->current();
      if (current == nullptr || current->version() != version) {
        // The store skipped what was just written: it did not survive the
        // store's own load.
        last = util::DataLossError(
            "store is not serving the published version " +
            std::to_string(version));
      }
    }
    if (last.ok()) {
      OBS_COUNT("pipeline.publish.success", 1);
      OBS_GAUGE("pipeline.publish.last_version", version);
      Prune();
      return util::OkStatus();
    }
    LAYERGCN_LOG(kWarning) << "publish attempt " << (attempt + 1) << "/"
                           << (kMaxRetries + 1) << " of version " << version
                           << " failed: " << last.ToString();
  }

  OBS_COUNT("pipeline.publish.failures", 1);
  return last;
}

void SnapshotPublisher::Prune() const {
  // Retention lives in the store (it owns the "never prune the serving
  // version" invariant and the valid-only quota); the publisher just
  // mirrors the count into its own namespace for pipeline dashboards.
  OBS_SPAN("pipeline.retention");
  const int64_t pruned = store_->Retain(options_.keep_snapshots);
  if (pruned > 0) OBS_COUNT("pipeline.publish.pruned", pruned);
}

}  // namespace layergcn::pipeline
