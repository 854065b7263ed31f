#include "pipeline/publisher.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "train/checkpoint.h"
#include "util/fault_injection.h"
#include "util/file_image.h"
#include "util/logging.h"

namespace layergcn::pipeline {

SnapshotPublisher::SnapshotPublisher(serve::SnapshotStore* store,
                                     PublisherOptions options)
    : store_(store), options_(std::move(options)), jitter_rng_(options_.seed) {}

util::Status SnapshotPublisher::PublishOnce(const std::string& staging,
                                            int64_t version) {
  // The staged file already passed SaveServingExport; prove it parses end
  // to end (every section CRC) before it can become visible.
  {
    OBS_SPAN("pipeline.publish_validate");
    LAYERGCN_RETURN_IF_ERROR(train::ValidateCheckpoint(staging));
  }

  const std::string final_path =
      serve::SnapshotStore::SnapshotPath(store_->dir(), version);
  if (util::fault::Fire("publish.torn_rename")) {
    // Simulated crash inside the rotate step: a prefix of the export lands
    // under the final name. The store's newest-valid fallback must keep
    // readers on the previous snapshot until a retry renames over it.
    std::string image;
    LAYERGCN_RETURN_IF_ERROR(util::ReadFileImage(staging, &image));
    std::ofstream torn(final_path, std::ios::binary | std::ios::trunc);
    torn.write(image.data(), static_cast<std::streamsize>(image.size() * 3 / 5));
    std::remove(staging.c_str());
    return util::DataLossError("simulated torn rename onto " + final_path);
  }
  if (std::rename(staging.c_str(), final_path.c_str()) != 0) {
    return util::UnavailableError("cannot rename " + staging + " to " +
                                  final_path);
  }

  {
    OBS_SPAN("pipeline.store_reload");
    LAYERGCN_RETURN_IF_ERROR(store_->Reload());
  }
  const auto current = store_->current();
  if (current == nullptr || current->version() != version) {
    // Reload picked an older (or no) snapshot: what we just rotated in did
    // not survive the store's own validation.
    return util::DataLossError(
        "store is not serving the published version " +
        std::to_string(version));
  }
  return util::OkStatus();
}

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
  ex.write_int8 = options_.write_int8;
  ex.write_bf16 = options_.write_bf16;

  char staged_name[40];
  std::snprintf(staged_name, sizeof(staged_name), "pub-%06" PRId64 ".staging",
                version);
  const std::string staging = store_->dir() + "/" + staged_name;

  std::error_code ec;
  std::filesystem::create_directories(store_->dir(), ec);

  util::Status last = util::OkStatus();
  uint64_t backoff = options_.backoff_base_us;
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      OBS_COUNT("pipeline.publish.retries", 1);
      uint64_t delay = backoff;
      if (options_.backoff_jitter > 0) {
        const double u = jitter_rng_.NextDouble() * 2.0 - 1.0;
        delay = static_cast<uint64_t>(
            static_cast<double>(delay) * (1.0 + options_.backoff_jitter * u));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
      backoff = std::min(backoff * 2, options_.backoff_max_us);
    }
    OBS_COUNT("pipeline.publish.attempts", 1);

    {
      OBS_SPAN("pipeline.export_write");
      last = train::SaveServingExport(staging, ex);
    }
    if (last.ok()) {
      last = PublishOnce(staging, version);
    }
    if (last.ok()) {
      last_published_version_ = version;
      OBS_COUNT("pipeline.publish.success", 1);
      OBS_GAUGE("pipeline.publish.last_version", version);
      Prune();
      return util::OkStatus();
    }
    LAYERGCN_LOG(kWarning) << "publish attempt " << (attempt + 1) << "/"
                           << (options_.max_retries + 1) << " of version "
                           << version << " failed: " << last.ToString();
  }

  std::remove(staging.c_str());
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
