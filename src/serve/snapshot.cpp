#include "serve/snapshot.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"
#include "train/checkpoint.h"
#include "util/file_image.h"
#include "util/logging.h"
#include "util/strings.h"

namespace layergcn::serve {

util::StatusOr<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::Load(
    const std::string& path, const ItemIndexOptions* index_options) {
  util::StatusOr<train::ServingExport> loaded =
      train::LoadServingExport(path);
  if (!loaded.ok()) return loaded.status();
  train::ServingExport& ex = loaded.value();

  // Private constructor: build in place, then freeze behind const.
  std::shared_ptr<ModelSnapshot> snap(new ModelSnapshot());
  snap->version_ = ex.version;
  snap->user_emb_ = std::move(ex.user_emb);
  snap->item_emb_ = std::move(ex.item_emb);
  snap->user_history_ = std::move(ex.user_history);

  // Quantized copies: keep user rows row-major (one row gathered per
  // request) and transpose item rows to depth-major panels once, here, so
  // quantized scoring streams items with unit stride and never pays a
  // per-request transpose. A dropped (corrupt / truncated / stale-shape)
  // quant section degrades this snapshot to f32-only — counted so
  // operators can see quantized serving silently disabled itself.
  if (ex.quant_dropped) {
    OBS_COUNT("serve.snapshot_fallbacks", 1);
    LAYERGCN_LOG(kWarning) << path << ": quantized sections dropped; "
                           << "serving falls back to f32";
  }
  if (ex.has_int8) {
    snap->has_int8_ = true;
    snap->item_int8_panel_ = tensor::TransposeToPanel(ex.item_int8);
    snap->user_int8_ = std::move(ex.user_int8);
  }
  if (ex.has_bf16) {
    snap->has_bf16_ = true;
    snap->item_bf16_panel_ = tensor::TransposeToPanel(ex.item_bf16);
    snap->user_bf16_ = std::move(ex.user_bf16);
  }

  // Popularity ranking for degraded mode: items by (training interaction
  // count desc, id asc). The tie-break makes the ranking a total order, so
  // degraded responses are deterministic.
  const int64_t num_items = snap->item_emb_.rows();
  snap->item_counts_.assign(static_cast<size_t>(num_items), 0);
  for (const std::vector<int32_t>& hist : snap->user_history_) {
    for (int32_t item : hist) {
      ++snap->item_counts_[static_cast<size_t>(item)];
    }
  }
  snap->popular_items_.resize(static_cast<size_t>(num_items));
  for (int64_t i = 0; i < num_items; ++i) {
    snap->popular_items_[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  }
  const std::vector<int64_t>& counts = snap->item_counts_;
  std::sort(snap->popular_items_.begin(), snap->popular_items_.end(),
            [&counts](int32_t a, int32_t b) {
              const int64_t ca = counts[static_cast<size_t>(a)];
              const int64_t cb = counts[static_cast<size_t>(b)];
              return ca != cb ? ca > cb : a < b;
            });

  // IVF retrieval index, when asked for. A failed build never rejects the
  // snapshot — the service serves exact per request until a later reload
  // succeeds — but it is logged and counted so operators see two-stage
  // retrieval silently running in fallback.
  if (index_options != nullptr) {
    util::StatusOr<std::shared_ptr<const ItemIndex>> index =
        ItemIndex::Build(snap->item_emb_, *index_options);
    if (index.ok()) {
      snap->index_ = std::move(index).value();
    } else {
      OBS_COUNT("serve.retrieval.index_build_failures", 1);
      LAYERGCN_LOG(kWarning)
          << path << ": item index build failed ("
          << index.status().ToString() << "); serving exact retrieval";
    }
  }

  OBS_COUNT("serve.snapshot_loads", 1);
  return std::shared_ptr<const ModelSnapshot>(std::move(snap));
}

eval::ScoringView ModelSnapshot::scoring(eval::ScoreEncoding encoding) const {
  switch (encoding) {
    case eval::ScoreEncoding::kInt8:
      LAYERGCN_CHECK(has_int8_) << "snapshot carries no int8 copy";
      return eval::Int8Scoring{&user_int8_, &item_int8_panel_};
    case eval::ScoreEncoding::kBf16:
      LAYERGCN_CHECK(has_bf16_) << "snapshot carries no bf16 copy";
      return eval::Bf16Scoring{&user_bf16_, &item_bf16_panel_};
    case eval::ScoreEncoding::kF32:
      break;
  }
  return eval::F32Scoring{&user_emb_, &item_emb_};
}

std::string SnapshotStore::SnapshotPath(const std::string& dir,
                                        int64_t version) {
  return dir + "/" +
         util::StrFormat("snap-%06lld.lgcn", static_cast<long long>(version));
}

std::vector<std::pair<int64_t, std::string>> SnapshotStore::ListSnapshots(
    const std::string& dir) {
  return util::ListNumberedFiles(dir, "snap-", ".lgcn");
}

void SnapshotStore::SetIndexOptions(const ItemIndexOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  build_index_ = true;
  index_options_ = options;
}

util::Status SnapshotStore::Reload() {
  OBS_COUNT("serve.reloads", 1);
  bool build_index;
  ItemIndexOptions index_options;
  {
    std::lock_guard<std::mutex> lock(mu_);
    build_index = build_index_;
    index_options = index_options_;
  }
  const std::vector<std::pair<int64_t, std::string>> files =
      ListSnapshots(dir_);
  if (files.empty()) {
    OBS_COUNT("serve.reload_failures", 1);
    return util::NotFoundError("no snapshots in " + dir_);
  }

  const std::shared_ptr<const ModelSnapshot> previous = current();
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    // Already serving this version (or something newer a racing reload
    // published): the serving snapshot is at least as new as anything
    // valid on disk, so the reload is a no-op.
    if (previous != nullptr && previous->version() >= it->first) {
      return util::OkStatus();
    }

    util::StatusOr<std::shared_ptr<const ModelSnapshot>> snap =
        ModelSnapshot::Load(it->second,
                            build_index ? &index_options : nullptr);
    if (snap.ok()) {
      if (it != files.rbegin()) {
        LAYERGCN_LOG(kWarning)
            << "fell back to snapshot " << it->second << " ("
            << std::distance(files.rbegin(), it) << " newer corrupt)";
      }
      std::lock_guard<std::mutex> lock(mu_);
      current_ = std::move(snap).value();
      published_at_us_ = obs::NowMicros();
      OBS_GAUGE("serve.snapshot_version",
                static_cast<double>(current_->version()));
      return util::OkStatus();
    }
    LAYERGCN_LOG(kWarning) << "skipping corrupt snapshot " << it->second
                           << ": " << snap.status().ToString();
    OBS_COUNT("serve.snapshot_fallbacks", 1);
  }

  if (previous != nullptr) {
    // Every file newer than the serving snapshot failed; keep serving it.
    // Still an error so callers know the reload did not advance.
    OBS_COUNT("serve.reload_failures", 1);
    return util::DataLossError(
        "no valid snapshot newer than serving version " +
        std::to_string(previous->version()) + " in " + dir_);
  }
  OBS_COUNT("serve.reload_failures", 1);
  return util::NotFoundError("no valid snapshot in " + dir_ + " (" +
                             std::to_string(files.size()) +
                             " corrupt files skipped)");
}

int64_t SnapshotStore::Retain(int keep) {
  keep = std::max(1, keep);
  const std::vector<std::pair<int64_t, std::string>> files =
      ListSnapshots(dir_);
  const std::shared_ptr<const ModelSnapshot> serving = current();
  const int64_t serving_version =
      serving != nullptr ? serving->version() : -1;

  // Walk newest-first, CRC-validating each file; the first `keep` that
  // validate are the retention set. Corrupt files do not count toward the
  // quota (they are dead weight the fallback walk would skip anyway), so
  // a run of torn publishes can never evict the good history behind them.
  int valid_kept = 0;
  int64_t pruned = 0;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    if (valid_kept < keep) {
      if (train::ValidateCheckpoint(it->second).ok()) ++valid_kept;
      continue;
    }
    if (it->first == serving_version) continue;
    if (std::remove(it->second.c_str()) == 0) {
      ++pruned;
      OBS_COUNT("serve.snapshots_pruned", 1);
    }
  }
  if (pruned > 0) {
    LAYERGCN_LOG(kInfo) << "snapshot retention pruned " << pruned
                        << " files from " << dir_ << " (keep " << keep
                        << " valid)";
  }
  return pruned;
}

std::shared_ptr<const ModelSnapshot> SnapshotStore::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t SnapshotStore::published_at_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_at_us_;
}

}  // namespace layergcn::serve
