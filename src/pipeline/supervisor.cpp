#include "pipeline/supervisor.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "util/file_image.h"
#include "util/logging.h"

namespace layergcn::pipeline {
namespace {

constexpr char kManifestMagic[] = "LGCN-PIPE v1";

// Removes every run-NNNNNN directory under `checkpoint_root` but `keep`'s.
// Only the manifest's run is read again (the next carry source). A
// directory above it can only be left from before a manifest loss, and
// would otherwise hold stale checkpoints where a later run of that id
// writes. Removal failures are non-fatal: the next completed run retries.
void PruneRunDirs(const std::string& checkpoint_root, int64_t keep) {
  OBS_SPAN("pipeline.run_prune");
  for (const auto& [run_id, dir] :
       util::ListNumberedFiles(checkpoint_root, "run-", "")) {
    if (run_id == keep) continue;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    if (ec) {
      LAYERGCN_LOG(kWarning) << "cannot remove " << dir << ": "
                             << ec.message();
    }
  }
}

}  // namespace

util::StatusOr<PipelineManifest> PipelineManifest::Load(
    const std::string& path) {
  std::string image;
  LAYERGCN_RETURN_IF_ERROR(util::ReadFileImage(path, &image));
  std::istringstream in(image);
  std::string body, line;
  PipelineManifest m;
  uint32_t stored_crc = 0;
  bool have_crc = false;
  while (std::getline(in, line)) {
    unsigned crc_val = 0;
    if (std::sscanf(line.c_str(), "crc=%x", &crc_val) == 1) {
      stored_crc = crc_val;
      have_crc = true;
      break;
    }
    body += line;
    body += '\n';
    int64_t v64 = 0;
    if (std::sscanf(line.c_str(), "run_id=%" PRId64, &v64) == 1) m.run_id = v64;
    if (std::sscanf(line.c_str(), "users=%" PRId64, &v64) == 1) {
      m.num_users = static_cast<int32_t>(v64);
    }
    if (std::sscanf(line.c_str(), "items=%" PRId64, &v64) == 1) {
      m.num_items = static_cast<int32_t>(v64);
    }
    if (std::sscanf(line.c_str(), "version=%" PRId64, &v64) == 1) {
      m.version = v64;
    }
    if (std::sscanf(line.c_str(), "trained_events=%" PRId64, &v64) == 1) {
      m.trained_events = v64;
    }
  }
  if (body.rfind(kManifestMagic, 0) != 0) {
    return util::DataLossError(path + ": bad manifest magic");
  }
  if (!have_crc || util::Crc32(body.data(), body.size()) != stored_crc) {
    return util::DataLossError(path + ": manifest CRC mismatch");
  }
  return m;
}

util::Status PipelineManifest::Save(const std::string& path) const {
  OBS_SPAN("pipeline.manifest_save");
  std::ostringstream body;
  body << kManifestMagic << '\n'
       << "run_id=" << run_id << '\n'
       << "users=" << num_users << '\n'
       << "items=" << num_items << '\n'
       << "version=" << version << '\n'
       << "trained_events=" << trained_events << '\n';
  const std::string s = body.str();
  char crc_line[32];
  std::snprintf(crc_line, sizeof(crc_line), "crc=%08x\n",
                util::Crc32(s.data(), s.size()));
  return util::WriteFileImage(path, s + crc_line);
}

PipelineSupervisor::PipelineSupervisor(SupervisorOptions options,
                                       serve::SnapshotStore* store)
    : options_(std::move(options)),
      store_(store),
      manifest_path_(options_.root_dir + "/manifest.txt"),
      ingestor_(options_.delta) {
  publisher_ =
      std::make_unique<SnapshotPublisher>(store_, options_.publish);
}

PipelineSupervisor::~PipelineSupervisor() = default;

util::Status PipelineSupervisor::Start() {
  if (started_) return util::OkStatus();
  std::error_code ec;
  std::filesystem::create_directories(options_.root_dir, ec);
  if (ec) {
    return util::UnavailableError("cannot create pipeline root " +
                                  options_.root_dir + ": " + ec.message());
  }

  // Manifest: corrupt or absent degrades to a cold start, never an abort.
  const auto loaded = PipelineManifest::Load(manifest_path_);
  if (loaded.ok()) {
    manifest_ = loaded.value();
  } else if (loaded.status().code() != util::StatusCode::kNotFound) {
    LAYERGCN_LOG(kWarning) << "manifest unusable, cold-starting pipeline: "
                           << loaded.status().ToString();
    OBS_COUNT("pipeline.manifest_fallbacks", 1);
    manifest_ = PipelineManifest{};
  }
  // The snapshot directory is the second record of the published version:
  // after a lost or stale manifest, numbering continues above the newest
  // snapshot instead of renaming a new model over a published one.
  const auto snapshots = serve::SnapshotStore::ListSnapshots(store_->dir());
  if (!snapshots.empty() && snapshots.back().first > manifest_.version) {
    LAYERGCN_LOG(kWarning) << "manifest behind " << snapshots.back().second;
    manifest_.version = snapshots.back().first;
  }

  auto wal = InteractionWal::Open({.dir = options_.root_dir + "/wal"});
  LAYERGCN_RETURN_IF_ERROR(wal.status());
  wal_ = std::move(wal).value();
  wal_recovery_ = wal_->recovery();

  // The merged state is a pure replay of the committed sequence.
  auto replay = InteractionWal::ReadAll(wal_->dir());
  LAYERGCN_RETURN_IF_ERROR(replay.status());
  ingestor_.Apply(replay.value());

  // The manifest may be *ahead* of a freshly recovered WAL only if someone
  // deleted segments; clamp so cadence math never goes negative.
  if (manifest_.trained_events > ingestor_.accepted()) {
    manifest_.trained_events = ingestor_.accepted();
  }

  started_ = true;
  LAYERGCN_LOG(kInfo) << "pipeline recovered: " << wal_recovery_.records
                      << " WAL records (" << wal_recovery_.corrupt_records
                      << " corrupt skipped, " << wal_recovery_.torn_tails
                      << " torn tails), run " << manifest_.run_id
                      << ", serving version " << manifest_.version;
  return util::OkStatus();
}

util::Status PipelineSupervisor::Ingest(const std::vector<WalRecord>& events) {
  if (!started_) {
    return util::FailedPreconditionError("Ingest() before Start()");
  }
  if (halted_) return last_error_;
  if (events.empty()) return util::OkStatus();

  const int64_t before = wal_->committed_records();
  util::Status st;
  for (const WalRecord& ev : events) {
    st = wal_->Append(ev);
    if (!st.ok()) break;
  }
  if (st.ok()) st = wal_->Commit();

  if (!st.ok()) {
    if (st.code() == util::StatusCode::kResourceExhausted) {
      // Full disk: the recovery drill cannot help — re-appending the
      // batch needs exactly the space the disk does not have. Degrade to
      // serving-only instead of retrying into the same wall.
      return HaltIngestion(st);
    }
    // Torn commit: the in-process recovery drill. Re-open (recovery
    // truncates the torn tail), compute exactly which suffix of the batch
    // was lost, and re-append it in order — the committed sequence ends up
    // identical to an unfaulted run's. A drill that cannot restore
    // durability (disk still unwritable) halts ingestion instead of
    // crashing: the published snapshot keeps serving.
    LAYERGCN_LOG(kWarning) << "WAL commit failed (" << st.ToString()
                           << "); re-opening for recovery";
    ++counters_.wal_reopens;
    OBS_COUNT("pipeline.wal.reopens", 1);
    auto reopened = InteractionWal::Open({.dir = options_.root_dir + "/wal"});
    if (!reopened.ok()) return HaltIngestion(reopened.status());
    wal_ = std::move(reopened).value();
    const int64_t survived = wal_->committed_records() - before;
    if (survived < 0 ||
        survived > static_cast<int64_t>(events.size())) {
      return util::InternalError("WAL recovery position out of range");
    }
    for (size_t i = static_cast<size_t>(survived); i < events.size(); ++i) {
      const util::Status append = wal_->Append(events[i]);
      if (!append.ok()) return HaltIngestion(append);
    }
    const util::Status recommit = wal_->Commit();
    if (!recommit.ok()) return HaltIngestion(recommit);
  }

  ingestor_.Apply(events);
  ++counters_.ingest_batches;
  OBS_GAUGE("pipeline.events_pending_train", events_pending_train());
  return util::OkStatus();
}

util::Status PipelineSupervisor::HaltIngestion(util::Status cause) {
  halted_ = true;
  last_error_ = util::ResourceExhaustedError(
      "pipeline halted: WAL durability lost and unrecoverable in place; "
      "serving continues read-only; last error: " + cause.ToString());
  OBS_GAUGE("pipeline.supervisor.halted", 1);
  OBS_COUNT("pipeline.wal.ingest_halts", 1);
  LAYERGCN_LOG(kError)
      << "ingestion halted (serving-only degraded mode): " << cause.ToString();
  return last_error_;
}

util::Status PipelineSupervisor::StageResult(const char* stage,
                                             int* consecutive,
                                             util::Status st) {
  if (st.ok()) {
    *consecutive = 0;
    return st;
  }
  ++*consecutive;
  // OBS_COUNT caches its counter in a function-local static, so the name
  // must be a compile-time constant per call site.
  if (std::string_view(stage) == "train") {
    OBS_COUNT("pipeline.stage.train_failures", 1);
  } else {
    OBS_COUNT("pipeline.stage.publish_failures", 1);
  }
  LAYERGCN_LOG(kWarning) << "pipeline stage " << stage << " failed ("
                         << *consecutive << "/" << options_.max_stage_failures
                         << "): " << st.ToString();
  if (*consecutive >= options_.max_stage_failures) {
    halted_ = true;
    last_error_ = util::ResourceExhaustedError(
        std::string("pipeline halted: stage ") + stage +
        " exhausted its restart budget; last error: " + st.ToString());
    OBS_GAUGE("pipeline.supervisor.halted", 1);
    return last_error_;
  }
  return st;
}

util::Status PipelineSupervisor::RunCycle() {
  if (!started_) {
    return util::FailedPreconditionError("RunCycle() before Start()");
  }
  if (halted_) return last_error_;
  if (events_pending_train() < options_.min_train_events) {
    return util::OkStatus();
  }
  return TrainAndMaybePublish();
}

util::Status PipelineSupervisor::TrainAndMaybePublish() {
  // --- Stage: fine-tune --------------------------------------------------
  const uint64_t train_begin = obs::NowMicros();
  WarmStartOptions warm = options_.warm;
  warm.checkpoint_root = options_.root_dir + "/ckpt";
  warm.run_id = manifest_.run_id + 1;
  if (manifest_.run_id > 0) {
    warm.prev_checkpoint_dir =
        WarmStartTrainer::RunDir(warm.checkpoint_root, manifest_.run_id);
    warm.prev_num_users = manifest_.num_users;
    warm.prev_num_items = manifest_.num_items;
  }

  const data::Dataset dataset = [this] {
    OBS_SPAN("pipeline.build_dataset");
    return ingestor_.BuildDataset();
  }();
  const auto baseline = store_->current();
  WarmStartTrainer trainer(options_.train_config);
  auto run = trainer.Run(dataset, baseline.get(), warm);
  if (!run.ok()) {
    ++counters_.train_failures;
    return StageResult("train", &consecutive_train_failures_, run.status());
  }
  WarmStartResult result = std::move(run).value();

  // The run completed: advance the durable position even when the gate
  // refuses publication (the checkpoints exist and the events are spent).
  manifest_.run_id = warm.run_id;
  manifest_.num_users = dataset.num_users;
  manifest_.num_items = dataset.num_items;
  manifest_.trained_events = ingestor_.accepted();
  LAYERGCN_RETURN_IF_ERROR(manifest_.Save(manifest_path_));
  PruneRunDirs(warm.checkpoint_root, manifest_.run_id);
  ++counters_.runs_completed;
  OBS_COUNT("pipeline.supervisor.cycles", 1);

  OBS_GAUGE("pipeline.stage.train_us", obs::NowMicros() - train_begin);
  consecutive_train_failures_ = 0;

  if (!result.gate_passed) {
    ++counters_.gate_refusals;
    return util::OkStatus();
  }

  // --- Stage: publish ----------------------------------------------------
  const uint64_t publish_begin = obs::NowMicros();
  const int64_t version = manifest_.version + 1;
  const util::Status published =
      publisher_->Publish(result.model->GetEmbeddingView(),
                          dataset.train_graph.user_items(), version);
  if (!published.ok()) {
    ++counters_.publish_failures;
    return StageResult("publish", &consecutive_publish_failures_, published);
  }
  const uint64_t publish_us = obs::NowMicros() - publish_begin;
  OBS_GAUGE("pipeline.stage.publish_us", publish_us);
  consecutive_publish_failures_ = 0;
  manifest_.version = version;
  LAYERGCN_RETURN_IF_ERROR(manifest_.Save(manifest_path_));
  ++counters_.publishes;
  LAYERGCN_LOG(kInfo) << "published snapshot version " << version << " ("
                      << dataset.num_users << " users, " << dataset.num_items
                      << " items, R@" << options_.warm.quality_k << " "
                      << result.candidate_recall << ")";
  return util::OkStatus();
}

}  // namespace layergcn::pipeline
