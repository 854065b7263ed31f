#include "pipeline/supervisor.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/strings.h"

namespace layergcn::pipeline {
namespace {

constexpr char kManifestMagic[] = "LGCN-PIPE v1";

}  // namespace

util::StatusOr<PipelineManifest> PipelineManifest::Load(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return util::NotFoundError("no manifest at " + path);
  }
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

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << s << crc_line;
    out.flush();
    if (!out.good()) {
      std::remove(tmp.c_str());
      return util::UnavailableError("cannot write manifest " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::UnavailableError("cannot rename manifest into " + path);
  }
  return util::OkStatus();
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

  WalOptions wal_options;
  wal_options.dir = options_.root_dir + "/wal";
  wal_options.segment_bytes = options_.wal_segment_bytes;
  auto wal = InteractionWal::Open(wal_options);
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
    WalOptions wal_options;
    wal_options.dir = options_.root_dir + "/wal";
    wal_options.segment_bytes = options_.wal_segment_bytes;
    auto reopened = InteractionWal::Open(wal_options);
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
  ++counters_.runs_completed;
  OBS_COUNT("pipeline.supervisor.cycles", 1);

  const uint64_t train_us = obs::NowMicros() - train_begin;
  OBS_GAUGE("pipeline.stage.train_us", train_us);
  if (options_.stage_deadline_us > 0 && train_us > options_.stage_deadline_us) {
    ++counters_.deadline_overruns;
    OBS_COUNT("pipeline.stage.deadline_overruns", 1);
    // The completed work stands (state advanced above), but a chronically
    // slow stage must surface before it wedges the cadence entirely.
    const util::Status overrun = util::DeadlineExceededError(util::StrFormat(
        "train stage took %llu us (deadline %llu us)",
        static_cast<unsigned long long>(train_us),
        static_cast<unsigned long long>(options_.stage_deadline_us)));
    const util::Status escalated =
        StageResult("train", &consecutive_train_failures_, overrun);
    if (halted_) return escalated;
  } else {
    consecutive_train_failures_ = 0;
  }

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
  if (options_.gc_covered_wal_segments) {
    // The manifest now durably records that trained_events are baked into
    // the published snapshot; sealed segments below that position are
    // recovery dead weight.
    wal_->GcCoveredSegments(manifest_.trained_events);
  }
  LAYERGCN_LOG(kInfo) << "published snapshot version " << version << " ("
                      << dataset.num_users << " users, " << dataset.num_items
                      << " items, R@" << options_.warm.quality_k << " "
                      << result.candidate_recall << ")";
  return util::OkStatus();
}

}  // namespace layergcn::pipeline
