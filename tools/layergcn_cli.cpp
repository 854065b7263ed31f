// layergcn_cli — train and evaluate any model in the zoo from the command
// line, on a CSV interaction log or a synthetic benchmark dataset, and
// optionally export top-K recommendations.
//
// Examples:
//   layergcn_cli --dataset=mooc --model=LayerGCN
//   layergcn_cli --data=events.csv --model=LightGCN --layers=3 --epochs=100
//   layergcn_cli --dataset=yelp --scale=2 --out=recs.csv --topk=10
//
// Run with --help for the full flag list.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <filesystem>

#include "core/api.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "serve/snapshot.h"
#include "train/checkpoint.h"
#include "train/stop_token.h"
#include "util/parallel.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/thread_pool.h"

using namespace layergcn;

namespace {

struct Flags {
  std::string model = "LayerGCN";
  std::string dataset;        // synthetic preset name
  std::string data_path;      // CSV path (user,item,timestamp)
  double scale = 1.0;
  uint64_t seed = 42;

  int dim = 64;
  int layers = 4;
  double lr = 1e-3;
  double l2 = 1e-4;
  double dropout = 0.1;
  std::string dropkind = "degreedrop";
  int64_t batch = 2048;
  int epochs = 200;
  int patience = 50;

  std::string ks = "10,20,50";
  std::string out_path;    // recommendations CSV
  std::string save_path;   // checkpoint to write after training
  std::string load_path;   // checkpoint to restore instead of training
  std::string export_snapshot_dir;  // serving snapshot directory
  std::string snapshot_encoding = "all";  // quant sections: all|f32|int8|bf16
  int topk = 10;
  bool verbose = false;
  int threads = 0;  // 0 = hardware concurrency / LAYERGCN_NUM_THREADS

  std::string checkpoint_dir;  // rotating fault-tolerance checkpoints
  int checkpoint_every = 1;
  int keep_checkpoints = 3;
  bool resume = false;
  int64_t max_malformed = 0;  // tolerated malformed CSV rows

  std::string trace_out;      // Chrome trace-event JSON
  std::string metrics_out;    // metrics snapshot JSON
  std::string telemetry_out;  // per-epoch JSONL telemetry
};

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s [flags]\n"
      "data source (one of):\n"
      "  --dataset=NAME     synthetic preset: mooc|games|food|yelp\n"
      "  --data=PATH        CSV of user,item,timestamp rows\n"
      "  --scale=F          synthetic dataset scale (default 1.0)\n"
      "model:\n"
      "  --model=NAME       %s\n"
      "                     (default LayerGCN)\n"
      "hyper-parameters:\n"
      "  --dim=N --layers=N --lr=F --l2=F --batch=N\n"
      "  --dropout=F --dropkind=none|dropedge|degreedrop|mixed\n"
      "  --epochs=N --patience=N --seed=N\n"
      "evaluation / output:\n"
      "  --ks=10,20,50      metric cutoffs\n"
      "  --out=PATH         write top-K recommendations CSV\n"
      "  --topk=N           recommendations per user (default 10)\n"
      "  --save=PATH        write a parameter checkpoint after training\n"
      "  --load=PATH        restore a checkpoint and skip training\n"
      "  --export-snapshot=DIR write a serving snapshot (snap-NNNNNN.lgcn,\n"
      "                     versioned by best epoch) for layergcn_serve\n"
      "  --snapshot-encoding=all|f32|int8|bf16  which quantized embedding\n"
      "                     copies ride along in the snapshot (default all;\n"
      "                     the f32 reference is always written)\n"
      "  --verbose          per-epoch logging\n"
      "  --threads=N        compute threads (default: LAYERGCN_NUM_THREADS\n"
      "                     env var, else hardware concurrency); results are\n"
      "                     bit-identical for every N\n"
      "fault tolerance:\n"
      "  --checkpoint-dir=DIR rotating full-state training checkpoints\n"
      "  --checkpoint-every=N checkpoint write cadence in epochs (default 1)\n"
      "  --keep-checkpoints=N retain the newest N checkpoints (default 3)\n"
      "  --resume             resume from the newest valid checkpoint;\n"
      "                       the resumed run is bit-identical to an\n"
      "                       uninterrupted one\n"
      "  --max-malformed=N    tolerate up to N malformed CSV rows, skipped\n"
      "                       with a warning (default 0 = strict)\n"
      "observability:\n"
      "  --trace-out=PATH     Chrome trace-event JSON (chrome://tracing)\n"
      "  --metrics-out=PATH   final metrics snapshot JSON\n"
      "  --telemetry-out=PATH per-epoch JSONL training telemetry\n",
      argv0, "BPR|MultiVAE|EHCF|BUIR|NGCF|LR-GCCF|LightGCN|UltraGCN|"
             "IMP-GCN|LayerGCN|LayerGCN-noDrop");
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    auto as_double = [&](double* out) {
      return util::ParseDouble(value, out);
    };
    auto as_int = [&](auto* out) {
      int64_t v;
      if (!util::ParseInt64(value, &v)) return false;
      *out = static_cast<std::remove_pointer_t<decltype(out)>>(v);
      return true;
    };
    bool ok = true;
    if (key == "--help" || key == "-h") {
      PrintUsage(argv[0]);
      std::exit(0);
    } else if (key == "--model") {
      flags->model = value;
    } else if (key == "--dataset") {
      flags->dataset = value;
    } else if (key == "--data") {
      flags->data_path = value;
    } else if (key == "--scale") {
      ok = as_double(&flags->scale);
    } else if (key == "--seed") {
      ok = as_int(&flags->seed);
    } else if (key == "--dim") {
      ok = as_int(&flags->dim) && flags->dim >= 1;
    } else if (key == "--layers") {
      ok = as_int(&flags->layers) && flags->layers >= 1;
    } else if (key == "--lr") {
      ok = as_double(&flags->lr);
    } else if (key == "--l2") {
      ok = as_double(&flags->l2);
    } else if (key == "--dropout") {
      ok = as_double(&flags->dropout);
    } else if (key == "--dropkind") {
      flags->dropkind = value;
    } else if (key == "--batch") {
      ok = as_int(&flags->batch) && flags->batch >= 1;
    } else if (key == "--epochs") {
      ok = as_int(&flags->epochs);
    } else if (key == "--patience") {
      ok = as_int(&flags->patience);
    } else if (key == "--ks") {
      flags->ks = value;
    } else if (key == "--out") {
      flags->out_path = value;
    } else if (key == "--save") {
      flags->save_path = value;
    } else if (key == "--load") {
      flags->load_path = value;
    } else if (key == "--export-snapshot") {
      flags->export_snapshot_dir = value;
    } else if (key == "--snapshot-encoding") {
      ok = value == "all" || value == "f32" || value == "int8" ||
           value == "bf16";
      flags->snapshot_encoding = value;
    } else if (key == "--topk") {
      ok = as_int(&flags->topk);
    } else if (key == "--verbose") {
      flags->verbose = true;
    } else if (key == "--threads") {
      ok = as_int(&flags->threads) && flags->threads >= 0;
    } else if (key == "--checkpoint-dir") {
      flags->checkpoint_dir = value;
    } else if (key == "--checkpoint-every") {
      ok = as_int(&flags->checkpoint_every) && flags->checkpoint_every >= 1;
    } else if (key == "--keep-checkpoints") {
      ok = as_int(&flags->keep_checkpoints) && flags->keep_checkpoints >= 1;
    } else if (key == "--resume") {
      flags->resume = true;
    } else if (key == "--max-malformed") {
      ok = as_int(&flags->max_malformed) && flags->max_malformed >= 0;
    } else if (key == "--trace-out") {
      flags->trace_out = value;
    } else if (key == "--metrics-out") {
      flags->metrics_out = value;
    } else if (key == "--telemetry-out") {
      flags->telemetry_out = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", key.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s: '%s'\n", key.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (flags->dataset.empty() == flags->data_path.empty()) {
    std::fprintf(stderr,
                 "exactly one of --dataset or --data must be given\n");
    return false;
  }
  if (flags->resume && flags->checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    PrintUsage(argv[0]);
    return 1;
  }

  // Optional fixed-width compute pool. The deterministic parallel layer
  // guarantees bit-identical results for every width, so --threads is purely
  // a performance knob.
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<util::parallel::ScopedComputePool> pool_scope;
  if (flags.threads > 0) {
    pool = std::make_unique<util::ThreadPool>(flags.threads);
    pool_scope =
        std::make_unique<util::parallel::ScopedComputePool>(pool.get());
  }

  // Observability sinks: metrics are on whenever any sink is requested,
  // trace recording only with --trace-out (it buffers every span).
  if (!flags.metrics_out.empty() || !flags.telemetry_out.empty() ||
      !flags.trace_out.empty()) {
    obs::SetEnabled(true);
  }
  if (!flags.trace_out.empty()) obs::SetTraceEnabled(true);

  // --- Data ---
  data::Dataset dataset;
  if (!flags.dataset.empty()) {
    dataset =
        data::MakeBenchmarkDataset(flags.dataset, flags.scale, flags.seed);
  } else {
    int32_t num_users = 0, num_items = 0;
    data::LoaderOptions loader_options;
    loader_options.max_malformed = flags.max_malformed;
    data::LoadStats load_stats;
    auto interactions = data::LoadInteractionsOr(
        flags.data_path, loader_options, &num_users, &num_items, &load_stats);
    if (!interactions.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", flags.data_path.c_str(),
                   interactions.status().ToString().c_str());
      return 1;
    }
    if (load_stats.rows_malformed > 0) {
      std::printf("skipped %lld malformed row(s) of %lld\n",
                  static_cast<long long>(load_stats.rows_malformed),
                  static_cast<long long>(load_stats.rows_total));
    }
    dataset = data::ChronologicalSplitDataset(
        flags.data_path, num_users, num_items,
        std::move(interactions).value());
  }
  std::printf("%s\n", dataset.Summary().c_str());

  // --- Config ---
  train::TrainConfig cfg;
  cfg.embedding_dim = flags.dim;
  cfg.num_layers = flags.layers;
  cfg.learning_rate = flags.lr;
  cfg.l2_reg = flags.l2;
  cfg.batch_size = flags.batch;
  cfg.edge_drop_ratio = flags.dropout;
  cfg.edge_drop_kind = graph::EdgeDropKindFromString(flags.dropkind);
  cfg.max_epochs = flags.epochs;
  cfg.early_stop_patience = flags.patience;
  cfg.seed = flags.seed;

  std::vector<int> ks;
  for (const std::string& part : util::Split(flags.ks, ',')) {
    int64_t k;
    if (!util::ParseInt64(part, &k) || k <= 0) {
      std::fprintf(stderr, "bad --ks entry: '%s'\n", part.c_str());
      return 1;
    }
    ks.push_back(static_cast<int>(k));
  }

  // --- Train (or restore) ---
  auto model = core::CreateModel(flags.model);
  int exit_code = 0;
  int64_t snapshot_version = 0;  // best epoch when trained; 0 when restored
  if (!flags.load_path.empty()) {
    // Restore: initialize the architecture, then load the checkpoint and
    // evaluate without training.
    util::Rng rng(cfg.seed);
    model->Init(dataset, core::AdaptConfig(flags.model, cfg), &rng);
    model->BeginEpoch(1, &rng);
    const util::StatusOr<int> restored =
        train::LoadCheckpointV2(flags.load_path, model->Params(), nullptr);
    if (!restored.ok()) {
      std::fprintf(stderr, "cannot restore %s: %s\n", flags.load_path.c_str(),
                   restored.status().ToString().c_str());
      return 1;
    }
    std::printf("restored %d parameters from %s\n", restored.value(),
                flags.load_path.c_str());
    const eval::RankingMetrics m = train::EvaluateRecommender(
        model.get(), dataset, ks, eval::EvalSplit::kTest);
    std::printf("test: %s\n", m.ToString().c_str());
  } else {
    train::TrainOptions options;
    options.report_ks = ks;
    options.verbose = flags.verbose;
    options.telemetry_path = flags.telemetry_out;
    options.checkpoint_dir = flags.checkpoint_dir;
    options.checkpoint_every = flags.checkpoint_every;
    options.keep_checkpoints = flags.keep_checkpoints;
    options.resume = flags.resume;
    // SIGINT/SIGTERM stop training at the next batch boundary after writing
    // a resumable checkpoint, instead of killing the process mid-write.
    train::InstallStopSignalHandlers();
    const train::TrainResult result = train::FitRecommender(
        model.get(), dataset, core::AdaptConfig(flags.model, cfg), options);
    if (!result.status.ok()) {
      std::fprintf(stderr, "training failed: %s\n",
                   result.status.ToString().c_str());
      return 1;
    }
    if (result.interrupted) {
      std::printf("training interrupted after epoch %d%s\n",
                  result.epochs_run,
                  flags.checkpoint_dir.empty()
                      ? ""
                      : "; rerun with --resume to continue");
      exit_code = 2;
    }
    snapshot_version = result.best_epoch;
    std::printf("model=%s best_epoch=%d epochs_run=%d train_time=%.1fs\n",
                flags.model.c_str(), result.best_epoch, result.epochs_run,
                result.train_seconds);
    if (result.start_epoch > 1) {
      std::printf("resumed at epoch %d\n", result.start_epoch);
    }
    if (result.watchdog_rollbacks > 0) {
      std::printf("watchdog rollbacks: %d\n", result.watchdog_rollbacks);
    }
    std::printf("test: %s\n", result.test_metrics.ToString().c_str());
    if (!result.telemetry_path.empty()) {
      std::printf("wrote telemetry to %s\n", result.telemetry_path.c_str());
    }
    if (!flags.save_path.empty()) {
      const util::Status saved =
          train::SaveCheckpointV2(flags.save_path, model->Params(), nullptr);
      if (!saved.ok()) {
        std::fprintf(stderr, "cannot save %s: %s\n", flags.save_path.c_str(),
                     saved.ToString().c_str());
        return 1;
      }
      std::printf("saved checkpoint to %s\n", flags.save_path.c_str());
    }
  }

  // --- Export serving snapshot ---
  if (!flags.export_snapshot_dir.empty()) {
    model->PrepareEval();
    const train::EmbeddingView view = model->GetEmbeddingView();
    if (!view.valid()) {
      std::fprintf(stderr,
                   "--export-snapshot needs an inner-product model with an "
                   "embedding view; %s has none\n",
                   flags.model.c_str());
      return 1;
    }
    train::ServingExport ex;
    ex.version = snapshot_version;
    // The view's user block may be a node matrix with trailing non-user
    // rows; the snapshot carries exactly one row per user id.
    ex.user_emb = tensor::Matrix(dataset.num_users, view.user->cols());
    for (int32_t u = 0; u < dataset.num_users; ++u) {
      const float* src = view.user->row(u);
      float* dst = ex.user_emb.row(u);
      for (int64_t c = 0; c < view.user->cols(); ++c) dst[c] = src[c];
    }
    ex.item_emb = *view.item;
    ex.user_history = dataset.train_graph.user_items();
    ex.write_int8 = flags.snapshot_encoding == "all" ||
                    flags.snapshot_encoding == "int8";
    ex.write_bf16 = flags.snapshot_encoding == "all" ||
                    flags.snapshot_encoding == "bf16";
    std::error_code ec;
    std::filesystem::create_directories(flags.export_snapshot_dir, ec);
    const std::string snap_path = serve::SnapshotStore::SnapshotPath(
        flags.export_snapshot_dir, ex.version);
    const util::Status saved = train::SaveServingExport(snap_path, ex);
    if (!saved.ok()) {
      std::fprintf(stderr, "cannot export snapshot %s: %s\n",
                   snap_path.c_str(), saved.ToString().c_str());
      return 1;
    }
    std::printf("exported serving snapshot to %s\n", snap_path.c_str());
  }

  // --- Export recommendations ---
  if (!flags.out_path.empty()) {
    std::ofstream out(flags.out_path);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", flags.out_path.c_str());
      return 1;
    }
    out << "user,rank,item,score\n";
    model->PrepareEval();
    for (int32_t u = 0; u < dataset.num_users; ++u) {
      if (dataset.train_graph.UserDegree(u) == 0) continue;
      const tensor::Matrix scores = model->ScoreUsers({u});
      std::vector<bool> seen(static_cast<size_t>(dataset.num_items), false);
      for (int32_t i :
           dataset.train_graph.user_items()[static_cast<size_t>(u)]) {
        seen[static_cast<size_t>(i)] = true;
      }
      const auto top = eval::TopKIndices(scores.row(0), dataset.num_items,
                                         flags.topk, &seen);
      for (size_t r = 0; r < top.size(); ++r) {
        out << u << "," << (r + 1) << "," << top[r] << ","
            << scores(0, top[r]) << "\n";
      }
    }
    std::printf("wrote top-%d recommendations to %s\n", flags.topk,
                flags.out_path.c_str());
  }

  // --- Export observability sinks ---
  if (!flags.metrics_out.empty()) {
    if (!obs::MetricsRegistry::Global().WriteSnapshotJson(flags.metrics_out)) {
      std::fprintf(stderr, "cannot write %s\n", flags.metrics_out.c_str());
      return 1;
    }
    std::printf("wrote metrics snapshot to %s\n", flags.metrics_out.c_str());
  }
  if (!flags.trace_out.empty()) {
    if (!obs::TraceRecorder::Global().WriteChromeTrace(flags.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", flags.trace_out.c_str());
      return 1;
    }
    std::printf("wrote %lld trace events to %s (load in chrome://tracing)\n",
                static_cast<long long>(obs::TraceRecorder::Global().NumEvents()),
                flags.trace_out.c_str());
  }
  return exit_code;
}
