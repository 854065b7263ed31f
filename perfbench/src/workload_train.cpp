// train: the paper's training setup on the yelp-like preset, closed loop.
// One op is one epoch (BeginEpoch + TrainEpoch). Graph, sparse, autograd,
// core and train do nearly all their work here; serve and pipeline none.

#include <memory>
#include <vector>

#include "checks.h"
#include "core/layergcn.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "obs/obs.h"
#include "util/parallel.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace data = layergcn::data;
namespace train = layergcn::train;
namespace util = layergcn::util;

// Widths 2 and 4 gave bimodal epoch times on a 4-vCPU host; one worker
// (kernels run inline on the calling thread) is steady.
constexpr int kPoolWidth = 1;
// Set-ups timed before the measured phase, and again after it: the host
// runs at two speeds in blocks of seconds, and one block should not decide
// the median.
constexpr int kSetupReps = 5;
// recall20 is read after this epoch, so every run trains at least this many.
constexpr int kRecallEpoch = 12;

train::TrainConfig PaperConfig(uint64_t seed) {
  train::TrainConfig cfg;
  cfg.embedding_dim = 64;
  cfg.num_layers = 4;
  cfg.batch_size = 2048;
  cfg.edge_drop_kind = layergcn::graph::EdgeDropKind::kDegreeDrop;
  cfg.edge_drop_ratio = 0.1;
  cfg.seed = seed;
  return cfg;
}

struct Trainee {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<layergcn::core::LayerGcn> model;
  std::unique_ptr<util::Rng> rng;
};

Trainee SetUp(double scale, uint64_t seed) {
  Trainee t;
  t.dataset = std::make_unique<data::Dataset>(
      data::MakeBenchmarkDataset("yelp", scale, seed));
  t.model = std::make_unique<layergcn::core::LayerGcn>();
  t.rng = std::make_unique<util::Rng>(seed);
  t.model->Init(*t.dataset, PaperConfig(seed), t.rng.get());
  return t;
}

double ValidationRecall20(Trainee* t) {
  t->model->PrepareEval();
  const train::EmbeddingView view = t->model->GetEmbeddingView();
  const layergcn::eval::Evaluator evaluator(t->dataset.get(), {20});
  return evaluator
      .Evaluate(*view.user, *view.item, layergcn::eval::EvalSplit::kValidation)
      .recall.at(20);
}

}  // namespace

RunResult RunTrain(const Args& args) {
  util::ThreadPool pool(kPoolWidth);
  util::parallel::ScopedComputePool scoped(&pool);
  PinThreads(&pool);
  layergcn::obs::SetEnabled(false);
  const double scale = args.smoke ? 0.1 : 1.0;

  EndToEnd e;
  Trainee t;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    t = Trainee{};  // release the previous repetition before the next
    const uint64_t t0 = NowUs();
    t = SetUp(scale, args.seed);
    e.setup_s.push_back(static_cast<double>(NowUs() - t0) * 1e-6);
  }

  RunResult out;
  Layers l;
  ResetPeakRss();
  const HostCpuSample host0 = SampleHostCpu();
  l.proc0 = SampleProcess();
  RegistryDelta registry;
  const uint64_t start = NowUs();
  const uint64_t end = start + static_cast<uint64_t>(args.seconds * 1e6);
  for (int epoch = 1; epoch <= kRecallEpoch || NowUs() < end; ++epoch) {
    const bool traced = args.trace && epoch % 2 == 0;
    layergcn::obs::SetEnabled(traced);
    const uint64_t t0 = NowUs();
    t.model->BeginEpoch(epoch, t.rng.get());
    const double loss = t.model->TrainEpoch(t.rng.get(), nullptr);
    const double ms = static_cast<double>(NowUs() - t0) * 1e-3;
    layergcn::obs::SetEnabled(false);
    (traced ? l.traced_ms : l.untraced_ms).push_back(ms);
    const bool ok = LossIsFinite(loss);
    out.CountOp(ok);
    e.good += ok;
    if (epoch == kRecallEpoch && !args.trace) {
      e.recall20 = ValidationRecall20(&t);
    }
  }
  e.good_seconds = static_cast<double>(NowUs() - start) * 1e-6;
  registry.Finish();
  e.peak_rss_mb = PeakRssMiB();
  for (int rep = 0; rep < kSetupReps && !args.trace; ++rep) {
    const uint64_t t0 = NowUs();
    const Trainee again = SetUp(scale, args.seed);
    e.setup_s.push_back(static_cast<double>(NowUs() - t0) * 1e-6);
  }
  l.proc1 = SampleProcess();
  l.ops = out.attempted;
  l.steal_share = StealShare(host0, SampleHostCpu());
  PrintDiagnostics("train", kPoolWidth, l.steal_share, 0.0);

  if (!args.trace) {
    e.op_ms = l.untraced_ms;
    AddEndToEnd(e, &out);
  } else {
    l.traced_ops = static_cast<int64_t>(l.traced_ms.size());
    AddLayers(registry, l, &out);
  }
  return out;
}

}  // namespace perfbench
