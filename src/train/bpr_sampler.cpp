#include "train/bpr_sampler.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "util/logging.h"

namespace layergcn::train {

BprSampler::BprSampler(const graph::BipartiteGraph* graph,
                       NegativeSampling strategy)
    : graph_(graph), strategy_(strategy) {
  LAYERGCN_CHECK(graph != nullptr);
  LAYERGCN_CHECK_GT(graph->num_edges(), 0);
  order_.resize(static_cast<size_t>(graph->num_edges()));
  for (size_t k = 0; k < order_.size(); ++k) {
    order_[k] = static_cast<int64_t>(k);
  }
  if (strategy_ == NegativeSampling::kPopularity) {
    std::vector<double> w(static_cast<size_t>(graph->num_items()));
    for (int32_t i = 0; i < graph->num_items(); ++i) {
      // degree^0.75, smoothed so zero-degree items stay sampleable.
      w[static_cast<size_t>(i)] =
          std::pow(static_cast<double>(graph->ItemDegree(i)) + 1.0, 0.75);
    }
    popularity_ = util::DiscreteDistribution(w);
  }
}

void BprSampler::BeginEpoch(util::Rng* rng) {
  // Re-seed the permutation with the identity before shuffling: the epoch's
  // edge order must be a pure function of the incoming RNG state, not of
  // the shuffle history, or a checkpoint-resumed run (fresh sampler, same
  // RNG state) would draw different batches than the uninterrupted one.
  for (size_t k = 0; k < order_.size(); ++k) {
    order_[k] = static_cast<int64_t>(k);
  }
  rng->Shuffle(&order_);
  cursor_ = 0;
}

int32_t BprSampler::SampleNegative(int32_t user, util::Rng* rng) const {
  const auto& items = graph_->user_items()[static_cast<size_t>(user)];
  const int32_t num_items = graph_->num_items();
  LAYERGCN_CHECK_LT(static_cast<int32_t>(items.size()), num_items)
      << "user " << user << " has interacted with every item";
  uint64_t rejected = 0;
  for (;;) {
    const int32_t j =
        strategy_ == NegativeSampling::kPopularity
            ? static_cast<int32_t>(popularity_.Sample(rng))
            : static_cast<int32_t>(
                  rng->NextBounded(static_cast<uint64_t>(num_items)));
    if (!std::binary_search(items.begin(), items.end(), j)) {
      OBS_COUNT("bpr.neg_sampled", rejected + 1);
      if (rejected > 0) OBS_COUNT("bpr.neg_rejected", rejected);
      return j;
    }
    ++rejected;
  }
}

bool BprSampler::NextBatch(int64_t batch_size, util::Rng* rng,
                           BprBatch* batch) {
  batch->users.clear();
  batch->pos_items.clear();
  batch->neg_items.clear();
  if (cursor_ >= order_.size()) return false;
  const size_t end =
      std::min(order_.size(), cursor_ + static_cast<size_t>(batch_size));
  batch->users.reserve(end - cursor_);
  batch->pos_items.reserve(end - cursor_);
  batch->neg_items.reserve(end - cursor_);
  const auto& edge_users = graph_->edge_users();
  const auto& edge_items = graph_->edge_items();
  for (; cursor_ < end; ++cursor_) {
    const int64_t e = order_[cursor_];
    const int32_t u = edge_users[static_cast<size_t>(e)];
    batch->users.push_back(u);
    batch->pos_items.push_back(edge_items[static_cast<size_t>(e)]);
    batch->neg_items.push_back(SampleNegative(u, rng));
  }
  OBS_COUNT("bpr.triples", batch->users.size());
  return true;
}

int64_t BprSampler::NumBatches(int64_t batch_size) const {
  LAYERGCN_CHECK_GE(batch_size, 1) << "batch size must be positive";
  const int64_t m = graph_->num_edges();
  return (m + batch_size - 1) / batch_size;
}

}  // namespace layergcn::train
