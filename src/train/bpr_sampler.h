// Mini-batch sampler for BPR training triples (paper Eq. 11).
//
// Each epoch shuffles the training interactions; each batch pairs every
// positive (u, i) with a uniformly sampled negative item j that u has not
// interacted with in training.

#ifndef LAYERGCN_TRAIN_BPR_SAMPLER_H_
#define LAYERGCN_TRAIN_BPR_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/discrete_distribution.h"
#include "util/rng.h"

namespace layergcn::train {

/// One mini-batch of (user, positive item, negative item) triples.
struct BprBatch {
  std::vector<int32_t> users;
  std::vector<int32_t> pos_items;
  std::vector<int32_t> neg_items;

  int64_t size() const { return static_cast<int64_t>(users.size()); }
};

/// How negative items are drawn.
enum class NegativeSampling {
  kUniform,     // uniform over the item universe (paper's protocol)
  kPopularity,  // ∝ degree^0.75 (word2vec-style popularity sampling):
                // harder negatives, less long-tail pessimism
};

/// Epoch-based triple sampler over a training graph.
class BprSampler {
 public:
  /// `graph` must outlive the sampler and have at least one edge and two
  /// items (otherwise no negative can exist for some user).
  explicit BprSampler(const graph::BipartiteGraph* graph,
                      NegativeSampling strategy = NegativeSampling::kUniform);

  /// Starts a new pass: shuffles the interaction order.
  void BeginEpoch(util::Rng* rng);

  /// Fills `batch` with up to `batch_size` triples; returns false when the
  /// epoch is exhausted (batch left empty).
  bool NextBatch(int64_t batch_size, util::Rng* rng, BprBatch* batch);

  /// Number of batches a full epoch yields for the given size (>= 1).
  int64_t NumBatches(int64_t batch_size) const;

  /// Position in the shuffled edge order (checkpoint state). At an epoch
  /// boundary this equals num_edges; BeginEpoch resets it to 0.
  uint64_t cursor() const { return static_cast<uint64_t>(cursor_); }
  void set_cursor(uint64_t cursor) { cursor_ = static_cast<size_t>(cursor); }

 private:
  int32_t SampleNegative(int32_t user, util::Rng* rng) const;

  const graph::BipartiteGraph* graph_;
  NegativeSampling strategy_;
  util::DiscreteDistribution popularity_;  // kPopularity only
  std::vector<int64_t> order_;             // shuffled edge indices
  size_t cursor_ = 0;
};

}  // namespace layergcn::train

#endif  // LAYERGCN_TRAIN_BPR_SAMPLER_H_
