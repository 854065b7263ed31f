// Shared base class for embedding-table recommenders trained with BPR.
//
// Covers BPR-MF and every GCN-style model: subclasses implement
// Propagate(), which maps the ego embedding table X⁰ to the final node
// representations X (paper Eq. 3 / Eq. 9); the base class provides the
// training loop over BPR batches (Eq. 11), the L2 penalty on X⁰ (Eq. 12),
// inference caching and inner-product scoring (Eq. 10). The BPR loss and
// the L2 penalty are one fused tape node (models/bpr_loss.h): its backward
// adds each batch row's terms into the gradients of X and X⁰ in place, with
// no dense N x T temporary, and its trajectory is bit-identical to the op
// chain it replaced.
//
// Models with a non-BPR objective (UltraGCN's constraint loss) override
// BatchLoss() instead; models that are not embedding-propagation shaped at
// all (MultiVAE, EHCF, BUIR) implement train::Recommender directly.

#ifndef LAYERGCN_MODELS_EMBEDDING_RECOMMENDER_H_
#define LAYERGCN_MODELS_EMBEDDING_RECOMMENDER_H_

#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "graph/edge_dropout.h"
#include "sparse/csr_matrix.h"
#include "train/adam.h"
#include "train/bpr_sampler.h"
#include "train/recommender.h"

namespace layergcn::models {

/// Base for all embedding-table models.
class EmbeddingRecommender : public train::Recommender {
 public:
  void Init(const data::Dataset& dataset, const train::TrainConfig& config,
            util::Rng* rng) override;
  void BeginEpoch(int epoch, util::Rng* rng) override;
  double TrainEpoch(util::Rng* rng,
                    std::vector<double>* batch_losses) override;
  void PrepareEval() override;
  tensor::Matrix ScoreUsers(const std::vector<int32_t>& users) const override;
  /// User/item blocks of the final embeddings — lets the evaluator rank
  /// through the fused blocked kernel (score = inner product, Eq. 10).
  train::EmbeddingView GetEmbeddingView() const override;
  std::vector<train::Parameter*> Params() override;

  // Checkpoint/resume hooks: Adam's step counter and the BPR sampler
  // cursor are the only mutable non-Parameter training state here.
  int64_t OptimizerSteps() const override { return adam_.step_count(); }
  void SetOptimizerSteps(int64_t steps) override {
    adam_.set_step_count(steps);
  }
  void ScaleLearningRate(double factor) override {
    adam_.set_learning_rate(config_.learning_rate * factor);
  }
  uint64_t SamplerCursor() const override;
  void SetSamplerCursor(uint64_t cursor) override;

  /// Final node embeddings computed by the last PrepareEval() (N x T', where
  /// T' may exceed the embedding dim for concat readouts).
  const tensor::Matrix& final_embeddings() const { return final_cache_; }

 protected:
  /// Whether this model prunes edges during training (LayerGCN does; the
  /// plain baselines do not). Queried once in Init().
  virtual bool UsesEdgeDropout() const { return false; }

  /// Builds extra parameters (weight matrices etc.). Default: none.
  virtual void InitExtraParams(const train::TrainConfig& config,
                               util::Rng* rng);

  /// Maps the ego table to final embeddings. `training` distinguishes the
  /// pruned training graph from the full inference graph and toggles
  /// message dropout. Must return an N x T' matrix variable.
  virtual ag::Var Propagate(ag::Tape* tape, ag::Var x0, bool training,
                            util::Rng* rng) = 0;

  /// Loss of one batch. Default: RankingLoss() over Propagate().
  virtual ag::Var BatchLoss(ag::Tape* tape, ag::Var x0,
                            const train::BprBatch& batch, util::Rng* rng);

  /// BPR over the batch's rows of the final embeddings plus λ‖X⁰‖² on the
  /// same rows of the ego table, as the one fused op models::BprLoss. Item
  /// rows arrive in node space. Virtual so the trainer oracle can run the
  /// op chain the fused op replaced (tests/test_util.h BprChain).
  virtual ag::Var RankingLoss(ag::Var final_emb, ag::Var x0,
                              std::vector<int32_t> users,
                              std::vector<int32_t> pos_rows,
                              std::vector<int32_t> neg_rows);

  /// Hook after the optimizer step of each batch. Default: none.
  virtual void AfterBatch() {}

  /// Transition matrix for the current mode: Â_p while training with edge
  /// dropout, Â otherwise (paper §III-B1: inference uses the full graph).
  const sparse::CsrMatrix* adjacency(bool training) const {
    return training && uses_dropout_ ? &pruned_adjacency_ : &full_adjacency_;
  }

  const data::Dataset* dataset_ = nullptr;
  train::TrainConfig config_;
  train::Parameter embeddings_;  // X⁰, (N_U + N_I) x T
  std::vector<train::Parameter*> extra_params_;
  train::Adam adam_;

 private:
  sparse::CsrMatrix full_adjacency_;
  sparse::CsrMatrix pruned_adjacency_;
  std::unique_ptr<graph::EdgeDropout> edge_dropout_;
  std::unique_ptr<train::BprSampler> sampler_;
  tensor::Matrix final_cache_;
  tensor::Matrix user_cache_;  // rows 0..N_U of final_cache_
  tensor::Matrix item_cache_;  // rows N_U..N_U+N_I of final_cache_
  bool uses_dropout_ = false;
};

}  // namespace layergcn::models

#endif  // LAYERGCN_MODELS_EMBEDDING_RECOMMENDER_H_
