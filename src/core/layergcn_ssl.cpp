#include "core/layergcn_ssl.h"

#include <algorithm>

#include "core/refined_propagation.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace layergcn::core {

void LayerGcnSsl::Init(const data::Dataset& dataset,
                       const train::TrainConfig& config, util::Rng* rng) {
  LayerGcn::Init(dataset, config, rng);
  // The contrastive views always prune, even when the main model runs
  // without edge dropout; a moderate ratio keeps the views informative.
  const double view_ratio =
      config.edge_drop_ratio > 0.0 ? config.edge_drop_ratio : 0.1;
  view_dropout_ = std::make_unique<graph::EdgeDropout>(
      &dataset.train_graph, graph::EdgeDropKind::kDegreeDrop, view_ratio);
}

void LayerGcnSsl::BeginEpoch(int epoch, util::Rng* rng) {
  LayerGcn::BeginEpoch(epoch, rng);
  view_dropout_->SampleAdjacencyInto(rng, epoch, &view1_);
  view_dropout_->SampleAdjacencyInto(rng, epoch, &view2_);
}

ag::Var LayerGcnSsl::PropagateView(ag::Var x0,
                                   const sparse::CsrMatrix* adj) const {
  // Unlike the ranking readout (Eq. 9), the *view* representation keeps the
  // ego layer: a node whose every edge was pruned in this view would
  // otherwise have an exactly-zero embedding, and normalizing a zero vector
  // makes the InfoNCE gradient blow up by 1/eps (SGL's LightGCN backbone
  // never hits this because its mean readout includes X⁰).
  return RefinedPropagation(adj, x0, config_.num_layers, options().epsilon,
                            /*include_ego_layer=*/true);
}

ag::Var LayerGcnSsl::BatchLoss(ag::Tape* tape, ag::Var x0,
                               const train::BprBatch& batch,
                               util::Rng* rng) {
  ag::Var loss = LayerGcn::BatchLoss(tape, x0, batch, rng);
  if (ssl_.weight <= 0.f) return loss;
  LAYERGCN_CHECK(view1_.rows() > 0) << "BeginEpoch must sample the views";

  // Contrastive node batches, split by node type: pooling users and items
  // into one softmax would make every positive (u, i) pair an InfoNCE
  // negative and fight the BPR objective head-on — SGL computes the loss
  // per side for exactly this reason.
  const int32_t nu = dataset_->num_users;
  std::vector<int32_t> user_nodes, item_nodes;
  user_nodes.reserve(static_cast<size_t>(batch.size()));
  item_nodes.reserve(static_cast<size_t>(batch.size()));
  for (int64_t k = 0; k < batch.size(); ++k) {
    user_nodes.push_back(batch.users[static_cast<size_t>(k)]);
    item_nodes.push_back(batch.pos_items[static_cast<size_t>(k)] + nu);
  }
  auto prepare = [&](std::vector<int32_t>* nodes) {
    std::sort(nodes->begin(), nodes->end());
    nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
    if (static_cast<int64_t>(nodes->size()) > ssl_.max_nodes) {
      // Deterministic subsample: shuffle with the training rng, keep a
      // prefix.
      rng->Shuffle(nodes);
      nodes->resize(static_cast<size_t>(ssl_.max_nodes));
    }
  };
  prepare(&user_nodes);
  prepare(&item_nodes);

  // One propagation per view, shared by both sides.
  ag::Var view1_emb = PropagateView(x0, &view1_);
  ag::Var view2_emb = PropagateView(x0, &view2_);

  auto info_nce = [&](const std::vector<int32_t>& nodes) -> ag::Var {
    ag::Var z1 = ag::NormalizeRows(ag::GatherRows(view1_emb, nodes));
    ag::Var z2 = ag::NormalizeRows(ag::GatherRows(view2_emb, nodes));
    ag::Var sim = ag::Scale(ag::MatMul(z1, z2, false, true),
                            1.f / ssl_.temperature);
    ag::Var log_probs = ag::LogSoftmaxRows(sim);
    // −mean(diag): select the matched-view entries with an identity mask.
    tensor::Matrix eye(static_cast<int64_t>(nodes.size()),
                       static_cast<int64_t>(nodes.size()));
    for (size_t i = 0; i < nodes.size(); ++i) {
      eye(static_cast<int64_t>(i), static_cast<int64_t>(i)) = 1.f;
    }
    return ag::Scale(
        ag::Sum(ag::Hadamard(log_probs, tape->Constant(std::move(eye)))),
        -1.f / static_cast<float>(nodes.size()));
  };
  if (user_nodes.size() >= 2) {
    loss = ag::Add(loss, ag::Scale(info_nce(user_nodes), ssl_.weight));
  }
  if (item_nodes.size() >= 2) {
    loss = ag::Add(loss, ag::Scale(info_nce(item_nodes), ssl_.weight));
  }
  return loss;
}

}  // namespace layergcn::core
