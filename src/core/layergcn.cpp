#include "core/layergcn.h"

#include "core/refined_propagation.h"

namespace layergcn::core {

ag::Var LayerGcn::Propagate(ag::Tape* /*tape*/, ag::Var x0, bool training,
                            util::Rng* /*rng*/) {
  // Paper §III-B1: train on the pruned Â_p, infer on the full Â. The
  // inference_on_full_graph=false ablation evaluates on Â_p instead.
  const bool use_training_graph =
      training || !options_.inference_on_full_graph;
  const sparse::CsrMatrix* adj = adjacency(use_training_graph);

  ag::Var out;
  if (options_.refinement == Refinement::kCosine) {
    // Eq. 6-9 as one op: X^{l+1} = (cos(H, X⁰) + ε) ⊙_rows H, summed.
    std::vector<double> mean_similarities;
    const bool record = !training && options_.record_layer_similarities;
    out = RefinedPropagation(adj, x0, config_.num_layers, options_.epsilon,
                             options_.include_ego_layer,
                             record ? &mean_similarities : nullptr);
    if (!mean_similarities.empty()) {
      similarity_history_.push_back(std::move(mean_similarities));
    }
  } else {
    std::vector<ag::Var> layers;
    if (options_.include_ego_layer) layers.push_back(x0);
    ag::Var x = x0;
    for (int l = 0; l < config_.num_layers; ++l) {
      ag::Var h = ag::SpMMSymmetric(adj, x);
      // kNone: plain LightGCN propagation. kFixedAlpha: GCNII-style
      // initial residual X^{l+1} = (1−α)H + αX⁰.
      x = options_.refinement == Refinement::kNone
              ? h
              : ag::Add(ag::Scale(h, 1.f - options_.fixed_alpha),
                        ag::Scale(x0, options_.fixed_alpha));
      layers.push_back(x);
    }
    out = ag::AddN(layers);
  }
  if (options_.readout == Readout::kMean) {
    const int terms =
        config_.num_layers + (options_.include_ego_layer ? 1 : 0);
    out = ag::Scale(out, 1.f / static_cast<float>(terms));
  }
  return out;
}

}  // namespace layergcn::core
