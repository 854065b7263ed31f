// LayerGCN + self-supervised graph contrastive learning — the extension
// the paper names as future work (§VI: "study how self-supervised signals
// can augment the representation learning of LayerGCN").
//
// Following the SGL/SelfCF line of work the paper cites, every training
// batch adds an InfoNCE objective between two stochastically pruned views
// of the interaction graph:
//
//   z¹ = LayerGC(Â¹_p, X⁰),  z² = LayerGC(Â²_p, X⁰)      (two DegreeDrop draws)
//   L_ssl = −(1/|B|) Σ_{v∈B} log  exp(cos(z¹_v, z²_v)/τ)
//                              ───────────────────────────
//                              Σ_{w∈B} exp(cos(z¹_v, z²_w)/τ)
//
//   L = L_bpr + λ‖X⁰‖² + λ_ssl · L_ssl.
//
// The node batch B is the batch's users plus its positive items, capped at
// ssl_max_nodes to bound the |B|² similarity matrix.

#ifndef LAYERGCN_CORE_LAYERGCN_SSL_H_
#define LAYERGCN_CORE_LAYERGCN_SSL_H_

#include <memory>
#include <string>

#include "core/layergcn.h"

namespace layergcn::core {

/// Hyper-parameters of the contrastive extension.
///
/// Scale note: with the mean-reduced BPR loss of this library, the InfoNCE
/// gradient on the embedding table is roughly three orders of magnitude
/// larger than the BPR gradient at initialization (temperature
/// amplification + unit-normalized views vs a mean over ~2k triples), so
/// useful λ_ssl values are ~1e-5..1e-3 — much smaller than the 0.05-0.5
/// range quoted by SGL-style papers whose losses are summed per batch.
struct SslOptions {
  /// λ_ssl weight of the InfoNCE term.
  float weight = 1e-4f;
  /// Softmax temperature τ.
  float temperature = 0.2f;
  /// Cap on contrastive batch size (|B|² similarity matrix).
  int64_t max_nodes = 256;
};

/// LayerGCN trained jointly with a two-view graph contrastive loss.
class LayerGcnSsl : public LayerGcn {
 public:
  explicit LayerGcnSsl(const SslOptions& ssl = {},
                       const LayerGcnOptions& options = {})
      : LayerGcn(options), ssl_(ssl) {}

  std::string name() const override { return "LayerGCN-SSL"; }

  void Init(const data::Dataset& dataset, const train::TrainConfig& config,
            util::Rng* rng) override;
  void BeginEpoch(int epoch, util::Rng* rng) override;

  const SslOptions& ssl_options() const { return ssl_; }

 protected:
  ag::Var BatchLoss(ag::Tape* tape, ag::Var x0,
                    const train::BprBatch& batch, util::Rng* rng) override;

 private:
  /// Layer-refined propagation over an explicit adjacency (a view).
  ag::Var PropagateView(ag::Var x0, const sparse::CsrMatrix* adj) const;

  SslOptions ssl_;
  std::unique_ptr<graph::EdgeDropout> view_dropout_;
  sparse::CsrMatrix view1_;
  sparse::CsrMatrix view2_;
};

}  // namespace layergcn::core

#endif  // LAYERGCN_CORE_LAYERGCN_SSL_H_
