// LayerGCN's refined layers and readout (paper Eqs. 6-9) as one autograd op.
//
//   H^l = Â X^{l-1},   a^l = cos(H^l, X⁰) row-wise,   X^l = (a^l + ε) ⊙_rows H^l
//   out = Σ_{l=1..L} X^l   (+ X⁰ when the ego layer is kept)
//
// Per layer the forward runs one SpMM and one row pass that takes the
// cosine from <h, x0> and |h|² (|x0|² is computed once per call), writes
// X^l and adds it to the readout. It keeps H^l and three per-row scalars
// per layer; X^l lives only until the next layer's SpMM. The backward
// walks the layers in reverse with the closed-form derivative: one <g, h>
// dot per row, one pass that writes dH and adds the X⁰ term, then one SpMM.
//
// Contract: values and X⁰'s gradient are bit-identical to the four-op chain
// SpMMSymmetric → RowwiseCosine → AddScalar → ScaleRows per layer plus an
// AddN readout. Every pass evaluates the chain's expressions in the chain's
// precision, and X⁰'s gradient terms land in the order the chain's nodes
// would add them: the ego readout term, then the cosine term of layers
// L..1, then Â·dH¹ (DESIGN.md §8).

#ifndef LAYERGCN_CORE_REFINED_PROPAGATION_H_
#define LAYERGCN_CORE_REFINED_PROPAGATION_H_

#include <vector>

#include "autograd/tape.h"
#include "sparse/csr_matrix.h"

namespace layergcn::core {

/// Runs `num_layers` refined layers from `x0` over the symmetric `adj` (the
/// backward reuses it as Âᵀ) and returns their sum readout, with X⁰ as its
/// first term when `include_ego_layer`. `num_layers` may be 0 only with the
/// ego layer kept. When `mean_similarities` is given, the mean of each
/// layer's a^l is appended to it (Fig. 5). `adj` must outlive the tape.
ag::Var RefinedPropagation(const sparse::CsrMatrix* adj, ag::Var x0,
                           int num_layers, float epsilon,
                           bool include_ego_layer,
                           std::vector<double>* mean_similarities = nullptr);

}  // namespace layergcn::core

#endif  // LAYERGCN_CORE_REFINED_PROPAGATION_H_
