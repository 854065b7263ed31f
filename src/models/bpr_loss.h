// The BPR ranking loss plus the L2 penalty on the batch's ego rows (paper
// Eqs. 11-12) as one autograd op.
//
//   loss = mean_k softplus(<e_u, e_j> − <e_u, e_i>)
//          + λ/B · (‖X⁰_U‖² + ‖X⁰_I‖² + ‖X⁰_J‖²)
//
// over the B triples k = (u, i, j), whose rows index the readout E and the
// ego table X⁰. The forward reads the rows by index and builds nothing of
// size B x T. The backward adds each row's terms straight into the
// gradient buffers of E and X⁰ (Tape::GradBuffer), where the op chain it
// replaced built one zero-filled N x T matrix per gathered input and added
// each into the buffer.
//
// Contract: the loss and both gradients are bit-identical to that chain,
// GatherRows ×6 → RowDots ×2 → Sub → Softplus → Mean, SumSquares ×3 →
// AddN → Scale → Add (`testing::BprChain`, DESIGN.md §8). Every pass
// evaluates the chain's expressions in the chain's precision; X⁰ receives
// its terms for the negative, positive and user rows, then E the same; and
// a row listed several times gets the sum of its terms, taken in batch
// order from +0, in one add.

#ifndef LAYERGCN_MODELS_BPR_LOSS_H_
#define LAYERGCN_MODELS_BPR_LOSS_H_

#include <cstdint>
#include <vector>

#include "autograd/tape.h"

namespace layergcn::models {

/// BPR over the triples (users[k], pos_rows[k], neg_rows[k]), rows of
/// `readout`, plus, when `l2_reg` > 0, l2_reg / B times the squared norm
/// of the same rows of `x0`. The lists must have the same, non-zero
/// length; item rows are node rows (offset by N_U). Returns a 1x1 loss.
ag::Var BprLoss(ag::Var readout, ag::Var x0, std::vector<int32_t> users,
                std::vector<int32_t> pos_rows, std::vector<int32_t> neg_rows,
                double l2_reg);

}  // namespace layergcn::models

#endif  // LAYERGCN_MODELS_BPR_LOSS_H_
