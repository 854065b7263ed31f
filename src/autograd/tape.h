// Tape-based reverse-mode automatic differentiation over tensor::Matrix.
//
// Usage pattern (one tape per training step):
//
//   ag::Tape tape;
//   ag::Var x0 = tape.Parameter(&emb.value, &emb.grad);   // leaf
//   ag::Var h  = ag::SpMMSymmetric(&adj, x0);             // ops build graph
//   ag::Var l  = ag::Mean(ag::Softplus(...));
//   tape.Backward(l);                                     // fills emb.grad
//
// Leaves created with Parameter() reference external value storage and
// accumulate their gradients into an external sink matrix, so parameters
// persist across steps while the tape itself is throwaway. Ops are free
// functions in autograd/ops.h. Backward functions only run for nodes whose
// gradient is actually reached from the loss, and gradient buffers are
// allocated lazily, so untouched subgraphs cost nothing in the backward
// pass.

#ifndef LAYERGCN_AUTOGRAD_TAPE_H_
#define LAYERGCN_AUTOGRAD_TAPE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/matrix.h"

namespace layergcn::ag {

using tensor::Matrix;

class Tape;

/// Lightweight handle to a node on a tape.
struct Var {
  Tape* tape = nullptr;
  int32_t id = -1;

  bool valid() const { return tape != nullptr && id >= 0; }
};

/// The autodiff tape: owns node values, gradients, and backward closures.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Registers a differentiable leaf whose value lives in *value (not
  /// copied; must outlive the tape). After Backward(), the leaf's gradient
  /// is accumulated into *grad_sink, which must have the same shape.
  Var Parameter(const Matrix* value, Matrix* grad_sink);

  /// Registers a non-differentiable leaf holding `value`.
  Var Constant(Matrix value);

  /// Value of a node.
  const Matrix& value(Var v) const;

  /// True if gradients flow through this node.
  bool requires_grad(Var v) const;

  /// Gradient buffer of a node after Backward(); empty Matrix if no
  /// gradient reached it.
  const Matrix& grad(Var v) const;

  /// Runs reverse-mode accumulation from `loss`, which must be 1x1. May be
  /// called once per tape.
  void Backward(Var loss);

  /// Number of nodes recorded (for tests / introspection).
  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }

  // --- Internal API used by the op library (autograd/ops.cpp). ---

  /// Backward closure: receives the node's output gradient and must
  /// accumulate into the inputs via AccumulateGrad().
  using BackwardFn = std::function<void(Tape*, const Matrix&)>;

  /// Records an interior node. `requires_grad` should be true iff any input
  /// requires grad; `backward` may be empty in that case. `op_name`, when
  /// given, must be a string literal (stored by pointer); it labels the
  /// node's backward closure in trace spans and per-op timing counters.
  Var Emit(Matrix value, bool requires_grad, BackwardFn backward,
           const char* op_name = nullptr);

  /// Adds `g` into the gradient buffer of `v` (allocating it on first use).
  /// No-op if `v` does not require grad.
  void AccumulateGrad(Var v, const Matrix& g);

  /// Move-friendly overload: installs `g` directly when the buffer is empty.
  void AccumulateGrad(Var v, Matrix&& g);

  /// Gradient buffer of `v`, allocated zero-filled on first use; `v` must
  /// require grad. Lets a fused op add its terms into an input's gradient
  /// in place, in the order an unfused chain would, without one N x T
  /// temporary per term.
  Matrix* GradBuffer(Var v);

 private:
  struct Node {
    Matrix owned_value;              // storage unless external
    const Matrix* external = nullptr;  // set for Parameter leaves
    Matrix* grad_sink = nullptr;       // set for Parameter leaves
    Matrix grad;                       // lazily allocated
    bool requires_grad = false;
    BackwardFn backward;
    const char* op_name = nullptr;     // string literal; labels trace spans
  };

  const Node& node(Var v) const;
  Node& node(Var v);

  std::vector<Node> nodes_;
  bool backward_done_ = false;
};

}  // namespace layergcn::ag

#endif  // LAYERGCN_AUTOGRAD_TAPE_H_
