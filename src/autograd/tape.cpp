#include "autograd/tape.h"

#include <utility>

#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace layergcn::ag {

Var Tape::Parameter(const Matrix* value, Matrix* grad_sink) {
  LAYERGCN_CHECK(value != nullptr && grad_sink != nullptr);
  LAYERGCN_CHECK(value->rows() == grad_sink->rows() &&
                 value->cols() == grad_sink->cols())
      << "Parameter grad sink shape mismatch";
  Node n;
  n.external = value;
  n.grad_sink = grad_sink;
  n.requires_grad = true;
  nodes_.push_back(std::move(n));
  return Var{this, static_cast<int32_t>(nodes_.size() - 1)};
}

Var Tape::Constant(Matrix value) {
  Node n;
  n.owned_value = std::move(value);
  n.requires_grad = false;
  nodes_.push_back(std::move(n));
  return Var{this, static_cast<int32_t>(nodes_.size() - 1)};
}

const Tape::Node& Tape::node(Var v) const {
  LAYERGCN_CHECK(v.tape == this) << "Var belongs to a different tape";
  LAYERGCN_CHECK(v.id >= 0 && v.id < static_cast<int32_t>(nodes_.size()));
  return nodes_[static_cast<size_t>(v.id)];
}

Tape::Node& Tape::node(Var v) {
  return const_cast<Node&>(static_cast<const Tape*>(this)->node(v));
}

const Matrix& Tape::value(Var v) const {
  const Node& n = node(v);
  return n.external != nullptr ? *n.external : n.owned_value;
}

bool Tape::requires_grad(Var v) const { return node(v).requires_grad; }

const Matrix& Tape::grad(Var v) const { return node(v).grad; }

Var Tape::Emit(Matrix value, bool requires_grad, BackwardFn backward,
               const char* op_name) {
  Node n;
  n.owned_value = std::move(value);
  n.requires_grad = requires_grad;
  n.op_name = op_name;
  if (requires_grad) n.backward = std::move(backward);
  nodes_.push_back(std::move(n));
  return Var{this, static_cast<int32_t>(nodes_.size() - 1)};
}

void Tape::AccumulateGrad(Var v, const Matrix& g) {
  Node& n = node(v);
  if (!n.requires_grad) return;
  const Matrix& val = n.external != nullptr ? *n.external : n.owned_value;
  LAYERGCN_CHECK(g.rows() == val.rows() && g.cols() == val.cols())
      << "gradient shape mismatch: " << g.rows() << "x" << g.cols() << " vs "
      << val.rows() << "x" << val.cols();
  if (n.grad.empty()) {
    n.grad = g;
  } else {
    tensor::AddInPlace(&n.grad, g);
  }
}

void Tape::AccumulateGrad(Var v, Matrix&& g) {
  Node& n = node(v);
  if (!n.requires_grad) return;
  const Matrix& val = n.external != nullptr ? *n.external : n.owned_value;
  LAYERGCN_CHECK(g.rows() == val.rows() && g.cols() == val.cols())
      << "gradient shape mismatch";
  if (n.grad.empty()) {
    n.grad = std::move(g);
  } else {
    tensor::AddInPlace(&n.grad, g);
  }
}

Matrix* Tape::GradBuffer(Var v) {
  Node& n = node(v);
  LAYERGCN_CHECK(n.requires_grad) << "GradBuffer of a node without gradient";
  if (n.grad.empty()) {
    const Matrix& val = n.external != nullptr ? *n.external : n.owned_value;
    n.grad = Matrix(val.rows(), val.cols());
  }
  return &n.grad;
}

void Tape::Backward(Var loss) {
  LAYERGCN_CHECK(!backward_done_) << "Backward() may run once per tape";
  backward_done_ = true;
  const Matrix& lv = value(loss);
  LAYERGCN_CHECK(lv.rows() == 1 && lv.cols() == 1)
      << "Backward() requires a scalar (1x1) loss";
  AccumulateGrad(loss, Matrix::Scalar(1.f));

  OBS_SPAN("tape.backward");
  for (int64_t i = loss.id; i >= 0; --i) {
    Node& n = nodes_[static_cast<size_t>(i)];
    if (!n.requires_grad || n.grad.empty()) continue;
    if (n.backward) {
      if (n.op_name != nullptr) {
        OBS_SPAN_DYNAMIC(n.op_name);
        n.backward(this, n.grad);
      } else {
        n.backward(this, n.grad);
      }
    }
    if (n.grad_sink != nullptr) tensor::AddInPlace(n.grad_sink, n.grad);
  }
}

}  // namespace layergcn::ag
