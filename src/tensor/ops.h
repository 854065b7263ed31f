// Dense kernels over tensor::Matrix.
//
// These are the non-differentiable building blocks; the autograd layer
// composes them into differentiable ops. All kernels check shapes with
// LAYERGCN_CHECK and accumulate reductions in double for numerical
// stability. Kernels never touch RNG state. Each one that splits its work
// runs it as util::parallel::For blocks that write disjoint outputs, so its
// result is bit-identical at any pool width. MatMul routes through the
// blocked kernel in tensor/gemm.h.

#ifndef LAYERGCN_TENSOR_OPS_H_
#define LAYERGCN_TENSOR_OPS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace layergcn::tensor {

// ---------------------------------------------------------------------------
// Elementwise arithmetic.
// ---------------------------------------------------------------------------

/// Returns a + b. Shapes must match.
Matrix Add(const Matrix& a, const Matrix& b);

/// Returns a - b. Shapes must match.
Matrix Sub(const Matrix& a, const Matrix& b);

/// dst += src. Shapes must match.
void AddInPlace(Matrix* dst, const Matrix& src);

/// dst += alpha * src. Shapes must match.
void AxpyInPlace(Matrix* dst, float alpha, const Matrix& src);

/// Returns alpha * a.
Matrix Scale(const Matrix& a, float alpha);

/// dst *= alpha.
void ScaleInPlace(Matrix* dst, float alpha);

/// Returns a ⊙ b (elementwise product). Shapes must match.
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// dst ⊙= src.
void HadamardInPlace(Matrix* dst, const Matrix& src);

/// Returns a + c applied to every entry.
Matrix AddScalar(const Matrix& a, float c);

// ---------------------------------------------------------------------------
// GEMM and transpose.
// ---------------------------------------------------------------------------

/// Returns op(a) * op(b) where op is transpose when the corresponding flag
/// is set. Inner dimensions must agree.
Matrix MatMul(const Matrix& a, const Matrix& b, bool trans_a = false,
              bool trans_b = false);

/// Returns aᵀ.
Matrix Transpose(const Matrix& a);

// ---------------------------------------------------------------------------
// Row gathering / scattering (embedding lookups).
// ---------------------------------------------------------------------------

/// Returns the |rows| x cols matrix whose i-th row is a.row(rows[i]).
Matrix GatherRows(const Matrix& a, const std::vector<int32_t>& rows);

/// dst.row(rows[i]) += src.row(i) for every i. Duplicate indices accumulate
/// in ascending i, at any pool width: the destination rows are split into
/// one block per pool worker, and each block applies only its own rows.
void ScatterAddRows(Matrix* dst, const std::vector<int32_t>& rows,
                    const Matrix& src);

// ---------------------------------------------------------------------------
// Row-wise operations (N x C with an N x 1 companion).
// ---------------------------------------------------------------------------

/// Returns X with row r multiplied by s(r, 0). `s` must be N x 1.
Matrix ScaleRows(const Matrix& x, const Matrix& s);

/// Returns the N x 1 matrix of row dot products: out(r,0) = <a.row(r),
/// b.row(r)>. Shapes must match.
Matrix RowDots(const Matrix& a, const Matrix& b);

/// K row dot products at once: out[k] = Σ_c a[k][c]·b[k][c] over `cols`
/// columns, each product in f32 and each sum in f64 in ascending c, as
/// RowDots rounds them. The K sums are independent chains, so taking them
/// together hides the latency of the f64 adds.
template <size_t K>
std::array<double, K> RowDotGroup(const std::array<const float*, K>& a,
                                  const std::array<const float*, K>& b,
                                  int64_t cols) {
  std::array<double, K> out{};
  for (int64_t c = 0; c < cols; ++c) {
#pragma GCC unroll 8
    for (size_t k = 0; k < K; ++k) out[k] += a[k][c] * b[k][c];
  }
  return out;
}

/// Returns the N x 1 matrix of row L2 norms.
Matrix RowL2Norms(const Matrix& a);

/// Returns the N x 1 matrix of row-wise cosine similarities between a and b,
/// guarding the denominator with max(·, eps) exactly as paper Eq. 8.
Matrix RowwiseCosine(const Matrix& a, const Matrix& b, float eps);

/// Returns X with each row L2-normalized; zero rows stay zero (guarded by
/// eps in the denominator).
Matrix NormalizeRowsL2(const Matrix& x, float eps = 1e-12f);

/// Returns the N x 1 row sums.
Matrix RowSums(const Matrix& a);

/// Returns the 1 x C column sums.
Matrix ColSums(const Matrix& a);

/// Returns X + broadcast of the 1 x C row vector b to every row.
Matrix AddRowVector(const Matrix& x, const Matrix& b);

// ---------------------------------------------------------------------------
// Activations / maps.
// ---------------------------------------------------------------------------

Matrix Sigmoid(const Matrix& a);
Matrix Tanh(const Matrix& a);
Matrix Relu(const Matrix& a);
Matrix LeakyRelu(const Matrix& a, float slope);
/// Numerically stable log(1 + exp(a)).
Matrix Softplus(const Matrix& a);
Matrix Exp(const Matrix& a);
/// Natural log; inputs must be positive.
Matrix Log(const Matrix& a);
Matrix Sqrt(const Matrix& a);
Matrix Square(const Matrix& a);
Matrix Negate(const Matrix& a);

/// Row-wise softmax (stable: subtracts the row max).
Matrix SoftmaxRows(const Matrix& a);

/// Row-wise log-softmax (stable).
Matrix LogSoftmaxRows(const Matrix& a);

// ---------------------------------------------------------------------------
// Reductions (double accumulation).
// ---------------------------------------------------------------------------

/// Sum of all entries.
double SumAll(const Matrix& a);

/// Sum of squared entries (= squared Frobenius norm).
double SumSquares(const Matrix& a);

/// Mean of all entries. Requires non-empty.
double MeanAll(const Matrix& a);

/// Max of all entries. Requires non-empty.
float MaxAll(const Matrix& a);

// ---------------------------------------------------------------------------
// Concatenation / slicing.
// ---------------------------------------------------------------------------

/// Horizontally concatenates matrices with equal row counts.
Matrix ConcatCols(const std::vector<const Matrix*>& parts);

/// Returns columns [begin, end) of a.
Matrix SliceCols(const Matrix& a, int64_t begin, int64_t end);

}  // namespace layergcn::tensor

#endif  // LAYERGCN_TENSOR_OPS_H_
