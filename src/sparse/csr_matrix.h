// Sparse matrices in COO and CSR form, plus the graph-convolution kernels.
//
// The graph convolution ÂX (paper Eqs. 2, 6, 13) is an SpMM between the
// (re-)normalized adjacency and the dense embedding table. CSR keeps the
// per-row neighbor lists contiguous, so SpMM parallelizes over output rows
// with no write conflicts. Since Â is symmetric for the bipartite user-item
// graph, the SpMM backward pass reuses the same matrix (ÂᵀG = ÂG), but a
// general Transpose() is provided for non-symmetric operands.

#ifndef LAYERGCN_SPARSE_CSR_MATRIX_H_
#define LAYERGCN_SPARSE_CSR_MATRIX_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/matrix.h"

namespace layergcn::sparse {

/// One coordinate-format entry.
struct CooEntry {
  int32_t row = 0;
  int32_t col = 0;
  float value = 0.f;
};

/// Coordinate-format sparse matrix used during construction.
struct CooMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<CooEntry> entries;
};

/// Compressed-sparse-row matrix. Immutable through the read API; Rebuild()
/// reconstructs in place for per-epoch reuse without reallocating.
class CsrMatrix {
 public:
  /// Empty 0x0 matrix.
  CsrMatrix() = default;

  /// Builds from COO. Duplicate (row, col) pairs are coalesced by summing
  /// their values. Entries may be in any order.
  static CsrMatrix FromCoo(const CooMatrix& coo);

  /// In-place rebuild for callers that reconstruct the matrix every epoch
  /// (DegreeDrop adjacency resampling): resizes the three arrays — reusing
  /// their capacity, so steady-state rebuilds allocate nothing — and hands
  /// them to `fill`, which must leave a valid CSR: row_ptr[0] == 0,
  /// non-decreasing, row_ptr[rows] == nnz, and strictly ascending column
  /// indices within each row.
  void Rebuild(int64_t rows, int64_t cols, int64_t nnz,
               const std::function<void(int64_t* row_ptr, int32_t* col_idx,
                                        float* values)>& fill);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int32_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  /// Returns the value at (r, c), or 0 if the entry is absent. O(log deg).
  float At(int64_t r, int64_t c) const;

  /// Number of stored entries in row r.
  int64_t RowNnz(int64_t r) const { return row_ptr_[r + 1] - row_ptr_[r]; }

  /// out = this * dense. dense.rows() must equal cols(). Parallel over
  /// nnz-balanced row ranges. Each output row is built in register panels
  /// of 32 columns, summed over the row's nonzeros and stored once; the
  /// t % 32 leftover columns accumulate in the row. Every element sums w·x
  /// in ascending nonzero order from +0, so the result does not depend on
  /// the panel width or the pool width.
  tensor::Matrix Multiply(const tensor::Matrix& dense) const;

  /// Returns the transposed matrix.
  CsrMatrix Transpose() const;

  /// Returns the vector of row sums (out-degrees when values are 1).
  std::vector<double> RowSums() const;

  /// True if the matrix equals its transpose (same sparsity and values).
  bool IsSymmetric(float tol = 0.f) const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int64_t> row_ptr_;   // size rows_+1
  std::vector<int32_t> col_idx_;   // size nnz
  std::vector<float> values_;      // size nnz
};

/// Returns D^{-1/2} A D^{-1/2} where D is the diagonal degree matrix of A
/// computed from its row sums (paper's re-normalization; with no self-loops
/// for the LightGCN/LayerGCN transition matrix, with self-loops when the
/// caller has already added I to A). Zero-degree rows/columns produce zero
/// scaling (isolated nodes simply stop propagating, matching the behavior
/// of the reference implementations).
CsrMatrix SymmetricNormalize(const CooMatrix& adjacency);

}  // namespace layergcn::sparse

#endif  // LAYERGCN_SPARSE_CSR_MATRIX_H_
