#include "tensor/gemm.h"

#include <algorithm>
#include <vector>

#include "obs/trace.h"
#include "util/parallel.h"

namespace layergcn::tensor {
namespace {

// L2 tile over output columns: the (k x kBlockN) panel of the transposed
// right operand is reused across every row tile while it is hot.
constexpr int64_t kBlockN = 512;

// Parallelize only when the arithmetic amortizes the pool hand-off.
constexpr int64_t kParallelFlops = 1 << 18;

// Plain out-of-place transpose (local copy to keep gemm self-contained).
Matrix CopyTranspose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* src = a.row(r);
    for (int64_t c = 0; c < a.cols(); ++c) out(c, r) = src[c];
  }
  return out;
}

}  // namespace

void GemmMicroPanel(const float* const* a_rows, int64_t m, int64_t k,
                    const Matrix& b, int64_t j0, int64_t n, float* c,
                    int64_t ldc) {
  const int64_t ldb = b.cols();
  const float* bbase = b.data() + j0;
  for (int64_t jb = 0; jb < n; jb += kBlockN) {
    const int64_t jbn = std::min(kBlockN, n - jb);
    for (int64_t i = 0; i < m; i += kGemmTileM) {
      const int64_t mb = std::min(kGemmTileM, m - i);
      for (int64_t j = jb; j < jb + jbn; j += kGemmTileN) {
        const int64_t nb = std::min(kGemmTileN, jb + jbn - j);
        if (mb == kGemmTileM && nb == kGemmTileN) {
          // Full 4x16 tile: accumulators live in vector registers for the
          // whole k loop; every b access is unit-stride.
          float acc[kGemmTileM][kGemmTileN];
          for (int r = 0; r < kGemmTileM; ++r) {
            const float* crow = c + (i + r) * ldc + j;
            for (int t = 0; t < kGemmTileN; ++t) acc[r][t] = crow[t];
          }
          const float* a0 = a_rows[i];
          const float* a1 = a_rows[i + 1];
          const float* a2 = a_rows[i + 2];
          const float* a3 = a_rows[i + 3];
          for (int64_t p = 0; p < k; ++p) {
            const float* brow = bbase + p * ldb + j;
            const float av0 = a0[p];
            const float av1 = a1[p];
            const float av2 = a2[p];
            const float av3 = a3[p];
#pragma omp simd
            for (int t = 0; t < kGemmTileN; ++t) {
              acc[0][t] += av0 * brow[t];
              acc[1][t] += av1 * brow[t];
              acc[2][t] += av2 * brow[t];
              acc[3][t] += av3 * brow[t];
            }
          }
          for (int r = 0; r < kGemmTileM; ++r) {
            float* crow = c + (i + r) * ldc + j;
            for (int t = 0; t < kGemmTileN; ++t) crow[t] = acc[r][t];
          }
        } else {
          // Edge tile: generic loops, same ascending-k accumulation order.
          for (int64_t r = 0; r < mb; ++r) {
            const float* ar = a_rows[i + r];
            float* crow = c + (i + r) * ldc + j;
            for (int64_t p = 0; p < k; ++p) {
              const float av = ar[p];
              const float* brow = bbase + p * ldb + j;
#pragma omp simd
              for (int64_t t = 0; t < nb; ++t) crow[t] += av * brow[t];
            }
          }
        }
      }
    }
  }
}

Matrix GemmBlocked(const Matrix& a, const Matrix& b, bool trans_a,
                   bool trans_b) {
  const int64_t m = trans_a ? a.cols() : a.rows();
  const int64_t k = trans_a ? a.rows() : a.cols();
  const int64_t k2 = trans_b ? b.cols() : b.rows();
  const int64_t n = trans_b ? b.rows() : b.cols();
  LAYERGCN_CHECK_EQ(k, k2) << "MatMul inner dimension mismatch";
  Matrix out(m, n);
  if (m == 0 || n == 0) return out;
  OBS_SPAN("gemm");
  OBS_COUNT("gemm.calls", 1);
  OBS_COUNT("gemm.flops", 2 * m * n * k);

  // Normalize both operands so the micro-kernel always sees row pointers on
  // the left and a (k x n) row-major panel on the right. The transpose
  // copies are O(elements) against O(m*n*k) compute.
  Matrix at_storage, bt_storage;
  const Matrix* a_eff = &a;
  if (trans_a) {
    at_storage = CopyTranspose(a);
    a_eff = &at_storage;
  }
  const Matrix* b_eff = &b;
  if (trans_b) {
    bt_storage = CopyTranspose(b);
    b_eff = &bt_storage;
  }

  std::vector<const float*> a_rows(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    a_rows[static_cast<size_t>(i)] = a_eff->row(i);
  }

  if (m * n * k < kParallelFlops) {
    GemmMicroPanel(a_rows.data(), m, k, *b_eff, 0, n, out.data(), n);
    return out;
  }
  // One block of output rows per pool worker; blocks write disjoint rows.
  const int64_t width = util::parallel::ComputePool()->num_threads();
  util::parallel::For(
      m,
      [&](int64_t lo, int64_t hi) {
        GemmMicroPanel(a_rows.data() + lo, hi - lo, k, *b_eff, 0, n,
                       out.row(lo), n);
      },
      (m + width - 1) / width);
  return out;
}

}  // namespace layergcn::tensor
