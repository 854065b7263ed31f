#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/gemm.h"
#include "util/parallel.h"

namespace layergcn::tensor {
namespace {

namespace par = layergcn::util::parallel;

void CheckSameShape(const Matrix& a, const Matrix& b, const char* op) {
  LAYERGCN_CHECK(a.rows() == b.rows() && a.cols() == b.cols())
      << op << ": shape mismatch " << a.rows() << "x" << a.cols() << " vs "
      << b.rows() << "x" << b.cols();
}

// Block size for kernels that iterate over rows: scaled so one block is
// roughly kDefaultGrain scalar elements regardless of the row width. Fixed
// for a given shape, so the blocked partition stays worker-count-free.
int64_t RowGrain(int64_t cols) {
  return std::max<int64_t>(1, par::kDefaultGrain / std::max<int64_t>(cols, 1));
}

// Elementwise map over the flat buffer, parallel over fixed blocks. Each
// output element is written by exactly one block, so the result is
// bit-exact for any worker count.
template <typename Fn>
Matrix Map(const Matrix& a, Fn fn) {
  Matrix out(a.rows(), a.cols());
  const float* src = a.data();
  float* dst = out.data();
  par::For(a.size(), [&](int64_t lo, int64_t hi) {
#pragma omp simd
    for (int64_t i = lo; i < hi; ++i) dst[i] = fn(src[i]);
  });
  return out;
}

// Elementwise zip of two same-shape operands.
template <typename Fn>
Matrix Zip(const Matrix& a, const Matrix& b, Fn fn) {
  Matrix out(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* dst = out.data();
  par::For(a.size(), [&](int64_t lo, int64_t hi) {
#pragma omp simd
    for (int64_t i = lo; i < hi; ++i) dst[i] = fn(pa[i], pb[i]);
  });
  return out;
}

}  // namespace

Matrix Add(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b, "Add");
  return Zip(a, b, [](float x, float y) { return x + y; });
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b, "Sub");
  return Zip(a, b, [](float x, float y) { return x - y; });
}

void AddInPlace(Matrix* dst, const Matrix& src) {
  CheckSameShape(*dst, src, "AddInPlace");
  float* d = dst->data();
  const float* s = src.data();
  par::For(dst->size(), [&](int64_t lo, int64_t hi) {
#pragma omp simd
    for (int64_t i = lo; i < hi; ++i) d[i] += s[i];
  });
}

void AxpyInPlace(Matrix* dst, float alpha, const Matrix& src) {
  CheckSameShape(*dst, src, "AxpyInPlace");
  float* d = dst->data();
  const float* s = src.data();
  par::For(dst->size(), [&](int64_t lo, int64_t hi) {
#pragma omp simd
    for (int64_t i = lo; i < hi; ++i) d[i] += alpha * s[i];
  });
}

Matrix Scale(const Matrix& a, float alpha) {
  return Map(a, [alpha](float v) { return alpha * v; });
}

void ScaleInPlace(Matrix* dst, float alpha) {
  float* d = dst->data();
  par::For(dst->size(), [&](int64_t lo, int64_t hi) {
#pragma omp simd
    for (int64_t i = lo; i < hi; ++i) d[i] *= alpha;
  });
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b, "Hadamard");
  return Zip(a, b, [](float x, float y) { return x * y; });
}

void HadamardInPlace(Matrix* dst, const Matrix& src) {
  CheckSameShape(*dst, src, "HadamardInPlace");
  float* d = dst->data();
  const float* s = src.data();
  par::For(dst->size(), [&](int64_t lo, int64_t hi) {
#pragma omp simd
    for (int64_t i = lo; i < hi; ++i) d[i] *= s[i];
  });
}

Matrix AddScalar(const Matrix& a, float c) {
  return Map(a, [c](float v) { return v + c; });
}

Matrix MatMul(const Matrix& a, const Matrix& b, bool trans_a, bool trans_b) {
  // All four transpose layouts route through the blocked register-tiled
  // kernel, which parallelizes over output rows on the shared thread pool
  // (the old triple loop ran the trans_a layouts serial and depended on
  // OpenMP for the rest).
  return GemmBlocked(a, b, trans_a, trans_b);
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* src = a.row(r);
    for (int64_t c = 0; c < a.cols(); ++c) out(c, r) = src[c];
  }
  return out;
}

Matrix GatherRows(const Matrix& a, const std::vector<int32_t>& rows) {
  Matrix out(static_cast<int64_t>(rows.size()), a.cols());
  const int64_t cols = a.cols();
  par::For(
      static_cast<int64_t>(rows.size()),
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const int64_t r = rows[static_cast<size_t>(i)];
          LAYERGCN_CHECK(r >= 0 && r < a.rows()) << "GatherRows: row " << r;
          std::copy(a.row(r), a.row(r) + cols, out.row(i));
        }
      },
      RowGrain(cols));
  return out;
}

void ScatterAddRows(Matrix* dst, const std::vector<int32_t>& rows,
                    const Matrix& src) {
  LAYERGCN_CHECK_EQ(static_cast<int64_t>(rows.size()), src.rows());
  LAYERGCN_CHECK_EQ(dst->cols(), src.cols());
  const int64_t cols = src.cols();
  for (int32_t r : rows) {
    LAYERGCN_CHECK(r >= 0 && r < dst->rows()) << "ScatterAddRows: row " << r;
  }
  auto apply_range = [&](int64_t row_lo, int64_t row_hi) {
    // Only entries landing in [row_lo, row_hi) are applied; per destination
    // row the accumulation therefore runs in ascending index order — the
    // same order as the serial loop — for any sharding.
    for (size_t i = 0; i < rows.size(); ++i) {
      const int64_t r = rows[i];
      if (r < row_lo || r >= row_hi) continue;
      float* d = dst->row(r);
      const float* s = src.row(static_cast<int64_t>(i));
#pragma omp simd
      for (int64_t c = 0; c < cols; ++c) d[c] += s[c];
    }
  };

  // Row-sharded scatter: destination rows are split into one contiguous
  // block per worker, so duplicate indices never race, no atomics are
  // needed, and the float accumulation order per row is fixed. Block
  // boundaries affect scheduling only, never results, so they may depend on
  // the pool width. Each block rescans the index list (O(shards x batch)
  // int compares), which is noise next to the row payload traffic.
  const int64_t shards =
      std::min<int64_t>(par::ComputePool()->num_threads(), dst->rows());
  if (shards <= 1 || src.size() < par::kDefaultGrain) {
    apply_range(0, dst->rows());
    return;
  }
  par::For(dst->rows(), apply_range, (dst->rows() + shards - 1) / shards);
}

Matrix ScaleRows(const Matrix& x, const Matrix& s) {
  LAYERGCN_CHECK(s.rows() == x.rows() && s.cols() == 1)
      << "ScaleRows: scale must be Nx1";
  Matrix out(x.rows(), x.cols());
  const int64_t cols = x.cols();
  par::For(
      x.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float f = s(r, 0);
          const float* src = x.row(r);
          float* dst = out.row(r);
#pragma omp simd
          for (int64_t c = 0; c < cols; ++c) dst[c] = f * src[c];
        }
      },
      RowGrain(cols));
  return out;
}

Matrix RowDots(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b, "RowDots");
  Matrix out(a.rows(), 1);
  const int64_t cols = a.cols();
  par::For(
      a.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* pa = a.row(r);
          const float* pb = b.row(r);
          double acc = 0.0;
          for (int64_t c = 0; c < cols; ++c) acc += pa[c] * pb[c];
          out(r, 0) = static_cast<float>(acc);
        }
      },
      RowGrain(cols));
  return out;
}

Matrix RowL2Norms(const Matrix& a) {
  Matrix out(a.rows(), 1);
  const int64_t cols = a.cols();
  par::For(
      a.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* p = a.row(r);
          double acc = 0.0;
          for (int64_t c = 0; c < cols; ++c) acc += p[c] * p[c];
          out(r, 0) = static_cast<float>(std::sqrt(acc));
        }
      },
      RowGrain(cols));
  return out;
}

Matrix RowwiseCosine(const Matrix& a, const Matrix& b, float eps) {
  CheckSameShape(a, b, "RowwiseCosine");
  Matrix out(a.rows(), 1);
  const int64_t cols = a.cols();
  par::For(
      a.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* pa = a.row(r);
          const float* pb = b.row(r);
          double dot = 0.0, na = 0.0, nb = 0.0;
          for (int64_t c = 0; c < cols; ++c) {
            dot += pa[c] * pb[c];
            na += pa[c] * pa[c];
            nb += pb[c] * pb[c];
          }
          const double denom =
              std::max(std::sqrt(na) * std::sqrt(nb),
                       static_cast<double>(eps));
          out(r, 0) = static_cast<float>(dot / denom);
        }
      },
      RowGrain(cols));
  return out;
}

Matrix NormalizeRowsL2(const Matrix& x, float eps) {
  Matrix out(x.rows(), x.cols());
  const int64_t cols = x.cols();
  par::For(
      x.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* src = x.row(r);
          double acc = 0.0;
          for (int64_t c = 0; c < cols; ++c) acc += src[c] * src[c];
          const float inv = static_cast<float>(
              1.0 / std::max(std::sqrt(acc), static_cast<double>(eps)));
          float* dst = out.row(r);
          for (int64_t c = 0; c < cols; ++c) dst[c] = src[c] * inv;
        }
      },
      RowGrain(cols));
  return out;
}

Matrix RowSums(const Matrix& a) {
  Matrix out(a.rows(), 1);
  const int64_t cols = a.cols();
  par::For(
      a.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* p = a.row(r);
          double acc = 0.0;
          for (int64_t c = 0; c < cols; ++c) acc += p[c];
          out(r, 0) = static_cast<float>(acc);
        }
      },
      RowGrain(cols));
  return out;
}

Matrix ColSums(const Matrix& a) {
  Matrix out(1, a.cols());
  std::vector<double> acc(static_cast<size_t>(a.cols()), 0.0);
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* p = a.row(r);
    for (int64_t c = 0; c < a.cols(); ++c) acc[static_cast<size_t>(c)] += p[c];
  }
  for (int64_t c = 0; c < a.cols(); ++c) {
    out(0, c) = static_cast<float>(acc[static_cast<size_t>(c)]);
  }
  return out;
}

Matrix AddRowVector(const Matrix& x, const Matrix& b) {
  LAYERGCN_CHECK(b.rows() == 1 && b.cols() == x.cols())
      << "AddRowVector: bias must be 1x" << x.cols();
  Matrix out(x.rows(), x.cols());
  const int64_t cols = x.cols();
  const float* bias = b.data();
  par::For(
      x.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* src = x.row(r);
          float* dst = out.row(r);
          for (int64_t c = 0; c < cols; ++c) dst[c] = src[c] + bias[c];
        }
      },
      RowGrain(cols));
  return out;
}

Matrix Sigmoid(const Matrix& a) {
  return Map(a, [](float v) {
    // Stable in both tails.
    if (v >= 0.f) {
      const float z = std::exp(-v);
      return 1.f / (1.f + z);
    }
    const float z = std::exp(v);
    return z / (1.f + z);
  });
}

Matrix Tanh(const Matrix& a) {
  return Map(a, [](float v) { return std::tanh(v); });
}

Matrix Relu(const Matrix& a) {
  return Map(a, [](float v) { return v > 0.f ? v : 0.f; });
}

Matrix LeakyRelu(const Matrix& a, float slope) {
  return Map(a, [slope](float v) { return v > 0.f ? v : slope * v; });
}

Matrix Softplus(const Matrix& a) {
  return Map(a, [](float v) {
    // log(1 + e^v) = max(v, 0) + log1p(e^{-|v|}).
    return std::max(v, 0.f) + std::log1p(std::exp(-std::fabs(v)));
  });
}

Matrix Exp(const Matrix& a) {
  return Map(a, [](float v) { return std::exp(v); });
}

Matrix Log(const Matrix& a) {
  return Map(a, [](float v) { return std::log(v); });
}

Matrix Sqrt(const Matrix& a) {
  return Map(a, [](float v) { return std::sqrt(v); });
}

Matrix Square(const Matrix& a) {
  return Map(a, [](float v) { return v * v; });
}

Matrix Negate(const Matrix& a) {
  return Map(a, [](float v) { return -v; });
}

Matrix SoftmaxRows(const Matrix& a) {
  Matrix out(a.rows(), a.cols());
  const int64_t cols = a.cols();
  par::For(
      a.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* src = a.row(r);
          float* dst = out.row(r);
          float mx = src[0];
          for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, src[c]);
          double sum = 0.0;
          for (int64_t c = 0; c < cols; ++c) {
            dst[c] = std::exp(src[c] - mx);
            sum += dst[c];
          }
          const float inv = static_cast<float>(1.0 / sum);
          for (int64_t c = 0; c < cols; ++c) dst[c] *= inv;
        }
      },
      RowGrain(cols));
  return out;
}

Matrix LogSoftmaxRows(const Matrix& a) {
  Matrix out(a.rows(), a.cols());
  const int64_t cols = a.cols();
  par::For(
      a.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* src = a.row(r);
          float* dst = out.row(r);
          float mx = src[0];
          for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, src[c]);
          double sum = 0.0;
          for (int64_t c = 0; c < cols; ++c) sum += std::exp(src[c] - mx);
          const float lse = mx + static_cast<float>(std::log(sum));
          for (int64_t c = 0; c < cols; ++c) dst[c] = src[c] - lse;
        }
      },
      RowGrain(cols));
  return out;
}

double SumAll(const Matrix& a) {
  const float* p = a.data();
  return util::parallel::Reduce(a.size(), [&](int64_t lo, int64_t hi) {
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) acc += p[i];
    return acc;
  });
}

double SumSquares(const Matrix& a) {
  const float* p = a.data();
  return util::parallel::Reduce(a.size(), [&](int64_t lo, int64_t hi) {
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) {
      acc += static_cast<double>(p[i]) * p[i];
    }
    return acc;
  });
}

double MeanAll(const Matrix& a) {
  LAYERGCN_CHECK_GT(a.size(), 0);
  return SumAll(a) / static_cast<double>(a.size());
}

float MaxAll(const Matrix& a) {
  LAYERGCN_CHECK_GT(a.size(), 0);
  float mx = a.data()[0];
  for (int64_t i = 1; i < a.size(); ++i) mx = std::max(mx, a.data()[i]);
  return mx;
}

Matrix ConcatCols(const std::vector<const Matrix*>& parts) {
  LAYERGCN_CHECK(!parts.empty());
  const int64_t rows = parts[0]->rows();
  int64_t cols = 0;
  for (const Matrix* p : parts) {
    LAYERGCN_CHECK_EQ(p->rows(), rows) << "ConcatCols: row mismatch";
    cols += p->cols();
  }
  Matrix out(rows, cols);
  par::For(
      rows,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          float* dst = out.row(r);
          for (const Matrix* p : parts) {
            const float* src = p->row(r);
            std::copy(src, src + p->cols(), dst);
            dst += p->cols();
          }
        }
      },
      RowGrain(cols));
  return out;
}

Matrix SliceCols(const Matrix& a, int64_t begin, int64_t end) {
  LAYERGCN_CHECK(begin >= 0 && begin <= end && end <= a.cols())
      << "SliceCols: bad range [" << begin << "," << end << ")";
  Matrix out(a.rows(), end - begin);
  const int64_t width = end - begin;
  par::For(
      a.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* src = a.row(r) + begin;
          std::copy(src, src + width, out.row(r));
        }
      },
      RowGrain(width));
  return out;
}

}  // namespace layergcn::tensor
