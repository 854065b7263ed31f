#include "sparse/csr_matrix.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace layergcn::sparse {
namespace {

// Output columns SpMM keeps in registers per row: 8 SSE registers at the
// default x86-64 flags. The unroll pragmas in Multiply spell it out.
constexpr int64_t kPanel = 32;

}  // namespace

CsrMatrix CsrMatrix::FromCoo(const CooMatrix& coo) {
  CsrMatrix out;
  out.rows_ = coo.rows;
  out.cols_ = coo.cols;
  out.row_ptr_.assign(static_cast<size_t>(coo.rows) + 1, 0);

  std::vector<CooEntry> entries = coo.entries;
  for (const CooEntry& e : entries) {
    LAYERGCN_CHECK(e.row >= 0 && e.row < coo.rows && e.col >= 0 &&
                   e.col < coo.cols)
        << "COO entry (" << e.row << "," << e.col << ") out of " << coo.rows
        << "x" << coo.cols;
  }
  std::sort(entries.begin(), entries.end(),
            [](const CooEntry& a, const CooEntry& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  // Coalesce duplicates while filling CSR arrays.
  out.col_idx_.reserve(entries.size());
  out.values_.reserve(entries.size());
  for (size_t i = 0; i < entries.size();) {
    const int32_t r = entries[i].row;
    const int32_t c = entries[i].col;
    float v = 0.f;
    while (i < entries.size() && entries[i].row == r && entries[i].col == c) {
      v += entries[i].value;
      ++i;
    }
    out.col_idx_.push_back(c);
    out.values_.push_back(v);
    ++out.row_ptr_[static_cast<size_t>(r) + 1];
  }
  for (size_t r = 0; r < static_cast<size_t>(coo.rows); ++r) {
    out.row_ptr_[r + 1] += out.row_ptr_[r];
  }
  return out;
}

void CsrMatrix::Rebuild(
    int64_t rows, int64_t cols, int64_t nnz,
    const std::function<void(int64_t* row_ptr, int32_t* col_idx,
                             float* values)>& fill) {
  LAYERGCN_CHECK(rows >= 0 && cols >= 0 && nnz >= 0);
  rows_ = rows;
  cols_ = cols;
  row_ptr_.resize(static_cast<size_t>(rows) + 1);
  col_idx_.resize(static_cast<size_t>(nnz));
  values_.resize(static_cast<size_t>(nnz));
  fill(row_ptr_.data(), col_idx_.data(), values_.data());
  LAYERGCN_CHECK_EQ(row_ptr_.front(), 0);
  LAYERGCN_CHECK_EQ(row_ptr_.back(), nnz);
}

float CsrMatrix::At(int64_t r, int64_t c) const {
  LAYERGCN_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  const auto begin = col_idx_.begin() + row_ptr_[r];
  const auto end = col_idx_.begin() + row_ptr_[r + 1];
  const auto it = std::lower_bound(begin, end, static_cast<int32_t>(c));
  if (it == end || *it != c) return 0.f;
  return values_[static_cast<size_t>(it - col_idx_.begin())];
}

tensor::Matrix CsrMatrix::Multiply(const tensor::Matrix& dense) const {
  LAYERGCN_CHECK_EQ(cols_, dense.rows())
      << "SpMM dimension mismatch: " << rows_ << "x" << cols_ << " * "
      << dense.rows() << "x" << dense.cols();
  tensor::Matrix out(rows_, dense.cols());
  const int64_t t = dense.cols();
  OBS_SPAN("spmm");
  OBS_COUNT("spmm.calls", 1);
  OBS_COUNT("spmm.nnz_processed", nnz());
  OBS_COUNT("spmm.flops", 2 * nnz() * t);
  // Columns [0, panels) run in register panels of kPanel, each summed
  // over the row's nonzeros and stored once; the last t % kPanel columns
  // accumulate in the output row. Either way every element sums w·x in
  // ascending nonzero order from +0.
  const int64_t panels = t - t % kPanel;
  const auto run_rows = [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      float* dst = out.row(r);
      const int64_t begin = row_ptr_[static_cast<size_t>(r)];
      const int64_t end = row_ptr_[static_cast<size_t>(r) + 1];
      for (int64_t c0 = 0; c0 < panels; c0 += kPanel) {
        // Fully unrolled, so the panel stays in registers.
        float acc[kPanel] = {};
        for (int64_t p = begin; p < end; ++p) {
          const float w = values_[static_cast<size_t>(p)];
          const float* src = dense.row(col_idx_[static_cast<size_t>(p)]) + c0;
#pragma GCC unroll 32
          for (int64_t c = 0; c < kPanel; ++c) acc[c] += w * src[c];
        }
#pragma GCC unroll 32
        for (int64_t c = 0; c < kPanel; ++c) dst[c0 + c] = acc[c];
      }
      if (panels == t) continue;
      for (int64_t p = begin; p < end; ++p) {
        const float w = values_[static_cast<size_t>(p)];
        const float* src = dense.row(col_idx_[static_cast<size_t>(p)]);
#pragma omp simd
        for (int64_t c = panels; c < t; ++c) dst[c] += w * src[c];
      }
    }
  };

  // One block per nnz-balanced row range, one range per pool worker
  // (output rows are disjoint, so there are no write conflicts and the
  // result is independent of the worker count). row_ptr_ is the cumulative
  // nnz, so balanced boundaries come from a lower_bound per range.
  const int64_t ranges = std::min<int64_t>(
      util::parallel::ComputePool()->num_threads(), rows_);
  if (ranges <= 1 || nnz() * t < 131072) {
    run_rows(0, rows_);
    return out;
  }
  std::vector<int64_t> bounds(static_cast<size_t>(ranges) + 1, 0);
  bounds[static_cast<size_t>(ranges)] = rows_;
  for (int64_t i = 1; i < ranges; ++i) {
    const int64_t target = nnz() * i / ranges;
    const auto it =
        std::lower_bound(row_ptr_.begin(), row_ptr_.end(), target);
    const int64_t row =
        std::min<int64_t>(it - row_ptr_.begin(), rows_);
    bounds[static_cast<size_t>(i)] =
        std::max(row, bounds[static_cast<size_t>(i) - 1]);
  }
  util::parallel::For(
      ranges,
      [&](int64_t lo, int64_t hi) {
        run_rows(bounds[static_cast<size_t>(lo)],
                 bounds[static_cast<size_t>(hi)]);
      },
      1);
  return out;
}

CsrMatrix CsrMatrix::Transpose() const {
  CsrMatrix out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  out.row_ptr_.assign(static_cast<size_t>(cols_) + 1, 0);
  out.col_idx_.resize(values_.size());
  out.values_.resize(values_.size());

  // Counting sort by column.
  for (int32_t c : col_idx_) ++out.row_ptr_[static_cast<size_t>(c) + 1];
  for (size_t c = 0; c < static_cast<size_t>(cols_); ++c) {
    out.row_ptr_[c + 1] += out.row_ptr_[c];
  }
  std::vector<int64_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      const int32_t c = col_idx_[static_cast<size_t>(p)];
      const int64_t slot = cursor[static_cast<size_t>(c)]++;
      out.col_idx_[static_cast<size_t>(slot)] = static_cast<int32_t>(r);
      out.values_[static_cast<size_t>(slot)] = values_[static_cast<size_t>(p)];
    }
  }
  return out;
}

std::vector<double> CsrMatrix::RowSums() const {
  std::vector<double> sums(static_cast<size_t>(rows_), 0.0);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      sums[static_cast<size_t>(r)] += values_[static_cast<size_t>(p)];
    }
  }
  return sums;
}

bool CsrMatrix::IsSymmetric(float tol) const {
  if (rows_ != cols_) return false;
  const CsrMatrix t = Transpose();
  if (t.col_idx_ != col_idx_ || t.row_ptr_ != row_ptr_) return false;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (std::fabs(values_[i] - t.values_[i]) > tol) return false;
  }
  return true;
}

CsrMatrix SymmetricNormalize(const CooMatrix& adjacency) {
  // Degrees from row sums of |entries| (values are weights; for 0/1
  // adjacency this is the node degree).
  std::vector<double> degree(static_cast<size_t>(adjacency.rows), 0.0);
  std::vector<double> col_degree(static_cast<size_t>(adjacency.cols), 0.0);
  for (const CooEntry& e : adjacency.entries) {
    degree[static_cast<size_t>(e.row)] += e.value;
    col_degree[static_cast<size_t>(e.col)] += e.value;
  }
  CooMatrix scaled;
  scaled.rows = adjacency.rows;
  scaled.cols = adjacency.cols;
  scaled.entries.reserve(adjacency.entries.size());
  for (const CooEntry& e : adjacency.entries) {
    const double dr = degree[static_cast<size_t>(e.row)];
    const double dc = col_degree[static_cast<size_t>(e.col)];
    float v = 0.f;
    if (dr > 0.0 && dc > 0.0) {
      v = static_cast<float>(e.value / (std::sqrt(dr) * std::sqrt(dc)));
    }
    scaled.entries.push_back({e.row, e.col, v});
  }
  return CsrMatrix::FromCoo(scaled);
}

}  // namespace layergcn::sparse
