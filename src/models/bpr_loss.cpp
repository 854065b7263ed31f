#include "models/bpr_loss.h"

#include <algorithm>
#include <array>
#include <utility>

#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace layergcn::models {

namespace par = util::parallel;
using tensor::Matrix;

namespace {

// Triples whose two dots are taken together (tensor::RowDotGroup).
constexpr size_t kDotGroup = 4;
// Reduce blocks of an L2 sum that are summed together (SquareSums).
constexpr int64_t kSquareGroup = 8;

// Rows per parallel block, as in the tensor kernels: ~kDefaultGrain scalars.
int64_t RowGrain(int64_t cols) {
  return std::max<int64_t>(1, par::kDefaultGrain / std::max<int64_t>(cols, 1));
}

// Σ v² over the flat elements [lo[k], lo[k] + len) of the matrix whose row
// i is x.row(rows[i]), for K ranges at once: each square in f64 (exact),
// summed in ascending order from +0, as a SumSquares block sums the
// gathered matrix. The K sums are independent chains, so taking them
// together hides the latency of the f64 adds.
template <size_t K>
std::array<double, K> SquareSums(const Matrix& x, const int32_t* rows,
                                 const std::array<int64_t, K>& lo,
                                 int64_t len) {
  const int64_t t = x.cols();
  std::array<double, K> out{};
  std::array<int64_t, K> row{};
  std::array<int64_t, K> col{};
  for (size_t k = 0; k < K; ++k) {
    row[k] = lo[k] / t;
    col[k] = lo[k] % t;
  }
  while (len > 0) {
    // Run the stretch every range has left in its current row.
    int64_t step = len;
    std::array<const float*, K> p{};
    for (size_t k = 0; k < K; ++k) {
      step = std::min(step, t - col[k]);
      p[k] = x.row(rows[row[k]]) + col[k];
    }
    for (int64_t c = 0; c < step; ++c) {
#pragma GCC unroll 8
      for (size_t k = 0; k < K; ++k) {
        const double v = p[k][c];
        out[k] += v * v;
      }
    }
    len -= step;
    for (size_t k = 0; k < K; ++k) {
      col[k] += step;
      if (col[k] == t) {
        col[k] = 0;
        ++row[k];
      }
    }
  }
  return out;
}

// ‖X⁰ rows of each list‖², as SumSquares takes it of GatherRows(x, list):
// Reduce's fixed blocks, each summed on its own, combined in block order.
// The blocks of each list are summed kSquareGroup at a time.
std::array<double, 3> SquareNorms(
    const Matrix& x, const std::array<const std::vector<int32_t>*, 3>& lists) {
  const int64_t n = static_cast<int64_t>(lists[0]->size()) * x.cols();
  const int64_t grain = par::kDefaultGrain;
  const int64_t blocks = par::NumBlocks(n, grain);
  const int64_t groups = par::NumBlocks(blocks, kSquareGroup);
  std::vector<double> partial(static_cast<size_t>(3 * blocks));
  par::For(3 * groups, [&](int64_t lo, int64_t hi) {
    for (int64_t job = lo; job < hi; ++job) {
      const int32_t* rows = lists[static_cast<size_t>(job / groups)]->data();
      double* out = partial.data() + job / groups * blocks;
      const int64_t first = job % groups * kSquareGroup;
      if ((first + kSquareGroup) * grain <= n) {
        std::array<int64_t, kSquareGroup> starts{};
        for (int64_t k = 0; k < kSquareGroup; ++k) {
          starts[static_cast<size_t>(k)] = (first + k) * grain;
        }
        const auto sums = SquareSums<kSquareGroup>(x, rows, starts, grain);
        std::copy(sums.begin(), sums.end(), out + first);
        continue;
      }
      const int64_t end = std::min(blocks, first + kSquareGroup);
      for (int64_t block = first; block < end; ++block) {
        const int64_t start = block * grain;
        out[block] =
            SquareSums<1>(x, rows, {start}, std::min(grain, n - start))[0];
      }
    }
  }, 1);
  std::array<double, 3> norms{};
  for (size_t l = 0; l < 3; ++l) {
    for (int64_t block = 0; block < blocks; ++block) {
      norms[l] += partial[l * static_cast<size_t>(blocks) +
                          static_cast<size_t>(block)];
    }
  }
  return norms;
}

// The batch positions of an index list grouped by row: run r holds one
// row's positions, in batch order, at order[start[r] .. start[r + 1]).
struct RowRuns {
  std::vector<int32_t> order;
  std::vector<int32_t> start;
};

RowRuns GroupByRow(const std::vector<int32_t>& rows, int64_t num_rows) {
  const auto b = static_cast<int32_t>(rows.size());
  // Each row's positions are chained through `next` from its first one.
  std::vector<int32_t> last(static_cast<size_t>(num_rows), -1);
  std::vector<int32_t> next(rows.size(), -1);
  std::vector<int32_t> firsts;
  for (int32_t k = 0; k < b; ++k) {
    int32_t& prev = last[static_cast<size_t>(rows[static_cast<size_t>(k)])];
    if (prev < 0) {
      firsts.push_back(k);
    } else {
      next[static_cast<size_t>(prev)] = k;
    }
    prev = k;
  }
  RowRuns runs;
  runs.order.reserve(rows.size());
  runs.start.reserve(firsts.size() + 1);
  for (int32_t first : firsts) {
    runs.start.push_back(static_cast<int32_t>(runs.order.size()));
    for (int32_t k = first; k >= 0; k = next[static_cast<size_t>(k)]) {
      runs.order.push_back(k);
    }
  }
  runs.start.push_back(b);
  return runs;
}

// Adds every triple's term into buf->row(rows[k]); term(k, dst) does
// dst += the term of triple k. A row listed several times gets the sum of
// its terms, taken in batch order from +0, in one add, as ScatterAddRows
// into zeros followed by AddInPlace does. A row listed once gets its term
// directly: the same bits while the buffer holds no -0 (DESIGN.md §8).
template <typename Term>
void AddRowTerms(Matrix* buf, const std::vector<int32_t>& rows,
                 const RowRuns& runs, const Term& term) {
  const int64_t t = buf->cols();
  const auto num_runs = static_cast<int64_t>(runs.start.size()) - 1;
  par::For(num_runs, [&](int64_t lo, int64_t hi) {
    std::vector<float> sum(static_cast<size_t>(t));
    for (int64_t r = lo; r < hi; ++r) {
      const int32_t begin = runs.start[static_cast<size_t>(r)];
      const int32_t end = runs.start[static_cast<size_t>(r) + 1];
      const auto first =
          static_cast<size_t>(runs.order[static_cast<size_t>(begin)]);
      float* dst = buf->row(rows[first]);
      if (end - begin == 1) {
        term(first, dst);
        continue;
      }
      std::fill(sum.begin(), sum.end(), 0.f);
      for (int32_t i = begin; i < end; ++i) {
        term(static_cast<size_t>(runs.order[static_cast<size_t>(i)]),
             sum.data());
      }
#pragma omp simd
      for (int64_t c = 0; c < t; ++c) dst[c] += sum[static_cast<size_t>(c)];
    }
  }, RowGrain(t));
}

}  // namespace

ag::Var BprLoss(ag::Var readout, ag::Var x0, std::vector<int32_t> users,
                std::vector<int32_t> pos_rows, std::vector<int32_t> neg_rows,
                double l2_reg) {
  LAYERGCN_CHECK(readout.valid() && x0.valid() && readout.tape == x0.tape)
      << "BprLoss: Vars from different tapes";
  ag::Tape* tape = readout.tape;
  OBS_SPAN("fw.bpr_loss");
  const Matrix& ev = tape->value(readout);
  const Matrix& xv = tape->value(x0);
  const auto b = static_cast<int64_t>(users.size());
  LAYERGCN_CHECK(b > 0 && pos_rows.size() == users.size() &&
                 neg_rows.size() == users.size())
      << "BprLoss: needs three index lists of one non-zero length";
  const bool l2 = l2_reg > 0.0;
  const int64_t num_rows = ev.rows();
  if (l2) {
    LAYERGCN_CHECK_EQ(xv.rows(), num_rows)
        << "BprLoss: readout and X⁰ must have the same rows";
  }
  for (const std::vector<int32_t>* list : {&users, &pos_rows, &neg_rows}) {
    for (const int32_t r : *list) {
      LAYERGCN_CHECK(r >= 0 && r < num_rows) << "BprLoss: row " << r;
    }
  }

  // The chain's scores are f32 row dots; diff = neg − pos.
  const int64_t t = ev.cols();
  Matrix diff(b, 1);
  par::For(b, [&](int64_t lo, int64_t hi) {
    for (int64_t k0 = lo; k0 < hi; k0 += kDotGroup) {
      const int64_t m = std::min(static_cast<int64_t>(kDotGroup), hi - k0);
      // <u, i> and <u, j> of the group's triples; the last triple repeats
      // to fill the group (the repeats' dots are discarded).
      std::array<const float*, 2 * kDotGroup> eu{};
      std::array<const float*, 2 * kDotGroup> eij{};
      for (size_t q = 0; q < kDotGroup; ++q) {
        const auto k = static_cast<size_t>(
            k0 + std::min(static_cast<int64_t>(q), m - 1));
        eu[q] = eu[kDotGroup + q] = ev.row(users[k]);
        eij[q] = ev.row(pos_rows[k]);
        eij[kDotGroup + q] = ev.row(neg_rows[k]);
      }
      const auto dots = tensor::RowDotGroup<2 * kDotGroup>(eu, eij, t);
      for (int64_t q = 0; q < m; ++q) {
        const auto qi = static_cast<size_t>(q);
        diff(k0 + q, 0) = static_cast<float>(dots[kDotGroup + qi]) -
                          static_cast<float>(dots[qi]);
      }
    }
  }, RowGrain(t));
  float loss = static_cast<float>(tensor::MeanAll(tensor::Softplus(diff)));

  // λ/B·‖X⁰ rows‖² as AddN → Scale → Add, in f32.
  const float coef = static_cast<float>(l2_reg / static_cast<double>(b));
  if (l2) {
    const std::array<double, 3> norms =
        SquareNorms(xv, {&users, &pos_rows, &neg_rows});
    float reg = static_cast<float>(norms[0]);
    reg += static_cast<float>(norms[1]);
    reg += static_cast<float>(norms[2]);
    const float scaled = coef * reg;
    loss += scaled;
  }

  const bool x0_grad = l2 && tape->requires_grad(x0);
  return tape->Emit(
      Matrix::Scalar(loss), tape->requires_grad(readout) || x0_grad,
      [readout, x0, x0_grad, coef, users = std::move(users),
       pos_rows = std::move(pos_rows), neg_rows = std::move(neg_rows),
       diff = std::move(diff)](ag::Tape* tape, const Matrix& g) {
        const Matrix& ev = tape->value(readout);
        const Matrix& xv = tape->value(x0);
        const int64_t num_rows = ev.rows();
        const RowRuns by_user = GroupByRow(users, num_rows);
        const RowRuns by_pos = GroupByRow(pos_rows, num_rows);
        const RowRuns by_neg = GroupByRow(neg_rows, num_rows);

        // X⁰: SumSquares' 2·(coef·g)·x⁰ for the neg, pos and user rows, in
        // the order the chain's gathers hand them back.
        if (x0_grad) {
          Matrix* gx = tape->GradBuffer(x0);
          const int64_t t = xv.cols();
          const float a = 2.f * (coef * g.scalar());
          const auto add_l2 = [&](const std::vector<int32_t>& rows,
                                  const RowRuns& runs) {
            AddRowTerms(gx, rows, runs, [&](size_t k, float* dst) {
              const float* x = xv.row(rows[k]);
#pragma omp simd
              for (int64_t c = 0; c < t; ++c) dst[c] += a * x[c];
            });
          };
          add_l2(neg_rows, by_neg);
          add_l2(pos_rows, by_pos);
          add_l2(users, by_user);
        }
        if (!tape->requires_grad(readout)) return;

        // Mean → Softplus → Sub: σ(diff)·(g/B) on each negative score and
        // its negation on the positive one.
        const float per_triple =
            g.scalar() / static_cast<float>(diff.rows());
        Matrix gneg = tensor::Sigmoid(diff);
        for (int64_t k = 0; k < gneg.rows(); ++k) gneg(k, 0) *= per_triple;

        // The readout: RowDots' terms for the neg, pos and user rows, in
        // the order the chain's gathers hand them back. A user gets its
        // neg term plus its pos term, as RowDots' backward adds them.
        Matrix* ge = tape->GradBuffer(readout);
        const int64_t t = ev.cols();
        AddRowTerms(ge, neg_rows, by_neg, [&](size_t k, float* dst) {
          const float f = gneg.data()[k];
          const float* eu = ev.row(users[k]);
#pragma omp simd
          for (int64_t c = 0; c < t; ++c) dst[c] += f * eu[c];
        });
        AddRowTerms(ge, pos_rows, by_pos, [&](size_t k, float* dst) {
          const float f = -gneg.data()[k];
          const float* eu = ev.row(users[k]);
#pragma omp simd
          for (int64_t c = 0; c < t; ++c) dst[c] += f * eu[c];
        });
        AddRowTerms(ge, users, by_user, [&](size_t k, float* dst) {
          const float fn = gneg.data()[k];
          const float fp = -gneg.data()[k];
          const float* ej = ev.row(neg_rows[k]);
          const float* ei = ev.row(pos_rows[k]);
#pragma omp simd
          for (int64_t c = 0; c < t; ++c) dst[c] += fn * ej[c] + fp * ei[c];
        });
      },
      "bw.bpr_loss");
}

}  // namespace layergcn::models
