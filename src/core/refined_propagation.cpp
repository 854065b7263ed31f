#include "core/refined_propagation.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace layergcn::core {

namespace par = util::parallel;
using tensor::Matrix;

namespace {

// Rows whose row sums are taken together (see tensor::RowDotGroup).
constexpr size_t kGroup = 4;

template <size_t K>
using RowPtrs = std::array<const float*, K>;

// What the backward pass keeps of one layer: H^l, a^l, and the sums the
// forward took the cosine from.
struct Layer {
  Matrix h;
  Matrix a;                      // N x 1
  std::vector<double> dot;       // <h, x0> per row
  std::vector<double> h_norm2;   // |h|² per row
};

// Rows per parallel block, as in the tensor kernels: ~kDefaultGrain scalars.
int64_t RowGrain(int64_t cols) {
  return std::max<int64_t>(1, par::kDefaultGrain / std::max<int64_t>(cols, 1));
}

// Row r0 + k of `m` for k < rows, repeating the last row to fill a group
// (the repeats' sums are discarded).
RowPtrs<kGroup> GroupRows(const Matrix& m, int64_t r0, int64_t rows) {
  RowPtrs<kGroup> p;
  for (size_t k = 0; k < kGroup; ++k) {
    p[k] = m.row(r0 + std::min(static_cast<int64_t>(k), rows - 1));
  }
  return p;
}

template <size_t K>
RowPtrs<2 * K> Concat(const RowPtrs<K>& a, const RowPtrs<K>& b) {
  RowPtrs<2 * K> out;
  std::copy(a.begin(), a.end(), out.begin());
  std::copy(b.begin(), b.end(), out.begin() + K);
  return out;
}

}  // namespace

ag::Var RefinedPropagation(const sparse::CsrMatrix* adj, ag::Var x0,
                           int num_layers, float epsilon,
                           bool include_ego_layer,
                           std::vector<double>* mean_similarities) {
  LAYERGCN_CHECK(adj != nullptr && x0.valid());
  LAYERGCN_CHECK(num_layers > 0 || (num_layers == 0 && include_ego_layer))
      << "RefinedPropagation needs a layer or the ego layer to read out";
  ag::Tape* tape = x0.tape;
  const Matrix& xv = tape->value(x0);
  const int64_t n = xv.rows();
  const int64_t t = xv.cols();
  LAYERGCN_CHECK(adj->rows() == n && adj->cols() == n)
      << "RefinedPropagation: adjacency must be " << n << "x" << n;
  const int64_t grain = RowGrain(t);
  // Runs body(r0, rows) over groups of up to kGroup rows, in parallel blocks.
  const auto for_groups = [n, grain](const auto& body) {
    par::For(n, [&](int64_t lo, int64_t hi) {
      for (int64_t r0 = lo; r0 < hi; r0 += kGroup) {
        body(r0, std::min(static_cast<int64_t>(kGroup), hi - r0));
      }
    }, grain);
  };

  std::vector<double> x0_norm2(static_cast<size_t>(n));
  for_groups([&](int64_t r0, int64_t rows) {
    const RowPtrs<kGroup> px = GroupRows(xv, r0, rows);
    const auto sums = tensor::RowDotGroup<kGroup>(px, px, t);
    std::copy(sums.begin(), sums.begin() + rows, x0_norm2.begin() + r0);
  });

  // AddN's order: X⁰ (if kept), then X¹..X^L, each added into the running
  // sum. X^l is kept only as the next layer's SpMM input.
  Matrix out = include_ego_layer ? xv : Matrix(n, t);
  Matrix x;
  std::vector<Layer> layers(static_cast<size_t>(num_layers));
  for (int l = 0; l < num_layers; ++l) {
    Layer& layer = layers[static_cast<size_t>(l)];
    {
      OBS_SPAN("fw.spmm");
      layer.h = adj->Multiply(l == 0 ? xv : x);
    }
    OBS_SPAN("fw.rowwise_cosine");
    layer.a = Matrix(n, 1);
    layer.dot.resize(static_cast<size_t>(n));
    layer.h_norm2.resize(static_cast<size_t>(n));
    const bool first_term = l == 0 && !include_ego_layer;
    const bool feeds_next = l + 1 < num_layers;
    if (feeds_next && x.empty()) x = Matrix(n, t);
    for_groups([&](int64_t r0, int64_t rows) {
      const RowPtrs<kGroup> ph = GroupRows(layer.h, r0, rows);
      // <h, x0> and |h|² of the group's rows, as RowwiseCosine takes them.
      const auto sums = tensor::RowDotGroup<2 * kGroup>(
          Concat(ph, ph), Concat(GroupRows(xv, r0, rows), ph), t);
      for (int64_t k = 0; k < rows; ++k) {
        const int64_t r = r0 + k;
        const auto ri = static_cast<size_t>(r);
        const double dot = sums[static_cast<size_t>(k)];
        const double h_norm2 = sums[kGroup + static_cast<size_t>(k)];
        const double denom =
            std::max(std::sqrt(h_norm2) * std::sqrt(x0_norm2[ri]),
                     static_cast<double>(epsilon));
        const float a = static_cast<float>(dot / denom);
        layer.a(r, 0) = a;
        layer.dot[ri] = dot;
        layer.h_norm2[ri] = h_norm2;
        const float s = a + epsilon;
        const float* hr = layer.h.row(r);
        float* po = out.row(r);
        if (feeds_next) {
          float* pn = x.row(r);
#pragma omp simd
          for (int64_t c = 0; c < t; ++c) pn[c] = s * hr[c];
        }
        // AddN copies its first term: adding it onto +0 would turn -0
        // into +0.
        if (first_term) {
#pragma omp simd
          for (int64_t c = 0; c < t; ++c) po[c] = s * hr[c];
        } else {
#pragma omp simd
          for (int64_t c = 0; c < t; ++c) po[c] += s * hr[c];
        }
      }
    });
    if (mean_similarities != nullptr) {
      mean_similarities->push_back(tensor::MeanAll(layer.a));
    }
  }

  return tape->Emit(
      std::move(out), tape->requires_grad(x0),
      [adj, x0, epsilon, include_ego_layer, for_groups,
       layers = std::move(layers),
       x0_norm2 = std::move(x0_norm2)](ag::Tape* tape, const Matrix& g_out) {
        // AddN hands the readout gradient to X⁰ before any layer's terms.
        if (include_ego_layer) tape->AccumulateGrad(x0, g_out);
        if (layers.empty()) return;
        const Matrix& xv = tape->value(x0);
        Matrix* x0_grad = tape->GradBuffer(x0);
        const int64_t t = xv.cols();
        // X^l's gradient is g_out + Â·dH^{l+1}; `g` holds the SpMM term
        // (none for the last layer) and the row pass adds g_out in place.
        // Where the chain adds a zero-filled cosine term, the sign of a zero
        // in dH or in X⁰'s running gradient may differ from the chain's. No
        // output sees it: SpMM sums start from +0, and Â·dH¹, such a sum,
        // is the last term X⁰'s gradient receives.
        Matrix g;
        Matrix dh(xv.rows(), t);
        for (size_t l = layers.size(); l-- > 0;) {
          const Layer& layer = layers[l];
          {
            OBS_SPAN("bw.rowwise_cosine");
            for_groups([&](int64_t r0, int64_t rows) {
              if (!g.empty()) {
                for (int64_t r = r0; r < r0 + rows; ++r) {
                  const float* go = g_out.row(r);
                  float* pg = g.row(r);
#pragma omp simd
                  for (int64_t c = 0; c < t; ++c) pg[c] = go[c] + pg[c];
                }
              }
              const Matrix& gl = g.empty() ? g_out : g;
              // ScaleRows' gradient for the scale, <g, h>, which AddScalar
              // passes on to the cosine unchanged.
              const auto ga_sums = tensor::RowDotGroup<kGroup>(
                  GroupRows(gl, r0, rows), GroupRows(layer.h, r0, rows), t);
              for (int64_t k = 0; k < rows; ++k) {
                const int64_t r = r0 + k;
                const auto ri = static_cast<size_t>(r);
                const float* ph = layer.h.row(r);
                const float* px = xv.row(r);
                const float* pg = gl.row(r);
                const float ga =
                    static_cast<float>(ga_sums[static_cast<size_t>(k)]);
                const float s = layer.a(r, 0) + epsilon;
                float* pdh = dh.row(r);
                float* pxg = x0_grad->row(r);
                if (ga == 0.f) {
                  // No cosine terms: the chain skips these rows as well.
#pragma omp simd
                  for (int64_t c = 0; c < t; ++c) pdh[c] = s * pg[c];
                  continue;
                }
                const double h_norm2 = layer.h_norm2[ri];
                const double x_norm2 = x0_norm2[ri];
                const double prod = std::sqrt(h_norm2) * std::sqrt(x_norm2);
                if (prod > epsilon) {
                  // d cos/dh = x0/m − cos·h/|h|², symmetric in x0.
                  const double cosine = layer.dot[ri] / prod;
                  const double inv_m = 1.0 / prod;
                  const double coef_h = cosine / h_norm2;
                  const double coef_x = cosine / x_norm2;
#pragma omp simd
                  for (int64_t c = 0; c < t; ++c) {
                    pdh[c] = s * pg[c] + ga * static_cast<float>(
                                             px[c] * inv_m - coef_h * ph[c]);
                    pxg[c] += ga * static_cast<float>(ph[c] * inv_m -
                                                      coef_x * px[c]);
                  }
                } else {
                  // The denominator is the constant ε.
                  const double inv_eps = 1.0 / epsilon;
#pragma omp simd
                  for (int64_t c = 0; c < t; ++c) {
                    pdh[c] = s * pg[c] +
                             ga * static_cast<float>(px[c] * inv_eps);
                    pxg[c] += ga * static_cast<float>(ph[c] * inv_eps);
                  }
                }
              }
            });
          }
          OBS_SPAN("bw.spmm");
          if (l > 0) {
            g = adj->Multiply(dh);
          } else {
            tape->AccumulateGrad(x0, adj->Multiply(dh));
          }
        }
      },
      "bw.refined_propagation");
}

}  // namespace layergcn::core
