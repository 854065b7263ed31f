#include "serve/item_index.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace layergcn::serve {

const char* RetrievalModeName(RetrievalMode mode) {
  switch (mode) {
    case RetrievalMode::kExact: return "exact";
    case RetrievalMode::kIvf: return "ivf";
  }
  return "?";
}

bool ParseRetrievalMode(const std::string& name, RetrievalMode* out) {
  if (name == "exact") { *out = RetrievalMode::kExact; return true; }
  if (name == "ivf") { *out = RetrievalMode::kIvf; return true; }
  return false;
}

util::StatusOr<std::shared_ptr<const ItemIndex>> ItemIndex::Build(
    const tensor::Matrix& item_emb, const ItemIndexOptions& options) {
  const uint64_t t0 = obs::NowMicros();
  const int64_t num_items = item_emb.rows();
  const int64_t dim = item_emb.cols();
  if (num_items == 0 || dim == 0) {
    return util::InvalidArgumentError("item matrix is empty");
  }
  if (util::fault::Fire("serve.index_build_fail")) {
    return util::InternalError("fault injected: serve.index_build_fail");
  }
  for (int64_t i = 0; i < num_items; ++i) {
    const float* row = item_emb.row(i);
    for (int64_t c = 0; c < dim; ++c) {
      if (!std::isfinite(row[c])) {
        return util::DataLossError(
            "non-finite item embedding at row " + std::to_string(i));
      }
    }
  }

  const int32_t cells = static_cast<int32_t>(std::min<int64_t>(
      std::max<int32_t>(options.cells, 1), num_items));
  const int32_t iterations = std::max<int32_t>(options.iterations, 1);

  std::shared_ptr<ItemIndex> index(new ItemIndex());
  index->cells_ = cells;
  index->num_items_ = num_items;
  index->iterations_ = iterations;

  // Seeded init: `cells` distinct item rows become the starting centroids.
  // The sample comes back sorted ascending, so centroid c is a pure
  // function of (seed, num_items, cells).
  util::Rng rng(options.seed);
  const std::vector<int64_t> init =
      util::UniformSampleWithoutReplacement(num_items, cells, &rng);
  index->centroids_ = tensor::Matrix(cells, dim);
  for (int32_t c = 0; c < cells; ++c) {
    const float* src = item_emb.row(init[static_cast<size_t>(c)]);
    float* dst = index->centroids_.row(c);
    for (int64_t p = 0; p < dim; ++p) dst[p] = src[p];
  }

  // Fixed-iteration Lloyd. Assignment is a pure per-item map (nearest
  // centroid by squared L2, ties to the lowest cell id) parallelized over
  // the worker-count-independent block partition; the centroid update is a
  // serial ascending-item accumulation — cheap next to the O(items x cells
  // x dim) assignment — so the whole build is bit-deterministic at any
  // thread count.
  std::vector<int32_t> assign(static_cast<size_t>(num_items), 0);
  std::vector<double> sums(static_cast<size_t>(cells) *
                           static_cast<size_t>(dim));
  std::vector<int64_t> counts(static_cast<size_t>(cells));
  const int64_t grain = std::max<int64_t>(
      1, util::parallel::kDefaultGrain / std::max<int64_t>(1, cells * dim));
  for (int32_t it = 0; it < iterations; ++it) {
    util::parallel::For(
        num_items,
        [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            const float* row = item_emb.row(i);
            int32_t best = 0;
            float best_d = 0.f;
            for (int32_t c = 0; c < cells; ++c) {
              const float* cen = index->centroids_.row(c);
              float d = 0.f;
              for (int64_t p = 0; p < dim; ++p) {
                const float diff = row[p] - cen[p];
                d += diff * diff;
              }
              if (c == 0 || d < best_d) {
                best = c;
                best_d = d;
              }
            }
            assign[static_cast<size_t>(i)] = best;
          }
        },
        grain);

    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (int64_t i = 0; i < num_items; ++i) {
      const int32_t c = assign[static_cast<size_t>(i)];
      const float* row = item_emb.row(i);
      double* sum = sums.data() + static_cast<size_t>(c) * dim;
      for (int64_t p = 0; p < dim; ++p) sum[p] += row[p];
      ++counts[static_cast<size_t>(c)];
    }
    for (int32_t c = 0; c < cells; ++c) {
      // An empty cell keeps its previous centroid (it may capture items in
      // a later iteration; collapsing it would change the cell count).
      if (counts[static_cast<size_t>(c)] == 0) continue;
      const double inv = 1.0 / static_cast<double>(counts[c]);
      const double* sum = sums.data() + static_cast<size_t>(c) * dim;
      float* cen = index->centroids_.row(c);
      for (int64_t p = 0; p < dim; ++p) {
        cen[p] = static_cast<float>(sum[p] * inv);
      }
    }
  }

  // CSR membership: counts -> offsets, then fill in ascending item order
  // so every cell's list is sorted (the candidate re-rank depends on it).
  index->cell_offsets_.assign(static_cast<size_t>(cells) + 1, 0);
  for (int64_t i = 0; i < num_items; ++i) {
    ++index->cell_offsets_[static_cast<size_t>(assign[i]) + 1];
  }
  index->empty_cells_ = 0;
  for (int32_t c = 0; c < cells; ++c) {
    if (index->cell_offsets_[static_cast<size_t>(c) + 1] == 0) {
      ++index->empty_cells_;
    }
    index->cell_offsets_[static_cast<size_t>(c) + 1] +=
        index->cell_offsets_[static_cast<size_t>(c)];
  }
  index->cell_items_.resize(static_cast<size_t>(num_items));
  std::vector<int64_t> fill(index->cell_offsets_.begin(),
                            index->cell_offsets_.end() - 1);
  for (int64_t i = 0; i < num_items; ++i) {
    index->cell_items_[static_cast<size_t>(
        fill[static_cast<size_t>(assign[i])]++)] = static_cast<int32_t>(i);
  }

  index->build_us_ = obs::NowMicros() - t0;
  OBS_COUNT("serve.retrieval.index_builds", 1);
  OBS_GAUGE("serve.retrieval.index_cells", static_cast<double>(cells));
  OBS_GAUGE("serve.retrieval.index_build_us",
            static_cast<double>(index->build_us_));
  return std::shared_ptr<const ItemIndex>(std::move(index));
}

void ItemIndex::TopCells(const float* user_row, int32_t nprobe,
                         std::vector<int32_t>* out) const {
  nprobe = std::min(std::max(nprobe, 1), cells_);
  const int64_t dim = centroids_.cols();
  // Cell counts are small (tens to low thousands): score them all and sort
  // the (score desc, id asc) order directly — no heap needed.
  struct CellScore {
    float score;
    int32_t cell;
  };
  std::vector<CellScore> scored(static_cast<size_t>(cells_));
  for (int32_t c = 0; c < cells_; ++c) {
    const float* cen = centroids_.row(c);
    float acc = 0.f;
    for (int64_t p = 0; p < dim; ++p) acc += user_row[p] * cen[p];
    scored[static_cast<size_t>(c)] = CellScore{acc, c};
  }
  std::partial_sort(scored.begin(), scored.begin() + nprobe, scored.end(),
                    [](const CellScore& a, const CellScore& b) {
                      return a.score != b.score ? a.score > b.score
                                                : a.cell < b.cell;
                    });
  out->resize(static_cast<size_t>(nprobe));
  for (int32_t i = 0; i < nprobe; ++i) {
    (*out)[static_cast<size_t>(i)] = scored[static_cast<size_t>(i)].cell;
  }
}

void ItemIndex::GatherCandidates(const std::vector<int32_t>& probe_cells,
                                 std::vector<int32_t>* out) const {
  out->clear();
  int64_t total = 0;
  for (int32_t c : probe_cells) total += cell_size(c);
  out->reserve(static_cast<size_t>(total));
  for (int32_t c : probe_cells) {
    out->insert(out->end(), cell_begin(c), cell_begin(c) + cell_size(c));
  }
  // Cells are disjoint and internally sorted; one sort merges them into
  // the ascending order the rank traversal's exclusion cursor requires.
  std::sort(out->begin(), out->end());
}

}  // namespace layergcn::serve
