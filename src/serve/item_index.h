// IVF-style coarse quantization index over the snapshot's item embeddings.
//
// Scoring one request against every item is O(num_items * dim) no matter
// how fast the kernel is — the scaling wall is the size of the item scan,
// not its speed. The production answer (PinSage-style two-stage retrieval)
// is a cheap candidate-generation tier: cluster the items once at snapshot
// load with k-means (the "inverted file" coarse quantizer), and per request
// score the user only against the cell centroids (a tiny GEMV), probe the
// top `nprobe` cells, and re-rank their members exactly with the rank
// traversal (eval::ScoreTopK). Retrieval quality is a pure inner-product
// problem over the final fused LayerGCN embeddings, so the index needs no
// training state — just the f32 item matrix.
//
// Layout: centroids are a dense cells x dim matrix; cell membership is
// CSR-style — `cell_offsets` (cells + 1 entries) into `cell_items`, which
// holds every item id exactly once, grouped by cell and sorted ascending
// within each cell. Ascending order matters: the candidate re-rank walks
// each user's sorted exclusion list with the same monotone cursor the full
// kernels use.
//
// Determinism: the index is a pure function of (item matrix, options).
// Seeded init draws the starting centroids with
// util::UniformSampleWithoutReplacement; Lloyd runs a fixed number of
// iterations; the assignment step is a pure per-item map (parallelized
// with util::parallel::For, whose block partition is worker-count-
// independent) with ties broken toward the lowest cell id; the centroid
// update accumulates serially in ascending item order. Every step is
// bit-identical at 1, 2, or N threads, so two replicas loading the same
// snapshot build the same index and serve the same rankings.

#ifndef LAYERGCN_SERVE_ITEM_INDEX_H_
#define LAYERGCN_SERVE_ITEM_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/matrix.h"
#include "util/status.h"

namespace layergcn::serve {

/// How a request's candidate set is formed: kExact scans every item (the
/// bit-exact reference path), kIvf probes the item index and re-ranks only
/// the gathered candidates.
enum class RetrievalMode { kExact, kIvf };

const char* RetrievalModeName(RetrievalMode mode);

/// Parses "exact" / "ivf". Returns false on anything else.
bool ParseRetrievalMode(const std::string& name, RetrievalMode* out);

struct ItemIndexOptions {
  /// Target cell count (clamped to [1, num_items] at build time). With
  /// `nprobe` cells probed per request, the expected candidate count is
  /// roughly nprobe * num_items / cells — size `cells` so that lands in
  /// the ~1-4k range for the catalog being served.
  int32_t cells = 64;
  /// Fixed Lloyd iteration count (no convergence test: a data-dependent
  /// stop would make the build time — though not the result — vary).
  int32_t iterations = 10;
  /// Seed for the k-means init draw.
  uint64_t seed = 0x1e5u;
};

/// Immutable coarse-quantization index over one snapshot's item matrix.
/// Built once at snapshot load; every accessor is safe to call
/// concurrently.
class ItemIndex {
 public:
  /// Runs seeded k-means over `item_emb` and freezes the result. Fails
  /// (without touching the snapshot) when the matrix is empty or carries
  /// non-finite values — and at the `serve.index_build_fail` fault point,
  /// which tests arm to exercise the exact-serving fallback.
  static util::StatusOr<std::shared_ptr<const ItemIndex>> Build(
      const tensor::Matrix& item_emb, const ItemIndexOptions& options);

  int32_t cells() const { return cells_; }
  int64_t num_items() const { return num_items_; }
  int64_t dim() const { return centroids_.cols(); }
  /// Cells that ended the build with no members (their centroids are the
  /// frozen value of the last iteration that owned items, or the init).
  int32_t empty_cells() const { return empty_cells_; }
  /// Wall-clock microseconds the k-means build took.
  uint64_t build_us() const { return build_us_; }
  int32_t iterations() const { return iterations_; }

  const tensor::Matrix& centroids() const { return centroids_; }

  /// Item ids of cell `c`, sorted ascending.
  const int32_t* cell_begin(int32_t c) const {
    return cell_items_.data() + cell_offsets_[static_cast<size_t>(c)];
  }
  int64_t cell_size(int32_t c) const {
    return cell_offsets_[static_cast<size_t>(c) + 1] -
           cell_offsets_[static_cast<size_t>(c)];
  }

  /// The `nprobe` cells with the highest user-centroid inner product,
  /// ordered by (score desc, cell id asc). `nprobe` is clamped to
  /// [1, cells]; `user_row` must have dim() components. Deterministic: the
  /// tie-break makes the probe set and order a total function of the
  /// scores.
  void TopCells(const float* user_row, int32_t nprobe,
                std::vector<int32_t>* out) const;

  /// Every item of every cell in `probe_cells`, merged and sorted
  /// ascending (cells are disjoint, so the result has no duplicates).
  void GatherCandidates(const std::vector<int32_t>& probe_cells,
                        std::vector<int32_t>* out) const;

 private:
  ItemIndex() = default;

  int32_t cells_ = 0;
  int64_t num_items_ = 0;
  int32_t empty_cells_ = 0;
  int32_t iterations_ = 0;
  uint64_t build_us_ = 0;
  tensor::Matrix centroids_;            // cells x dim
  std::vector<int64_t> cell_offsets_;   // cells + 1
  std::vector<int32_t> cell_items_;     // num_items, grouped by cell
};

}  // namespace layergcn::serve

#endif  // LAYERGCN_SERVE_ITEM_INDEX_H_
