// The synthetic serving snapshot the serving benches publish: uniform
// random embeddings in [-0.5, 0.5] plus strided per-user histories, so the
// exclusion path does real work: user u's history is every item i with
// i ≡ u (mod 37 + u % 17).

#ifndef LAYERGCN_BENCH_STRIDED_EXPORT_H_
#define LAYERGCN_BENCH_STRIDED_EXPORT_H_

#include <cstddef>
#include <cstdint>

#include "tensor/matrix.h"
#include "train/checkpoint.h"
#include "util/rng.h"

namespace layergcn::bench {

/// Version-1 export of `num_users` x `num_items` embeddings of width `dim`,
/// drawn from one util::Rng seeded with `seed` (users first, then items).
inline train::ServingExport StridedExport(int32_t num_users,
                                          int32_t num_items, int64_t dim,
                                          uint64_t seed) {
  train::ServingExport ex;
  ex.version = 1;
  ex.user_emb = tensor::Matrix(num_users, dim);
  ex.item_emb = tensor::Matrix(num_items, dim);
  util::Rng rng(seed);
  ex.user_emb.UniformInit(&rng, -0.5f, 0.5f);
  ex.item_emb.UniformInit(&rng, -0.5f, 0.5f);
  ex.user_history.resize(static_cast<size_t>(num_users));
  for (int32_t u = 0; u < num_users; ++u) {
    const int32_t stride = 37 + u % 17;
    for (int32_t i = u % stride; i < num_items; i += stride) {
      ex.user_history[static_cast<size_t>(u)].push_back(i);
    }
  }
  return ex;
}

}  // namespace layergcn::bench

#endif  // LAYERGCN_BENCH_STRIDED_EXPORT_H_
