#include "catalog.h"

#include <algorithm>

namespace perfbench {

namespace tensor = layergcn::tensor;
namespace util = layergcn::util;

layergcn::train::ServingExport MakeCatalog(const CatalogSpec& spec,
                                           uint64_t seed) {
  util::Rng rng(seed);
  tensor::Matrix centroids(spec.clusters, spec.dim);
  for (int32_t c = 0; c < spec.clusters; ++c) {
    for (int32_t d = 0; d < spec.dim; ++d) {
      centroids(c, d) = static_cast<float>(rng.NextGaussian());
    }
  }
  const auto fill = [&](tensor::Matrix* m, std::vector<int32_t>* cluster) {
    for (int64_t r = 0; r < m->rows(); ++r) {
      const int32_t c = static_cast<int32_t>(
          rng.NextBounded(static_cast<uint64_t>(spec.clusters)));
      cluster->push_back(c);
      for (int32_t d = 0; d < spec.dim; ++d) {
        (*m)(r, d) = centroids(c, d) +
                     0.5f * static_cast<float>(rng.NextGaussian());
      }
    }
  };

  layergcn::train::ServingExport ex;
  ex.version = 1;
  ex.user_emb = tensor::Matrix(spec.users, spec.dim);
  ex.item_emb = tensor::Matrix(spec.items, spec.dim);
  std::vector<int32_t> user_cluster, item_cluster;
  fill(&ex.user_emb, &user_cluster);
  fill(&ex.item_emb, &item_cluster);

  std::vector<std::vector<int32_t>> members(
      static_cast<size_t>(spec.clusters));
  for (int32_t i = 0; i < spec.items; ++i) {
    members[static_cast<size_t>(item_cluster[static_cast<size_t>(i)])]
        .push_back(i);
  }
  ex.user_history.resize(static_cast<size_t>(spec.users));
  for (int32_t u = 0; u < spec.users; ++u) {
    const std::vector<int32_t>& pool =
        members[static_cast<size_t>(user_cluster[static_cast<size_t>(u)])];
    std::vector<int32_t>& h = ex.user_history[static_cast<size_t>(u)];
    for (int32_t j = 0; j < spec.history && !pool.empty(); ++j) {
      h.push_back(pool[rng.NextBounded(pool.size())]);
    }
    std::sort(h.begin(), h.end());
    h.erase(std::unique(h.begin(), h.end()), h.end());
  }
  return ex;
}

EventStream::EventStream(int32_t users, int32_t items, uint64_t seed)
    : items_(items),
      user_zipf_(util::ZipfWeights(users, 0.8)),
      cluster_item_zipf_(
          util::ZipfWeights(std::max<int32_t>(1, items / kClusters), 1.0)),
      global_item_zipf_(util::ZipfWeights(items, 1.0)),
      rng_(seed) {}

std::vector<layergcn::pipeline::WalRecord> EventStream::Next(int64_t n) {
  std::vector<layergcn::pipeline::WalRecord> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t e = 0; e < n; ++e) {
    layergcn::pipeline::WalRecord r;
    r.user = static_cast<int32_t>(user_zipf_.Sample(&rng_));
    if (rng_.NextDouble() < kOffCluster) {
      r.item = static_cast<int32_t>(global_item_zipf_.Sample(&rng_));
    } else {
      // Item j of the user's cluster is item j * kClusters + cluster.
      const int64_t j = cluster_item_zipf_.Sample(&rng_);
      r.item = static_cast<int32_t>(
          std::min<int64_t>(j * kClusters + r.user % kClusters, items_ - 1));
    }
    r.timestamp = timestamp_++;
    out.push_back(r);
  }
  return out;
}

}  // namespace perfbench
