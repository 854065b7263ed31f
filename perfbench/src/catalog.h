// Seeded inputs the benchmark hands to the program: a Zipf interaction
// stream (live) and a clustered serving catalog (the self-test's served
// answers). Only these generated inputs reach the program; the seed never
// does.

#ifndef PERFBENCH_CATALOG_H_
#define PERFBENCH_CATALOG_H_

#include <cstdint>
#include <vector>

#include "pipeline/wal.h"
#include "train/checkpoint.h"
#include "util/discrete_distribution.h"
#include "util/rng.h"

namespace perfbench {

struct CatalogSpec {
  int32_t users = 20000;
  int32_t items = 20000;
  int32_t dim = 64;
  int32_t clusters = 64;
  /// Training items per user (its exclusion list), drawn from its cluster.
  int32_t history = 20;
};

/// A serving export whose user and item rows are their cluster's centroid
/// plus Gaussian noise, so an IVF index over the items finds real cells.
layergcn::train::ServingExport MakeCatalog(const CatalogSpec& spec,
                                           uint64_t seed);

/// Interactions of `users` x `items` with Zipf-skewed user activity and
/// item popularity; most events stay inside the user's preference cluster.
class EventStream {
 public:
  EventStream(int32_t users, int32_t items, uint64_t seed);
  std::vector<layergcn::pipeline::WalRecord> Next(int64_t n);

 private:
  static constexpr int32_t kClusters = 16;
  static constexpr double kOffCluster = 0.15;

  int32_t items_;
  layergcn::util::DiscreteDistribution user_zipf_;
  layergcn::util::DiscreteDistribution cluster_item_zipf_;
  layergcn::util::DiscreteDistribution global_item_zipf_;
  layergcn::util::Rng rng_;
  int64_t timestamp_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CATALOG_H_
