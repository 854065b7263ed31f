#include "pipeline/delta.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace layergcn::pipeline {
namespace {

int64_t PairKey(int32_t user, int32_t item) {
  return (static_cast<int64_t>(user) << 32) |
         static_cast<int64_t>(static_cast<uint32_t>(item));
}

uint32_t DigestSlice(uint32_t crc, std::vector<data::Interaction> slice) {
  std::sort(slice.begin(), slice.end(),
            [](const data::Interaction& a, const data::Interaction& b) {
              return a.user != b.user ? a.user < b.user : a.item < b.item;
            });
  for (const data::Interaction& ev : slice) {
    crc = util::Crc32Update(crc, &ev.user, sizeof(ev.user));
    crc = util::Crc32Update(crc, &ev.item, sizeof(ev.item));
    crc = util::Crc32Update(crc, &ev.timestamp, sizeof(ev.timestamp));
  }
  return crc;
}

}  // namespace

DeltaIngestor::DeltaIngestor(DeltaOptions options)
    : options_(std::move(options)) {
  if (options_.holdout_cycle < 3) options_.holdout_cycle = 3;
}

void DeltaIngestor::Route(const data::Interaction& ev) {
  // Pure function of the acceptance index: slot cycle-1 is validation,
  // the middle slot is test, everything else trains. The very first
  // events are train slots, so a tiny bootstrap has a graph to stand on.
  const int slot =
      static_cast<int>(accepted_ % static_cast<int64_t>(options_.holdout_cycle));
  ++accepted_;
  if (slot == options_.holdout_cycle - 1) {
    valid_.push_back(ev);
  } else if (slot == options_.holdout_cycle / 2) {
    test_.push_back(ev);
  } else {
    train_.push_back(ev);
  }
}

IngestStats DeltaIngestor::Apply(const std::vector<WalRecord>& records) {
  IngestStats stats;
  const int32_t users_before = num_users_;
  const int32_t items_before = num_items_;
  for (const WalRecord& r : records) {
    if (r.user < 0 || r.item < 0 || r.user >= options_.max_users ||
        r.item >= options_.max_items) {
      ++stats.rejected;
      continue;
    }
    if (!seen_.insert(PairKey(r.user, r.item)).second) {
      ++stats.duplicates;
      continue;
    }
    num_users_ = std::max(num_users_, r.user + 1);
    num_items_ = std::max(num_items_, r.item + 1);
    Route({r.user, r.item, r.timestamp});
    ++stats.applied;
  }
  stats.new_users = num_users_ - users_before;
  stats.new_items = num_items_ - items_before;
  OBS_COUNT("pipeline.ingest.applied", stats.applied);
  OBS_COUNT("pipeline.ingest.duplicates", stats.duplicates);
  OBS_COUNT("pipeline.ingest.rejected", stats.rejected);
  OBS_GAUGE("pipeline.graph.users", num_users_);
  OBS_GAUGE("pipeline.graph.items", num_items_);
  OBS_GAUGE("pipeline.graph.train_edges", train_.size());
  return stats;
}

data::Dataset DeltaIngestor::BuildDataset() const {
  return data::BuildDataset(options_.name, num_users_, num_items_, train_,
                            valid_, test_);
}

uint32_t DeltaIngestor::Digest() const {
  uint32_t crc = util::Crc32Init();
  crc = util::Crc32Update(crc, &num_users_, sizeof(num_users_));
  crc = util::Crc32Update(crc, &num_items_, sizeof(num_items_));
  crc = DigestSlice(crc, train_);
  crc = DigestSlice(crc, valid_);
  crc = DigestSlice(crc, test_);
  return util::Crc32Final(crc);
}

}  // namespace layergcn::pipeline
