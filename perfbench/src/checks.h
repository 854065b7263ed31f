// Per-op correctness checks. Each takes the program's answer and an
// independently computed expectation and says whether the op passed; a
// failed check counts the op as failed. tests/checks_test.cpp feeds each
// one a wrong answer to show it fails.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/delta.h"
#include "serve/recommend_service.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace perfbench {

// --- train ----------------------------------------------------------------

/// An epoch passes when its mean loss is finite.
bool LossIsFinite(double loss);

// --- live reads -------------------------------------------------------------

/// The offline reference ranking of one request.
struct Ranking {
  std::vector<int32_t> items;
  std::vector<float> scores;
};

/// Re-ranks `user` offline with eval::FusedScoreTopK on the snapshot's f32
/// matrices and history exclusions, through its materialize-then-rank
/// fallback (FusedRankConfig::enabled = false): naive dot products and a
/// full sort, the bit-level oracle of the tiled kernel the service runs. A
/// fault in that kernel or its item transpose therefore cannot hide in the
/// reference too.
Ranking ExactReference(const layergcn::serve::ModelSnapshot& snap,
                       int32_t user, int k);

/// True when `served` has exactly the reference's items in order and every
/// score has the reference's bit pattern.
bool RankingMatches(const std::vector<layergcn::serve::ScoredItem>& served,
                    const Ranking& reference);

// --- live -----------------------------------------------------------------

/// A cycle passes when it published a version newer than `before` and the
/// read that followed served exactly that version.
bool CycleServesNewVersion(int64_t before, int64_t published,
                           int64_t served);

/// A publication: `version` was serving from `at_us` on.
struct Publication {
  uint64_t at_us = 0;
  int64_t version = 0;
};

/// A read sent at `sent_us` that was answered from `version`.
struct ReadRecord {
  uint64_t sent_us = 0;
  int64_t version = 0;
};

/// True when the read served a version at least as new as the newest one
/// published before it was sent (`publications` ascending by time).
bool ReadIsFresh(const ReadRecord& read,
                 const std::vector<Publication>& publications);

/// Digest of a fresh DeltaIngestor fed every committed record of the WAL
/// in `wal_dir`; an unreadable WAL is returned as its status.
layergcn::util::StatusOr<uint32_t> ReplayDigest(
    const std::string& wal_dir, const layergcn::pipeline::DeltaOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
