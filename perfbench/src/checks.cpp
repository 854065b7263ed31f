#include "checks.h"

#include <cmath>
#include <cstring>

#include "eval/fused_rank.h"
#include "pipeline/wal.h"

namespace perfbench {

namespace serve = layergcn::serve;
namespace util = layergcn::util;

bool LossIsFinite(double loss) { return std::isfinite(loss); }

Ranking ExactReference(const serve::ModelSnapshot& snap, int32_t user,
                       int k) {
  // The materialize-then-rank path, not the tiled kernel the service runs.
  layergcn::eval::FusedRankConfig oracle;
  oracle.enabled = false;
  std::vector<std::vector<float>> scores;
  std::vector<std::vector<int32_t>> items = layergcn::eval::FusedScoreTopK(
      snap.user_emb(), {user}, snap.item_emb(), k, &snap.user_history(),
      oracle, nullptr, &scores);
  return Ranking{std::move(items.front()), std::move(scores.front())};
}

bool RankingMatches(const std::vector<serve::ScoredItem>& served,
                    const Ranking& reference) {
  if (served.size() != reference.items.size() ||
      reference.scores.size() != reference.items.size()) {
    return false;
  }
  for (size_t i = 0; i < served.size(); ++i) {
    if (served[i].item != reference.items[i]) return false;
    if (std::memcmp(&served[i].score, &reference.scores[i], sizeof(float)) !=
        0) {
      return false;
    }
  }
  return true;
}

bool CycleServesNewVersion(int64_t before, int64_t published,
                           int64_t served) {
  return published > before && served == published;
}

bool ReadIsFresh(const ReadRecord& read,
                 const std::vector<Publication>& publications) {
  int64_t newest = 0;
  for (const Publication& p : publications) {
    if (p.at_us >= read.sent_us) break;
    newest = p.version;
  }
  return read.version >= newest;
}

util::StatusOr<uint32_t> ReplayDigest(
    const std::string& wal_dir, const layergcn::pipeline::DeltaOptions& opts) {
  util::StatusOr<std::vector<layergcn::pipeline::WalRecord>> records =
      layergcn::pipeline::InteractionWal::ReadAll(wal_dir);
  if (!records.ok()) return records.status();
  layergcn::pipeline::DeltaIngestor replay(opts);
  replay.Apply(records.value());
  return replay.Digest();
}

}  // namespace perfbench
