#include "eval/evaluator.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace layergcn::eval {

Evaluator::Evaluator(const data::Dataset* dataset, std::vector<int> ks,
                     int64_t chunk_size, FusedRankConfig fused)
    : dataset_(dataset), ks_(std::move(ks)), chunk_size_(chunk_size),
      fused_(fused) {
  LAYERGCN_CHECK(dataset != nullptr);
  LAYERGCN_CHECK(!ks_.empty());
  LAYERGCN_CHECK_GT(chunk_size_, 0);
  max_k_ = *std::max_element(ks_.begin(), ks_.end());
}

const std::vector<int32_t>& Evaluator::SplitUsers(EvalSplit split) const {
  return split == EvalSplit::kValidation ? dataset_->valid_users
                                         : dataset_->test_users;
}

const std::vector<std::vector<int32_t>>& Evaluator::SplitTruth(
    EvalSplit split) const {
  return split == EvalSplit::kValidation ? dataset_->valid_items
                                         : dataset_->test_items;
}

std::vector<int32_t> Evaluator::ValidUsers(EvalSplit split) const {
  const auto& users = SplitUsers(split);
  const auto& truth = SplitTruth(split);
  const auto& user_items = dataset_->train_graph.user_items();
  const int64_t id_space = std::min(
      static_cast<int64_t>(dataset_->num_users),
      std::min(static_cast<int64_t>(truth.size()),
               static_cast<int64_t>(user_items.size())));
  std::vector<int32_t> valid;
  valid.reserve(users.size());
  for (int32_t u : users) {
    if (u >= 0 && static_cast<int64_t>(u) < id_space &&
        !truth[static_cast<size_t>(u)].empty()) {
      valid.push_back(u);
    }
  }
  const size_t skipped = users.size() - valid.size();
  if (skipped > 0) {
    OBS_COUNT("eval.skipped_users", skipped);
    LAYERGCN_LOG(kWarning)
        << "skipped " << skipped << " of " << users.size()
        << " split users (id out of range or empty ground truth)";
  }
  return valid;
}

RankingMetrics Evaluator::Evaluate(const ScoreFn& score_fn,
                                   EvalSplit split) const {
  OBS_SPAN("eval.evaluate");
  const std::vector<int32_t> users = ValidUsers(split);
  const auto& truth = SplitTruth(split);
  RankingMetrics out;
  for (int k : ks_) {
    out.recall[k] = 0.0;
    out.ndcg[k] = 0.0;
  }
  if (users.empty()) return out;

  const auto& user_items = dataset_->train_graph.user_items();
  const int64_t num_items = dataset_->num_items;
  const MultiKMetrics multi_k(ks_);

  std::vector<double> recall_total(ks_.size(), 0.0);
  std::vector<double> ndcg_total(ks_.size(), 0.0);
  for (size_t begin = 0; begin < users.size();
       begin += static_cast<size_t>(chunk_size_)) {
    const size_t end =
        std::min(users.size(), begin + static_cast<size_t>(chunk_size_));
    const std::vector<int32_t> chunk(users.begin() + static_cast<int64_t>(begin),
                                     users.begin() + static_cast<int64_t>(end));
    const tensor::Matrix scores = score_fn(chunk);
    LAYERGCN_CHECK(scores.rows() == static_cast<int64_t>(chunk.size()) &&
                   scores.cols() == num_items)
        << "score matrix must be |users| x num_items";

    // Rank and accumulate per user; parallel over the chunk with per-user
    // partial results folded in deterministically afterwards. Every cutoff
    // is derived from one pass over the ranked list (prefix sums), and
    // training items are skipped via the sorted adjacency list.
    std::vector<double> recall_parts(chunk.size() * ks_.size(), 0.0);
    std::vector<double> ndcg_parts(chunk.size() * ks_.size(), 0.0);
    util::parallel::For(
        static_cast<int64_t>(chunk.size()),
        [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            const int32_t u = chunk[static_cast<size_t>(r)];
            const std::vector<int32_t> ranked = TopKIndicesSortedExclude(
                scores.row(r), num_items, max_k_,
                user_items[static_cast<size_t>(u)]);
            const int64_t slot = r * static_cast<int64_t>(ks_.size());
            multi_k.Compute(ranked, truth[static_cast<size_t>(u)],
                            recall_parts.data() + slot,
                            ndcg_parts.data() + slot);
          }
        },
        1);
    for (size_t r = 0; r < chunk.size(); ++r) {
      for (size_t ki = 0; ki < ks_.size(); ++ki) {
        recall_total[ki] += recall_parts[r * ks_.size() + ki];
        ndcg_total[ki] += ndcg_parts[r * ks_.size() + ki];
      }
    }
  }
  const double n = static_cast<double>(users.size());
  for (size_t ki = 0; ki < ks_.size(); ++ki) {
    out.recall[ks_[ki]] = recall_total[ki] / n;
    out.ndcg[ks_[ki]] = ndcg_total[ki] / n;
  }
  return out;
}

std::vector<std::vector<int32_t>> Evaluator::RankUsers(
    const tensor::Matrix& user_emb, const tensor::Matrix& item_emb,
    const std::vector<int32_t>& users, int k) const {
  LAYERGCN_CHECK_EQ(item_emb.rows(), dataset_->num_items)
      << "item embedding block must have one row per item";
  LAYERGCN_CHECK_GE(user_emb.rows(), dataset_->num_users)
      << "user embedding block must cover every user id";
  return FusedScoreTopK(user_emb, users, item_emb, k,
                        &dataset_->train_graph.user_items(), fused_);
}

RankingMetrics Evaluator::Evaluate(const tensor::Matrix& user_emb,
                                   const tensor::Matrix& item_emb,
                                   EvalSplit split) const {
  OBS_SPAN("eval.evaluate");
  const std::vector<int32_t> users = ValidUsers(split);
  const auto& truth = SplitTruth(split);
  RankingMetrics out;
  for (int k : ks_) {
    out.recall[k] = 0.0;
    out.ndcg[k] = 0.0;
  }
  if (users.empty()) return out;

  const std::vector<std::vector<int32_t>> ranked =
      RankUsers(user_emb, item_emb, users, max_k_);
  const MultiKMetrics multi_k(ks_);
  std::vector<double> recall(ks_.size());
  std::vector<double> ndcg(ks_.size());
  std::vector<double> recall_total(ks_.size(), 0.0);
  std::vector<double> ndcg_total(ks_.size(), 0.0);
  for (size_t r = 0; r < users.size(); ++r) {
    multi_k.Compute(ranked[r], truth[static_cast<size_t>(users[r])],
                    recall.data(), ndcg.data());
    for (size_t ki = 0; ki < ks_.size(); ++ki) {
      recall_total[ki] += recall[ki];
      ndcg_total[ki] += ndcg[ki];
    }
  }
  const double n = static_cast<double>(users.size());
  for (size_t ki = 0; ki < ks_.size(); ++ki) {
    out.recall[ks_[ki]] = recall_total[ki] / n;
    out.ndcg[ks_[ki]] = ndcg_total[ki] / n;
  }
  return out;
}

Evaluator::PerUser Evaluator::EvaluatePerUser(const ScoreFn& score_fn,
                                              EvalSplit split, int k) const {
  const std::vector<int32_t> users = ValidUsers(split);
  const auto& truth = SplitTruth(split);
  const auto& user_items = dataset_->train_graph.user_items();
  const int64_t num_items = dataset_->num_items;

  PerUser out;
  out.recall.resize(users.size());
  out.ndcg.resize(users.size());
  for (size_t begin = 0; begin < users.size();
       begin += static_cast<size_t>(chunk_size_)) {
    const size_t end =
        std::min(users.size(), begin + static_cast<size_t>(chunk_size_));
    const std::vector<int32_t> chunk(users.begin() + static_cast<int64_t>(begin),
                                     users.begin() + static_cast<int64_t>(end));
    const tensor::Matrix scores = score_fn(chunk);
    util::parallel::For(
        static_cast<int64_t>(chunk.size()),
        [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            const int32_t u = chunk[static_cast<size_t>(r)];
            const std::vector<int32_t> ranked = TopKIndicesSortedExclude(
                scores.row(r), num_items, k,
                user_items[static_cast<size_t>(u)]);
            const auto& gt = truth[static_cast<size_t>(u)];
            const size_t slot = begin + static_cast<size_t>(r);
            out.recall[slot] = RecallAtK(ranked, gt, k);
            out.ndcg[slot] = NdcgAtK(ranked, gt, k);
          }
        },
        1);
  }
  return out;
}

Evaluator::PerUser Evaluator::EvaluatePerUser(const tensor::Matrix& user_emb,
                                              const tensor::Matrix& item_emb,
                                              EvalSplit split, int k) const {
  const std::vector<int32_t> users = ValidUsers(split);
  const auto& truth = SplitTruth(split);
  PerUser out;
  out.recall.resize(users.size());
  out.ndcg.resize(users.size());
  const std::vector<std::vector<int32_t>> ranked =
      RankUsers(user_emb, item_emb, users, k);
  for (size_t r = 0; r < users.size(); ++r) {
    const auto& gt = truth[static_cast<size_t>(users[r])];
    out.recall[r] = RecallAtK(ranked[r], gt, k);
    out.ndcg[r] = NdcgAtK(ranked[r], gt, k);
  }
  return out;
}

}  // namespace layergcn::eval
