// Crash-survival suite for the continuous pipeline (DESIGN.md §16):
// WAL kill-at-any-point recovery (torn tails truncated, corrupt records
// skipped and counted, replay bit-identical to an unfaulted run), the
// torn-commit recovery drill, deterministic delta ingest, manifest CRC
// fallback, publisher retry/backoff/abort semantics, warm-start row
// carry, the quality gate, and the supervisor's bounded restart budget.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "pipeline/delta.h"
#include "pipeline/publisher.h"
#include "pipeline/supervisor.h"
#include "pipeline/wal.h"
#include "pipeline/warm_start.h"
#include "serve/snapshot.h"
#include "tensor/matrix.h"
#include "test_util.h"
#include "train/checkpoint.h"
#include "train/stop_token.h"
#include "util/fault_injection.h"
#include "util/file_image.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"

namespace layergcn::pipeline {
namespace {

namespace fs = std::filesystem;
using testing::TempDirFor;

// On-disk segment geometry (mirrors wal.cpp): 16-byte header, then
// 24-byte frames (uint32 len | 16-byte payload | uint32 crc).
constexpr size_t kHeader = 16;
constexpr size_t kFrame = 24;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Deterministic event stream: event i is a pure function of i, with id
// spaces that widen as the stream advances (warm starts must grow rows).
WalRecord EventAt(int64_t i) {
  const uint64_t h = Mix64(0xabcdull ^ static_cast<uint64_t>(i));
  WalRecord r;
  r.user = static_cast<int32_t>(h % static_cast<uint64_t>(12 + i / 8));
  r.item =
      static_cast<int32_t>((h >> 32) % static_cast<uint64_t>(16 + i / 5));
  r.timestamp = i;
  return r;
}

std::vector<WalRecord> Events(int64_t begin, int64_t end) {
  std::vector<WalRecord> out;
  for (int64_t i = begin; i < end; ++i) out.push_back(EventAt(i));
  return out;
}

train::TrainConfig SmallConfig() {
  train::TrainConfig cfg;
  cfg.embedding_dim = 8;
  cfg.num_layers = 2;
  cfg.batch_size = 256;
  cfg.seed = 11;
  return cfg;
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::fault::DisarmAll();
    obs::SetEnabled(true);
  }
  void TearDown() override { util::fault::DisarmAll(); }
};

// ---------------------------------------------------------------------------
// WAL

TEST_F(PipelineTest, WalAppendCommitReadBack) {
  const std::string dir = TempDirFor("wal_roundtrip");
  const std::vector<WalRecord> events = Events(0, 10);
  {
    auto wal = InteractionWal::Open({.dir = dir});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (const WalRecord& e : events) {
      ASSERT_TRUE(wal.value()->Append(e).ok());
    }
    EXPECT_EQ(wal.value()->pending_records(), 10);
    EXPECT_EQ(wal.value()->committed_records(), 0);
    ASSERT_TRUE(wal.value()->Commit().ok());
    EXPECT_EQ(wal.value()->committed_records(), 10);
  }
  // A fresh reader and a fresh writer both see exactly the committed set.
  WalRecoveryStats stats;
  const auto read = InteractionWal::ReadAll(dir, &stats);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), events);
  EXPECT_EQ(stats.records, 10);
  EXPECT_EQ(stats.corrupt_records, 0);
  EXPECT_EQ(stats.torn_tails, 0);

  auto reopened = InteractionWal::Open({.dir = dir});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->committed_records(), 10);
  EXPECT_EQ(reopened.value()->recovery().records, 10);
}

TEST_F(PipelineTest, WalRotatesSegmentsAndSurvivesReopen) {
  const std::string dir = TempDirFor("wal_rotate");
  WalOptions options{.dir = dir, .segment_bytes = 128};  // ~4 frames/segment
  const std::vector<WalRecord> events = Events(0, 40);
  {
    auto wal = InteractionWal::Open(options);
    ASSERT_TRUE(wal.ok());
    for (const WalRecord& e : events) {
      ASSERT_TRUE(wal.value()->Append(e).ok());
      ASSERT_TRUE(wal.value()->Commit().ok());
    }
  }
  EXPECT_GT(InteractionWal::ListSegments(dir).size(), 3u);
  const auto read = InteractionWal::ReadAll(dir);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), events);

  auto reopened = InteractionWal::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->committed_records(), 40);
}

TEST_F(PipelineTest, WalTornTailTruncatedAtAnyCutPoint) {
  // Simulate a crash after any number of bytes of the last frame reached
  // the disk: recovery must keep exactly the complete-frame prefix,
  // truncate the rest, and leave the segment writable.
  const std::vector<WalRecord> events = Events(0, 6);
  for (const size_t partial : {1u, 5u, 11u, 23u}) {
    const std::string dir = TempDirFor("wal_torn");
    {
      auto wal = InteractionWal::Open({.dir = dir});
      ASSERT_TRUE(wal.ok());
      for (const WalRecord& e : events) {
        ASSERT_TRUE(wal.value()->Append(e).ok());
      }
      ASSERT_TRUE(wal.value()->Commit().ok());
    }
    const std::string seg = InteractionWal::SegmentPath(dir, 0);
    // Keep 4 whole frames plus `partial` bytes of the 5th.
    fs::resize_file(seg, kHeader + 4 * kFrame + partial);

    auto wal = InteractionWal::Open({.dir = dir});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ(wal.value()->recovery().torn_tails, 1);
    EXPECT_EQ(wal.value()->committed_records(), 4);
    EXPECT_EQ(fs::file_size(seg), kHeader + 4 * kFrame);

    // The repaired segment extends cleanly.
    ASSERT_TRUE(wal.value()->Append(EventAt(100)).ok());
    ASSERT_TRUE(wal.value()->Commit().ok());
    const auto read = InteractionWal::ReadAll(dir);
    ASSERT_TRUE(read.ok());
    std::vector<WalRecord> expect(events.begin(), events.begin() + 4);
    expect.push_back(EventAt(100));
    EXPECT_EQ(read.value(), expect);
  }
}

TEST_F(PipelineTest, WalCorruptRecordSkippedAndCounted) {
  const std::string dir = TempDirFor("wal_corrupt");
  const std::vector<WalRecord> events = Events(0, 6);
  {
    auto wal = InteractionWal::Open({.dir = dir});
    ASSERT_TRUE(wal.ok());
    for (const WalRecord& e : events) {
      ASSERT_TRUE(wal.value()->Append(e).ok());
    }
    ASSERT_TRUE(wal.value()->Commit().ok());
  }
  // Flip one payload byte of the third frame on disk: the frame is still
  // complete, so recovery skips it and keeps everything after it.
  const std::string seg = InteractionWal::SegmentPath(dir, 0);
  {
    std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff off = kHeader + 2 * kFrame + 4 + 2;
    f.seekg(off);
    const char b = static_cast<char>(f.get());
    f.seekp(off);
    f.put(static_cast<char>(b ^ 0x40));
  }
  WalRecoveryStats stats;
  const auto read = InteractionWal::ReadAll(dir, &stats);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(stats.corrupt_records, 1);
  EXPECT_EQ(stats.torn_tails, 0);
  std::vector<WalRecord> expect = events;
  expect.erase(expect.begin() + 2);
  EXPECT_EQ(read.value(), expect);
}

TEST_F(PipelineTest, WalBitFlipFaultPointCountsCorruptRecord) {
  const std::string dir = TempDirFor("wal_bitflip");
  {
    auto wal = InteractionWal::Open({.dir = dir});
    ASSERT_TRUE(wal.ok());
    for (const WalRecord& e : Events(0, 5)) {
      ASSERT_TRUE(wal.value()->Append(e).ok());
    }
    ASSERT_TRUE(wal.value()->Commit().ok());
  }
  util::fault::Arm("wal.bit_flip");
  WalRecoveryStats stats;
  const auto read = InteractionWal::ReadAll(dir, &stats);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(stats.corrupt_records, 1);
  EXPECT_EQ(static_cast<int64_t>(read.value().size()), 4);

  // One-shot: the next read sees the intact file again.
  const auto clean = InteractionWal::ReadAll(dir, &stats);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(stats.corrupt_records, 0);
  EXPECT_EQ(static_cast<int64_t>(clean.value().size()), 5);
}

TEST_F(PipelineTest, WalShortReadFaultPointTruncatesImage) {
  const std::string dir = TempDirFor("wal_shortread");
  {
    auto wal = InteractionWal::Open({.dir = dir});
    ASSERT_TRUE(wal.ok());
    for (const WalRecord& e : Events(0, 8)) {
      ASSERT_TRUE(wal.value()->Append(e).ok());
    }
    ASSERT_TRUE(wal.value()->Commit().ok());
  }
  util::fault::Arm("wal.short_read");
  WalRecoveryStats stats;
  const auto read = InteractionWal::ReadAll(dir, &stats);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(stats.torn_tails, 1);
  EXPECT_LT(static_cast<int64_t>(read.value().size()), 8);
}

TEST_F(PipelineTest, WalDirectoryNamedLikeSegmentIsStructuredError) {
  // Segments are listed by name alone: a directory squatting on a segment
  // name must come back as a Status from every reader, not an abort or an
  // allocation sized from the directory.
  const std::string dir = TempDirFor("wal_dir_squat");
  {
    auto wal = InteractionWal::Open({.dir = dir});
    ASSERT_TRUE(wal.ok());
    for (const WalRecord& e : Events(0, 5)) {
      ASSERT_TRUE(wal.value()->Append(e).ok());
    }
    ASSERT_TRUE(wal.value()->Commit().ok());
  }
  fs::create_directories(InteractionWal::SegmentPath(dir, 9));

  const auto read = InteractionWal::ReadAll(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), util::StatusCode::kDataLoss);
  const auto opened = InteractionWal::Open({.dir = dir});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), util::StatusCode::kDataLoss);
}

TEST_F(PipelineTest, WalGcRemovesOnlyCoveredSealedSegments) {
  const std::string dir = TempDirFor("wal_gc");
  WalOptions options{.dir = dir, .segment_bytes = 128};  // ~5 frames/segment
  auto wal = InteractionWal::Open(options);
  ASSERT_TRUE(wal.ok());
  for (const WalRecord& e : Events(0, 40)) {
    ASSERT_TRUE(wal.value()->Append(e).ok());
    ASSERT_TRUE(wal.value()->Commit().ok());
  }
  const size_t segments_before = InteractionWal::ListSegments(dir).size();
  ASSERT_GT(segments_before, 3u);

  // Covering seq 10 may only remove segments whose records all precede
  // it; every record >= 10 must survive the GC.
  const int64_t removed = wal.value()->GcCoveredSegments(10);
  EXPECT_GE(removed, 1);
  EXPECT_EQ(InteractionWal::ListSegments(dir).size(),
            segments_before - static_cast<size_t>(removed));
  auto read = InteractionWal::ReadAll(dir);
  ASSERT_TRUE(read.ok());
  ASSERT_GE(read.value().size(), 30u);
  const std::vector<WalRecord> tail(read.value().end() - 30,
                                    read.value().end());
  EXPECT_EQ(tail, Events(10, 40));

  // Covering everything still never deletes the active segment, and the
  // writer keeps appending to it across a reopen.
  wal.value()->GcCoveredSegments(40);
  ASSERT_GE(InteractionWal::ListSegments(dir).size(), 1u);
  auto reopened = InteractionWal::Open(options);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened.value()->Append(EventAt(40)).ok());
  ASSERT_TRUE(reopened.value()->Commit().ok());
  read = InteractionWal::ReadAll(dir);
  ASSERT_TRUE(read.ok());
  ASSERT_FALSE(read.value().empty());
  EXPECT_EQ(read.value().back(), EventAt(40));
}

TEST_F(PipelineTest, WalEnospcFaultFailsCommitCleanlyAndPoisons) {
  const std::string dir = TempDirFor("wal_enospc");
  auto wal = InteractionWal::Open({.dir = dir});
  ASSERT_TRUE(wal.ok());
  for (const WalRecord& e : Events(0, 5)) {
    ASSERT_TRUE(wal.value()->Append(e).ok());
  }
  ASSERT_TRUE(wal.value()->Commit().ok());

  util::fault::Arm("wal.enospc");
  ASSERT_TRUE(wal.value()->Append(EventAt(5)).ok());
  const util::Status st = wal.value()->Commit();
  EXPECT_EQ(st.code(), util::StatusCode::kResourceExhausted);
  // Unlike a torn write nothing partial landed, and the handle is
  // poisoned like any I/O failure.
  EXPECT_EQ(wal.value()->Commit().code(),
            util::StatusCode::kFailedPrecondition);
  const auto read = InteractionWal::ReadAll(dir);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), Events(0, 5));
}

TEST_F(PipelineTest, TornCommitRecoveryDrillIsLossless) {
  // The supervisor's drill, exercised at every batch position: a commit
  // tears mid-frame, the writer is poisoned, a re-Open truncates the torn
  // tail, and exactly the lost suffix is re-appended. The committed
  // sequence must be bit-identical to an unfaulted run's.
  const int kBatches = 4, kPerBatch = 5;
  const std::string ref_dir = TempDirFor("wal_drill_ref");
  {
    auto wal = InteractionWal::Open({.dir = ref_dir});
    ASSERT_TRUE(wal.ok());
    for (int b = 0; b < kBatches; ++b) {
      for (const WalRecord& e : Events(b * kPerBatch, (b + 1) * kPerBatch)) {
        ASSERT_TRUE(wal.value()->Append(e).ok());
      }
      ASSERT_TRUE(wal.value()->Commit().ok());
    }
  }
  const auto reference = InteractionWal::ReadAll(ref_dir);
  ASSERT_TRUE(reference.ok());

  for (int torn_batch = 0; torn_batch < kBatches; ++torn_batch) {
    const std::string dir = TempDirFor("wal_drill");
    auto wal = InteractionWal::Open({.dir = dir});
    ASSERT_TRUE(wal.ok());
    for (int b = 0; b < kBatches; ++b) {
      const std::vector<WalRecord> batch =
          Events(b * kPerBatch, (b + 1) * kPerBatch);
      if (b == torn_batch) util::fault::Arm("wal.torn_write");
      const int64_t before = wal.value()->committed_records();
      for (const WalRecord& e : batch) {
        ASSERT_TRUE(wal.value()->Append(e).ok());
      }
      util::Status st = wal.value()->Commit();
      if (b == torn_batch) {
        ASSERT_EQ(st.code(), util::StatusCode::kDataLoss);
        // Poisoned until re-opened.
        EXPECT_FALSE(wal.value()->Append(batch[0]).ok());
        wal = InteractionWal::Open({.dir = dir});
        ASSERT_TRUE(wal.ok());
        EXPECT_EQ(wal.value()->recovery().torn_tails, 1);
        const int64_t survived = wal.value()->committed_records() - before;
        ASSERT_GE(survived, 0);
        ASSERT_LE(survived, kPerBatch);
        for (size_t i = static_cast<size_t>(survived); i < batch.size();
             ++i) {
          ASSERT_TRUE(wal.value()->Append(batch[i]).ok());
        }
        ASSERT_TRUE(wal.value()->Commit().ok());
      } else {
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    }
    const auto recovered = InteractionWal::ReadAll(dir);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered.value(), reference.value())
        << "drill diverged when batch " << torn_batch << " tore";
  }
}

// ---------------------------------------------------------------------------
// Delta ingest

TEST_F(PipelineTest, DeltaIngestDeterministicAcrossBatching) {
  const std::vector<WalRecord> events = Events(0, 120);
  DeltaIngestor one;
  one.Apply(events);

  DeltaIngestor many;
  many.Apply(Events(0, 50));
  many.Apply(Events(50, 90));
  many.Apply(Events(90, 120));

  EXPECT_EQ(one.Digest(), many.Digest());
  EXPECT_EQ(one.num_users(), many.num_users());
  EXPECT_EQ(one.num_items(), many.num_items());
  EXPECT_EQ(one.accepted(), many.accepted());
}

TEST_F(PipelineTest, DeltaIngestIdempotentAndBounded) {
  DeltaOptions options;
  options.max_users = 8;
  options.max_items = 1 << 20;
  DeltaIngestor ingestor(options);
  const IngestStats first = ingestor.Apply(Events(0, 60));
  EXPECT_GT(first.applied, 0);
  EXPECT_GT(first.rejected, 0);  // users beyond the cap are refused
  const uint32_t digest = ingestor.Digest();

  // Replaying the identical batch is a pure duplicate no-op.
  const IngestStats again = ingestor.Apply(Events(0, 60));
  EXPECT_EQ(again.applied, 0);
  EXPECT_EQ(again.duplicates + again.rejected, 60);
  EXPECT_EQ(ingestor.Digest(), digest);
  EXPECT_LE(ingestor.num_users(), 8);
}

TEST_F(PipelineTest, DeltaHoldoutRoutingAndDataset) {
  DeltaOptions options;
  options.holdout_cycle = 5;
  DeltaIngestor ingestor(options);
  // Unique events only (distinct users), so routing is exactly cyclic:
  // of every 5 accepted, one goes to valid and one to test.
  std::vector<WalRecord> events;
  for (int i = 0; i < 20; ++i) {
    events.push_back({i, i % 7, i});
  }
  const IngestStats stats = ingestor.Apply(events);
  EXPECT_EQ(stats.applied, 20);
  EXPECT_EQ(ingestor.train_edges(), 12);  // 20 - 4 valid - 4 test

  const data::Dataset dataset = ingestor.BuildDataset();
  EXPECT_EQ(dataset.num_users, 20);
  EXPECT_EQ(dataset.train_graph.num_edges(), 12);
}

// ---------------------------------------------------------------------------
// Manifest

TEST_F(PipelineTest, ManifestRoundTripAndCorruptionDetected) {
  const std::string dir = TempDirFor("manifest");
  const std::string path = dir + "/manifest.txt";
  PipelineManifest m;
  m.run_id = 3;
  m.num_users = 120;
  m.num_items = 456;
  m.version = 7;
  m.trained_events = 9001;
  ASSERT_TRUE(m.Save(path).ok());

  const auto loaded = PipelineManifest::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().run_id, 3);
  EXPECT_EQ(loaded.value().num_users, 120);
  EXPECT_EQ(loaded.value().num_items, 456);
  EXPECT_EQ(loaded.value().version, 7);
  EXPECT_EQ(loaded.value().trained_events, 9001);

  EXPECT_EQ(PipelineManifest::Load(dir + "/nope.txt").status().code(),
            util::StatusCode::kNotFound);

  // Any body damage breaks the CRC.
  {
    std::fstream f(path, std::ios::in | std::ios::out);
    f.seekp(20);
    f.put('9');
  }
  EXPECT_EQ(PipelineManifest::Load(path).status().code(),
            util::StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Publisher

// A tiny publishable model surface: deterministic embeddings + history.
struct FakeModel {
  tensor::Matrix user_emb{4, 8};
  tensor::Matrix item_emb{6, 8};
  std::vector<std::vector<int32_t>> history{{0}, {1, 2}, {}, {3}};

  explicit FakeModel(uint64_t seed) {
    util::Rng rng(seed);
    user_emb.UniformInit(&rng, -1.f, 1.f);
    item_emb.UniformInit(&rng, -1.f, 1.f);
  }
  train::EmbeddingView view() const { return {&user_emb, &item_emb}; }
};

PublisherOptions FastPublisher() {
  PublisherOptions options;
  options.max_retries = 3;
  options.backoff_base_us = 100;
  options.backoff_max_us = 1'000;
  return options;
}

TEST_F(PipelineTest, PublisherRotatesIntoStoreAndPrunes) {
  const std::string dir = TempDirFor("pub_basic");
  serve::SnapshotStore store(dir);
  PublisherOptions options = FastPublisher();
  options.keep_snapshots = 2;
  SnapshotPublisher publisher(&store, options);
  const FakeModel model(5);

  for (int64_t v = 1; v <= 4; ++v) {
    const util::Status st = publisher.Publish(model.view(), model.history, v);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_NE(store.current(), nullptr);
    EXPECT_EQ(store.current()->version(), v);
  }
  EXPECT_EQ(publisher.last_published_version(), 4);
  // Retention pruned old versions; no staging litter remains.
  EXPECT_LE(serve::SnapshotStore::ListSnapshots(dir).size(), 2u);
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".lgcn") << entry.path();
  }
}

TEST_F(PipelineTest, PublisherRetriesThroughTornRename) {
  const std::string dir = TempDirFor("pub_torn");
  serve::SnapshotStore store(dir);
  SnapshotPublisher publisher(&store, FastPublisher());
  const FakeModel model(6);
  ASSERT_TRUE(publisher.Publish(model.view(), model.history, 1).ok());

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  util::fault::Arm("publish.torn_rename");
  const util::Status st = publisher.Publish(model.view(), model.history, 2);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(store.current()->version(), 2);

  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(after.CounterDelta(before, "pipeline.publish.retries"), 1u);
  EXPECT_GE(after.CounterDelta(before, "pipeline.publish.attempts"), 2u);
  EXPECT_EQ(after.CounterDelta(before, "pipeline.publish.failures"), 0u);
}

TEST_F(PipelineTest, PublisherExhaustedRetriesKeepPreviousServing) {
  const std::string dir = TempDirFor("pub_exhausted");
  serve::SnapshotStore store(dir);
  SnapshotPublisher publisher(&store, FastPublisher());
  const FakeModel model(7);
  ASSERT_TRUE(publisher.Publish(model.view(), model.history, 1).ok());

  // Every rotate attempt of v2 fails: a directory squats on the final
  // name, so rename(2) can never succeed.
  const std::string blocked = serve::SnapshotStore::SnapshotPath(dir, 2);
  fs::create_directories(blocked);

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  const util::Status st = publisher.Publish(model.view(), model.history, 2);
  EXPECT_FALSE(st.ok());
  // The previous snapshot never stopped serving, the budget is observable,
  // and the staging file was cleaned up.
  ASSERT_NE(store.current(), nullptr);
  EXPECT_EQ(store.current()->version(), 1);
  EXPECT_EQ(publisher.last_published_version(), 1);
  EXPECT_FALSE(fs::exists(dir + "/pub-000002.staging"));
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(after.CounterDelta(before, "pipeline.publish.attempts"), 4u);
  EXPECT_EQ(after.CounterDelta(before, "pipeline.publish.retries"), 3u);
  EXPECT_EQ(after.CounterDelta(before, "pipeline.publish.failures"), 1u);
}

TEST_F(PipelineTest, SnapshotRetentionKeepsNewestValidAndServingVersion) {
  const std::string dir = TempDirFor("retention");
  serve::SnapshotStore store(dir);
  PublisherOptions options = FastPublisher();
  options.keep_snapshots = 100;  // publisher never prunes in this test
  SnapshotPublisher publisher(&store, options);
  const FakeModel model(9);
  for (int64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE(publisher.Publish(model.view(), model.history, v).ok());
  }
  ASSERT_EQ(serve::SnapshotStore::ListSnapshots(dir).size(), 5u);

  // Corrupt v4: it must not count toward the keep quota (a corrupt file
  // shields nobody — the fallback walk would skip it).
  fs::resize_file(serve::SnapshotStore::SnapshotPath(dir, 4), 64);

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(store.Retain(2), 2);  // v1, v2 go; v3 is the 2nd *valid* keeper
  std::vector<int64_t> versions;
  for (const auto& [v, path] : serve::SnapshotStore::ListSnapshots(dir)) {
    versions.push_back(v);
  }
  EXPECT_EQ(versions, (std::vector<int64_t>{3, 4, 5}));
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(after.CounterDelta(before, "serve.snapshots_pruned"), 2u);

  // The serving version survives retention even when it falls out of the
  // newest-K window: fake two newer files, keep 1, and v5 (serving) must
  // still be on disk.
  fs::copy_file(serve::SnapshotStore::SnapshotPath(dir, 5),
                serve::SnapshotStore::SnapshotPath(dir, 6));
  fs::copy_file(serve::SnapshotStore::SnapshotPath(dir, 5),
                serve::SnapshotStore::SnapshotPath(dir, 7));
  ASSERT_EQ(store.current()->version(), 5);
  store.Retain(1);
  EXPECT_TRUE(fs::exists(serve::SnapshotStore::SnapshotPath(dir, 5)));
  EXPECT_TRUE(fs::exists(serve::SnapshotStore::SnapshotPath(dir, 7)));
  EXPECT_FALSE(fs::exists(serve::SnapshotStore::SnapshotPath(dir, 6)));
}

TEST_F(PipelineTest, SnapshotDirectoryNamedLikeNewerVersionIsSkipped) {
  // A directory named like v2 beside a valid v1: reload keeps serving v1
  // (a fresh store falls back to it), and it does not count toward the
  // retention quota, so v1 survives Retain(1).
  const std::string dir = TempDirFor("snap_dir_squat");
  serve::SnapshotStore store(dir);
  SnapshotPublisher publisher(&store, FastPublisher());
  const FakeModel model(10);
  ASSERT_TRUE(publisher.Publish(model.view(), model.history, 1).ok());
  const std::string v1 = serve::SnapshotStore::SnapshotPath(dir, 1);
  fs::create_directories(serve::SnapshotStore::SnapshotPath(dir, 2));

  EXPECT_TRUE(store.Reload().ok());  // nothing valid is newer than v1
  ASSERT_NE(store.current(), nullptr);
  EXPECT_EQ(store.current()->version(), 1);

  serve::SnapshotStore fresh(dir);
  const util::Status loaded = fresh.Reload();
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(fresh.current()->version(), 1);

  EXPECT_EQ(store.Retain(1), 0);
  EXPECT_TRUE(fs::is_regular_file(v1));
  EXPECT_TRUE(train::ValidateCheckpoint(v1).ok());
}

// ---------------------------------------------------------------------------
// Warm start

TEST_F(PipelineTest, WarmStartCarriesRowsAcrossGrownIdSpace) {
  const std::string root = TempDirFor("warm_root");
  WarmStartTrainer trainer(SmallConfig());

  DeltaIngestor ingestor;
  ingestor.Apply(Events(0, 150));
  const data::Dataset first = ingestor.BuildDataset();

  WarmStartOptions options;
  options.checkpoint_root = root;
  options.run_id = 1;
  options.bootstrap_epochs = 2;
  options.fine_tune_epochs = 1;
  options.quality_k = 10;
  auto run1 = trainer.Run(first, nullptr, options);
  ASSERT_TRUE(run1.ok()) << run1.status().ToString();
  EXPECT_FALSE(run1.value().warm_started);
  // No serving baseline: the gate passes trivially.
  EXPECT_TRUE(run1.value().gate_passed);
  EXPECT_FALSE(
      train::CheckpointManager::ListCheckpoints(run1.value().checkpoint_dir)
          .empty());

  // Grow the id space, fine-tune run 2 from run 1's checkpoints.
  ingestor.Apply(Events(150, 260));
  const data::Dataset second = ingestor.BuildDataset();
  ASSERT_GT(second.num_users, first.num_users);

  options.run_id = 2;
  options.prev_checkpoint_dir = run1.value().checkpoint_dir;
  options.prev_num_users = first.num_users;
  options.prev_num_items = first.num_items;
  auto run2 = trainer.Run(second, nullptr, options);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  EXPECT_TRUE(run2.value().warm_started);
  ASSERT_NE(run2.value().model, nullptr);
  const train::EmbeddingView view = run2.value().model->GetEmbeddingView();
  ASSERT_TRUE(view.valid());
  EXPECT_EQ(view.user->rows(), second.num_users);
  EXPECT_EQ(view.item->rows(), second.num_items);
}

TEST_F(PipelineTest, WarmStartFallsBackToColdOnMissingCheckpoint) {
  const std::string root = TempDirFor("warm_fallback");
  WarmStartTrainer trainer(SmallConfig());
  DeltaIngestor ingestor;
  ingestor.Apply(Events(0, 150));

  WarmStartOptions options;
  options.checkpoint_root = root;
  options.run_id = 2;
  options.prev_checkpoint_dir = root + "/run-000001";  // never existed
  options.prev_num_users = 10;
  options.prev_num_items = 10;
  options.bootstrap_epochs = 1;
  options.fine_tune_epochs = 1;
  auto run = trainer.Run(ingestor.BuildDataset(), nullptr, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run.value().warm_started);  // degraded to cold, not an error
}

// Bootstraps run 1 on events [0, 150) and returns the options for a warm
// run 2 over the grown set [0, 260).
WarmStartOptions BootstrapThenWarm(const std::string& root,
                                   WarmStartTrainer* trainer,
                                   DeltaIngestor* ingestor) {
  ingestor->Apply(Events(0, 150));
  const data::Dataset first = ingestor->BuildDataset();
  WarmStartOptions options;
  options.checkpoint_root = root;
  options.run_id = 1;
  options.bootstrap_epochs = 2;
  options.quality_k = 10;
  auto run1 = trainer->Run(first, nullptr, options);
  EXPECT_TRUE(run1.ok()) << run1.status().ToString();
  ingestor->Apply(Events(150, 260));
  options.run_id = 2;
  options.prev_checkpoint_dir = WarmStartTrainer::RunDir(root, 1);
  options.prev_num_users = first.num_users;
  options.prev_num_items = first.num_items;
  return options;
}

TEST_F(PipelineTest, GateCandidateRecallEqualsIndependentEvaluation) {
  // The gate takes the fit's best validation score as the candidate's
  // R@K instead of evaluating the returned model again. Oracle: an
  // independent PrepareEval + Evaluate(kValidation) of that model gives
  // the same bits, whichever epoch the fit restored.
  for (const int epochs : {1, 2}) {
    const std::string root = TempDirFor("gate_oracle");
    WarmStartTrainer trainer(SmallConfig());
    DeltaIngestor ingestor;
    WarmStartOptions options = BootstrapThenWarm(root, &trainer, &ingestor);
    options.fine_tune_epochs = epochs;
    const data::Dataset dataset = ingestor.BuildDataset();
    ASSERT_GT(dataset.num_valid(), 0);

    auto run = trainer.Run(dataset, nullptr, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_TRUE(run.value().warm_started);
    EXPECT_EQ(run.value().fit.epochs_run, epochs);
    EXPECT_TRUE(run.value().gate_passed);
    EXPECT_TRUE(run.value().fit.test_metrics.recall.empty());

    train::Recommender* model = run.value().model.get();
    model->PrepareEval();
    const train::EmbeddingView view = model->GetEmbeddingView();
    ASSERT_TRUE(view.valid());
    const eval::Evaluator ev(&dataset, {options.quality_k});
    const double again =
        ev.Evaluate(*view.user, *view.item, eval::EvalSplit::kValidation)
            .recall.at(options.quality_k);
    EXPECT_GT(again, 0.0) << "fine_tune_epochs " << epochs;
    EXPECT_EQ(run.value().candidate_recall, again)
        << "fine_tune_epochs " << epochs;
  }
}

TEST_F(PipelineTest, GateRefusesFitThatValidatedNoEpoch) {
  // A stop request that lands before epoch 1 ends leaves the fit with no
  // validated epoch: Run still returns a model, but the gate must refuse
  // it (there is no score to compare). The request is raised from the
  // warm carry's log line, which runs inside FitRecommender after it has
  // cleared any earlier request.
  const std::string root = TempDirFor("gate_no_epoch");
  WarmStartTrainer trainer(SmallConfig());
  DeltaIngestor ingestor;
  const WarmStartOptions options =
      BootstrapThenWarm(root, &trainer, &ingestor);
  util::SetLogSink([](const util::LogRecord& record) {
    if (record.message.rfind("warm start carried", 0) == 0) {
      train::RequestGracefulStop();
    }
  });
  auto run = trainer.Run(ingestor.BuildDataset(), nullptr, options);
  util::SetLogSink(nullptr);
  train::ClearStopRequest();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run.value().warm_started);
  EXPECT_TRUE(run.value().fit.interrupted);
  EXPECT_EQ(run.value().fit.best_epoch, 0);
  EXPECT_FALSE(run.value().gate_passed);
}

// ---------------------------------------------------------------------------
// Supervisor

SupervisorOptions SmallSupervisor(const std::string& root,
                                  const std::string& snapshots) {
  SupervisorOptions options;
  options.root_dir = root;
  options.snapshot_dir = snapshots;
  options.min_train_events = 120;
  options.train_config = SmallConfig();
  options.warm.bootstrap_epochs = 2;
  options.warm.fine_tune_epochs = 1;
  options.warm.quality_k = 10;
  // The suite exercises crash plumbing, not ranking quality: accept any
  // candidate so tiny datasets cannot flake the publish path.
  options.warm.max_quality_drop = 1.0;
  options.publish.backoff_base_us = 100;
  options.publish.backoff_max_us = 1'000;
  return options;
}

TEST_F(PipelineTest, SupervisorTrainsPublishesAndReplaysDeterministically) {
  const std::string root = TempDirFor("sup_e2e");
  const std::string snapshots = root + "/snapshots";
  serve::SnapshotStore store(snapshots);
  fs::create_directories(snapshots);

  uint32_t digest = 0;
  PipelineManifest manifest;
  {
    PipelineSupervisor supervisor(SmallSupervisor(root, snapshots), &store);
    ASSERT_TRUE(supervisor.Start().ok());
    ASSERT_TRUE(supervisor.Ingest(Events(0, 150)).ok());
    ASSERT_TRUE(supervisor.RunCycle().ok());
    EXPECT_EQ(supervisor.counters().runs_completed, 1);
    EXPECT_EQ(supervisor.counters().publishes, 1);
    ASSERT_NE(store.current(), nullptr);
    EXPECT_EQ(store.current()->version(), 1);
    EXPECT_EQ(supervisor.manifest().version, 1);
    EXPECT_LT(supervisor.events_pending_train(), 120);
    digest = supervisor.ingestor().Digest();
    manifest = supervisor.manifest();
  }

  // A restarted process replays WAL + manifest to the identical position.
  PipelineSupervisor restarted(SmallSupervisor(root, snapshots), &store);
  ASSERT_TRUE(restarted.Start().ok());
  EXPECT_EQ(restarted.ingestor().Digest(), digest);
  EXPECT_EQ(restarted.events_committed(), 150);
  EXPECT_EQ(restarted.manifest().run_id, manifest.run_id);
  EXPECT_EQ(restarted.manifest().version, manifest.version);
  EXPECT_EQ(restarted.manifest().trained_events, manifest.trained_events);
  EXPECT_EQ(restarted.wal_recovery().records, 150);
}

TEST_F(PipelineTest, SupervisorTornCommitMatchesUnfaultedDigest) {
  // The in-process recovery drill end to end: a torn commit mid-stream
  // must leave exactly the state an unfaulted supervisor reaches.
  const std::string root_a = TempDirFor("sup_fault");
  const std::string root_b = TempDirFor("sup_clean");
  serve::SnapshotStore store_a(root_a + "/snapshots");
  serve::SnapshotStore store_b(root_b + "/snapshots");

  PipelineSupervisor faulted(SmallSupervisor(root_a, root_a + "/snapshots"),
                             &store_a);
  PipelineSupervisor clean(SmallSupervisor(root_b, root_b + "/snapshots"),
                           &store_b);
  ASSERT_TRUE(faulted.Start().ok());
  ASSERT_TRUE(clean.Start().ok());

  for (int batch = 0; batch < 3; ++batch) {
    const std::vector<WalRecord> events =
        Events(batch * 40, (batch + 1) * 40);
    if (batch == 1) util::fault::Arm("wal.torn_write");
    ASSERT_TRUE(faulted.Ingest(events).ok());
    ASSERT_TRUE(clean.Ingest(events).ok());
  }
  EXPECT_EQ(faulted.counters().wal_reopens, 1);
  EXPECT_EQ(faulted.events_committed(), clean.events_committed());
  EXPECT_EQ(faulted.ingestor().Digest(), clean.ingestor().Digest());

  // And the on-disk logs replay identically too.
  const auto replay_a = InteractionWal::ReadAll(root_a + "/wal");
  const auto replay_b = InteractionWal::ReadAll(root_b + "/wal");
  ASSERT_TRUE(replay_a.ok());
  ASSERT_TRUE(replay_b.ok());
  EXPECT_EQ(replay_a.value(), replay_b.value());
}

// The bytes of the file at `path` (empty when it cannot be read).
std::string FileBytes(const std::string& path) {
  std::string image;
  (void)util::ReadFileImage(path, &image);
  return image;
}

TEST_F(PipelineTest, SupervisorColdStartsOnCorruptManifest) {
  const std::string root = TempDirFor("sup_manifest");
  const std::string snapshots = root + "/snapshots";
  serve::SnapshotStore store(snapshots);
  {
    PipelineSupervisor supervisor(SmallSupervisor(root, snapshots), &store);
    ASSERT_TRUE(supervisor.Start().ok());
    ASSERT_TRUE(supervisor.Ingest(Events(0, 150)).ok());
    ASSERT_TRUE(supervisor.RunCycle().ok());
    ASSERT_EQ(supervisor.manifest().run_id, 1);
    ASSERT_EQ(store.current()->version(), 1);
  }
  {
    std::fstream f(root + "/manifest.txt", std::ios::in | std::ios::out);
    f.seekp(16);
    f.put('x');
  }
  const std::string v1 = serve::SnapshotStore::SnapshotPath(snapshots, 1);
  const std::string v1_bytes = FileBytes(v1);
  ASSERT_FALSE(v1_bytes.empty());

  PipelineSupervisor supervisor(SmallSupervisor(root, snapshots), &store);
  ASSERT_TRUE(supervisor.Start().ok());  // degraded, not dead
  EXPECT_EQ(supervisor.manifest().run_id, 0);
  // The WAL is intact, so the merged state survived the manifest loss.
  EXPECT_EQ(supervisor.events_committed(), 150);
  // The snapshot directory still records version 1: numbering continues
  // above it rather than renaming a new model over the published one.
  EXPECT_EQ(supervisor.manifest().version, 1);

  // The cold-started run trains on the replayed events and publishes v2.
  ASSERT_TRUE(supervisor.RunCycle().ok());
  EXPECT_EQ(supervisor.counters().publishes, 1);
  EXPECT_EQ(supervisor.counters().publish_failures, 0);
  EXPECT_EQ(supervisor.manifest().version, 2);
  ASSERT_NE(store.current(), nullptr);
  EXPECT_EQ(store.current()->version(), 2);
  EXPECT_EQ(FileBytes(v1), v1_bytes);
}

TEST_F(PipelineTest, SupervisorPrunesDeadRunDirectories) {
  // Only the manifest's run is read again (the next carry source): each
  // completed run removes the run directories below it.
  const std::string root = TempDirFor("sup_prune_runs");
  const std::string snapshots = root + "/snapshots";
  const std::string ckpt = root + "/ckpt";
  serve::SnapshotStore store(snapshots);
  const auto run_dirs = [&ckpt] {
    std::vector<std::string> names;
    for (const auto& [id, dir] : util::ListNumberedFiles(ckpt, "run-", "")) {
      names.push_back(fs::path(dir).filename().string());
    }
    return names;
  };
  {
    PipelineSupervisor supervisor(SmallSupervisor(root, snapshots), &store);
    ASSERT_TRUE(supervisor.Start().ok());
    for (int64_t cycle = 0; cycle < 3; ++cycle) {
      ASSERT_TRUE(supervisor.Ingest(Events(cycle * 150, cycle * 150 + 150))
                      .ok());
      ASSERT_TRUE(supervisor.RunCycle().ok());
    }
    ASSERT_EQ(supervisor.counters().runs_completed, 3);
    ASSERT_EQ(supervisor.manifest().run_id, 3);
  }
  EXPECT_EQ(run_dirs(), std::vector<std::string>{"run-000003"});
  EXPECT_FALSE(train::CheckpointManager::ListCheckpoints(ckpt + "/run-000003")
                   .empty());

  // A restarted supervisor still warm-starts from the surviving run.
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  PipelineSupervisor restarted(SmallSupervisor(root, snapshots), &store);
  ASSERT_TRUE(restarted.Start().ok());
  ASSERT_TRUE(restarted.Ingest(Events(450, 600)).ok());
  ASSERT_TRUE(restarted.RunCycle().ok());
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(after.CounterDelta(before, "pipeline.train.warm_starts"), 1u);
  EXPECT_EQ(after.CounterDelta(before, "pipeline.train.warm_start_fallbacks"),
            0u);
  EXPECT_EQ(restarted.manifest().run_id, 4);
  EXPECT_EQ(run_dirs(), std::vector<std::string>{"run-000004"});
}

TEST_F(PipelineTest, SupervisorHaltsAfterPublishBudgetButKeepsServing) {
  const std::string root = TempDirFor("sup_halt");
  const std::string snapshots = root + "/snapshots";
  serve::SnapshotStore store(snapshots);
  SupervisorOptions options = SmallSupervisor(root, snapshots);
  options.max_stage_failures = 2;
  PipelineSupervisor supervisor(options, &store);
  ASSERT_TRUE(supervisor.Start().ok());
  ASSERT_TRUE(supervisor.Ingest(Events(0, 150)).ok());
  ASSERT_TRUE(supervisor.RunCycle().ok());
  ASSERT_EQ(store.current()->version(), 1);

  // Wedge every future publish: directories squat on the final names.
  fs::create_directories(serve::SnapshotStore::SnapshotPath(snapshots, 2));

  ASSERT_TRUE(supervisor.Ingest(Events(150, 300)).ok());
  const util::Status first = supervisor.RunCycle();
  EXPECT_FALSE(first.ok());
  EXPECT_FALSE(supervisor.halted());  // one strike left

  ASSERT_TRUE(supervisor.Ingest(Events(300, 450)).ok());
  const util::Status second = supervisor.RunCycle();
  EXPECT_FALSE(second.ok());
  EXPECT_TRUE(supervisor.halted());
  EXPECT_EQ(supervisor.status().code(),
            util::StatusCode::kResourceExhausted);
  EXPECT_EQ(supervisor.counters().publish_failures, 2);

  // Halted = no more state mutation; the snapshot published before the
  // wedge keeps serving.
  EXPECT_EQ(supervisor.RunCycle().code(),
            util::StatusCode::kResourceExhausted);
  ASSERT_NE(store.current(), nullptr);
  EXPECT_EQ(store.current()->version(), 1);
}

TEST_F(PipelineTest, SupervisorGcsCoveredWalSegmentsAfterPublish) {
  const std::string root = TempDirFor("sup_gc");
  const std::string snapshots = root + "/snapshots";
  serve::SnapshotStore store(snapshots);
  SupervisorOptions options = SmallSupervisor(root, snapshots);
  options.wal_segment_bytes = 256;  // force many segments from 150 events
  options.gc_covered_wal_segments = true;
  PipelineSupervisor supervisor(options, &store);
  ASSERT_TRUE(supervisor.Start().ok());
  // Rotation happens per commit, so batch the ingest to seal segments.
  for (int64_t b = 0; b < 150; b += 10) {
    ASSERT_TRUE(supervisor.Ingest(Events(b, b + 10)).ok());
  }
  const size_t segments_before =
      InteractionWal::ListSegments(root + "/wal").size();
  ASSERT_GT(segments_before, 3u);

  ASSERT_TRUE(supervisor.RunCycle().ok());
  ASSERT_EQ(supervisor.counters().publishes, 1);
  const size_t segments_after =
      InteractionWal::ListSegments(root + "/wal").size();
  EXPECT_LT(segments_after, segments_before);

  // A restart replays only the surviving suffix and keeps running — the
  // GC'd prefix is durable inside the published snapshot + manifest.
  PipelineSupervisor restarted(options, &store);
  ASSERT_TRUE(restarted.Start().ok());
  EXPECT_EQ(restarted.manifest().version, 1);
  EXPECT_LT(restarted.events_committed(), 150);
  EXPECT_EQ(restarted.events_pending_train(), 0);
}

TEST_F(PipelineTest, SupervisorFullDiskDegradesToServingOnly) {
  const std::string root = TempDirFor("sup_enospc");
  const std::string snapshots = root + "/snapshots";
  serve::SnapshotStore store(snapshots);
  PipelineSupervisor supervisor(SmallSupervisor(root, snapshots), &store);
  ASSERT_TRUE(supervisor.Start().ok());
  ASSERT_TRUE(supervisor.Ingest(Events(0, 150)).ok());
  ASSERT_TRUE(supervisor.RunCycle().ok());
  ASSERT_NE(store.current(), nullptr);
  ASSERT_EQ(store.current()->version(), 1);

  // The disk fills: the commit fails as ResourceExhausted and the
  // supervisor halts state mutation instead of crashing or retrying into
  // the same wall.
  util::fault::Arm("wal.enospc");
  const util::Status st = supervisor.Ingest(Events(150, 200));
  EXPECT_EQ(st.code(), util::StatusCode::kResourceExhausted);
  EXPECT_TRUE(supervisor.halted());

  // Serving-only degraded mode: further mutation is refused with the halt
  // reason, but the published snapshot still answers.
  EXPECT_EQ(supervisor.Ingest(Events(200, 210)).code(),
            util::StatusCode::kResourceExhausted);
  EXPECT_EQ(supervisor.RunCycle().code(),
            util::StatusCode::kResourceExhausted);
  ASSERT_NE(store.current(), nullptr);
  EXPECT_EQ(store.current()->version(), 1);
  EXPECT_GT(store.current()->num_users(), 0);
}

TEST_F(PipelineTest, TracedCycleNamesEveryStage) {
  // Each stage of a warm publish cycle records its own span, so a trace
  // of RunCycle names where the time outside epochs and evaluations goes.
  const std::string root = TempDirFor("sup_traced");
  const std::string snapshots = root + "/snapshots";
  serve::SnapshotStore store(snapshots);
  PipelineSupervisor supervisor(SmallSupervisor(root, snapshots), &store);
  ASSERT_TRUE(supervisor.Start().ok());
  ASSERT_TRUE(supervisor.Ingest(Events(0, 150)).ok());
  ASSERT_TRUE(supervisor.RunCycle().ok());  // cold bootstrap
  ASSERT_TRUE(supervisor.Ingest(Events(150, 320)).ok());
  ASSERT_GE(supervisor.events_pending_train(), 120);

  obs::TraceRecorder::Global().Clear();
  obs::SetTraceEnabled(true);
  const util::Status cycle = supervisor.RunCycle();  // warm, publishes v2
  obs::SetTraceEnabled(false);
  ASSERT_TRUE(cycle.ok()) << cycle.ToString();
  ASSERT_EQ(supervisor.counters().publishes, 2);

  std::set<std::string> recorded;
  for (const obs::TraceEvent& e : obs::TraceRecorder::Global().Snapshot()) {
    recorded.insert(e.name);
  }
  obs::TraceRecorder::Global().Clear();
  for (const char* stage :
       {"pipeline.build_dataset", "pipeline.warm_carry", "checkpoint.write",
        "eval.prepare", "pipeline.export_write", "pipeline.publish_validate",
        "pipeline.store_reload", "pipeline.retention",
        "pipeline.manifest_save", "pipeline.run_prune"}) {
    EXPECT_EQ(recorded.count(stage), 1u) << stage;
  }
}

}  // namespace
}  // namespace layergcn::pipeline
