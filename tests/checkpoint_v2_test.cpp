// Corruption and recovery suite for the v2 checkpoint format: every
// damaged file must surface as a structured util::Status (never an abort),
// and CheckpointManager must fall back to the newest file that still
// parses. The CRC-32 known answers and the byte pins at the end fix the
// format itself.

#include "train/checkpoint.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/status.h"

namespace layergcn::train {
namespace {

namespace fs = std::filesystem;

// Size and FNV-1a 64 digest of the pinned files (see
// FormatPinsServingExportAndCheckpointBytes).
constexpr uintmax_t kPinnedExportBytes = 593;
constexpr uint64_t kPinnedExportFnv = 0x2f505df36c46d8f4ull;
constexpr uintmax_t kPinnedCheckpointBytes = 728;
constexpr uint64_t kPinnedCheckpointFnv = 0x585b4868e1a593e3ull;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// A fresh directory under the test temp root.
std::string TempDirFor(const char* name) {
  const std::string dir = TempPath(name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

class CheckpointV2Test : public ::testing::Test {
 protected:
  void SetUp() override { util::fault::DisarmAll(); }
  void TearDown() override { util::fault::DisarmAll(); }
};

TrainingState MakeState() {
  TrainingState st;
  st.epoch = 7;
  st.best_epoch = 5;
  st.best_valid_score = 0.25;
  st.epochs_since_best = 2;
  st.optimizer_steps = 91;
  st.seed = 42;
  st.sampler_cursor = 1234;
  util::Rng rng(9);
  (void)rng.NextU64();
  st.has_rng = true;
  st.rng = rng.GetState();
  st.epoch_losses = {0.9, 0.7, 0.5};
  st.valid_curve = {{2, 0.1}, {4, 0.2}};
  return st;
}

TEST_F(CheckpointV2Test, FullStateRoundTrip) {
  util::Rng rng(1);
  Parameter a("emb", 4, 3), b("w", 2, 2);
  a.InitXavier(&rng);
  b.InitXavier(&rng);
  a.adam_m.UniformInit(&rng, -1.f, 1.f);
  a.adam_v.UniformInit(&rng, 0.f, 1.f);
  TrainingState st = MakeState();
  st.best_snapshot.emplace_back("emb", a.value);
  st.best_snapshot.emplace_back("w", b.value);

  const std::string path = TempPath("v2_full.lgcn");
  ASSERT_TRUE(SaveCheckpointV2(path, {&a, &b}, &st).ok());

  Parameter a2("emb", 4, 3), b2("w", 2, 2);
  TrainingState loaded;
  const util::StatusOr<int> n = LoadCheckpointV2(path, {&a2, &b2}, &loaded);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), 2);
  EXPECT_TRUE(a2.value.Equals(a.value));
  EXPECT_TRUE(b2.value.Equals(b.value));
  EXPECT_TRUE(a2.adam_m.Equals(a.adam_m));
  EXPECT_TRUE(a2.adam_v.Equals(a.adam_v));
  EXPECT_EQ(loaded.epoch, st.epoch);
  EXPECT_EQ(loaded.best_epoch, st.best_epoch);
  EXPECT_EQ(loaded.best_valid_score, st.best_valid_score);
  EXPECT_EQ(loaded.epochs_since_best, st.epochs_since_best);
  EXPECT_EQ(loaded.optimizer_steps, st.optimizer_steps);
  EXPECT_EQ(loaded.seed, st.seed);
  EXPECT_EQ(loaded.sampler_cursor, st.sampler_cursor);
  ASSERT_TRUE(loaded.has_rng);
  // The restored stream must continue exactly where the saved one would.
  util::Rng saved_stream(1), loaded_stream(1);
  saved_stream.SetState(st.rng);
  loaded_stream.SetState(loaded.rng);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(saved_stream.NextU64(), loaded_stream.NextU64());
  }
  EXPECT_EQ(loaded.epoch_losses, st.epoch_losses);
  EXPECT_EQ(loaded.valid_curve, st.valid_curve);
  ASSERT_EQ(loaded.best_snapshot.size(), 2u);
  EXPECT_TRUE(loaded.best_snapshot[0].second.Equals(a.value));
  std::remove(path.c_str());
}

TEST_F(CheckpointV2Test, ZeroByteFileIsDataLoss) {
  const std::string path = TempPath("v2_zero.lgcn");
  { std::ofstream out(path, std::ios::binary); }
  Parameter p("p", 1, 1);
  const util::StatusOr<int> r = LoadCheckpointV2(path, {&p}, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
  EXPECT_FALSE(ValidateCheckpoint(path).ok());
  std::remove(path.c_str());
}

TEST_F(CheckpointV2Test, MissingFileIsNotFound) {
  Parameter p("p", 1, 1);
  const util::StatusOr<int> r =
      LoadCheckpointV2(TempPath("v2_absent.lgcn"), {&p}, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kNotFound);
}

TEST_F(CheckpointV2Test, TruncatedMidRecordIsDataLoss) {
  util::Rng rng(2);
  Parameter p("emb", 32, 8);
  p.InitXavier(&rng);
  TrainingState st = MakeState();
  const std::string path = TempPath("v2_trunc.lgcn");
  ASSERT_TRUE(SaveCheckpointV2(path, {&p}, &st).ok());
  const auto full_size = fs::file_size(path);
  fs::resize_file(path, full_size * 2 / 3);

  Parameter p2("emb", 32, 8);
  const util::StatusOr<int> r = LoadCheckpointV2(path, {&p2}, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST_F(CheckpointV2Test, FlippedCrcByteIsDataLoss) {
  util::Rng rng(3);
  Parameter p("emb", 16, 4);
  p.InitXavier(&rng);
  const std::string path = TempPath("v2_crc.lgcn");
  ASSERT_TRUE(SaveCheckpointV2(path, {&p}, nullptr).ok());
  {
    // The final 4 bytes are the stored CRC of the last section.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-1, std::ios::end);
    char last = 0;
    f.get(last);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(last ^ 0x01));
  }
  Parameter p2("emb", 16, 4);
  const util::StatusOr<int> r = LoadCheckpointV2(path, {&p2}, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("CRC mismatch"), std::string::npos);
  std::remove(path.c_str());
}

// Hand-written checkpoint image: magic | version | then `body`.
std::string Image(uint32_t version, const std::string& body) {
  std::string out("LGCN", 4);
  out.append(reinterpret_cast<const char*>(&version), 4);
  return out + body;
}

// A named-matrix table of 1x1 entries: count | name/shape/value entries.
std::string Table(const std::vector<std::pair<std::string, float>>& entries) {
  std::string out;
  const uint32_t count = static_cast<uint32_t>(entries.size());
  out.append(reinterpret_cast<const char*>(&count), 4);
  for (const auto& [name, value] : entries) {
    const uint32_t len = static_cast<uint32_t>(name.size());
    out.append(reinterpret_cast<const char*>(&len), 4);
    out.append(name);
    const int64_t rows = 1, cols = 1;
    out.append(reinterpret_cast<const char*>(&rows), 8);
    out.append(reinterpret_cast<const char*>(&cols), 8);
    out.append(reinterpret_cast<const char*>(&value), 4);
  }
  return out;
}

// A v2 body holding one CRC-valid parameter-value section (tag 3).
std::string ValuesSection(const std::string& table) {
  std::string out;
  const uint32_t count = 1, tag = 3;
  const uint64_t len = table.size();
  const uint32_t crc = util::Crc32(table.data(), table.size());
  out.append(reinterpret_cast<const char*>(&count), 4);
  out.append(reinterpret_cast<const char*>(&tag), 4);
  out.append(reinterpret_cast<const char*>(&len), 8);
  out.append(table);
  out.append(reinterpret_cast<const char*>(&crc), 4);
  return out;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(CheckpointV2Test, V1FileIsUnsupportedDataLoss) {
  // The retired params-only v1 layout: magic | version=1 | table.
  const std::string path = TempPath("v1_retired.lgcn");
  WriteFile(path, Image(1, Table({{"alpha", 2.5f}, {"beta", -1.0f}})));
  Parameter a("alpha", 1, 1);
  const util::StatusOr<int> r = LoadCheckpointV2(path, {&a}, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("unsupported checkpoint version 1"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(a.value(0, 0), 0.f);  // untouched
  std::remove(path.c_str());
}

TEST_F(CheckpointV2Test, MalformedHeaderIsDataLoss) {
  const std::string path = TempPath("v2_bad_header.lgcn");
  // Magic plus one byte: the version is truncated.
  WriteFile(path, std::string("LGCN\x02", 5));
  EXPECT_EQ(ValidateCheckpoint(path).code(), util::StatusCode::kDataLoss);
  // No magic at all.
  WriteFile(path, "not a checkpoint");
  EXPECT_EQ(ValidateCheckpoint(path).code(), util::StatusCode::kDataLoss);
  // A complete header with an unknown version.
  WriteFile(path, Image(9, std::string(4, '\0')));
  EXPECT_EQ(ValidateCheckpoint(path).code(), util::StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST_F(CheckpointV2Test, DuplicateParamNameInFileIsDataLoss) {
  const std::string path = TempPath("v2_dup.lgcn");
  WriteFile(path, Image(2, ValuesSection(Table({{"same", 1.f},
                                                {"same", 2.f}}))));
  Parameter p("same", 1, 1);
  const util::StatusOr<int> r = LoadCheckpointV2(path, {&p}, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("duplicate parameter"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST_F(CheckpointV2Test, DuplicateParamNameOnSaveIsInvalidArgument) {
  Parameter a("same", 1, 1), b("same", 1, 1);
  const util::Status s =
      SaveCheckpointV2(TempPath("v2_dup_save.lgcn"), {&a, &b}, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
}

TEST_F(CheckpointV2Test, MissingAndMismatchedParamsAreFailedPrecondition) {
  util::Rng rng(4);
  Parameter a("a", 2, 2);
  a.InitXavier(&rng);
  const std::string path = TempPath("v2_match.lgcn");
  ASSERT_TRUE(SaveCheckpointV2(path, {&a}, nullptr).ok());

  Parameter other("other", 2, 2);
  EXPECT_EQ(LoadCheckpointV2(path, {&other}, nullptr).status().code(),
            util::StatusCode::kFailedPrecondition);
  Parameter wrong("a", 3, 2);
  EXPECT_EQ(LoadCheckpointV2(path, {&wrong}, nullptr).status().code(),
            util::StatusCode::kFailedPrecondition);
  // A failed load must not have touched the destination.
  EXPECT_TRUE(wrong.value.Equals(Parameter("a", 3, 2).value));
  std::remove(path.c_str());
}

TEST_F(CheckpointV2Test, TornWriteFaultIsDetectedOnRead) {
  util::Rng rng(5);
  Parameter p("emb", 16, 8);
  p.InitXavier(&rng);
  const std::string path = TempPath("v2_torn.lgcn");
  util::fault::Arm("checkpoint.torn_write");
  // The writer believes it succeeded — that is the point of the fault.
  ASSERT_TRUE(SaveCheckpointV2(path, {&p}, nullptr).ok());
  EXPECT_FALSE(ValidateCheckpoint(path).ok());
  // Retry after the one-shot fault: the atomic path works again.
  ASSERT_TRUE(SaveCheckpointV2(path, {&p}, nullptr).ok());
  EXPECT_TRUE(ValidateCheckpoint(path).ok());
  std::remove(path.c_str());
}

TEST_F(CheckpointV2Test, ShortReadAndBitFlipFaultsAreDataLoss) {
  util::Rng rng(6);
  Parameter p("emb", 16, 8);
  p.InitXavier(&rng);
  const std::string path = TempPath("v2_readfault.lgcn");
  ASSERT_TRUE(SaveCheckpointV2(path, {&p}, nullptr).ok());

  util::fault::Arm("checkpoint.short_read");
  EXPECT_EQ(ValidateCheckpoint(path).code(), util::StatusCode::kDataLoss);
  EXPECT_TRUE(ValidateCheckpoint(path).ok());  // fault was one-shot

  util::fault::Arm("checkpoint.bit_flip");
  EXPECT_EQ(ValidateCheckpoint(path).code(), util::StatusCode::kDataLoss);
  EXPECT_TRUE(ValidateCheckpoint(path).ok());
  std::remove(path.c_str());
}

TEST_F(CheckpointV2Test, ManagerRotatesAndKeepsNewest) {
  const std::string dir = TempDirFor("mgr_rotate");
  util::Rng rng(7);
  Parameter p("emb", 4, 2);
  p.InitXavier(&rng);
  CheckpointManager mgr(dir, /*keep_last=*/3);
  for (int epoch = 1; epoch <= 5; ++epoch) {
    TrainingState st = MakeState();
    st.epoch = epoch;
    ASSERT_TRUE(mgr.Write({&p}, st).ok());
  }
  const auto files = CheckpointManager::ListCheckpoints(dir);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].first, 3);
  EXPECT_EQ(files[2].first, 5);
  fs::remove_all(dir);
}

TEST_F(CheckpointV2Test, ManagerFallsBackPastCorruptNewest) {
  obs::SetEnabled(true);
  const std::string dir = TempDirFor("mgr_fallback");
  util::Rng rng(8);
  Parameter p("emb", 4, 2);
  CheckpointManager mgr(dir, 3);
  tensor::Matrix value_at_2;
  for (int epoch = 1; epoch <= 3; ++epoch) {
    p.InitXavier(&rng);
    if (epoch == 2) value_at_2 = p.value;
    TrainingState st = MakeState();
    st.epoch = epoch;
    ASSERT_TRUE(mgr.Write({&p}, st).ok());
  }
  // Corrupt the newest file: fallback must land on epoch 2.
  fs::resize_file(CheckpointManager::CheckpointPath(dir, 3), 20);
  const auto before = obs::MetricsRegistry::Global().Snapshot();

  Parameter p2("emb", 4, 2);
  TrainingState restored;
  ASSERT_TRUE(mgr.RestoreLatest({&p2}, &restored).ok());
  EXPECT_EQ(restored.epoch, 2);
  EXPECT_TRUE(p2.value.Equals(value_at_2));

  const auto after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(after.CounterDelta(before, "checkpoint.fallbacks"), 1u);
  fs::remove_all(dir);
}

TEST_F(CheckpointV2Test, ManagerNotFoundWhenNothingValid) {
  const std::string dir = TempDirFor("mgr_empty");
  CheckpointManager mgr(dir, 3);
  Parameter p("emb", 4, 2);
  EXPECT_EQ(mgr.RestoreLatest({&p}, nullptr).code(),
            util::StatusCode::kNotFound);
  // A directory holding only corrupt files is also NotFound.
  {
    std::ofstream out(CheckpointManager::CheckpointPath(dir, 1),
                      std::ios::binary);
    out << "garbage";
  }
  EXPECT_EQ(mgr.RestoreLatest({&p}, nullptr).code(),
            util::StatusCode::kNotFound);
  fs::remove_all(dir);
}

TEST_F(CheckpointV2Test, ManagerFallsBackPastDirectoryNamedLikeCheckpoint) {
  // Listing matches on the name alone, so a directory called like the
  // newest checkpoint reaches the reader: it must be refused like a
  // corrupt file (DataLoss, counted fallback), not kill the process.
  obs::SetEnabled(true);
  const std::string dir = TempDirFor("mgr_dir_squat");
  util::Rng rng(10);
  Parameter p("emb", 4, 2);
  p.InitXavier(&rng);
  CheckpointManager mgr(dir, 3);
  TrainingState st = MakeState();
  st.epoch = 4;
  ASSERT_TRUE(mgr.Write({&p}, st).ok());
  const std::string squat = CheckpointManager::CheckpointPath(dir, 9);
  fs::create_directories(squat);
  EXPECT_EQ(ValidateCheckpoint(squat).code(), util::StatusCode::kDataLoss);
  EXPECT_EQ(LoadServingExport(squat).status().code(),
            util::StatusCode::kDataLoss);

  const auto before = obs::MetricsRegistry::Global().Snapshot();
  Parameter p2("emb", 4, 2);
  TrainingState restored;
  const util::Status s = mgr.RestoreLatest({&p2}, &restored);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(restored.epoch, 4);
  EXPECT_TRUE(p2.value.Equals(p.value));
  const auto after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(after.CounterDelta(before, "checkpoint.fallbacks"), 1u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// CRC-32 and format pins. Every checkpoint, serving export, WAL frame and
// manifest is guarded by util::Crc32, so its values are part of the
// on-disk formats: a faster implementation must reproduce them exactly.

// Bit-at-a-time CRC-32 straight from the reflected polynomial.
uint32_t ReferenceCrc32(const unsigned char* p, size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> NoiseBytes(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (unsigned char& b : out) b = static_cast<unsigned char>(rng.NextU64());
  return out;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(util::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(util::Crc32("", 0), 0u);
  EXPECT_EQ(util::Crc32Final(util::Crc32Init()), 0u);
}

TEST(Crc32Test, MatchesReferenceAtEveryLengthAndAlignment) {
  // Offsets 0..7 start the 8-byte steps at every misalignment; lengths
  // 0..300 cover empty input, pure tails and every tail length.
  const std::vector<unsigned char> buf = NoiseBytes(300 + 8, 3);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(util::Crc32(p, len), ReferenceCrc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, EverySplitOfAStreamEqualsOneShot) {
  const std::vector<unsigned char> buf = NoiseBytes(300, 4);
  const uint32_t whole = util::Crc32(buf.data(), buf.size());
  ASSERT_EQ(whole, ReferenceCrc32(buf.data(), buf.size()));
  for (size_t cut = 0; cut <= buf.size(); ++cut) {
    uint32_t crc = util::Crc32Update(util::Crc32Init(), buf.data(), cut);
    crc = util::Crc32Update(crc, buf.data() + cut, buf.size() - cut);
    ASSERT_EQ(util::Crc32Final(crc), whole) << "cut at " << cut;
  }
}

// FNV-1a 64 over a whole file: a digest that does not depend on the CRC
// under test.
uint64_t FileFnv1a(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t h = 0xcbf29ce484222325ull;
  char c;
  while (in.get(c)) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Exact-in-float values (multiples of 1/16), so the bytes depend on the
// writer only.
tensor::Matrix Ramp(int64_t rows, int64_t cols, int salt) {
  tensor::Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>((i * 7 + salt) % 19 - 9) * 0.0625f;
  }
  return m;
}

TEST_F(CheckpointV2Test, FormatPinsServingExportAndCheckpointBytes) {
  // The constants were captured from the byte-at-a-time implementation;
  // any change to the writers or to the CRC moves them.
  ServingExport ex;
  ex.version = 3;
  ex.user_emb = Ramp(3, 5, 1);
  ex.item_emb = Ramp(4, 5, 2);
  ex.user_history = {{0, 2}, {}, {1, 3}};
  ex.write_int8 = true;
  ex.write_bf16 = true;
  const std::string export_path = TempPath("v2_pin_export.lgcn");
  ASSERT_TRUE(SaveServingExport(export_path, ex).ok());
  EXPECT_EQ(fs::file_size(export_path), kPinnedExportBytes);
  EXPECT_EQ(FileFnv1a(export_path), kPinnedExportFnv);

  Parameter a("emb", 3, 4), b("w", 2, 2);
  a.value = Ramp(3, 4, 3);
  a.adam_m = Ramp(3, 4, 4);
  a.adam_v = Ramp(3, 4, 5);
  b.value = Ramp(2, 2, 6);
  TrainingState st;
  st.epoch = 7;
  st.best_epoch = 5;
  st.best_valid_score = 0.25;
  st.epochs_since_best = 2;
  st.optimizer_steps = 91;
  st.seed = 42;
  st.sampler_cursor = 1234;
  st.has_rng = true;
  st.rng.s[0] = 1;
  st.rng.s[1] = 2;
  st.rng.s[2] = 3;
  st.rng.s[3] = 4;
  st.rng.spare_bits = 5;
  st.rng.has_spare = 1;
  st.epoch_losses = {0.5, 0.25};
  st.valid_curve = {{2, 0.125}};
  st.best_snapshot = {{"emb", Ramp(3, 4, 7)}, {"w", Ramp(2, 2, 8)}};
  const std::string ckpt_path = TempPath("v2_pin_ckpt.lgcn");
  ASSERT_TRUE(SaveCheckpointV2(ckpt_path, {&a, &b}, &st).ok());
  EXPECT_EQ(fs::file_size(ckpt_path), kPinnedCheckpointBytes);
  EXPECT_EQ(FileFnv1a(ckpt_path), kPinnedCheckpointFnv);
  std::remove(export_path.c_str());
  std::remove(ckpt_path.c_str());
}

}  // namespace
}  // namespace layergcn::train
