#include "pipeline/wal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/file_image.h"
#include "util/logging.h"

namespace layergcn::pipeline {
namespace {

constexpr char kMagic[4] = {'L', 'W', 'A', 'L'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 4 + 4 + 8;   // magic | version | base_seq
constexpr uint32_t kPayloadBytes = 4 + 4 + 8;  // user | item | timestamp
constexpr size_t kFrameBytes = 4 + kPayloadBytes + 4;  // len | payload | crc
// A frame length beyond this cannot be trusted — treat as a torn tail.
constexpr uint32_t kMaxPayload = 1 << 20;

template <typename T>
void AppendPod(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T ReadPod(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

std::string SegmentHeader(int64_t base_seq) {
  std::string h;
  h.append(kMagic, sizeof(kMagic));
  AppendPod(&h, kVersion);
  AppendPod(&h, static_cast<uint64_t>(base_seq));
  return h;
}

void EncodeRecord(std::string* out, const WalRecord& r) {
  std::string payload;
  payload.reserve(kPayloadBytes);
  AppendPod(&payload, r.user);
  AppendPod(&payload, r.item);
  AppendPod(&payload, r.timestamp);
  AppendPod(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
  AppendPod(out, util::Crc32(payload.data(), payload.size()));
}

/// Reads the whole segment into memory, applying the read-side fault
/// points (simulated disk damage) to the image, never the parser state.
util::Status LoadSegmentImage(const std::string& path, std::string* out) {
  LAYERGCN_RETURN_IF_ERROR(util::ReadFileImage(path, out));
  if (util::fault::Fire("wal.short_read")) {
    out->resize(out->size() / 2);
  }
  if (util::fault::Fire("wal.bit_flip") && out->size() > kHeaderBytes + 6) {
    // Land the flip inside a payload so the frame stays complete but its
    // CRC no longer matches (the skip-and-count path, not the torn path).
    (*out)[kHeaderBytes + 6] ^= 0x10;
  }
  return util::OkStatus();
}

struct ParsedSegment {
  std::vector<WalRecord> records;
  size_t committed_bytes = 0;  // offset up to which the file is well-formed
  int64_t corrupt = 0;         // complete frames failing CRC / shape
  bool torn = false;           // trailing bytes past committed_bytes
  bool header_ok = false;
};

ParsedSegment ParseSegment(const std::string& image) {
  ParsedSegment p;
  if (image.size() < kHeaderBytes ||
      std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0 ||
      ReadPod<uint32_t>(image.data() + 4) != kVersion) {
    p.torn = !image.empty();
    return p;
  }
  p.header_ok = true;
  size_t off = kHeaderBytes;
  p.committed_bytes = off;
  while (off < image.size()) {
    if (off + 4 > image.size()) {
      p.torn = true;
      break;
    }
    const uint32_t len = ReadPod<uint32_t>(image.data() + off);
    if (len == 0 || len > kMaxPayload) {
      // An implausible length means the frame boundary itself is damaged;
      // nothing past this point can be trusted.
      p.torn = true;
      break;
    }
    if (off + 4 + len + 4 > image.size()) {
      p.torn = true;
      break;
    }
    const char* payload = image.data() + off + 4;
    const uint32_t stored = ReadPod<uint32_t>(image.data() + off + 4 + len);
    off += 4 + len + 4;
    p.committed_bytes = off;
    if (util::Crc32(payload, len) != stored || len != kPayloadBytes) {
      ++p.corrupt;
      continue;
    }
    WalRecord r;
    r.user = ReadPod<int32_t>(payload);
    r.item = ReadPod<int32_t>(payload + 4);
    r.timestamp = ReadPod<int64_t>(payload + 8);
    p.records.push_back(r);
  }
  return p;
}

util::Status TruncateFile(const std::string& path, size_t len) {
  std::error_code ec;
  std::filesystem::resize_file(path, len, ec);
  if (ec) {
    return util::UnavailableError("cannot truncate " + path + ": " +
                                  ec.message());
  }
  return util::OkStatus();
}

}  // namespace

std::string InteractionWal::SegmentPath(const std::string& dir,
                                        int64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%06" PRId64 ".log", index);
  return dir + "/" + name;
}

std::vector<std::pair<int64_t, std::string>> InteractionWal::ListSegments(
    const std::string& dir) {
  return util::ListNumberedFiles(dir, "wal-", ".log");
}

util::StatusOr<std::unique_ptr<InteractionWal>> InteractionWal::Open(
    WalOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return util::UnavailableError("cannot create WAL dir " + options.dir +
                                  ": " + ec.message());
  }

  std::unique_ptr<InteractionWal> wal(new InteractionWal());
  wal->options_ = std::move(options);

  const auto segments = ListSegments(wal->options_.dir);
  for (size_t i = 0; i < segments.size(); ++i) {
    const std::string& path = segments[i].second;
    std::string image;
    LAYERGCN_RETURN_IF_ERROR(LoadSegmentImage(path, &image));
    ParsedSegment p = ParseSegment(image);
    ++wal->recovery_.segments;
    wal->recovery_.records += static_cast<int64_t>(p.records.size());
    wal->recovery_.corrupt_records += p.corrupt;
    wal->recovery_.bytes += static_cast<int64_t>(p.committed_bytes);
    if (p.torn) {
      // Physically cut the tail so the writer can extend the segment and
      // a later reader never re-walks the damage.
      ++wal->recovery_.torn_tails;
      if (!p.header_ok) {
        // Even the header is gone; replace the segment with a bare header.
        const std::string header = SegmentHeader(
            wal->committed_records_ + static_cast<int64_t>(p.records.size()));
        LAYERGCN_RETURN_IF_ERROR(util::WriteFileImage(path, header));
        p.committed_bytes = header.size();
      } else {
        LAYERGCN_RETURN_IF_ERROR(TruncateFile(path, p.committed_bytes));
      }
      LAYERGCN_LOG(kWarning)
          << "WAL recovery truncated torn tail of " << path << " at byte "
          << p.committed_bytes << " (" << p.records.size()
          << " records survive)";
    }
    wal->committed_records_ += static_cast<int64_t>(p.records.size());
    if (i + 1 == segments.size()) {
      wal->active_index_ = segments[i].first;
      wal->active_path_ = path;
      wal->active_bytes_ = static_cast<int64_t>(p.committed_bytes);
    }
  }

  OBS_COUNT("pipeline.wal.recovered_records", wal->recovery_.records);
  OBS_COUNT("pipeline.wal.corrupt_records", wal->recovery_.corrupt_records);
  OBS_COUNT("pipeline.wal.torn_tails", wal->recovery_.torn_tails);

  if (segments.empty()) {
    LAYERGCN_RETURN_IF_ERROR(wal->StartSegment(0, 0));
  } else if (wal->active_bytes_ >= wal->options_.segment_bytes) {
    LAYERGCN_RETURN_IF_ERROR(wal->StartSegment(wal->active_index_ + 1,
                                               wal->committed_records_));
  }
  return wal;
}

InteractionWal::~InteractionWal() = default;

util::Status InteractionWal::StartSegment(int64_t index, int64_t base_seq) {
  const std::string path = SegmentPath(options_.dir, index);
  const std::string header = SegmentHeader(base_seq);
  LAYERGCN_RETURN_IF_ERROR(util::WriteFileImage(path, header));
  active_index_ = index;
  active_path_ = path;
  active_bytes_ = static_cast<int64_t>(header.size());
  OBS_COUNT("pipeline.wal.rotations", 1);
  return util::OkStatus();
}

util::Status InteractionWal::Append(const WalRecord& record) {
  if (poisoned_) {
    return util::FailedPreconditionError(
        "WAL writer poisoned by a failed commit; re-Open() to recover");
  }
  pending_.push_back(record);
  OBS_COUNT("pipeline.wal.appends", 1);
  if (options_.auto_commit_records > 0 &&
      static_cast<int64_t>(pending_.size()) >= options_.auto_commit_records) {
    return Commit();
  }
  return util::OkStatus();
}

util::Status InteractionWal::Commit() {
  if (poisoned_) {
    return util::FailedPreconditionError(
        "WAL writer poisoned by a failed commit; re-Open() to recover");
  }
  if (pending_.empty()) return util::OkStatus();

  std::string batch;
  batch.reserve(pending_.size() * kFrameBytes);
  for (const WalRecord& r : pending_) EncodeRecord(&batch, r);

  if (util::fault::Fire("wal.enospc")) {
    // Simulated full disk: the write never starts, so unlike a torn write
    // nothing partial lands — but the handle is still poisoned because a
    // real ENOSPC leaves the writer unable to promise durability. Owners
    // re-Open() to retry; if the disk is still full they must degrade to
    // serving-only rather than crash.
    poisoned_ = true;
    return util::ResourceExhaustedError(
        "no space left on device (injected) writing " + active_path_);
  }
  if (util::fault::Fire("wal.torn_write")) {
    // Simulated crash inside the commit window: a prefix of the batch —
    // cut mid-frame (the +7 keeps the cut off the 24-byte frame grid) —
    // reaches the disk and the process "dies". The handle is poisoned so
    // the owner must go through recovery like a restarted process would.
    const size_t torn =
        std::min(batch.size() * 2 / 5 + 7, batch.size() - 1);
    (void)util::SyncedWrite(active_path_,
                            std::string_view(batch).substr(0, torn),
                            /*append=*/true);
    poisoned_ = true;
    return util::DataLossError("simulated torn WAL write on " + active_path_);
  }

  const util::Status st =
      util::SyncedWrite(active_path_, batch, /*append=*/true);
  if (!st.ok()) {
    // The batch may be partially on disk; only recovery can tell.
    poisoned_ = true;
    return st;
  }
  active_bytes_ += static_cast<int64_t>(batch.size());
  committed_records_ += static_cast<int64_t>(pending_.size());
  OBS_COUNT("pipeline.wal.records_committed", pending_.size());
  OBS_COUNT("pipeline.wal.commits", 1);
  pending_.clear();

  if (active_bytes_ >= options_.segment_bytes) {
    return StartSegment(active_index_ + 1, committed_records_);
  }
  return util::OkStatus();
}

int64_t InteractionWal::GcCoveredSegments(int64_t covered_seq) {
  const auto segments = ListSegments(options_.dir);
  int64_t removed = 0;
  // A segment is fully covered when its successor's base_seq (== the
  // global record count when the successor was started) is at or below
  // the covered position. The last listed segment is the active one and
  // is never a candidate.
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i].second == active_path_) continue;
    std::ifstream in(segments[i + 1].second, std::ios::binary);
    char header[kHeaderBytes];
    in.read(header, sizeof(header));
    if (!in.good() || std::memcmp(header, kMagic, sizeof(kMagic)) != 0 ||
        ReadPod<uint32_t>(header + 4) != kVersion) {
      // Successor header unreadable: cannot prove coverage, keep the
      // segment (recovery will repair the successor on the next Open).
      continue;
    }
    const int64_t next_base =
        static_cast<int64_t>(ReadPod<uint64_t>(header + 8));
    if (next_base > covered_seq) continue;
    if (std::remove(segments[i].second.c_str()) == 0) {
      ++removed;
      OBS_COUNT("pipeline.wal.segments_gced", 1);
      LAYERGCN_LOG(kInfo) << "WAL GC removed covered segment "
                          << segments[i].second << " (records < " << next_base
                          << " are published)";
    }
  }
  return removed;
}

util::StatusOr<std::vector<WalRecord>> InteractionWal::ReadAll(
    const std::string& dir, WalRecoveryStats* stats) {
  std::vector<WalRecord> out;
  WalRecoveryStats local;
  for (const auto& [index, path] : ListSegments(dir)) {
    std::string image;
    LAYERGCN_RETURN_IF_ERROR(LoadSegmentImage(path, &image));
    const ParsedSegment p = ParseSegment(image);
    ++local.segments;
    local.records += static_cast<int64_t>(p.records.size());
    local.corrupt_records += p.corrupt;
    local.torn_tails += p.torn ? 1 : 0;
    local.bytes += static_cast<int64_t>(p.committed_bytes);
    out.insert(out.end(), p.records.begin(), p.records.end());
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace layergcn::pipeline
