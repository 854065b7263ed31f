// Append-only, CRC32-framed write-ahead log of interaction events.
//
// The WAL is the durability root of the continuous pipeline (DESIGN.md
// §16): every event is framed, checksummed, and fsynced in batches before
// anything downstream consumes it, so the merged graph is always a pure
// function of (committed WAL contents) and a crash at any point replays to
// the same state bit for bit.
//
// On-disk layout: a directory of `wal-NNNNNN.log` segments, rotated when
// the active segment exceeds WalOptions::segment_bytes. Each segment is
//
//   magic "LWAL" | uint32 version=1 | uint64 base_seq
//   per record: uint32 payload_len | payload | uint32 CRC-32(payload)
//
// where the payload of an interaction record is
// int32 user | int32 item | int64 timestamp (little-endian). New segments,
// and a segment whose header recovery rewrites, are created atomically
// (util::WriteFileImage: header written to `.tmp`, fsynced, renamed) so a
// crash during rotation never leaves a half-headered segment under a live
// name.
//
// Durability contract: Append() only buffers; Commit() writes the buffer
// to the active segment and fsyncs it. A record is *committed* once
// Commit() returns OK — recovery guarantees exactly the committed prefix
// survives. Recovery (run by Open()) walks the segments oldest-first,
// truncates a torn tail (incomplete trailing frame) instead of aborting,
// and skips records whose CRC does not match, counting both
// (pipeline.wal.torn_tails / pipeline.wal.corrupt_records).
//
// Fault points (util/fault_injection):
//   wal.torn_write  Commit() persists only a prefix of the batch and
//                   reports the crash as kDataLoss; the writer is poisoned
//                   and must be re-Open()ed (the recovery drill).
//   wal.short_read  recovery sees a truncated segment image.
//   wal.bit_flip    recovery sees one flipped payload bit.
//   wal.enospc      Commit() fails as kResourceExhausted with nothing
//                   written — the full-disk drill. The handle is poisoned
//                   like any I/O failure; owners that cannot recover must
//                   degrade to serving-only, never crash.
//
// Nothing deletes a segment. A published snapshot does not make old
// events redundant: every fine-tune rebuilds its dataset (train edges,
// held-out routing, exclusion lists) from the whole committed sequence,
// so the log grows with the history it records.

#ifndef LAYERGCN_PIPELINE_WAL_H_
#define LAYERGCN_PIPELINE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace layergcn::pipeline {

/// One logged interaction event.
struct WalRecord {
  int32_t user = 0;
  int32_t item = 0;
  int64_t timestamp = 0;

  bool operator==(const WalRecord& o) const {
    return user == o.user && item == o.item && timestamp == o.timestamp;
  }
};

struct WalOptions {
  /// Segment directory (created on Open).
  std::string dir;
  /// Rotate the active segment once its size reaches this many bytes.
  int64_t segment_bytes = 1 << 20;
  /// Commit() fsyncs at most once per call; Append() auto-commits after
  /// this many buffered records (0 disables auto-commit).
  int64_t auto_commit_records = 0;
};

/// What recovery found and repaired while opening / reading a WAL.
struct WalRecoveryStats {
  int64_t segments = 0;          ///< segment files scanned
  int64_t records = 0;           ///< committed records recovered
  int64_t corrupt_records = 0;   ///< complete frames failing CRC, skipped
  int64_t torn_tails = 0;        ///< segments whose trailing frame was cut
  int64_t bytes = 0;             ///< committed bytes across segments
};

/// Append-side handle. Not thread-safe: one producer owns it (the
/// supervisor serializes appends).
class InteractionWal {
 public:
  /// Opens (creating the directory if needed), runs recovery — torn tails
  /// are physically truncated so the writer can extend the last segment —
  /// and positions the writer after the last committed record.
  static util::StatusOr<std::unique_ptr<InteractionWal>> Open(
      WalOptions options);

  ~InteractionWal();

  InteractionWal(const InteractionWal&) = delete;
  InteractionWal& operator=(const InteractionWal&) = delete;

  /// Buffers one record (durable only after Commit()).
  util::Status Append(const WalRecord& record);

  /// Writes the buffered records to the active segment and fsyncs it.
  /// Rotates to a fresh segment afterwards when the active one is full.
  /// On a torn write (wal.torn_write or a real I/O failure) the handle is
  /// poisoned: every later call fails and the owner must re-Open(), whose
  /// recovery truncates the torn tail.
  util::Status Commit();

  /// Records recovered by Open() plus records committed since.
  int64_t committed_records() const { return committed_records_; }
  /// Records buffered by Append() but not yet committed.
  int64_t pending_records() const {
    return static_cast<int64_t>(pending_.size());
  }

  /// Recovery outcome of the Open() that produced this handle.
  const WalRecoveryStats& recovery() const { return recovery_; }

  const std::string& dir() const { return options_.dir; }

  /// Reads every committed record in `dir` oldest-first, applying the same
  /// tolerance as Open() (torn tail stops the segment, corrupt records are
  /// skipped + counted) but without modifying any file. The wal.short_read
  /// / wal.bit_flip fault points damage the in-memory image when armed.
  static util::StatusOr<std::vector<WalRecord>> ReadAll(
      const std::string& dir, WalRecoveryStats* stats = nullptr);

  /// Segment file name for 0-based `index`: dir/wal-NNNNNN.log.
  static std::string SegmentPath(const std::string& dir, int64_t index);

  /// (index, path) of every well-named segment, ascending index.
  static std::vector<std::pair<int64_t, std::string>> ListSegments(
      const std::string& dir);

 private:
  InteractionWal() = default;

  /// Creates segment `index` (header only) atomically and makes it active.
  util::Status StartSegment(int64_t index, int64_t base_seq);

  WalOptions options_;
  WalRecoveryStats recovery_;
  std::vector<WalRecord> pending_;
  std::string active_path_;
  int64_t active_index_ = 0;
  int64_t active_bytes_ = 0;      // committed bytes in the active segment
  int64_t committed_records_ = 0; // global committed count (== next seq)
  bool poisoned_ = false;
};

}  // namespace layergcn::pipeline

#endif  // LAYERGCN_PIPELINE_WAL_H_
