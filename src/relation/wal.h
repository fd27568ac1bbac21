// Write-ahead log: per-catalog durability for streaming updates.
//
// PR 8 made the engine stateful — `ApplyUpdates` batches and standing
// queries accumulate state that, until this file, lived only in process
// memory. The WAL makes that state crash-durable the classic way: every
// committed `TableDelta` batch (and every standing-query registration) is
// appended to a log segment *before* it becomes visible to readers, and
// recovery replays the segments in order to rebuild the exact
// `TableVersion` chains and standing-query set. The design follows the
// cheap-logging + replay recipe of fast main-memory recovery (see
// PAPERS.md): logical deltas, not physical pages, framed and checksummed.
//
// On-disk layout (per segment file `<dir>/wal-NNNNNN.log`):
//
//   +--------+------+---------------------------------------------------+
//   | "PQWL" | u32 1| records ...                                       |
//   +--------+------+---------------------------------------------------+
//
// One record:
//
//   +---------------+---------+------------------------+
//   | u32 maskedCRC | u32 len | payload (len bytes)    |
//   +---------------+---------+------------------------+
//
// The CRC (common/crc32.h, masked) covers the payload; the payload opens
// with a kind byte and is framed with the same PutScalar/PutVarint
// helpers as the PQB1 block store (relation/coding.h). A record is
// appended with a single write, so a crash tears at most the tail of the
// last segment — replay treats an incomplete or CRC-failing tail as the
// clean end of the log (prefix durability), and the next writer cuts that
// tail off before it appends. A CRC failure in any *non-final* segment is
// real corruption and fails recovery with a structured error.
//
// Sync policy decides the durability/throughput trade:
//   kAlways  fsync after every record — a batch acked is a batch durable;
//   kBatch   fsync every sync_every_n records — bounded loss window,
//            near-zero append overhead (the bench target);
//   kNone    fsync only on rotation/close — tests and bulk loads.
//
// All file I/O goes through common/env.h, so fault-injection tests can
// script torn writes, fsync failures, and bit flips against the log.
#ifndef PAQL_RELATION_WAL_H_
#define PAQL_RELATION_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "relation/table_version.h"

namespace paql::relation {

enum class WalSync {
  kNone,
  kBatch,
  kAlways,
};

struct WalOptions {
  /// Directory holding the segment files (created if absent).
  std::string dir;
  WalSync sync = WalSync::kBatch;
  /// kBatch: fsync after this many appended records.
  int sync_every_n = 32;
  /// Rotate to a fresh segment once the current one exceeds this.
  uint64_t segment_bytes = 64ull << 20;
  /// Filesystem seam; null = Env::Default().
  Env* env = nullptr;
};

/// One logical log entry. kDelta is the workhorse (a committed update
/// batch); kWatch/kUnwatch persist the standing-query set so recovery
/// re-registers watches at the same point in the update stream they
/// originally attached (ids included, so re-registration is stable).
struct WalRecord {
  enum class Kind : uint8_t {
    kDelta = 1,
    kWatch = 2,
    kUnwatch = 3,
  };

  Kind kind = Kind::kDelta;
  // kDelta:
  std::string table;
  uint64_t base_version = 0;  // version the delta applied on top of
  TableDelta delta;
  // kWatch / kUnwatch:
  uint64_t watch_id = 0;
  std::string query;  // kWatch only
};

/// Appends framed records to rotating segment files. Thread-safe (one
/// internal mutex; writers in this codebase are already serialized, the
/// lock is a backstop). Never appends into a pre-existing segment: the
/// first Append after Open starts a fresh segment after the highest
/// existing one, so a recovered process cannot disturb the torn-tail
/// analysis of old files. Before its first append the writer rewrites a
/// torn final segment to its intact prefix (the tail replay skipped), so
/// that segment stays readable once it is no longer final. Segments open
/// lazily, on the first record they hold: a writer that never appends
/// leaves no file behind, and rotation does not leave an empty segment at
/// the end of the log.
class WalWriter {
 public:
  static Result<std::unique_ptr<WalWriter>> Open(const WalOptions& options);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Serialize + append one record; syncs per the policy. On any error
  /// the record must be considered not durable (the caller fails the
  /// batch; a torn prefix on disk is handled by replay). A record that
  /// reached the log is reported appended even when the rotation after it
  /// fails; that rotation error then fails every later Append, Sync and
  /// Close before it writes anything.
  Status Append(const WalRecord& record);

  /// Force an fsync of the current segment now (a no-op while no segment
  /// is open).
  Status Sync();

  /// Sync + close the current segment. The writer is unusable after.
  Status Close();

  const std::string& dir() const { return options_.dir; }
  uint64_t records_appended() const;
  uint64_t bytes_appended() const;
  uint64_t segments_opened() const;
  uint64_t syncs() const;

 private:
  explicit WalWriter(WalOptions options) : options_(std::move(options)) {}

  Status OpenSegmentLocked();
  Status CloseSegmentLocked();
  /// Rewrite the pre-existing final segment to its intact prefix when its
  /// tail is torn (a no-op for an intact or absent log).
  Status RepairTornTailLocked();

  WalOptions options_;
  Env* env_ = nullptr;

  mutable std::mutex mu_;
  std::unique_ptr<WritableFile> file_;  // null until the next Append
  bool closed_ = false;
  bool tail_repaired_ = false;   // RepairTornTailLocked has succeeded
  Status rotation_error_;        // sticky: a failed rotation ends the writer
  uint64_t seq_ = 0;             // current segment sequence number
  uint64_t segment_bytes_ = 0;   // bytes in the current segment
  int unsynced_records_ = 0;
  uint64_t records_ = 0;
  uint64_t bytes_ = 0;
  uint64_t segments_ = 0;
  uint64_t syncs_ = 0;
};

struct WalReplayStats {
  uint64_t records = 0;
  uint64_t segments = 0;
  uint64_t bytes = 0;
  /// True when the last segment ended in an incomplete or CRC-failing
  /// record — the expected signature of a crash mid-append. Replay
  /// stopped at the last intact record (prefix durability).
  bool torn_tail = false;
};

/// Replay every intact record in `options.dir` in append order, invoking
/// `apply` for each. A non-OK status from `apply` aborts the replay and
/// propagates. An empty or absent directory replays zero records.
Result<WalReplayStats> ReplayWal(
    const WalOptions& options,
    const std::function<Status(const WalRecord&)>& apply);

/// Delete every WAL segment in `dir` (post-checkpoint truncation and
/// test hygiene). Missing directory is OK.
Status PurgeWal(const std::string& dir, Env* env = nullptr);

/// Exposed for tests: serialize/decode one record payload (no frame).
std::vector<uint8_t> EncodeWalRecord(const WalRecord& record);
Result<WalRecord> DecodeWalRecord(const uint8_t* data, size_t size);

}  // namespace paql::relation

#endif  // PAQL_RELATION_WAL_H_
