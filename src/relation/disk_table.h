// DiskTable — the out-of-core ColumnSource over a block-store file.
//
// A DiskTable owns a BlockStoreReader (file descriptor + footer index)
// and reads through a shared BlockCache: every block access is a cache
// lookup that decodes the block on a miss, so the decoded working set of
// a scan is bounded by the cache budget, not by the table size. Results
// are bit-identical to an in-memory Table of the same data (the block
// encodings are lossless and the NULL convention matches).
//
// String columns: GetString returns a reference, so decoded string blocks
// are pinned for the lifetime of the table (held in a member map). Tables
// whose string columns exceed memory should project them away before
// scanning; the numeric path never pins.
//
// Thread safety: const methods are safe to call concurrently (pread +
// sharded cache); this matches Table's read-side contract for
// morsel-parallel scans.
//
// Fault handling: a block that fails to read or decode is retried with
// exponential backoff (transient I/O faults clear on a re-read); a block
// that keeps failing is quarantined — the failure is recorded once, the
// accessors serve deterministic all-NULL placeholder lanes so scans
// complete without UB, and the structured Status (store path, column,
// block) surfaces through ConsumeError(), which query execution drains
// to fail the *query* instead of crashing the process. Zone-map-pruned
// corrupt blocks are never decoded, so queries that prune past the bad
// bytes still succeed.
#ifndef PAQL_RELATION_DISK_TABLE_H_
#define PAQL_RELATION_DISK_TABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "relation/block_cache.h"
#include "relation/block_store.h"
#include "relation/column_source.h"

namespace paql::relation {

/// Bounded-retry policy for block reads. Transient faults (a flaky
/// read, an interrupted syscall, a scribbled DMA buffer) often clear
/// on a re-read; corruption that survives every attempt is permanent.
struct DiskRetryOptions {
  int max_attempts = 3;           // total tries per block load
  int backoff_initial_us = 100;   // sleep before the 2nd try
  int backoff_multiplier = 4;     // growth per subsequent try
};

class DiskTable final : public ColumnSource {
 public:
  using RetryOptions = DiskRetryOptions;

  /// Open the block store at `path`, reading through `cache` (shared
  /// across tables; null makes a private cache with default options).
  /// `env` null = Env::Default(); tests inject faults through it.
  static Result<std::shared_ptr<DiskTable>> Open(
      const std::string& path, std::shared_ptr<BlockCache> cache,
      Env* env = nullptr, const RetryOptions& retry = RetryOptions());

  ~DiskTable() override;

  DiskTable(const DiskTable&) = delete;
  DiskTable& operator=(const DiskTable&) = delete;

  // --- ColumnSource ---
  const Schema& schema() const override { return reader_->schema(); }
  size_t num_rows() const override { return reader_->num_rows(); }
  bool IsNull(RowId row, size_t col) const override;
  double GetDouble(RowId row, size_t col) const override;
  int64_t GetInt64(RowId row, size_t col) const override;
  const std::string& GetString(RowId row, size_t col) const override;
  void LoadChunk(size_t col, const RowSpan& span,
                 NumericBatch* out) const override;
  void LoadChunkRaw(size_t col, const RowSpan& span,
                    NumericBatch* out) const override;
  bool ZoneFor(size_t col, size_t block, BlockZone* zone) const override;
  /// The cache budget: the resident footprint a scan is bounded by
  /// (deliberately not the file size — that is what out-of-core means).
  size_t ApproximateBytes() const override;

  /// First storage error since the last call (and clears it). See
  /// ColumnSource::ConsumeError for the contract.
  Status ConsumeError() const override;
  int64_t BlocksDecoded() const override { return blocks_decoded_.load(); }

  // --- Out-of-core specifics ---
  const BlockStoreReader& reader() const { return *reader_; }
  const std::shared_ptr<BlockCache>& cache() const { return cache_; }
  uint64_t store_id() const { return store_id_; }
  size_t num_blocks() const { return reader_->num_blocks(); }

  /// Observability for tests and STATS: transient faults that a retry
  /// absorbed, and blocks permanently quarantined.
  int64_t io_retries() const { return io_retries_.load(); }
  int64_t blocks_quarantined() const { return quarantined_.load(); }

 private:
  DiskTable(std::shared_ptr<BlockStoreReader> reader,
            std::shared_ptr<BlockCache> cache, const RetryOptions& retry);

  /// The decoded block for (col, block) via the cache. Never null: a
  /// block that cannot be read after retries yields an uncached all-NULL
  /// placeholder and records the failure for ConsumeError.
  BlockCache::Handle Block(size_t col, size_t block) const;
  /// Same, but pinned in `string_blocks_` so references stay valid.
  BlockCache::Handle StringBlock(size_t col, size_t block) const;

  /// DecodeBlock with bounded retry + backoff; quarantines on permanent
  /// failure. Quarantined blocks fail fast with the recorded status.
  Result<DecodedBlock> DecodeWithRetry(size_t col, size_t block) const;
  /// All-NULL placeholder lanes for an unreadable block (deterministic,
  /// so downstream kernels read defined memory).
  BlockCache::Handle PoisonBlock(size_t col, size_t block) const;

  std::shared_ptr<BlockStoreReader> reader_;
  std::shared_ptr<BlockCache> cache_;
  uint64_t store_id_ = 0;
  RetryOptions retry_;

  mutable std::mutex string_mu_;
  mutable std::unordered_map<uint64_t, BlockCache::Handle> string_blocks_;

  mutable std::mutex fault_mu_;
  mutable Status first_error_;  // sticky until ConsumeError drains it
  mutable std::unordered_map<uint64_t, Status> quarantine_;  // col<<32|block
  mutable std::atomic<int64_t> io_retries_{0};
  mutable std::atomic<int64_t> quarantined_{0};
  mutable std::atomic<int64_t> blocks_decoded_{0};
};

}  // namespace paql::relation

#endif  // PAQL_RELATION_DISK_TABLE_H_
