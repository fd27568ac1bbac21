#include "relation/disk_table.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#include "common/str_util.h"

namespace paql::relation {

Result<std::shared_ptr<DiskTable>> DiskTable::Open(
    const std::string& path, std::shared_ptr<BlockCache> cache, Env* env,
    const RetryOptions& retry) {
  PAQL_ASSIGN_OR_RETURN(std::shared_ptr<BlockStoreReader> reader,
                        BlockStoreReader::Open(path, env));
  if (cache == nullptr) cache = std::make_shared<BlockCache>();
  return std::shared_ptr<DiskTable>(
      new DiskTable(std::move(reader), std::move(cache), retry));
}

DiskTable::DiskTable(std::shared_ptr<BlockStoreReader> reader,
                     std::shared_ptr<BlockCache> cache,
                     const RetryOptions& retry)
    : reader_(std::move(reader)),
      cache_(std::move(cache)),
      store_id_(BlockCache::NewStoreId()),
      retry_(retry) {}

DiskTable::~DiskTable() { cache_->EraseStore(store_id_); }

Result<DecodedBlock> DiskTable::DecodeWithRetry(size_t col,
                                                size_t block) const {
  const uint64_t qkey = (static_cast<uint64_t>(col) << 32) | block;
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    auto it = quarantine_.find(qkey);
    if (it != quarantine_.end()) return it->second;  // fail fast
  }
  Status last = Status::OK();
  int backoff_us = retry_.backoff_initial_us;
  for (int attempt = 0; attempt < std::max(1, retry_.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      backoff_us *= retry_.backoff_multiplier;
      io_retries_.fetch_add(1);
    }
    Result<DecodedBlock> decoded = reader_->DecodeBlock(col, block);
    if (decoded.ok()) return decoded;
    last = decoded.status();
  }
  // Every attempt failed: quarantine so later touches fail fast instead
  // of re-paying the retry storm for bytes that will not improve.
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    if (quarantine_.emplace(qkey, last).second) quarantined_.fetch_add(1);
  }
  return last;
}

BlockCache::Handle DiskTable::PoisonBlock(size_t col, size_t block) const {
  auto poison = std::make_shared<DecodedBlock>();
  const BlockMeta& meta = reader_->meta(col, block);
  poison->type = reader_->schema().column(col).type;
  switch (poison->type) {
    case DataType::kInt64: poison->ints.assign(meta.num_rows, 0); break;
    case DataType::kDouble: poison->doubles.assign(meta.num_rows, 0.0); break;
    case DataType::kString:
      poison->strings.assign(meta.num_rows, std::string());
      break;
  }
  poison->nulls.assign(meta.num_rows, 1);
  return poison;
}

BlockCache::Handle DiskTable::Block(size_t col, size_t block) const {
  BlockKey key{store_id_, static_cast<uint32_t>(col),
               static_cast<uint32_t>(block)};
  BlockCache::Handle h = cache_->GetOrLoad(key, [&]() -> BlockCache::Handle {
    Result<DecodedBlock> decoded = DecodeWithRetry(col, block);
    if (!decoded.ok()) {
      // Record the first failure for ConsumeError; return null so the
      // cache does NOT retain the placeholder (a later successful read —
      // say, after the operator restores the file — must not be shadowed
      // by a cached poison block).
      std::lock_guard<std::mutex> lock(fault_mu_);
      if (first_error_.ok()) first_error_ = decoded.status();
      return nullptr;
    }
    blocks_decoded_.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<const DecodedBlock>(std::move(*decoded));
  });
  if (h == nullptr) return PoisonBlock(col, block);
  return h;
}

Status DiskTable::ConsumeError() const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  Status out = first_error_;
  first_error_ = Status::OK();
  return out;
}

BlockCache::Handle DiskTable::StringBlock(size_t col, size_t block) const {
  const uint64_t key = (static_cast<uint64_t>(col) << 32) | block;
  std::lock_guard<std::mutex> lock(string_mu_);
  auto it = string_blocks_.find(key);
  if (it != string_blocks_.end()) return it->second;
  BlockCache::Handle handle = Block(col, block);
  string_blocks_.emplace(key, handle);
  return handle;
}

bool DiskTable::IsNull(RowId row, size_t col) const {
  BlockCache::Handle h = Block(col, row / kBlockRows);
  const size_t lane = row % kBlockRows;
  return !h->nulls.empty() && h->nulls[lane] != 0;
}

double DiskTable::GetDouble(RowId row, size_t col) const {
  BlockCache::Handle h = Block(col, row / kBlockRows);
  const size_t lane = row % kBlockRows;
  if (h->type == DataType::kInt64) {
    return static_cast<double>(h->ints[lane]);
  }
  return h->doubles[lane];
}

int64_t DiskTable::GetInt64(RowId row, size_t col) const {
  BlockCache::Handle h = Block(col, row / kBlockRows);
  return h->ints[row % kBlockRows];
}

const std::string& DiskTable::GetString(RowId row, size_t col) const {
  BlockCache::Handle h = StringBlock(col, row / kBlockRows);
  return h->strings[row % kBlockRows];
}

void DiskTable::LoadChunkRaw(size_t col, const RowSpan& span,
                             NumericBatch* out) const {
  const DataType type = schema().column(col).type;
  PAQL_CHECK_MSG(type != DataType::kString,
                 "numeric chunk load on a string column");
  if (span.contiguous()) {
    size_t i = 0;
    while (i < span.len) {
      const RowId row = span.start + static_cast<RowId>(i);
      const size_t block = row / kBlockRows;
      const size_t lane = row % kBlockRows;
      BlockCache::Handle h = Block(col, block);
      const size_t take =
          std::min<size_t>(span.len - i, h->num_rows() - lane);
      if (type == DataType::kDouble) {
        std::memcpy(out->values.data() + i, h->doubles.data() + lane,
                    take * sizeof(double));
      } else {
        const int64_t* src = h->ints.data() + lane;
        for (size_t k = 0; k < take; ++k) {
          out->values[i + k] = static_cast<double>(src[k]);
        }
      }
      i += take;
    }
  } else {
    // One lookup per run of lanes in the same block (gather lists are
    // usually ascending), then a tight copy loop over the run.
    size_t i = 0;
    while (i < span.len) {
      const size_t block = span.rows[i] / kBlockRows;
      BlockCache::Handle h = Block(col, block);
      const RowId first = static_cast<RowId>(block * kBlockRows);
      // Unsigned: rows before `first` wrap past kBlockRows and end the run.
      auto in_block = [&](size_t k) {
        return static_cast<RowId>(span.rows[k] - first) < kBlockRows;
      };
      if (type == DataType::kDouble) {
        const double* src = h->doubles.data();
        for (; i < span.len && in_block(i); ++i) {
          out->values[i] = src[span.rows[i] - first];
        }
      } else {
        const int64_t* src = h->ints.data();
        for (; i < span.len && in_block(i); ++i) {
          out->values[i] = static_cast<double>(src[span.rows[i] - first]);
        }
      }
    }
  }
  out->ClearNulls();
}

void DiskTable::LoadChunk(size_t col, const RowSpan& span,
                          NumericBatch* out) const {
  LoadChunkRaw(col, span, out);
  // Second pass for NULL lanes: the blocks are still cache-resident.
  BlockCache::Handle h;
  size_t held = static_cast<size_t>(-1);
  for (size_t i = 0; i < span.len; ++i) {
    const RowId row = span.row(i);
    const size_t block = row / kBlockRows;
    if (block != held) {
      h = Block(col, block);
      held = block;
    }
    if (!h->nulls.empty() && h->nulls[row % kBlockRows] != 0) {
      out->SetNull(i);
    }
  }
}

bool DiskTable::ZoneFor(size_t col, size_t block, BlockZone* zone) const {
  if (schema().column(col).type == DataType::kString) return false;
  const BlockMeta& meta = reader_->meta(col, block);
  if (meta.null_count == meta.num_rows) {
    // All-NULL block: no value satisfies any comparison. Report an empty
    // range so every predicate zone prunes it.
    zone->min = std::numeric_limits<double>::infinity();
    zone->max = -std::numeric_limits<double>::infinity();
    zone->null_count = meta.null_count;
    return true;
  }
  zone->min = meta.min;
  zone->max = meta.max;
  zone->null_count = meta.null_count;
  return true;
}

size_t DiskTable::ApproximateBytes() const {
  return cache_->capacity_bytes();
}

}  // namespace paql::relation
