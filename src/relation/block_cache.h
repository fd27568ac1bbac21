// BlockCache — a process-wide sharded LRU over decoded column blocks.
//
// The out-of-core scan path (relation/disk_table.h) decodes compressed
// per-column blocks of kMorselRows rows on demand; this cache bounds the
// decoded working set by bytes so a scan over a table far bigger than
// memory stays resident within a configured budget. Keys are (store id,
// column, block); values are immutable decoded blocks shared by
// shared_ptr, so eviction can never invalidate a block a scan is still
// reading — eviction just drops the cache's reference.
//
// Sharding: the key hashes onto one of `shards` independently locked LRU
// lists (morsel-parallel scans touch different blocks, so they mostly hit
// different shards). Capacity is divided evenly across shards.
//
// Pinning: a pinned entry is exempt from eviction (its bytes still count
// against the budget). DiskTable pins decoded string blocks because
// GetString returns references into them.
#ifndef PAQL_RELATION_BLOCK_CACHE_H_
#define PAQL_RELATION_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "relation/schema.h"

namespace paql::relation {

/// One decoded column block: plain vectors in the block's row order.
/// Exactly one of the value vectors is populated (per the column type);
/// `nulls` is empty when the block has no NULL rows (mirroring Table's
/// lazily-grown bitmap convention).
struct DecodedBlock {
  DataType type = DataType::kDouble;
  std::vector<double> doubles;
  std::vector<int64_t> ints;
  std::vector<std::string> strings;
  std::vector<uint8_t> nulls;

  size_t num_rows() const {
    switch (type) {
      case DataType::kInt64: return ints.size();
      case DataType::kDouble: return doubles.size();
      case DataType::kString: return strings.size();
    }
    return 0;
  }

  /// Decoded footprint for the cache's byte accounting.
  size_t ApproximateBytes() const;
};

struct BlockKey {
  uint64_t store = 0;  // unique per open store (BlockCache::NewStoreId)
  uint32_t col = 0;
  uint32_t block = 0;

  bool operator==(const BlockKey& o) const {
    return store == o.store && col == o.col && block == o.block;
  }
};

struct BlockCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  size_t resident_bytes = 0;
  size_t resident_blocks = 0;
  size_t pinned_blocks = 0;

  double hit_rate() const {
    const int64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class BlockCache {
 public:
  struct Options {
    /// Decoded-bytes budget across all shards. The budget is a high-water
    /// mark for unpinned entries: inserting past it evicts least-recently
    /// used unpinned blocks until the shard fits again.
    size_t capacity_bytes = 64ull << 20;
    /// Independently locked LRU shards (rounded up to at least 1).
    int shards = 8;
  };

  using Handle = std::shared_ptr<const DecodedBlock>;

  BlockCache();  // default Options
  explicit BlockCache(Options options);

  /// The cached block for `key`, loading (and inserting) it via `loader`
  /// (any callable returning a Handle; a null Handle is passed through
  /// uncached) on a miss. The loader runs outside the shard lock, so
  /// concurrent misses on different keys decode in parallel; concurrent
  /// misses on the same key may decode twice (one result wins, both are
  /// valid — decoded blocks are immutable). A template, so the hit path
  /// builds no type-erased closure.
  template <typename LoadFn>
  Handle GetOrLoad(const BlockKey& key, LoadFn&& loader) {
    if (Handle hit = Get(key)) return hit;
    Handle loaded = loader();
    if (loaded == nullptr) return nullptr;
    return Insert(key, std::move(loaded));
  }

  /// The cached block, or null without loading (tests and prefetch).
  /// Counts a hit or a miss, exactly as GetOrLoad does.
  Handle Get(const BlockKey& key);

  /// Pin/unpin an entry (no-ops when absent). Pins nest: a block stays
  /// exempt from eviction until every pin is released.
  void Pin(const BlockKey& key);
  void Unpin(const BlockKey& key);

  /// Drop every unpinned entry of `store` (DiskTable close).
  void EraseStore(uint64_t store);

  BlockCacheStats stats() const;
  size_t capacity_bytes() const { return options_.capacity_bytes; }

  /// Process-unique id for one opened block store (keys of two DiskTables
  /// sharing this cache can never collide).
  static uint64_t NewStoreId();

 private:
  struct Entry {
    BlockKey key;
    Handle block;
    size_t bytes = 0;
    int pins = 0;
  };
  struct KeyHash {
    size_t operator()(const BlockKey& k) const {
      uint64_t h = k.store * 0x9E3779B97F4A7C15ull;
      h ^= (uint64_t{k.col} << 32 | k.block) + 0x9E3779B97F4A7C15ull +
           (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // most recent first
    std::unordered_map<BlockKey, std::list<Entry>::iterator, KeyHash> index;
    size_t bytes = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
  };

  /// Insert a freshly loaded block and return the resident one (a
  /// concurrent loader of the same key may have won the race).
  Handle Insert(const BlockKey& key, Handle loaded);

  Shard& ShardFor(const BlockKey& key) {
    return shards_[KeyHash{}(key) % shards_.size()];
  }
  /// Evict unpinned LRU entries until the shard fits its budget share.
  /// Caller holds the shard lock.
  void EvictLocked(Shard& shard);

  Options options_;
  size_t shard_capacity_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace paql::relation

#endif  // PAQL_RELATION_BLOCK_CACHE_H_
