#include "relation/block_cache.h"

#include <algorithm>
#include <atomic>

namespace paql::relation {

size_t DecodedBlock::ApproximateBytes() const {
  size_t total = sizeof(DecodedBlock);
  total += doubles.capacity() * sizeof(double);
  total += ints.capacity() * sizeof(int64_t);
  for (const auto& s : strings) total += sizeof(std::string) + s.capacity();
  total += nulls.capacity();
  return total;
}

BlockCache::BlockCache() : BlockCache(Options()) {}

BlockCache::BlockCache(Options options) : options_(options) {
  const int shards = std::max(1, options_.shards);
  shards_ = std::vector<Shard>(shards);
  shard_capacity_ = options_.capacity_bytes / shards;
}

void BlockCache::EvictLocked(Shard& shard) {
  // Walk from the LRU tail, skipping pinned entries. Pinned bytes count
  // against the budget (they are resident), so a heavily pinned shard may
  // stay over budget — the pins are the caller's explicit residency claim.
  auto it = shard.lru.end();
  while (shard.bytes > shard_capacity_ && it != shard.lru.begin()) {
    --it;
    if (it->pins > 0) continue;
    shard.bytes -= it->bytes;
    shard.index.erase(it->key);
    it = shard.lru.erase(it);
    ++shard.evictions;
  }
}

BlockCache::Handle BlockCache::Insert(const BlockKey& key, Handle loaded) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // A concurrent miss on the same key beat us; keep its entry.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return shard.lru.front().block;
  }
  Entry entry;
  entry.key = key;
  entry.block = loaded;
  entry.bytes = loaded->ApproximateBytes();
  shard.bytes += entry.bytes;
  shard.lru.push_front(std::move(entry));
  shard.index[key] = shard.lru.begin();
  EvictLocked(shard);
  return loaded;
}

BlockCache::Handle BlockCache::Get(const BlockKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  return shard.lru.front().block;
}

void BlockCache::Pin(const BlockKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) ++it->second->pins;
}

void BlockCache::Unpin(const BlockKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end() && it->second->pins > 0) {
    --it->second->pins;
    if (it->second->pins == 0) EvictLocked(shard);
  }
}

void BlockCache::EraseStore(uint64_t store) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->key.store == store && it->pins == 0) {
        shard.bytes -= it->bytes;
        shard.index.erase(it->key);
        it = shard.lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

BlockCacheStats BlockCache::stats() const {
  BlockCacheStats out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.evictions += shard.evictions;
    out.resident_bytes += shard.bytes;
    out.resident_blocks += shard.lru.size();
    for (const Entry& e : shard.lru) {
      if (e.pins > 0) ++out.pinned_blocks;
    }
  }
  return out;
}

uint64_t BlockCache::NewStoreId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace paql::relation
