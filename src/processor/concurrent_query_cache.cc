#include "src/processor/concurrent_query_cache.h"

namespace casper::processor {

ConcurrentQueryCache::ConcurrentQueryCache(const PublicTargetStore* store,
                                           size_t capacity,
                                           FilterPolicy policy,
                                           size_t shard_count) {
  CASPER_DCHECK(store != nullptr);
  const size_t shards = shard_count > 0 ? shard_count : 1;
  const size_t total = capacity > 0 ? capacity : shards;
  // Ceil-divide so the summed shard capacity is at least `capacity`.
  const size_t per_shard = (total + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(store, per_shard, policy));
  }
}

ConcurrentQueryCache::Shard& ConcurrentQueryCache::ShardFor(
    const Rect& cloak) {
  return *shards_[HashRect(cloak) % shards_.size()];
}

Result<PublicCandidateList> ConcurrentQueryCache::Query(const Rect& cloak) {
  Shard& shard = ShardFor(cloak);
  uint64_t d_hits, d_misses;
  Result<PublicCandidateList> result = [&]() -> Result<PublicCandidateList> {
    std::lock_guard<std::mutex> lock(shard.mu);
    const QueryCacheStats before = shard.cache.stats();
    Result<PublicCandidateList> r = shard.cache.Query(cloak);
    const QueryCacheStats& after = shard.cache.stats();
    d_hits = after.hits - before.hits;
    d_misses = after.misses - before.misses;
    return r;
  }();
  if (d_hits != 0) {
    hits_.fetch_add(d_hits, std::memory_order_relaxed);
    if (metric_hits_ != nullptr) metric_hits_->Increment(d_hits);
  }
  if (d_misses != 0) {
    misses_.fetch_add(d_misses, std::memory_order_relaxed);
    if (metric_misses_ != nullptr) metric_misses_->Increment(d_misses);
  }
  return result;
}

std::optional<PublicCandidateList> ConcurrentQueryCache::Peek(
    const Rect& cloak) {
  Shard& shard = ShardFor(cloak);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.cache.Peek(cloak);
}

QueryCacheStats ConcurrentQueryCache::stats() const {
  QueryCacheStats merged;
  merged.hits = hits_.load(std::memory_order_relaxed);
  merged.misses = misses_.load(std::memory_order_relaxed);
  return merged;
}

size_t ConcurrentQueryCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->cache.size();
  }
  return total;
}

}  // namespace casper::processor
