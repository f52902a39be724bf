#ifndef CASPER_PROCESSOR_CONCURRENT_QUERY_CACHE_H_
#define CASPER_PROCESSOR_CONCURRENT_QUERY_CACHE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/obs/metrics.h"
#include "src/processor/query_cache.h"

/// \file
/// Thread-safe variant of the cloak-keyed candidate-list cache: the key
/// space is striped across N independently-locked shards, each an
/// ordinary CachingQueryProcessor. A cloak rectangle always maps to the
/// same shard (by HashRect), so concurrent queries for *different*
/// cloaks almost never contend, while queries for the *same* cloak
/// serialize on one shard and share one Algorithm-2 evaluation — which
/// is exactly the access pattern of a batch of co-located users.
///
/// Aggregate statistics are kept in relaxed atomics outside the shard
/// locks; stats() returns a merged snapshot that is exact once all
/// in-flight queries have completed.

namespace casper::processor {

class ConcurrentQueryCache {
 public:
  static constexpr size_t kDefaultShards = 8;

  /// `capacity` is the total entry budget, split evenly across shards.
  /// The store must outlive the cache; mutating it, also while queries
  /// run, invalidates every entry, see CachingQueryProcessor.
  ConcurrentQueryCache(const PublicTargetStore* store, size_t capacity,
                       FilterPolicy policy = FilterPolicy::kFourFilters,
                       size_t shard_count = kDefaultShards);

  /// Thread-safe cached Algorithm 2; same contract (and byte-identical
  /// answers) as PrivateNearestNeighbor on the store as it is now.
  Result<PublicCandidateList> Query(const Rect& cloak);

  /// Thread-safe hit-only lookup (current-epoch entries only; never
  /// computes). The degraded-serving path of the resilient transport:
  /// when the server tier is unreachable, a peeked answer is still
  /// inclusive for its cloak. See CachingQueryProcessor::Peek.
  std::optional<PublicCandidateList> Peek(const Rect& cloak);

  /// Mirrors hit/miss accounting into registry counters. Call before
  /// the first concurrent Query() (the pointers are read unguarded on
  /// the hot path); pass nullptrs to detach.
  void AttachMetrics(obs::Counter* hits, obs::Counter* misses) {
    metric_hits_ = hits;
    metric_misses_ = misses;
  }

  /// Merged snapshot across shards (relaxed reads).
  QueryCacheStats stats() const;

  /// Resident entries across all shards, including stale ones. Takes
  /// the shard locks; intended for tests and reporting.
  size_t size() const;

  size_t shard_count() const { return shards_.size(); }

 private:
  struct Shard {
    Shard(const PublicTargetStore* store, size_t capacity,
          FilterPolicy policy)
        : cache(store, capacity, policy) {}
    std::mutex mu;
    CachingQueryProcessor cache;
  };

  Shard& ShardFor(const Rect& cloak);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  obs::Counter* metric_hits_ = nullptr;
  obs::Counter* metric_misses_ = nullptr;
};

}  // namespace casper::processor

#endif  // CASPER_PROCESSOR_CONCURRENT_QUERY_CACHE_H_
