#ifndef CASPER_PROCESSOR_QUERY_CACHE_H_
#define CASPER_PROCESSOR_QUERY_CACHE_H_

#include <list>
#include <optional>
#include <unordered_map>

#include "src/processor/private_nn.h"

/// \file
/// Cloak-keyed candidate-list cache. A consequence of Casper's design
/// the paper does not exploit: the anonymizer's cloaks are *cell
/// aligned*, so co-located users with similar profiles receive exactly
/// the same cloaked region — and Algorithm 2's answer depends only on
/// the cloak (and the target set). Memoizing candidate lists by cloak
/// rectangle therefore serves whole neighborhoods from one evaluation,
/// which is how a production server would absorb the "large numbers of
/// outstanding queries" §5 alludes to.
///
/// The cache cannot serve an answer from an older target set: a query
/// pins one store snapshot, evaluates a miss on that snapshot, and
/// stamps the entry with that snapshot's epoch, so the stamp names
/// exactly the target set the answer was computed from. A lookup only
/// hits an entry whose stamp equals its own snapshot's epoch. Any
/// mutation — an insert, a remove, a wholesale replacement — moves the
/// epoch, so it invalidates every entry at once without anyone telling
/// the cache; a stale entry is refilled lazily when its key is next
/// looked up (or dropped when LRU eviction reaches it).

namespace casper::processor {

/// Order-insensitive hash of a cloak rectangle; shared by this cache's
/// key lookup and ConcurrentQueryCache's shard selection.
size_t HashRect(const Rect& rect);

struct QueryCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class CachingQueryProcessor {
 public:
  /// The store must outlive the processor. Its one writer may mutate it
  /// at any time, also while a query runs: a query reads one snapshot,
  /// so its answer and its stamp always name the same epoch.
  /// `capacity` bounds the number of cached cloak rectangles (LRU
  /// eviction).
  CachingQueryProcessor(const PublicTargetStore* store, size_t capacity,
                        FilterPolicy policy = FilterPolicy::kFourFilters);

  /// Cached Algorithm 2: same contract as PrivateNearestNeighbor.
  Result<PublicCandidateList> Query(const Rect& cloak);

  /// Hit-only lookup for degraded serving during a server outage:
  /// returns the cached answer when a *current-epoch* entry exists for
  /// `cloak`, nullopt otherwise. Restricting to the current epoch keeps
  /// candidate-list inclusiveness intact — an older entry could be
  /// missing a target added since. Never computes, never evicts, and
  /// leaves LRU order and hit/miss stats untouched.
  std::optional<PublicCandidateList> Peek(const Rect& cloak) const;

  const QueryCacheStats& stats() const { return stats_; }
  /// Resident entries, *including* not-yet-reclaimed stale ones.
  size_t size() const { return map_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  struct RectKey {
    Rect rect;
    bool operator==(const RectKey& other) const {
      return rect == other.rect;
    }
  };
  struct RectKeyHash {
    size_t operator()(const RectKey& k) const { return HashRect(k.rect); }
  };

  using LruList = std::list<RectKey>;
  struct Entry {
    PublicCandidateList answer;
    uint64_t epoch = 0;  ///< Epoch of the snapshot the answer came from.
    LruList::iterator lru_pos;
  };

  const PublicTargetStore* store_;
  size_t capacity_;
  FilterPolicy policy_;
  std::unordered_map<RectKey, Entry, RectKeyHash> map_;
  LruList lru_;  ///< Front = most recently used.
  QueryCacheStats stats_;
};

}  // namespace casper::processor

#endif  // CASPER_PROCESSOR_QUERY_CACHE_H_
