#include "src/processor/query_cache.h"

namespace casper::processor {

size_t HashRect(const Rect& rect) {
  auto mix = [](uint64_t h, double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    h ^= bits + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  };
  uint64_t h = 0;
  h = mix(h, rect.min.x);
  h = mix(h, rect.min.y);
  h = mix(h, rect.max.x);
  h = mix(h, rect.max.y);
  // Finalizer (murmur3 fmix64): cell-aligned cloaks have highly regular
  // double bit patterns whose mixed low bits stay correlated — without
  // avalanching them, `h % shards` piles every cloak onto one shard.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<size_t>(h);
}

CachingQueryProcessor::CachingQueryProcessor(const PublicTargetStore* store,
                                             size_t capacity,
                                             FilterPolicy policy)
    : store_(store), capacity_(capacity > 0 ? capacity : 1),
      policy_(policy) {
  CASPER_DCHECK(store != nullptr);
}

Result<PublicCandidateList> CachingQueryProcessor::Query(const Rect& cloak) {
  // One snapshot for the lookup, the evaluation and the stamp.
  const PublicTargetStore::Snapshot snapshot(*store_);
  const uint64_t epoch = snapshot.epoch();
  const RectKey key{cloak};
  auto it = map_.find(key);
  if (it != map_.end() && it->second.epoch == epoch) {
    ++stats_.hits;
    // Refresh LRU position.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.answer;
  }

  ++stats_.misses;
  CASPER_ASSIGN_OR_RETURN(answer,
                          PrivateNearestNeighbor(snapshot, cloak, policy_));
  if (it != map_.end()) {
    // Stale entry for this key: refill it in place at the current epoch.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    it->second = Entry{answer, epoch, lru_.begin()};
    return answer;
  }
  if (map_.size() >= capacity_) {
    const RectKey victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
  }
  lru_.push_front(key);
  map_[key] = Entry{answer, epoch, lru_.begin()};
  return answer;
}

std::optional<PublicCandidateList> CachingQueryProcessor::Peek(
    const Rect& cloak) const {
  auto it = map_.find(RectKey{cloak});
  if (it == map_.end() ||
      it->second.epoch != PublicTargetStore::Snapshot(*store_).epoch()) {
    return std::nullopt;
  }
  return it->second.answer;
}

}  // namespace casper::processor
