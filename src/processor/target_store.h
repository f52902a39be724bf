#ifndef CASPER_PROCESSOR_TARGET_STORE_H_
#define CASPER_PROCESSOR_TARGET_STORE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "src/common/geometry.h"
#include "src/common/result.h"
#include "src/spatial/epoch_index.h"

/// \file
/// The two data populations of the privacy-aware database server (§5):
///  * public data — exact point locations (gas stations, hospitals,
///    police cars) stored as-is;
///  * private data — users' cloaked rectangular regions received from
///    the location anonymizer; the server never sees exact positions.
///
/// One store serves both. The index holds boxes, and a point is its
/// degenerate box: its MaxDist from any query point is the ordinary
/// distance, and a box meets it exactly when it contains the point. So
/// every read ranks by MaxDist (§5.2.1: "the exact location of a target
/// object within its cloaked area is the furthest corner") and admits
/// by overlap, and §5.1's public case is §5.2's private case on
/// degenerate regions. Only how a record maps to its box differs by
/// kind.
///
/// The store is backed by spatial::EpochIndex: every mutation updates
/// the packed FlatRTree base's overlay (delta inserts and tombstones,
/// repacked into a new base once it grows) and publishes a new
/// immutable epoch. A store only takes writes; every read goes through
/// its Snapshot, which pins one epoch with one pointer copy, so all the
/// reads of one evaluation see one store state while the writer keeps
/// mutating.

namespace casper::processor {

using TargetId = uint64_t;

/// A public target: an exact point.
struct PublicTarget {
  TargetId id = 0;
  Point position;

  Rect box() const { return Rect::FromPoint(position); }
  static PublicTarget FromEntry(const spatial::Entry& e) {
    return {e.id, e.box.min};
  }

  friend bool operator==(const PublicTarget& a, const PublicTarget& b) {
    return a.id == b.id && a.position == b.position;
  }
};

/// A private target: a cloaked region.
struct PrivateTarget {
  TargetId id = 0;
  Rect region;

  Rect box() const { return region; }
  static PrivateTarget FromEntry(const spatial::Entry& e) {
    return {e.id, e.box};
  }

  friend bool operator==(const PrivateTarget& a, const PrivateTarget& b) {
    return a.id == b.id && a.region == b.region;
  }
};

/// The canonical order of every candidate list: ascending id, then the
/// box by (min.x, min.y, max.x, max.y), where a point's box is the
/// point. The stores hold a multiset of (box, id) pairs, twin ids
/// included, and this is a total order on it, so an answer's bytes
/// are a function of the stored multiset alone: independent of tree
/// shape and insertion order.
template <typename Target>
bool CanonicalLess(const Target& a, const Target& b) {
  if (a.id != b.id) return a.id < b.id;
  const Rect x = a.box();
  const Rect y = b.box();
  return std::tie(x.min.x, x.min.y, x.max.x, x.max.y) <
         std::tie(y.min.x, y.min.y, y.max.x, y.max.y);
}

/// The share of `region`'s own area inside `window`, for a region that
/// meets it. A zero-area region is a known position, which the overlap
/// already puts inside: its share is 1.
inline double OverlapFraction(const Rect& region, const Rect& window) {
  const double area = region.Area();
  return area > 0.0 ? region.IntersectionArea(window) / area : 1.0;
}

/// How Canonicalize orders a list: `passes` LSD radix passes of
/// `digit_bits` each over `id - min_id`, or, when `passes` is 0, one
/// comparison sort.
struct RadixPlan {
  int passes = 0;
  int digit_bits = 0;
};

/// Shorter lists always take the comparison sort, without a look at
/// their ids: it costs them under ~2 us, so the radix has little to win
/// and the id scan and plan would be a visible share.
inline constexpr size_t kMinRadixRecords = 256;

/// The cheaper of the two for `n` ids whose span (max - min) needs
/// `span_bits` bits, by a cost model fitted to BM_Canonicalize and
/// BM_CanonicalizeDense: a radix pass costs a scatter per record plus a
/// prefix sum per bucket; a comparison sort costs n log2 n compares.
/// Digits are at most 11 bits (2,048 buckets).
RadixPlan PlanCanonicalSort(size_t n, int span_bits);

/// PlanCanonicalSort picks std::sort for every span wider than this, so
/// Canonicalize stops scanning ids once a list's span exceeds it.
int MaxRadixSpanBits(size_t n);

/// CanonicalLess as one function object, for std::sort.
inline constexpr auto kCanonicalLess = [](const auto& a, const auto& b) {
  return CanonicalLess(a, b);
};

/// The radix half of Canonicalize, for n < 2^32 and a plan whose passes
/// cover the span of `id - lo`, every one of them below bit 64. Public
/// for tests, which check every plan against the comparison sort.
template <typename Target>
void RadixCanonicalize(std::vector<Target>* targets, TargetId lo,
                       RadixPlan plan) {
  const size_t n = targets->size();
  const size_t buckets = size_t{1} << plan.digit_bits;
  const TargetId mask = buckets - 1;
  // One read pass fills every pass's histogram.
  std::vector<uint32_t> offsets(plan.passes * buckets);
  for (const Target& t : *targets) {
    const TargetId key = t.id - lo;
    for (int p = 0; p < plan.passes; ++p) {
      ++offsets[p * buckets + ((key >> (p * plan.digit_bits)) & mask)];
    }
  }

  std::vector<Target> scratch(n);
  Target* src = targets->data();
  Target* dst = scratch.data();
  for (int p = 0; p < plan.passes; ++p) {
    uint32_t* offset = offsets.data() + p * buckets;
    const int shift = p * plan.digit_bits;
    // A digit every id shares moves nothing; skip the pass.
    if (offset[((src[0].id - lo) >> shift) & mask] == n) continue;
    uint32_t sum = 0;
    for (size_t b = 0; b < buckets; ++b) {
      const uint32_t count = offset[b];
      offset[b] = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      const Target t = src[i];
      dst[offset[((t.id - lo) >> shift) & mask]++] = t;
    }
    std::swap(src, dst);
  }
  if (src != targets->data()) targets->swap(scratch);

  // The passes are stable, so twin ids are still in input order.
  for (auto run = targets->begin(); run != targets->end();) {
    const TargetId id = run->id;
    const auto end = std::find_if(
        run + 1, targets->end(), [id](const Target& t) { return t.id != id; });
    if (end - run > 1) std::sort(run, end, kCanonicalLess);
    run = end;
  }
}

/// Radix-sorts `targets` when PlanCanonicalSort says it pays; false,
/// with `targets` untouched, when it does not.
template <typename Target>
bool TryRadixCanonicalize(std::vector<Target>* targets) {
  const int max_span = MaxRadixSpanBits(targets->size());
  TargetId lo = (*targets)[0].id;
  TargetId hi = lo;
  int span = 0;
  for (const Target& t : *targets) {
    lo = std::min(lo, t.id);
    hi = std::max(hi, t.id);
    span = static_cast<int>(std::bit_width(hi - lo));
    if (span > max_span) return false;
  }
  const RadixPlan plan = PlanCanonicalSort(targets->size(), span);
  if (plan.passes == 0) return false;
  RadixCanonicalize(targets, lo, plan);
  return true;
}

/// Sorts a candidate list into canonical wire order (CanonicalLess).
/// Every processor emits its candidates in this order. The bytes do not
/// depend on which sort PlanCanonicalSort picks.
template <typename Target>
void Canonicalize(std::vector<Target>* targets) {
  if (targets->size() >= kMinRadixRecords && TryRadixCanonicalize(targets)) {
    return;
  }
  std::sort(targets->begin(), targets->end(), kCanonicalLess);
}

/// Targets of one kind (PublicTarget or PrivateTarget) indexed by an
/// epoch-published R-tree.
template <typename Target>
class TargetStore {
 public:
  /// One epoch of the store, and the only way to read it. Implicitly
  /// constructible from the store, as std::string_view is from
  /// std::string: passing a store where a Snapshot is expected pins the
  /// store's current epoch once, and every read through it answers
  /// from that epoch whatever the writer does meanwhile.
  class Snapshot {
   public:
    Snapshot(const TargetStore& store)  // NOLINT: implicit.
        : index_(store.index_.Acquire()) {}

    /// The k records nearest to `q` by MaxDist, in the index's
    /// NeighborLess order, leaving out every record whose id is
    /// `exclude` (a querying user's own stored regions must not filter
    /// for that user). Fewer than k when fewer are eligible.
    std::vector<Target> KNearest(
        const Point& q, size_t k,
        std::optional<TargetId> exclude = std::nullopt) const;

    /// Calls `visit(const Target&)` for every record whose box meets
    /// `window` (closed boundaries), in walk order, without building a
    /// list. The order depends on the tree's shape, so what `visit`
    /// accumulates must not depend on it.
    template <typename Visit>
    void ForEachOverlapping(const Rect& window, Visit&& visit) const {
      index_->RangeQuery(window, [&visit](const spatial::Entry& e) {
        visit(Target::FromEntry(e));
        return true;
      });
    }

    /// The records ForEachOverlapping visits, as a list in walk order.
    std::vector<Target> Overlapping(const Rect& window) const {
      std::vector<Target> out;
      ForEachOverlapping(window, [&out](const Target& t) { out.push_back(t); });
      return out;
    }

    size_t size() const { return index_->size(); }
    bool empty() const { return index_->empty(); }

    /// Stamp of this epoch (EpochIndex::Snapshot::epoch): it changes on
    /// every mutation and is never reused, also when the store is
    /// replaced wholesale. The candidate cache keys validity on it.
    uint64_t epoch() const { return index_->epoch(); }

   private:
    std::shared_ptr<const spatial::EpochIndex::Snapshot> index_;
  };

  TargetStore() = default;

  /// Bulk-build from a target list (STR packing).
  explicit TargetStore(const std::vector<Target>& targets);

  /// Incremental insert and removal of one copy of a record. Twin ids
  /// are allowed; ids are caller-managed.
  void Insert(const Target& target) { index_.Insert(target.box(), target.id); }
  bool Remove(const Target& target) {
    return index_.Remove(target.box(), target.id);
  }

  /// Epoch/reclamation counters of the backing index (exported through
  /// obs by the server tier).
  spatial::EpochIndex::Stats epoch_stats() const { return index_.stats(); }

  /// Checkpoint the store to `sm`; returns the checkpoint root page.
  Result<storage::PageId> SaveTo(storage::IStorageManager* sm) const {
    return index_.Checkpoint(sm);
  }

  /// Rebuild a store from a SaveTo root page.
  static Result<TargetStore> LoadFrom(storage::IStorageManager* sm,
                                      storage::PageId root);

 private:
  spatial::EpochIndex index_;
};

using PublicTargetStore = TargetStore<PublicTarget>;
using PrivateTargetStore = TargetStore<PrivateTarget>;

extern template class TargetStore<PublicTarget>;
extern template class TargetStore<PrivateTarget>;

}  // namespace casper::processor

#endif  // CASPER_PROCESSOR_TARGET_STORE_H_
