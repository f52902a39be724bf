#ifndef CASPER_SPATIAL_EPOCH_INDEX_H_
#define CASPER_SPATIAL_EPOCH_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/geometry.h"
#include "src/spatial/flat_rtree.h"

/// \file
/// Epoch-published read snapshots over a mutable spatial index. The
/// index is a packed FlatRTree base (cache-friendly, built with STR)
/// plus a small overlay: entries inserted since the base was packed
/// (the delta) and tombstones, the sorted storage rows of base entries
/// removed since. There is no other copy of the entry set; base minus
/// tombstoned rows plus delta *is* the index, a multiset of (box, id)
/// pairs.
///
/// Every mutation publishes a new immutable Snapshot of that state into
/// an atomically swapped shared_ptr slot, and readers grab the current
/// snapshot with one pointer copy (a few-instruction spin slot — see
/// PublishedSlot). Readers never block on a query in flight, and a
/// reader holds its snapshot alive for as long as it wants regardless
/// of later writes (RCU-style reclamation via shared_ptr: the last
/// holder frees the epoch, counted in Stats::reclaimed).
///
/// Insert appends to the delta. Remove cancels a matching delta entry
/// if there is one, and otherwise tombstones the first base copy, in
/// FlatRTree::FindExact order, whose row is not dead yet. Reads pass
/// the dead rows to the FlatRTree walks, which skip them by binary
/// search. When the overlay grows past `rebuild_threshold`, the writer
/// repacks the next base with FlatRTree::Repack, and the overlay resets
/// to empty. Repack merges the delta into the base's STR slabs, which
/// it derives from the row order alone; when the slabs have drifted too
/// far from the STR shape for the new size it falls back to a full
/// Build.
///
/// Threading contract: mutations are single-writer (same as the target
/// stores); Acquire() and all Snapshot queries are safe from any number
/// of concurrent reader threads.

namespace casper::spatial {

class EpochIndex {
 public:
  using Entry = spatial::Entry;
  using Neighbor = spatial::Neighbor;

  /// Writer-side counters, exported through obs by the owning tier.
  struct Stats {
    uint64_t published = 0;  ///< Snapshots published so far.
    uint64_t reclaimed = 0;  ///< Snapshots fully released by readers.
    uint64_t rebuilds = 0;   ///< Flat-base repacks (merges and builds).
    size_t delta_entries = 0;
    size_t tombstones = 0;
  };

  /// One immutable epoch: the index's base, delta and tombstones as
  /// they stood at publication time.
  class Snapshot {
   public:
    ~Snapshot();
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    /// Visit every entry intersecting `window`; return false from the
    /// visitor to stop early.
    template <typename Visit>
    void RangeQuery(const Rect& window, Visit&& visit) const {
      if (base_ && !base_->RangeQuery(window, visit, dead_)) return;
      for (const Entry& e : delta_) {
        if (e.box.Intersects(window) && !visit(e)) return;
      }
    }
    /// FlatRTree::KNearest over the base minus the tombstoned rows,
    /// with the delta competing in the same walk.
    std::vector<Neighbor> KNearest(const Point& q, size_t k) const;

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /// Stamp of this publication: increases with every mutation and is
    /// unique across all indexes in the process, so a cached answer
    /// stamped with it is current exactly while the stamps match.
    uint64_t epoch() const { return epoch_; }

   private:
    friend class EpochIndex;
    Snapshot() = default;

    std::shared_ptr<const FlatRTree> base_;
    std::vector<Entry> delta_;    ///< Inserted since base was packed.
    std::vector<uint32_t> dead_;  ///< Tombstoned base rows, ascending.
    size_t size_ = 0;
    uint64_t epoch_ = 0;
    std::shared_ptr<std::atomic<uint64_t>> reclaimed_;
  };

  explicit EpochIndex(int max_entries = 16, size_t rebuild_threshold = 128);

  /// Build a packed index from `entries` (STR bulk load of the base).
  static EpochIndex BulkLoad(std::vector<Entry> entries, int max_entries = 16,
                             size_t rebuild_threshold = 128);

  EpochIndex(EpochIndex&& other) noexcept;
  EpochIndex& operator=(EpochIndex&& other) noexcept;
  EpochIndex(const EpochIndex&) = delete;
  EpochIndex& operator=(const EpochIndex&) = delete;

  /// Add one copy of (box, id); `box` must be Storable.
  void Insert(const Rect& box, uint64_t id);

  /// Remove one copy of exactly (box, id). Returns false, changing
  /// nothing, when the index holds no such entry.
  bool Remove(const Rect& box, uint64_t id);

  /// The current epoch; one atomic acquire-load, never null.
  std::shared_ptr<const Snapshot> Acquire() const;

  /// Live entries in the current snapshot (safe from readers).
  size_t size() const { return Acquire()->size(); }
  bool empty() const { return size() == 0; }

  Stats stats() const;

 private:
  /// Publication slot: a shared_ptr behind a tiny test-and-set
  /// spinlock, held only for the pointer copy. Functionally equivalent
  /// to std::atomic<std::shared_ptr> — which libstdc++ also implements
  /// as a lock-bit spin, so this forfeits no progress guarantee — but
  /// built from plain std::atomic operations, which ThreadSanitizer
  /// models exactly (gcc 12's _Sp_atomic trips a TSan false positive
  /// inside its hand-rolled lock-bit protocol).
  class PublishedSlot {
   public:
    PublishedSlot() = default;
    explicit PublishedSlot(std::shared_ptr<const Snapshot> initial)
        : value_(std::move(initial)) {}

    void Store(std::shared_ptr<const Snapshot> next) {
      Lock();
      value_.swap(next);
      Unlock();
      // `next` (the previous epoch) is released here, outside the
      // lock, so a final Snapshot destructor never runs under it.
    }

    std::shared_ptr<const Snapshot> Load() const {
      Lock();
      std::shared_ptr<const Snapshot> copy = value_;
      Unlock();
      return copy;
    }

   private:
    void Lock() const {
      while (locked_.exchange(true, std::memory_order_acquire)) {
      }
    }
    void Unlock() const { locked_.store(false, std::memory_order_release); }

    mutable std::atomic<bool> locked_{false};
    std::shared_ptr<const Snapshot> value_;
  };

  void RebuildBase();
  void Publish();

  int max_entries_;
  size_t rebuild_threshold_;

  std::shared_ptr<const FlatRTree> base_;
  std::vector<Entry> delta_;
  std::vector<uint32_t> dead_;  ///< Tombstoned base rows, ascending.
  size_t size_ = 0;  ///< Live entries: base - tombstones + delta.

  PublishedSlot published_;
  std::shared_ptr<std::atomic<uint64_t>> reclaimed_;
  uint64_t published_count_ = 0;
  uint64_t rebuilds_ = 0;
};

}  // namespace casper::spatial

#endif  // CASPER_SPATIAL_EPOCH_INDEX_H_
