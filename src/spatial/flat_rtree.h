#ifndef CASPER_SPATIAL_FLAT_RTREE_H_
#define CASPER_SPATIAL_FLAT_RTREE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "src/common/geometry.h"

/// \file
/// The spatial index under the query processor: the "traditional
/// location-based database server" index the paper's privacy-aware
/// processor plugs into (§5.1.1: "it can be employed using R-tree or any
/// other methods"). Point data is stored as degenerate rectangles.
///
/// FlatRTree is an immutable R-tree packed with Sort-Tile-Recursive and
/// laid out as contiguous arrays instead of pointer-linked nodes.
/// Children of a node occupy a contiguous run of the node array
/// addressed by an int32 offset, and every MBR lives in struct-of-arrays
/// coordinate blocks so search scores a whole node's children with the
/// batched MinDist/MaxDist kernels in one linear pass.
///
/// Entry rows are in STR leaf order: slab-major, and non-decreasing in
/// center y inside each slab. Nothing else records the slabs; a slab is
/// a maximal run of rows whose center y does not decrease, so they can
/// be derived again from the rows alone.
///
/// RangeQuery stacks only nodes whose MBR intersects the window, and
/// marks one the window also contains. It tests each child box once,
/// as it pushes the child, and pops children in ascending order. A
/// contained node's children and entries go out untested: MBRs are
/// tight and covering and entry boxes are Storable, which
/// CheckInvariants checks, so all of them intersect. Each leaf pushed
/// by a level-1 node has its rows prefetched.
///
/// The tree is never mutated in place. spatial::EpochIndex puts a small
/// insert delta and a sorted list of dead storage rows over a packed
/// base, which both walks take as `skip`. When the overlay grows it
/// calls Repack, which merges the delta into the derived slabs instead
/// of re-sorting every entry (see epoch_index.h). The differential
/// tests in tests/flat_rtree_test.cc check every query against a linear
/// scan of the same entries.

namespace casper::spatial {

/// One stored object.
struct Entry {
  Rect box;
  uint64_t id = 0;
};

/// Whether a box may be stored: non-empty and free of NaN. Build,
/// Repack and EpochIndex::Insert refuse any other box.
inline bool Storable(const Rect& box) {
  return box.min.x <= box.max.x && box.min.y <= box.max.y;
}

/// Result of a (k-)NN probe.
struct Neighbor {
  Rect box;
  uint64_t id = 0;
  double distance = 0.0;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// The order of every k-NN answer: distance, then the candidate lists'
/// canonical (id, min.x, min.y, max.x, max.y) order. The index holds a
/// multiset of (box, id), so this order is total on its entries up to
/// exact copies, and the k best are a function of the multiset alone,
/// not of the packing or the insert order.
inline bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  return std::tie(a.distance, a.id, a.box.min.x, a.box.min.y, a.box.max.x,
                  a.box.max.y) < std::tie(b.distance, b.id, b.box.min.x,
                                          b.box.min.y, b.box.max.x,
                                          b.box.max.y);
}

class FlatRTree {
 public:
  using Entry = spatial::Entry;
  using Neighbor = spatial::Neighbor;

  /// The largest fan-out a tree may have; Build clamps to it. The k-NN
  /// scratch is sized by the fan-out.
  static constexpr int kMaxFanout = 4096;

  /// Empty tree; all queries return nothing.
  FlatRTree() = default;

  /// Build a packed tree from `entries` with Sort-Tile-Recursive (sort
  /// by center x, cut into sqrt(leaves) slabs, sort each slab by center
  /// y, chunk at the fan-out; repeat per level). `max_entries` is the
  /// fan-out M (clamped to [4, kMaxFanout]).
  static FlatRTree Build(std::vector<Entry> entries, int max_entries = 16);

  /// The tree that holds this one's entries minus the storage rows in
  /// `dead` (strictly ascending, each < size()) plus `added`, with this tree's
  /// fan-out. Each added entry goes to the last derived slab whose
  /// lowest center x is <= its own, and is merged into that slab's rows
  /// by center y; the leaves and upper levels are then re-cut. There is
  /// no global sort. It falls back to Build over the live rows (in row
  /// order) then `added` when the tree has no slabs, when the slab count
  /// is outside [1/2, 2] x the STR slab count for the new size, or when
  /// a slab would hold more than twice the STR slab size.
  FlatRTree Repack(std::span<const uint32_t> dead,
                   std::span<const Entry> added) const;

  /// Call `visit(entry)` for every entry whose rectangle intersects
  /// `window`, except the storage rows listed in `skip` (ascending; see
  /// entry()). Return false from the visitor to stop early; the walk
  /// then returns false too.
  template <typename Visit>
  bool RangeQuery(const Rect& window, Visit&& visit,
                  std::span<const uint32_t> skip = {}) const;

  /// Number of stored copies of exactly (box, id); when `rows` is
  /// non-null their storage rows (see entry()) are appended to it. The
  /// descent enters only nodes whose MBR contains `box` — Guttman's
  /// FindLeaf pruning — so a large `box` narrows the search instead of
  /// widening it the way an intersection probe would.
  size_t FindExact(const Rect& box, uint64_t id,
                   std::vector<size_t>* rows = nullptr) const;

  /// The k nearest to `q`, in NeighborLess order, of this tree's
  /// entries minus the storage rows in `skip` (ascending) plus the
  /// entries in `extra`, which compete as if stored (the epoch index's
  /// insert delta). An entry's distance is MaxDist, to its furthest
  /// corner (§5.2.1); for a point entry that is the ordinary distance,
  /// bit for bit. The walk keeps the k best in a bounded heap, and
  /// expands only nodes whose MBR MinDist, a lower bound of every
  /// entry's MaxDist below, is no farther than the k-th of them.
  std::vector<Neighbor> KNearest(const Point& q, size_t k,
                                 std::span<const uint32_t> skip = {},
                                 std::span<const Entry> extra = {}) const;

  size_t size() const { return entry_ids_.size(); }
  bool empty() const { return entry_ids_.empty(); }
  int height() const { return height_; }

  /// Bounding box of the whole tree (empty rect when empty).
  Rect bounds() const;

  /// Entry i in storage order (for enumeration in tests).
  Entry entry(size_t i) const;

  /// Structural invariant check: fan-out within `max_entries`, levels
  /// descending by one, MBRs tight and covering, entry boxes Storable,
  /// child runs in bounds, every node and entry reached at most once
  /// and every entry reached.
  bool CheckInvariants() const;

 private:
  /// One packed node. Children of an internal node are
  /// nodes_[first .. first + count); entries of a leaf are rows
  /// [first .. first + count) of the entry arrays. 32-bit offsets keep
  /// the node array dense (a node is 12 bytes + 4 doubles of MBR in the
  /// side arrays).
  struct Node {
    int32_t first = 0;
    int32_t count = 0;
    int32_t level = 0;  ///< 0 = leaf.
  };

  RectSoA NodeBoxes(int32_t first) const {
    return RectSoA{node_xlo_.data() + first, node_ylo_.data() + first,
                   node_xhi_.data() + first, node_yhi_.data() + first};
  }
  RectSoA EntryBoxes(int32_t first) const {
    return RectSoA{entry_xlo_.data() + first, entry_ylo_.data() + first,
                   entry_xhi_.data() + first, entry_yhi_.data() + first};
  }
  Rect NodeBox(int32_t i) const {
    return Rect(node_xlo_[i], node_ylo_[i], node_xhi_[i], node_yhi_[i]);
  }
  Rect EntryBox(int32_t i) const {
    return Rect(entry_xlo_[i], entry_ylo_[i], entry_xhi_[i], entry_yhi_[i]);
  }
  static bool Skipped(std::span<const uint32_t> skip, int32_t row) {
    return std::binary_search(skip.begin(), skip.end(),
                              static_cast<uint32_t>(row));
  }
  /// Closed-boundary tests of box i against a non-empty window: the
  /// box meets it, or lies inside it. `&`, not `&&`: one branch per box
  /// instead of one mispredicted branch per coordinate.
  static bool Meets(const RectSoA& b, int32_t i, const Rect& w) {
    return (b.xlo[i] <= w.max.x) & (w.min.x <= b.xhi[i]) &
           (b.ylo[i] <= w.max.y) & (w.min.y <= b.yhi[i]);
  }
  static bool Within(const RectSoA& b, int32_t i, const Rect& w) {
    return (w.min.x <= b.xlo[i]) & (b.xhi[i] <= w.max.x) &
           (w.min.y <= b.ylo[i]) & (b.yhi[i] <= w.max.y);
  }
  /// Start loading a leaf's rows: one prefetch per 8 rows of each
  /// entry array, a cache line of doubles or ids.
  void PrefetchRows(const Node& leaf) const {
    for (int32_t j = leaf.first; j < leaf.first + leaf.count; j += 8) {
      __builtin_prefetch(entry_xlo_.data() + j);
      __builtin_prefetch(entry_ylo_.data() + j);
      __builtin_prefetch(entry_xhi_.data() + j);
      __builtin_prefetch(entry_yhi_.data() + j);
      __builtin_prefetch(entry_ids_.data() + j);
    }
  }

  /// Entry rows are written in order: reserve room for `n`, then append
  /// one entry, or rows [begin, end) of `from`.
  void ReserveEntries(size_t n);
  void AppendRow(const Entry& e);
  void AppendRows(const FlatRTree& from, size_t begin, size_t end);
  /// Cut the leaves at the fan-out inside each slab (`slab_begin`:
  /// ascending start rows, the first 0), pack the upper STR levels and
  /// flatten them breadth-first into the node arrays.
  void PackLevels(const std::vector<size_t>& slab_begin);

  /// Root is nodes_[0]; children contiguous by construction (BFS
  /// flattening in Build).
  std::vector<Node> nodes_;
  std::vector<double> node_xlo_, node_ylo_, node_xhi_, node_yhi_;
  std::vector<double> entry_xlo_, entry_ylo_, entry_xhi_, entry_yhi_;
  std::vector<uint64_t> entry_ids_;
  int height_ = 0;
  int max_entries_ = 16;
};

template <typename Visit>
bool FlatRTree::RangeQuery(const Rect& window, Visit&& visit,
                           std::span<const uint32_t> skip) const {
  const RectSoA nodes = NodeBoxes(0), rows = EntryBoxes(0);
  if (nodes_.empty() || window.is_empty() || !Meets(nodes, 0, window)) {
    return true;
  }
  // Every stacked node meets `window`; ~i marks node i as inside it.
  std::vector<int32_t> stack{Within(nodes, 0, window) ? ~0 : 0};
  while (!stack.empty()) {
    const int32_t top = stack.back();
    stack.pop_back();
    const bool inside = top < 0;
    const Node node = nodes_[inside ? ~top : top];
    const int32_t end = node.first + node.count;
    if (node.level == 0) {
      for (int32_t j = node.first; j < end; ++j) {
        if ((inside || Meets(rows, j, window)) && !Skipped(skip, j) &&
            !visit(Entry{EntryBox(j), entry_ids_[j]})) {
          return false;
        }
      }
      continue;
    }
    for (int32_t j = end - 1; j >= node.first; --j) {
      if (!inside && !Meets(nodes, j, window)) continue;
      stack.push_back(inside || Within(nodes, j, window) ? ~j : j);
      if (node.level == 1) PrefetchRows(nodes_[j]);
    }
  }
  return true;
}

}  // namespace casper::spatial

#endif  // CASPER_SPATIAL_FLAT_RTREE_H_
