#ifndef CASPER_TESTS_SPATIAL_ORACLE_H_
#define CASPER_TESTS_SPATIAL_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include "src/common/geometry.h"
#include "src/spatial/flat_rtree.h"

/// Brute-force linear-scan answers over a plain list of entries — the
/// reference the spatial-index tests compare FlatRTree and EpochIndex
/// against. The list is a multiset: duplicate (box, id) pairs count
/// once per copy, as they do in the indexes.

namespace casper::spatial::oracle {

inline std::vector<uint64_t> SortedIds(const std::vector<Entry>& entries) {
  std::vector<uint64_t> ids;
  ids.reserve(entries.size());
  for (const Entry& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Ids of every entry intersecting `window` (closed boundaries), sorted.
inline std::vector<uint64_t> RangeIds(const std::vector<Entry>& entries,
                                      const Rect& window) {
  std::vector<Entry> hits;
  for (const Entry& e : entries) {
    if (e.box.Intersects(window)) hits.push_back(e);
  }
  return SortedIds(hits);
}

/// `n` regions the anonymizer would cloak to: pyramid cells on levels
/// 4 and 5 of the unit square, about eight ids per cell, and every
/// tenth entry a twin, an earlier id in another cell. Distances tie
/// everywhere: the ids of one cell tie, and so do the cells around any
/// query point on the level-5 grid.
template <typename Rng>
std::vector<Entry> PyramidCells(size_t n, Rng* rng) {
  std::vector<Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t side = rng->UniformInt(0, 1) == 0 ? 16 : 32;
    const auto x = static_cast<double>(rng->UniformInt(0, side - 1));
    const auto y = static_cast<double>(rng->UniformInt(0, side - 1));
    const double w = 1.0 / static_cast<double>(side);
    const uint64_t id = i % 10 == 9 ? rng->UniformInt(0, i - 1) : i;
    entries.push_back({Rect(x * w, y * w, (x + 1) * w, (y + 1) * w), id});
  }
  return entries;
}

/// A query point on the level-5 grid, where pyramid cells tie.
template <typename Rng>
Point GridPoint(Rng* rng) {
  return {static_cast<double>(rng->UniformInt(0, 32)) / 32.0,
          static_cast<double>(rng->UniformInt(0, 32)) / 32.0};
}

/// Every entry an index's visitor walk reports for `window`, in walk
/// order; `index` is a FlatRTree or an EpochIndex::Snapshot. Range
/// counts are the size of this list.
template <typename Index>
std::vector<Entry> RangeHits(const Index& index, const Rect& window) {
  std::vector<Entry> hits;
  index.RangeQuery(window, [&hits](const Entry& e) {
    hits.push_back(e);
    return true;
  });
  return hits;
}

/// The first k entries under NeighborLess, by MaxDist: whole
/// neighbors, the one order the indexes promise, so an answer that
/// picks the wrong twin box at a tie differs from this one.
inline std::vector<Neighbor> Knn(const std::vector<Entry>& entries,
                                 const Point& q, size_t k) {
  std::vector<Neighbor> all;
  all.reserve(entries.size());
  for (const Entry& e : entries) {
    all.push_back(Neighbor{e.box, e.id, MaxDist(q, e.box)});
  }
  std::sort(all.begin(), all.end(), NeighborLess);
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace casper::spatial::oracle

namespace casper::spatial {

/// gtest prints a mismatched neighbor by its fields, not its bytes.
inline void PrintTo(const Neighbor& n, std::ostream* os) {
  *os << "{id " << n.id << ", box (" << n.box.min.x << ", " << n.box.min.y
      << ", " << n.box.max.x << ", " << n.box.max.y << "), distance "
      << n.distance << "}";
}

}  // namespace casper::spatial

#endif  // CASPER_TESTS_SPATIAL_ORACLE_H_
