#ifndef CASPER_TESTS_SPATIAL_ORACLE_H_
#define CASPER_TESTS_SPATIAL_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/geometry.h"
#include "src/spatial/flat_rtree.h"

/// Brute-force linear-scan answers over a plain list of entries — the
/// reference the spatial-index tests compare FlatRTree and EpochIndex
/// against. The list is a multiset: duplicate (box, id) pairs count
/// once per copy, as they do in the indexes.

namespace casper::spatial::oracle {

/// (distance, id) pairs; a k-NN answer reduced to what is comparable.
using Ranked = std::vector<std::pair<double, uint64_t>>;

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

inline double Distance(const Point& q, const Rect& box, Metric metric) {
  return metric == Metric::kMinDist ? MinDist(q, box) : MaxDist(q, box);
}

/// The k smallest (distance, id) pairs, ascending — the canonical order
/// the indexes promise, ties broken by id.
inline Ranked Knn(const std::vector<Entry>& entries, const Point& q, size_t k,
                  Metric metric) {
  Ranked all;
  all.reserve(entries.size());
  for (const Entry& e : entries) {
    all.emplace_back(Distance(q, e.box, metric), e.id);
  }
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

/// An index answer in the oracle's shape, in the order it was returned.
inline Ranked Ranks(const std::vector<Neighbor>& neighbors) {
  Ranked out;
  out.reserve(neighbors.size());
  for (const Neighbor& n : neighbors) out.emplace_back(n.distance, n.id);
  return out;
}

/// Sorted distance multiset. Rectangles tie exactly (MinDist is 0 for
/// every rectangle containing the query point), so which ids win a tie
/// is a tie-break rule; the k smallest distances are not.
inline std::vector<double> Distances(const Ranked& ranked) {
  std::vector<double> out;
  out.reserve(ranked.size());
  for (const auto& r : ranked) out.push_back(r.first);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace casper::spatial::oracle

#endif  // CASPER_TESTS_SPATIAL_ORACLE_H_
