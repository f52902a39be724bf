#include "src/spatial/flat_rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "tests/spatial_oracle.h"

namespace casper::spatial {
namespace {

const Rect kSpace(0.0, 0.0, 1.0, 1.0);

std::vector<Entry> RandomRectEntries(size_t n, Rng* rng,
                                            double max_extent) {
  std::vector<Entry> entries;
  for (size_t i = 0; i < n; ++i) {
    const Point c = rng->PointIn(kSpace);
    const double w = rng->Uniform(0.0, max_extent);
    const double h = rng->Uniform(0.0, max_extent);
    entries.push_back({Rect(c.x, c.y, c.x + w, c.y + h), i});
  }
  return entries;
}

using oracle::Distances;
using oracle::Ranks;

TEST(FlatRTreeTest, EmptyTree) {
  FlatRTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  std::vector<Entry> hits;
  tree.RangeQuery(kSpace, &hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(tree.RangeCount(kSpace), 0u);
  EXPECT_TRUE(tree.KNearest(Point{0.5, 0.5}, 3).empty());
  EXPECT_FALSE(tree.Nearest(Point{0.5, 0.5}).found);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(FlatRTreeTest, SingleEntry) {
  FlatRTree tree = FlatRTree::Build({{Rect(0.2, 0.2, 0.4, 0.4), 7}});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.CheckInvariants());
  auto nn = tree.Nearest(Point{0.0, 0.0});
  ASSERT_TRUE(nn.found);
  EXPECT_EQ(nn.neighbor.id, 7u);
  EXPECT_EQ(tree.RangeCount(Rect(0.0, 0.0, 0.25, 0.25)), 1u);
  EXPECT_EQ(tree.RangeCount(Rect(0.5, 0.5, 0.6, 0.6)), 0u);
}

TEST(FlatRTreeTest, InvariantsAcrossSizesAndFanouts) {
  Rng rng(20260807);
  for (size_t n : {2u, 5u, 16u, 17u, 64u, 257u, 1000u}) {
    for (int fanout : {4, 8, 16}) {
      FlatRTree tree =
          FlatRTree::Build(RandomRectEntries(n, &rng, 0.05), fanout);
      EXPECT_EQ(tree.size(), n);
      EXPECT_TRUE(tree.CheckInvariants()) << "n=" << n << " M=" << fanout;
    }
  }
}

/// Every range and k-NN query — under both metrics and several
/// fan-outs — answers exactly what a linear scan of the entries does.
TEST(FlatRTreeTest, DifferentialAgainstBruteForce) {
  Rng rng(42);
  std::vector<Entry> entries = RandomRectEntries(600, &rng, 0.08);
  // Twins: duplicate (box, id) pairs are stored once per copy.
  for (size_t i = 0; i < 20; ++i) entries.push_back(entries[i * 7]);

  for (int fanout : {4, 8, 16}) {
    FlatRTree flat = FlatRTree::Build(entries, fanout);
    ASSERT_EQ(flat.size(), entries.size());
    ASSERT_TRUE(flat.CheckInvariants());

    for (int trial = 0; trial < 50; ++trial) {
      const Point a = rng.PointIn(kSpace);
      const Point b = rng.PointIn(kSpace);
      const Rect window(std::min(a.x, b.x), std::min(a.y, b.y),
                        std::max(a.x, b.x), std::max(a.y, b.y));
      std::vector<Entry> flat_hits;
      flat.RangeQuery(window, &flat_hits);
      const std::vector<uint64_t> want = oracle::RangeIds(entries, window);
      EXPECT_EQ(oracle::SortedIds(flat_hits), want);
      EXPECT_EQ(flat.RangeCount(window), want.size());

      const Point q = rng.PointIn(kSpace);
      for (auto metric : {Metric::kMinDist, Metric::kMaxDist}) {
        for (size_t k : {1u, 5u, 23u}) {
          EXPECT_EQ(Distances(Ranks(flat.KNearest(q, k, metric))),
                    Distances(oracle::Knn(entries, q, k, metric)))
              << "M=" << fanout << " metric=" << static_cast<int>(metric)
              << " k=" << k;
        }
        const auto packed = flat.Nearest(q, metric);
        ASSERT_TRUE(packed.found);
        EXPECT_EQ(packed.neighbor.distance,
                  oracle::Knn(entries, q, 1, metric)[0].first);
      }
    }
  }
}

/// Point entries: the k-NN answer must match the oracle's canonical
/// (distance, id) sequence exactly, under both metrics (which coincide
/// for points).
TEST(FlatRTreeTest, DifferentialPointEntriesExactIds) {
  Rng rng(1234);
  std::vector<Entry> entries;
  for (size_t i = 0; i < 500; ++i) {
    entries.push_back({Rect::FromPoint(rng.PointIn(kSpace)), i});
  }
  FlatRTree flat = FlatRTree::Build(entries, 16);
  ASSERT_TRUE(flat.CheckInvariants());
  for (int trial = 0; trial < 40; ++trial) {
    const Point q = rng.PointIn(kSpace);
    for (auto metric : {Metric::kMinDist, Metric::kMaxDist}) {
      for (size_t k : {1u, 10u}) {
        EXPECT_EQ(Ranks(flat.KNearest(q, k, metric)),
                  oracle::Knn(entries, q, k, metric));
      }
    }
  }
}

/// FindExact counts copies of exactly (box, id) — twins included, near
/// misses and other ids excluded — and reports the rows that hold them,
/// for boxes from a point up to the whole space.
TEST(FlatRTreeTest, FindExactCountsCopies) {
  Rng rng(77);
  std::vector<Entry> entries = RandomRectEntries(400, &rng, 0.3);
  for (size_t i = 0; i < 50; ++i) {
    entries.push_back({Rect::FromPoint(rng.PointIn(kSpace)), 1000 + i});
  }
  entries.push_back({kSpace, 5000});
  for (size_t i = 0; i < 30; ++i) entries.push_back(entries[i * 13]);
  const FlatRTree flat = FlatRTree::Build(entries, 8);

  for (const Entry& e : entries) {
    const auto copies = static_cast<size_t>(std::count_if(
        entries.begin(), entries.end(), [&](const Entry& other) {
          return other.id == e.id && other.box == e.box;
        }));
    std::vector<size_t> rows;
    ASSERT_EQ(flat.FindExact(e.box, e.id, &rows), copies) << e.id;
    ASSERT_EQ(rows.size(), copies);
    for (size_t row : rows) {
      EXPECT_EQ(flat.entry(row).id, e.id);
      EXPECT_TRUE(flat.entry(row).box == e.box);
    }
    EXPECT_EQ(flat.FindExact(e.box, e.id + 100000), 0u);
    const Rect nudged(e.box.min.x, e.box.min.y, e.box.max.x + 1e-9,
                      e.box.max.y);
    EXPECT_EQ(flat.FindExact(nudged, e.id), 0u);
  }
  EXPECT_EQ(FlatRTree().FindExact(kSpace, 1), 0u);
}

TEST(FlatRTreeTest, VisitorEarlyStopAndFilteredKnn) {
  Rng rng(7);
  FlatRTree tree = FlatRTree::Build(RandomRectEntries(200, &rng, 0.05), 8);
  size_t seen = 0;
  EXPECT_FALSE(tree.RangeQuery(kSpace, [&seen](const Entry&) {
    ++seen;
    return seen < 10;
  }));
  EXPECT_EQ(seen, 10u);

  // Skipping the rows of even ids must yield the odd-id answers.
  std::vector<uint32_t> even_rows;
  for (uint32_t row = 0; row < tree.size(); ++row) {
    if (tree.entry(row).id % 2 == 0) even_rows.push_back(row);
  }
  size_t odd = 0;
  EXPECT_TRUE(tree.RangeQuery(
      kSpace,
      [&odd](const Entry& e) {
        EXPECT_EQ(e.id % 2, 1u);
        ++odd;
        return true;
      },
      even_rows));
  EXPECT_EQ(odd, tree.size() - even_rows.size());
  const Point q{0.5, 0.5};
  auto odd_only = tree.KNearest(q, 8, Metric::kMinDist, even_rows);
  ASSERT_EQ(odd_only.size(), 8u);
  for (const auto& n : odd_only) EXPECT_EQ(n.id % 2, 1u);
  // Ascending distance, and no unfiltered entry closer than the last.
  for (size_t i = 1; i < odd_only.size(); ++i) {
    EXPECT_LE(odd_only[i - 1].distance, odd_only[i].distance);
  }
}

TEST(FlatRTreeTest, BatchedKernelsMatchScalar) {
  Rng rng(99);
  std::vector<Entry> entries = RandomRectEntries(100, &rng, 0.1);
  std::vector<double> xlo, ylo, xhi, yhi;
  for (const auto& e : entries) {
    xlo.push_back(e.box.min.x);
    ylo.push_back(e.box.min.y);
    xhi.push_back(e.box.max.x);
    yhi.push_back(e.box.max.y);
  }
  const RectSoA soa{xlo.data(), ylo.data(), xhi.data(), yhi.data()};
  std::vector<double> batched(entries.size());
  for (int trial = 0; trial < 20; ++trial) {
    const Point q = rng.PointIn(kSpace);
    BatchedMinDist(q, soa, entries.size(), batched.data());
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(batched[i], MinDist(q, entries[i].box)) << i;
    }
    BatchedMaxDist(q, soa, entries.size(), batched.data());
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(batched[i], MaxDist(q, entries[i].box)) << i;
    }
  }
}

}  // namespace
}  // namespace casper::spatial
