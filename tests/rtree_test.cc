#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/spatial/epoch_index.h"
#include "src/spatial/flat_rtree.h"
#include "tests/spatial_oracle.h"

/// The R-tree contract the spatial layer offers, checked against
/// brute force: bulk loading, range and NN / k-NN search by MaxDist
/// (MinDist for points), and multiset insert / remove. Static-query
/// cases run on the packed FlatRTree; mutation cases run on EpochIndex,
/// the layer's one mutable R-tree (a FlatRTree base plus its delta and
/// tombstones).

namespace casper::spatial {
namespace {

const Rect kSpace(0.0, 0.0, 1.0, 1.0);

std::vector<Entry> RandomPointEntries(size_t n, Rng* rng) {
  std::vector<Entry> entries;
  for (size_t i = 0; i < n; ++i) {
    entries.push_back({Rect::FromPoint(rng->PointIn(kSpace)), i});
  }
  return entries;
}

std::vector<Entry> RandomRectEntries(size_t n, Rng* rng, double max_extent) {
  std::vector<Entry> entries;
  for (size_t i = 0; i < n; ++i) {
    const Point c = rng->PointIn(kSpace);
    const double w = rng->Uniform(0.0, max_extent);
    const double h = rng->Uniform(0.0, max_extent);
    entries.push_back({Rect(c.x, c.y, c.x + w, c.y + h), i});
  }
  return entries;
}

std::vector<uint64_t> RangeIds(const EpochIndex& index, const Rect& window) {
  return oracle::SortedIds(oracle::RangeHits(*index.Acquire(), window));
}

/// The index holds exactly `live`: same size, and every entry is found
/// by a whole-space range query.
void ExpectHolds(const EpochIndex& index, const std::vector<Entry>& live) {
  EXPECT_EQ(index.size(), live.size());
  EXPECT_EQ(index.Acquire()->size(), live.size());
  EXPECT_EQ(RangeIds(index, kSpace), oracle::SortedIds(live));
}

TEST(RTreeTest, EmptyTree) {
  EpochIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.size(), 0u);
  const auto snap = index.Acquire();
  EXPECT_TRUE(snap->KNearest({0, 0}, 1).empty());
  EXPECT_TRUE(oracle::RangeHits(*snap, kSpace).empty());
  EXPECT_TRUE(FlatRTree::Build({}).CheckInvariants());
}

TEST(RTreeTest, SingleEntry) {
  EpochIndex index;
  index.Insert(Rect::FromPoint({0.5, 0.5}), 42);
  EXPECT_EQ(index.size(), 1u);
  const auto nn = index.Acquire()->KNearest({0, 0}, 1);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 42u);
  EXPECT_NEAR(nn[0].distance, Distance({0, 0}, {0.5, 0.5}), 1e-12);
}

TEST(RTreeTest, InsertManyMaintainsInvariants) {
  Rng rng(3);
  EpochIndex index(8, /*rebuild_threshold=*/64);
  std::vector<Entry> live;
  for (size_t i = 0; i < 500; ++i) {
    live.push_back({Rect::FromPoint(rng.PointIn(kSpace)), i});
    index.Insert(live.back().box, live.back().id);
    if (i % 50 == 0) ExpectHolds(index, live);
  }
  ExpectHolds(index, live);
  // The delta outgrew the threshold, so inserts were packed into the
  // base more than once.
  EXPECT_GT(index.stats().rebuilds, 1u);
  EXPECT_LE(index.stats().delta_entries, 64u);
}

TEST(RTreeTest, RangeQueryMatchesBruteForce) {
  Rng rng(5);
  auto entries = RandomRectEntries(300, &rng, 0.05);
  EpochIndex index(8);
  for (const auto& e : entries) index.Insert(e.box, e.id);

  for (int i = 0; i < 50; ++i) {
    const Point c = rng.PointIn(kSpace);
    const Rect window(c.x, c.y, c.x + rng.Uniform(0, 0.3),
                      c.y + rng.Uniform(0, 0.3));
    EXPECT_EQ(RangeIds(index, window), oracle::RangeIds(entries, window));
  }
}

TEST(RTreeTest, RangeCountMatchesQuery) {
  Rng rng(6);
  const auto entries = RandomPointEntries(200, &rng);
  FlatRTree tree = FlatRTree::Build(entries);
  const Rect window(0.2, 0.2, 0.7, 0.6);
  EXPECT_EQ(oracle::RangeHits(tree, window).size(),
            oracle::RangeIds(entries, window).size());
}

TEST(RTreeTest, NearestMatchesBruteForceMinDist) {
  Rng rng(7);
  auto entries = RandomPointEntries(400, &rng);
  FlatRTree tree = FlatRTree::Build(entries);
  for (int i = 0; i < 100; ++i) {
    const Point q = rng.PointIn(kSpace);
    const auto nn = tree.KNearest(q, 1);
    EXPECT_EQ(nn, oracle::Knn(entries, q, 1));
    // A point is its degenerate box: MaxDist is its MinDist, bit for bit.
    ASSERT_EQ(nn.size(), 1u);
    EXPECT_EQ(nn[0].distance, MinDist(q, nn[0].box));
  }
}

TEST(RTreeTest, NearestMatchesBruteForceMaxDist) {
  Rng rng(8);
  auto entries = RandomRectEntries(300, &rng, 0.1);
  FlatRTree tree = FlatRTree::Build(entries);
  for (int i = 0; i < 100; ++i) {
    const Point q = rng.PointIn(kSpace);
    EXPECT_EQ(tree.KNearest(q, 1), oracle::Knn(entries, q, 1));
  }
}

TEST(RTreeTest, KNearestSortedAndComplete) {
  Rng rng(9);
  auto entries = RandomPointEntries(100, &rng);
  FlatRTree tree = FlatRTree::Build(entries);

  const Point q{0.4, 0.6};
  const auto knn = tree.KNearest(q, 10);
  ASSERT_EQ(knn.size(), 10u);
  for (size_t i = 1; i < knn.size(); ++i) {
    EXPECT_LE(knn[i - 1].distance, knn[i].distance);
  }
  EXPECT_EQ(knn, oracle::Knn(entries, q, 10));
}

TEST(RTreeTest, KNearestMoreThanSizeReturnsAll) {
  Rng rng(10);
  FlatRTree tree = FlatRTree::Build(RandomPointEntries(7, &rng));
  EXPECT_EQ(tree.KNearest({0.5, 0.5}, 100).size(), 7u);
}

TEST(RTreeTest, RemoveExistingAndMissing) {
  Rng rng(11);
  auto entries = RandomPointEntries(200, &rng);
  EpochIndex index(8, /*rebuild_threshold=*/32);
  for (const auto& e : entries) index.Insert(e.box, e.id);

  // Remove half; the removals hit packed base entries (tombstones) as
  // well as entries still in the delta.
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(index.Remove(entries[i].box, entries[i].id));
  }
  const std::vector<Entry> rest(entries.begin() + 100, entries.end());
  ExpectHolds(index, rest);

  // Removing again fails.
  EXPECT_FALSE(index.Remove(entries[0].box, entries[0].id));
  // Wrong box fails.
  EXPECT_FALSE(
      index.Remove(Rect(0.999, 0.999, 0.9999, 0.9999), entries[150].id));
  EXPECT_EQ(index.size(), 100u);

  // Remaining entries still query correctly.
  const auto snap = index.Acquire();
  for (int i = 0; i < 20; ++i) {
    const Point q = rng.PointIn(kSpace);
    EXPECT_EQ(snap->KNearest(q, 1), oracle::Knn(rest, q, 1));
  }
}

TEST(RTreeTest, RemoveAllLeavesEmptyUsableTree) {
  Rng rng(12);
  auto entries = RandomPointEntries(64, &rng);
  EpochIndex index(4, /*rebuild_threshold=*/8);
  for (const auto& e : entries) index.Insert(e.box, e.id);
  for (const auto& e : entries) ASSERT_TRUE(index.Remove(e.box, e.id));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(RangeIds(index, kSpace).empty());
  EXPECT_TRUE(index.Acquire()->KNearest({0.5, 0.5}, 1).empty());
  index.Insert(Rect::FromPoint({0.5, 0.5}), 1);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.Acquire()->KNearest({0, 0}, 1).size(), 1u);
}

TEST(RTreeTest, BulkLoadInvariantsAndQueries) {
  Rng rng(13);
  for (size_t n : {1u, 5u, 16u, 17u, 100u, 1000u}) {
    auto entries = RandomPointEntries(n, &rng);
    FlatRTree tree = FlatRTree::Build(entries, 16);
    EXPECT_EQ(tree.size(), n);
    EXPECT_TRUE(tree.CheckInvariants()) << "n=" << n;
    const Rect window(0.25, 0.25, 0.75, 0.75);
    EXPECT_EQ(oracle::SortedIds(oracle::RangeHits(tree, window)),
              oracle::RangeIds(entries, window));
  }
}

TEST(RTreeTest, BulkLoadHeightIsLogarithmic) {
  Rng rng(14);
  FlatRTree tree = FlatRTree::Build(RandomPointEntries(4096, &rng), 16);
  // 4096 entries at fan-out 16: leaves 256, level2 16, level3 1 => height 3.
  EXPECT_LE(tree.height(), 4);
}

TEST(RTreeTest, VisitorEarlyStop) {
  Rng rng(15);
  EpochIndex index = EpochIndex::BulkLoad(RandomPointEntries(100, &rng));
  int visited = 0;
  index.Acquire()->RangeQuery(kSpace, [&visited](const Entry&) {
    ++visited;
    return visited < 5;
  });
  EXPECT_EQ(visited, 5);
}

TEST(RTreeTest, BoundsCoverAllEntries) {
  Rng rng(16);
  auto entries = RandomRectEntries(50, &rng, 0.2);
  FlatRTree tree = FlatRTree::Build(entries);
  const Rect b = tree.bounds();
  for (const auto& e : entries) EXPECT_TRUE(b.Contains(e.box));
}

TEST(RTreeTest, MoveSemantics) {
  EpochIndex a;
  a.Insert(Rect::FromPoint({0.1, 0.1}), 1);
  EpochIndex b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EpochIndex c;
  c = std::move(b);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.Acquire()->KNearest({0, 0}, 1).size(), 1u);
}

TEST(RTreeTest, DuplicatePositionsAllowed) {
  EpochIndex index(4, /*rebuild_threshold=*/8);
  for (uint64_t i = 0; i < 20; ++i) {
    index.Insert(Rect::FromPoint({0.5, 0.5}), i);
  }
  EXPECT_EQ(index.size(), 20u);
  EXPECT_EQ(RangeIds(index, Rect(0.5, 0.5, 0.5, 0.5)).size(), 20u);
  // Remove a specific duplicate by id.
  EXPECT_TRUE(index.Remove(Rect::FromPoint({0.5, 0.5}), 7));
  EXPECT_EQ(index.size(), 19u);
  const auto ids = RangeIds(index, Rect(0.5, 0.5, 0.5, 0.5));
  EXPECT_EQ(ids.size(), 19u);
  EXPECT_EQ(std::count(ids.begin(), ids.end(), 7u), 0);
}

TEST(RTreeTest, MixedInsertRemoveChurn) {
  Rng rng(17);
  EpochIndex index(6, /*rebuild_threshold=*/24);
  std::vector<Entry> live;
  uint64_t next_id = 0;
  for (int round = 0; round < 1000; ++round) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      Entry e{Rect::FromPoint(rng.PointIn(kSpace)), next_id++};
      index.Insert(e.box, e.id);
      live.push_back(e);
    } else {
      const size_t idx = rng.UniformInt(0, live.size() - 1);
      ASSERT_TRUE(index.Remove(live[idx].box, live[idx].id));
      live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
    }
  }
  ExpectHolds(index, live);
  const Rect window(0.1, 0.1, 0.9, 0.4);
  EXPECT_EQ(RangeIds(index, window), oracle::RangeIds(live, window));
}

}  // namespace
}  // namespace casper::spatial
