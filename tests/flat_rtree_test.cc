#include "src/spatial/flat_rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/spatial/epoch_index.h"
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

/// The live rows of `tree` outside `skip` (ascending).
std::vector<Entry> RowsNotSkipped(const FlatRTree& tree,
                                  const std::vector<uint32_t>& skip) {
  std::vector<Entry> rows;
  for (uint32_t row = 0; row < tree.size(); ++row) {
    if (!std::binary_search(skip.begin(), skip.end(), row)) {
      rows.push_back(tree.entry(row));
    }
  }
  return rows;
}

TEST(FlatRTreeTest, EmptyTree) {
  FlatRTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(oracle::RangeHits(tree, kSpace).empty());
  EXPECT_TRUE(tree.KNearest(Point{0.5, 0.5}, 3).empty());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(FlatRTreeTest, SingleEntry) {
  FlatRTree tree = FlatRTree::Build({{Rect(0.2, 0.2, 0.4, 0.4), 7}});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.CheckInvariants());
  auto nn = tree.KNearest(Point{0.0, 0.0}, 1);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 7u);
  EXPECT_EQ(oracle::RangeHits(tree, Rect(0.0, 0.0, 0.25, 0.25)).size(), 1u);
  EXPECT_TRUE(oracle::RangeHits(tree, Rect(0.5, 0.5, 0.6, 0.6)).empty());
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

/// Every range and k-NN query, under several fan-outs, answers exactly
/// what a linear scan of the entries does.
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
      EXPECT_EQ(oracle::SortedIds(oracle::RangeHits(flat, window)),
                oracle::RangeIds(entries, window));

      const Point q = rng.PointIn(kSpace);
      for (size_t k : {size_t{1}, size_t{2}, size_t{23}, entries.size(),
                       entries.size() + 3}) {
        EXPECT_EQ(flat.KNearest(q, k), oracle::Knn(entries, q, k))
            << "M=" << fanout << " k=" << k;
      }
    }
  }
}

/// Point entries: the k-NN answer must match the oracle's exactly, and
/// each MaxDist must equal the point's MinDist bit for bit: for a
/// degenerate box the two are the ordinary distance.
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
    for (size_t k : {1u, 10u}) {
      const auto knn = flat.KNearest(q, k);
      EXPECT_EQ(knn, oracle::Knn(entries, q, k));
      for (const Neighbor& n : knn) EXPECT_EQ(n.distance, MinDist(q, n.box));
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
  for (const size_t k : {size_t{1}, size_t{8}, tree.size()}) {
    EXPECT_EQ(tree.KNearest(q, k, even_rows),
              oracle::Knn(RowsNotSkipped(tree, even_rows), q, k));
  }
}

/// Many ids share each pyramid cell, so nearly every k-NN answer is
/// decided by ties, for every k: the walk must
/// still return exactly the oracle's neighbors, boxes included, also
/// with rows skipped and with entries competing from outside the tree.
TEST(FlatRTreeTest, PyramidCellTiesMatchTheOracleExactly) {
  Rng rng(26);
  const std::vector<Entry> entries = oracle::PyramidCells(10000, &rng);
  const FlatRTree tree = FlatRTree::Build(entries, 16);
  std::vector<uint32_t> skip;
  for (uint32_t row = 0; row < tree.size(); row += 7) skip.push_back(row);
  const std::vector<Entry> extra = oracle::PyramidCells(50, &rng);
  std::vector<Entry> live = RowsNotSkipped(tree, skip);
  live.insert(live.end(), extra.begin(), extra.end());

  for (int trial = 0; trial < 40; ++trial) {
    const Point q =
        trial % 2 == 0 ? oracle::GridPoint(&rng) : rng.PointIn(kSpace);
    for (size_t k : {size_t{1}, size_t{2}, size_t{40}}) {
      ASSERT_EQ(tree.KNearest(q, k), oracle::Knn(entries, q, k))
          << "trial " << trial << " k=" << k;
      ASSERT_EQ(tree.KNearest(q, k, skip, extra), oracle::Knn(live, q, k))
          << "trial " << trial << " k=" << k;
    }
    if (trial % 10 != 0) continue;
    for (size_t k : {entries.size(), entries.size() + 3}) {
      ASSERT_EQ(tree.KNearest(q, k), oracle::Knn(entries, q, k))
          << "trial " << trial << " k=" << k;
    }
  }
}

/// Points and one-cell rectangles on an integer grid: windows with
/// integer corners then share edges with entries and node MBRs exactly.
std::vector<Entry> GridEntries(int side) {
  std::vector<Entry> entries;
  for (int x = 0; x < side; ++x) {
    for (int y = 0; y < side; ++y) {
      const double span = (x + y) % 3 == 0 ? 1.0 : 0.0;
      entries.push_back({Rect(x, y, x + span, y + span),
                         static_cast<uint64_t>(x * side + y)});
    }
  }
  return entries;
}

TEST(FlatRTreeTest, ContainedSubtreesKeepClosedEdgesAndSkips) {
  Rng rng(31);
  const std::vector<Entry> entries = GridEntries(24);
  for (int fanout : {4, 8, 16}) {
    const FlatRTree tree = FlatRTree::Build(entries, fanout);
    ASSERT_TRUE(tree.CheckInvariants());
    std::vector<uint32_t> skip;
    for (uint32_t row = 0; row < tree.size(); ++row) {
      if (rng.Bernoulli(0.3)) skip.push_back(row);
    }
    const std::vector<Entry> live = RowsNotSkipped(tree, skip);
    std::vector<Rect> windows = {tree.bounds(), Rect(3, 3, 3, 3),
                                 Rect(5, -1, 5, 30), Rect(24, 24, 30, 30)};
    for (int trial = 0; trial < 200; ++trial) {
      const auto lo_x = static_cast<double>(rng.UniformInt(0, 25)) - 1;
      const auto lo_y = static_cast<double>(rng.UniformInt(0, 25)) - 1;
      windows.emplace_back(lo_x, lo_y, lo_x + rng.UniformInt(0, 12),
                           lo_y + rng.UniformInt(0, 12));
    }
    for (const Rect& window : windows) {
      EXPECT_EQ(oracle::SortedIds(oracle::RangeHits(tree, window)),
                oracle::RangeIds(entries, window))
          << "fanout " << fanout << " window " << window.ToString();
      std::vector<Entry> hits;
      tree.RangeQuery(
          window,
          [&hits](const Entry& e) {
            hits.push_back(e);
            return true;
          },
          skip);
      EXPECT_EQ(oracle::SortedIds(hits), oracle::RangeIds(live, window))
          << "fanout " << fanout << " window " << window.ToString();
    }
  }
}

TEST(FlatRTreeTest, VisitorStopsInsideContainedSubtree) {
  const std::vector<Entry> entries = GridEntries(20);
  const FlatRTree tree = FlatRTree::Build(entries, 8);
  // The whole tree, and a window that contains some subtrees and cuts
  // others.
  for (const Rect& window : {tree.bounds(), Rect(2, 2, 13, 17)}) {
    const std::vector<uint64_t> want = oracle::RangeIds(entries, window);
    for (const size_t stop_at : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                                 want.size() / 2, want.size()}) {
      std::vector<Entry> seen;
      EXPECT_FALSE(tree.RangeQuery(window, [&](const Entry& e) {
        seen.push_back(e);
        return seen.size() < stop_at;
      }));
      ASSERT_EQ(seen.size(), stop_at);
      for (const uint64_t id : oracle::SortedIds(seen)) {
        EXPECT_TRUE(std::binary_search(want.begin(), want.end(), id));
      }
    }
    size_t all = 0;
    EXPECT_TRUE(tree.RangeQuery(window, [&all](const Entry&) {
      ++all;
      return true;
    }));
    EXPECT_EQ(all, want.size());
  }
}

TEST(FlatRTreeDeathTest, BuildAndInsertRefuseEmptyAndNaNBoxes) {
  const Rect nan_box(std::nan(""), 0.0, 1.0, 1.0);
  EXPECT_DEATH(FlatRTree::Build({{Rect(), 1}}), "Storable");
  EXPECT_DEATH(FlatRTree::Build({{kSpace, 1}, {nan_box, 2}}), "Storable");
  const std::vector<Entry> empty_added = {{Rect(), 2}};
  EXPECT_DEATH(FlatRTree::Build({{kSpace, 1}}).Repack({}, empty_added),
               "Storable");
  EpochIndex index;
  EXPECT_DEATH(index.Insert(Rect(0.5, 0.0, 0.4, 1.0), 1), "Storable");
  EXPECT_DEATH(index.Insert(nan_box, 1), "Storable");
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

// --- Repack ------------------------------------------------------------

double CenterY(const Entry& e) { return (e.box.min.y + e.box.max.y) / 2.0; }

/// Start rows of the maximal runs of rows whose center y does not
/// decrease: the slabs Repack derives from a tree's rows.
std::vector<size_t> SlabStarts(const FlatRTree& tree) {
  std::vector<size_t> starts;
  for (size_t row = 0; row < tree.size(); ++row) {
    if (row == 0 || CenterY(tree.entry(row)) < CenterY(tree.entry(row - 1))) {
      starts.push_back(row);
    }
  }
  return starts;
}

size_t SlabRuns(const FlatRTree& tree) { return SlabStarts(tree).size(); }

/// The STR slab count Build cuts `n` entries into at fan-out `m`.
size_t StrSlabs(size_t n, size_t m) {
  return static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>((n + m - 1) / m))));
}

/// The rows of `tree` that `dead` does not name, in row order, then
/// `added`: the entry multiset a repack must hold, in the order its
/// Build fallback takes them.
std::vector<Entry> LiveEntries(const FlatRTree& tree,
                               const std::vector<uint32_t>& dead,
                               const std::vector<Entry>& added) {
  std::vector<Entry> live;
  for (uint32_t row = 0; row < tree.size(); ++row) {
    if (!std::binary_search(dead.begin(), dead.end(), row)) {
      live.push_back(tree.entry(row));
    }
  }
  live.insert(live.end(), added.begin(), added.end());
  return live;
}

/// `count` distinct rows of `tree`, ascending.
std::vector<uint32_t> RandomDeadRows(const FlatRTree& tree, size_t count,
                                     Rng* rng) {
  std::vector<uint32_t> dead;
  while (dead.size() < std::min(count, tree.size())) {
    const auto row = static_cast<uint32_t>(rng->UniformInt(0, tree.size() - 1));
    if (std::find(dead.begin(), dead.end(), row) == dead.end()) {
      dead.push_back(row);
    }
  }
  std::sort(dead.begin(), dead.end());
  return dead;
}

bool SameRows(const FlatRTree& a, const FlatRTree& b) {
  if (a.size() != b.size()) return false;
  for (size_t row = 0; row < a.size(); ++row) {
    if (a.entry(row).id != b.entry(row).id ||
        !(a.entry(row).box == b.entry(row).box)) {
      return false;
    }
  }
  return true;
}

/// Range, k-NN and FindExact over `tree` equal a linear scan of
/// `entries`, and the tree passes its structural check.
void ExpectBruteForceAnswers(const FlatRTree& tree,
                             const std::vector<Entry>& entries, Rng* rng) {
  ASSERT_EQ(tree.size(), entries.size());
  ASSERT_TRUE(tree.CheckInvariants());
  for (int trial = 0; trial < 20; ++trial) {
    const Point a = rng->PointIn(kSpace);
    const Rect window(a.x, a.y, a.x + 0.2, a.y + 0.2);
    EXPECT_EQ(oracle::SortedIds(oracle::RangeHits(tree, window)),
              oracle::RangeIds(entries, window));

    const Point q = rng->PointIn(kSpace);
    EXPECT_EQ(tree.KNearest(q, 9), oracle::Knn(entries, q, 9));
    if (entries.empty()) continue;
    const Entry& e = entries[rng->UniformInt(0, entries.size() - 1)];
    const auto copies = static_cast<size_t>(std::count_if(
        entries.begin(), entries.end(), [&](const Entry& other) {
          return other.id == e.id && other.box == e.box;
        }));
    EXPECT_EQ(tree.FindExact(e.box, e.id), copies);
  }
}

/// Seeded rounds of dead rows and added entries, twins included: every
/// repacked tree answers like brute force over its entries, and the
/// merge never fragments the row order. Each tree has at most as many
/// slabs as the one it was merged from, or as Build would cut.
TEST(FlatRTreeRepackTest, SeededRoundsMatchBruteForce) {
  Rng rng(2026);
  std::vector<Entry> entries = RandomRectEntries(3000, &rng, 0.02);
  for (size_t i = 0; i < 20; ++i) entries.push_back(entries[i * 11]);
  FlatRTree tree = FlatRTree::Build(entries, 8);
  uint64_t next_id = 10000;
  for (int round = 0; round < 40; ++round) {
    const std::vector<uint32_t> dead =
        RandomDeadRows(tree, rng.UniformInt(0, 64), &rng);
    std::vector<Entry> added = RandomRectEntries(rng.UniformInt(0, 64), &rng,
                                                 0.02);
    for (Entry& e : added) e.id = next_id++;
    for (int twin = 0; twin < 4; ++twin) {
      added.push_back(tree.entry(rng.UniformInt(0, tree.size() - 1)));
    }
    const std::vector<Entry> want = LiveEntries(tree, dead, added);
    FlatRTree next = tree.Repack(dead, added);
    ExpectBruteForceAnswers(next, want, &rng);
    EXPECT_LE(SlabRuns(next),
              std::max(SlabRuns(tree), StrSlabs(next.size(), 8)))
        << "round " << round;
    tree = std::move(next);
  }
}

/// A small overlay is merged, not re-sorted: the surviving rows keep
/// their relative order, which a fresh Build does not.
TEST(FlatRTreeRepackTest, SmallOverlayKeepsSurvivingRowOrder) {
  Rng rng(31);
  const FlatRTree tree = FlatRTree::Build(RandomRectEntries(2000, &rng, 0.01));
  const std::vector<uint32_t> dead = RandomDeadRows(tree, 30, &rng);
  std::vector<Entry> added = RandomRectEntries(40, &rng, 0.01);
  for (Entry& e : added) e.id += 5000;
  const FlatRTree next = tree.Repack(dead, added);
  ExpectBruteForceAnswers(next, LiveEntries(tree, dead, added), &rng);

  std::vector<uint64_t> survivors;
  for (const Entry& e : LiveEntries(tree, dead, {})) survivors.push_back(e.id);
  std::vector<uint64_t> kept;
  for (size_t row = 0; row < next.size(); ++row) {
    if (next.entry(row).id < 5000) kept.push_back(next.entry(row).id);
  }
  EXPECT_EQ(kept, survivors);
  EXPECT_FALSE(SameRows(next, FlatRTree::Build(LiveEntries(tree, dead, added))));
  ASSERT_EQ(SlabRuns(next), SlabRuns(tree));

  // Each added entry sits in the slab whose x range holds it: the
  // lowest center x of its slab is <= its own, and of the next slab >.
  const auto center_x = [](const Entry& e) {
    return (e.box.min.x + e.box.max.x) / 2.0;
  };
  const std::vector<size_t> starts = SlabStarts(next);
  std::vector<size_t> slab_of(next.size());
  std::vector<double> key(starts.size(), 1e300);
  for (size_t row = 0, s = 0; row < next.size(); ++row) {
    if (s + 1 < starts.size() && row == starts[s + 1]) ++s;
    slab_of[row] = s;
    key[s] = std::min(key[s], center_x(next.entry(row)));
  }
  for (size_t row = 0; row < next.size(); ++row) {
    const Entry e = next.entry(row);
    if (e.id < 5000) continue;
    const size_t s = slab_of[row];
    EXPECT_LE(key[s], center_x(e)) << e.id;
    if (s + 1 < key.size()) {
      EXPECT_GT(key[s + 1], center_x(e)) << e.id;
    }
  }
}

TEST(FlatRTreeRepackTest, EmptyOverlaysAndAllDeadBase) {
  Rng rng(32);
  const FlatRTree tree = FlatRTree::Build(RandomRectEntries(500, &rng, 0.05));
  EXPECT_TRUE(SameRows(tree.Repack({}, {}), tree));

  const std::vector<uint32_t> dead = RandomDeadRows(tree, 50, &rng);
  ExpectBruteForceAnswers(tree.Repack(dead, {}), LiveEntries(tree, dead, {}),
                          &rng);

  const std::vector<uint32_t> all = RandomDeadRows(tree, tree.size(), &rng);
  const FlatRTree empty = tree.Repack(all, {});
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.CheckInvariants());
  const std::vector<Entry> added = RandomRectEntries(70, &rng, 0.05);
  ExpectBruteForceAnswers(tree.Repack(all, added), added, &rng);
}

/// Each fallback branch gives exactly Build over the live rows in row
/// order, then the added entries.
TEST(FlatRTreeRepackTest, DriftFallsBackToBuild) {
  Rng rng(33);
  const auto expect_build = [&rng](const FlatRTree& tree,
                                   const std::vector<uint32_t>& dead,
                                   const std::vector<Entry>& added) {
    const std::vector<Entry> live = LiveEntries(tree, dead, added);
    const FlatRTree next = tree.Repack(dead, added);
    EXPECT_TRUE(SameRows(next, FlatRTree::Build(live)));
    ExpectBruteForceAnswers(next, live, &rng);
  };
  // No slabs: an empty base.
  expect_build(FlatRTree(), {}, RandomRectEntries(300, &rng, 0.05));

  // Too few slabs: 100 entries (3 slabs) grow to 2,100 (12 slabs), so
  // some slab is over the size cap.
  const FlatRTree small = FlatRTree::Build(RandomRectEntries(100, &rng, 0.05));
  ASSERT_EQ(SlabRuns(small), 3u);
  expect_build(small, {}, RandomRectEntries(2000, &rng, 0.05));

  // Too many slabs: 4,000 entries (16 slabs) shrink to 100 (3 slabs).
  const FlatRTree big = FlatRTree::Build(RandomRectEntries(4000, &rng, 0.01));
  expect_build(big, RandomDeadRows(big, 3900, &rng), {});

  // One overfull slab: 600 entries land in the sixth of 16 slabs, which
  // would hold 850 rows against a cap of twice 4,600 / 17.
  ASSERT_EQ(SlabRuns(big), 16u);
  double lo = 1.0;
  for (size_t row = 5 * 250; row < 6 * 250; ++row) {
    lo = std::min(lo, (big.entry(row).box.min.x + big.entry(row).box.max.x) / 2);
  }
  std::vector<Entry> crowd;
  for (uint64_t i = 0; i < 600; ++i) {
    const double y = rng.Uniform(0.0, 1.0);
    crowd.push_back({Rect(lo, y, lo, y), 9000 + i});
  }
  expect_build(big, {}, crowd);
}

/// Build clamps a fan-out of 2^30 to kMaxFanout: 5,000 entries then
/// need two leaves under a root, where the unclamped fan-out would put
/// them all in one leaf (every k-NN sizes its scratch by the fan-out).
TEST(FlatRTreeTest, FanoutIsCappedOnBuild) {
  Rng rng(53);
  const std::vector<Entry> entries = RandomRectEntries(5000, &rng, 0.01);
  ASSERT_GT(entries.size(), static_cast<size_t>(FlatRTree::kMaxFanout));
  const FlatRTree tree = FlatRTree::Build(entries, 1 << 30);
  EXPECT_EQ(tree.height(), 2);
  ExpectBruteForceAnswers(tree, entries, &rng);
}

}  // namespace
}  // namespace casper::spatial
