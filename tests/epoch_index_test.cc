#include "src/spatial/epoch_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "tests/spatial_oracle.h"

namespace casper::spatial {
namespace {

const Rect kSpace(0.0, 0.0, 1.0, 1.0);

std::vector<Entry> RandomRectEntries(size_t n, Rng* rng,
                                            double max_extent,
                                            uint64_t first_id = 0) {
  std::vector<Entry> entries;
  for (size_t i = 0; i < n; ++i) {
    const Point c = rng->PointIn(kSpace);
    const double w = rng->Uniform(0.0, max_extent);
    const double h = rng->Uniform(0.0, max_extent);
    entries.push_back({Rect(c.x, c.y, c.x + w, c.y + h), first_id + i});
  }
  return entries;
}

TEST(EpochIndexTest, EmptyIndexPublishesUsableSnapshot) {
  EpochIndex index;
  auto snap = index.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->empty());
  EXPECT_EQ(oracle::RangeHits(*snap, kSpace).size(), 0u);
  EXPECT_TRUE(snap->KNearest(Point{0.5, 0.5}, 1).empty());
}

/// Every mutation publishes a new epoch, and queries on the current
/// snapshot always match a linear scan of the live entries.
TEST(EpochIndexTest, SnapshotMatchesBruteForceAfterEachMutation) {
  Rng rng(1);
  EpochIndex index(8, /*rebuild_threshold=*/16);
  std::vector<Entry> alive;
  for (size_t step = 0; step < 300; ++step) {
    if (alive.empty() || rng.Uniform(0.0, 1.0) < 0.65) {
      Entry e = RandomRectEntries(1, &rng, 0.05, step)[0];
      index.Insert(e.box, e.id);
      alive.push_back(e);
    } else {
      const size_t victim = static_cast<size_t>(
          rng.Uniform(0.0, static_cast<double>(alive.size())));
      ASSERT_TRUE(index.Remove(alive[victim].box, alive[victim].id));
      alive.erase(alive.begin() + static_cast<ptrdiff_t>(victim));
    }
    if (step % 10 != 0) continue;  // Deep-compare every 10th step.
    auto snap = index.Acquire();
    ASSERT_EQ(snap->size(), alive.size());
    ASSERT_EQ(index.size(), alive.size());
    const Point a = rng.PointIn(kSpace);
    const Point b = rng.PointIn(kSpace);
    const Rect window(std::min(a.x, b.x), std::min(a.y, b.y),
                      std::max(a.x, b.x), std::max(a.y, b.y));
    EXPECT_EQ(oracle::SortedIds(oracle::RangeHits(*snap, window)),
              oracle::RangeIds(alive, window));

    // k at and past the live count: every delta entry must join the
    // answer.
    const Point q = rng.PointIn(kSpace);
    for (const size_t k : {size_t{1}, size_t{2}, size_t{5}, alive.size(),
                           alive.size() + 3}) {
      EXPECT_EQ(snap->KNearest(q, k), oracle::Knn(alive, q, k));
    }
  }
}

/// Pyramid-cell regions, where distances tie everywhere, over a packed
/// base with tombstones plus a delta, and in an index that is all
/// delta: the delta competes in the same best-k walk as the base, so
/// every k-NN answer equals the oracle's, boxes included.
TEST(EpochIndexTest, PyramidCellKnnIsExactOverTombstonesAndDelta) {
  Rng rng(26);
  std::vector<Entry> alive = oracle::PyramidCells(10000, &rng);
  EpochIndex overlay =
      EpochIndex::BulkLoad(alive, 16, /*rebuild_threshold=*/1000);
  for (int i = 0; i < 200; ++i) {
    const size_t victim = rng.UniformInt(0, alive.size() - 1);
    ASSERT_TRUE(overlay.Remove(alive[victim].box, alive[victim].id));
    alive.erase(alive.begin() + static_cast<ptrdiff_t>(victim));
  }
  for (const Entry& e : oracle::PyramidCells(300, &rng)) {
    overlay.Insert(e.box, e.id);
    alive.push_back(e);
  }
  ASSERT_EQ(overlay.stats().tombstones, 200u);
  ASSERT_EQ(overlay.stats().delta_entries, 300u);

  std::vector<Entry> cells = oracle::PyramidCells(500, &rng);
  EpochIndex delta_only(16, /*rebuild_threshold=*/1000);
  for (const Entry& e : cells) delta_only.Insert(e.box, e.id);
  ASSERT_EQ(delta_only.stats().rebuilds, 0u);

  for (const auto& [index, live] :
       {std::pair{&overlay, &alive}, std::pair{&delta_only, &cells}}) {
    const auto snap = index->Acquire();
    for (int trial = 0; trial < 30; ++trial) {
      const Point q =
          trial % 2 == 0 ? oracle::GridPoint(&rng) : rng.PointIn(kSpace);
      std::vector<size_t> ks = {1, 2, 40};
      if (trial % 10 == 0) {
        ks.push_back(live->size());
        ks.push_back(live->size() + 3);
      }
      for (const size_t k : ks) {
        ASSERT_EQ(snap->KNearest(q, k), oracle::Knn(*live, q, k))
            << live->size() << " entries, trial " << trial << " k=" << k;
      }
    }
  }
}

/// The index is a multiset of (box, id): each Remove takes away one
/// copy, from the delta first and then from the packed base, and
/// reports false — changing nothing — once no copy is left.
TEST(EpochIndexTest, RemoveTakesOneCopyAtATime) {
  const Rect box(0.1, 0.1, 0.3, 0.3);
  EpochIndex index = EpochIndex::BulkLoad(
      {{box, 7}, {box, 7}, {Rect(0.5, 0.5, 0.6, 0.6), 8}}, 16,
      /*rebuild_threshold=*/100);
  EXPECT_FALSE(index.Remove(box, 9));                    // Wrong id.
  EXPECT_FALSE(index.Remove(Rect(0.1, 0.1, 0.3, 0.31), 7));  // Wrong box.
  index.Insert(box, 7);  // A third copy, in the delta.
  EXPECT_EQ(index.size(), 4u);

  EXPECT_TRUE(index.Remove(box, 7));  // Cancels the delta copy.
  EXPECT_EQ(index.stats().delta_entries, 0u);
  EXPECT_EQ(index.stats().tombstones, 0u);
  EXPECT_TRUE(index.Remove(box, 7));  // Tombstones one base copy...
  // ...its twin stays.
  EXPECT_EQ(oracle::RangeHits(*index.Acquire(), box).size(), 1u);
  EXPECT_TRUE(index.Remove(box, 7));
  EXPECT_FALSE(index.Remove(box, 7));  // Both base copies are hidden.
  EXPECT_EQ(index.stats().tombstones, 2u);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.Acquire()->size(), 1u);
  EXPECT_EQ(oracle::RangeHits(*index.Acquire(), kSpace).size(), 1u);

  // Re-inserting after a tombstone is a fresh copy.
  index.Insert(box, 7);
  EXPECT_TRUE(index.Remove(box, 7));
  EXPECT_FALSE(index.Remove(box, 7));
  EXPECT_EQ(index.size(), 1u);
}

/// A reader's snapshot is frozen at acquisition: later writes neither
/// change its answers nor invalidate it.
TEST(EpochIndexTest, AcquiredSnapshotIsImmuneToLaterWrites) {
  Rng rng(2);
  EpochIndex index = EpochIndex::BulkLoad(RandomRectEntries(100, &rng, 0.05));
  auto old_snap = index.Acquire();
  const size_t old_size = old_snap->size();
  const size_t old_count = oracle::RangeHits(*old_snap, kSpace).size();
  const uint64_t old_epoch = old_snap->epoch();

  for (const auto& e : RandomRectEntries(50, &rng, 0.05, 1000)) {
    index.Insert(e.box, e.id);
  }

  EXPECT_EQ(old_snap->size(), old_size);
  EXPECT_EQ(oracle::RangeHits(*old_snap, kSpace).size(), old_count);
  auto new_snap = index.Acquire();
  EXPECT_GT(new_snap->epoch(), old_epoch);
  EXPECT_EQ(new_snap->size(), 150u);
  EXPECT_EQ(oracle::RangeHits(*new_snap, kSpace).size(), 150u);
}

TEST(EpochIndexTest, StatsCountPublicationsRebuildsAndReclamation) {
  Rng rng(3);
  EpochIndex index(16, /*rebuild_threshold=*/8);
  const auto entries = RandomRectEntries(32, &rng, 0.05);
  {
    auto snap = index.Acquire();  // Hold epoch 1 while writing.
    for (const auto& e : entries) index.Insert(e.box, e.id);
  }
  EpochIndex::Stats stats = index.stats();
  // 1 initial publication + one per insert.
  EXPECT_EQ(stats.published, 1u + entries.size());
  // 32 inserts at threshold 8 force repacks; the live delta stays small.
  EXPECT_GE(stats.rebuilds, 3u);
  EXPECT_LT(stats.delta_entries, 8u);
  EXPECT_EQ(stats.tombstones, 0u);
  // Every superseded snapshot was released (ours included); only the
  // currently-published epoch is still alive.
  EXPECT_EQ(stats.reclaimed, stats.published - 1u);

  // Tombstones accumulate on removes of base entries, then clear on the
  // next repack.
  size_t removed = 0;
  for (const auto& e : entries) {
    index.Remove(e.box, e.id);
    if (++removed == 4) break;
  }
  stats = index.stats();
  EXPECT_EQ(index.size(), entries.size() - removed);
  EXPECT_EQ(index.Acquire()->size(), entries.size() - removed);
}

/// Readers acquire and query snapshots while a writer churns — the
/// TSan-labeled guarantee that the read path is safe without locks.
TEST(EpochIndexTest, ConcurrentReadersSeeConsistentSnapshots) {
  Rng rng(4);
  std::vector<Entry> alive = RandomRectEntries(200, &rng, 0.05);
  EpochIndex index = EpochIndex::BulkLoad(alive, 16, 32);
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&index, &stop, &reads, t] {
      Rng reader_rng(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = index.Acquire();
        const size_t snapshot_size = snap->size();
        // A snapshot is internally consistent: a full-space range count
        // equals its size no matter what the writer does meanwhile.
        ASSERT_EQ(oracle::RangeHits(*snap, kSpace).size(), snapshot_size);
        const Point q = reader_rng.PointIn(kSpace);
        auto nn = snap->KNearest(q, 3);
        ASSERT_LE(nn.size(), std::min<size_t>(3, snapshot_size));
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int round = 0; round < 50; ++round) {
    Entry e = RandomRectEntries(1, &rng, 0.05, 5000 + round)[0];
    index.Insert(e.box, e.id);
    const size_t victim = static_cast<size_t>(
        rng.Uniform(0.0, static_cast<double>(alive.size())));
    if (index.Remove(alive[victim].box, alive[victim].id)) {
      alive.erase(alive.begin() + static_cast<ptrdiff_t>(victim));
    }
  }
  // Let the readers observe the final state too.
  while (reads.load(std::memory_order_relaxed) < 100) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_GE(index.stats().published, 51u);
}

}  // namespace
}  // namespace casper::spatial
