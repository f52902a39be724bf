#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "src/common/codec.h"
#include "src/spatial/epoch_index.h"
#include "src/storage/memory_storage.h"
#include "tests/spatial_oracle.h"

/// EpochIndex checkpoint/restore: a restored index must answer every
/// query exactly like the index it was checkpointed from — including
/// when the checkpoint caught a non-empty delta/tombstone overlay — and
/// must keep working as a writable index afterwards. An overlay whose
/// tombstones the base cannot back must fail to restore.

namespace casper::spatial {
namespace {

Rect BoxAt(std::mt19937& rng) {
  std::uniform_real_distribution<double> coord(0.0, 500.0);
  std::uniform_real_distribution<double> extent(0.0, 5.0);
  const double x = coord(rng), y = coord(rng);
  return Rect(x, y, x + extent(rng), y + extent(rng));
}

/// Differential probe battery over both indexes' current snapshots.
void ExpectIndexesAnswerIdentically(const EpochIndex& want_index,
                                    const EpochIndex& got_index,
                                    uint32_t seed) {
  const auto want = want_index.Acquire();
  const auto got = got_index.Acquire();
  ASSERT_EQ(got->size(), want->size());

  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coord(-20.0, 520.0);
  for (int probe = 0; probe < 60; ++probe) {
    const Point q{coord(rng), coord(rng)};
    const Rect window(q.x, q.y, q.x + 80.0, q.y + 80.0);

    const auto want_hits = oracle::RangeHits(*want, window);
    const auto got_hits = oracle::RangeHits(*got, window);
    ASSERT_EQ(got_hits.size(), want_hits.size());
    for (size_t i = 0; i < want_hits.size(); ++i)
      EXPECT_EQ(got_hits[i].id, want_hits[i].id);

    for (const size_t k : {size_t{1}, size_t{5}}) {
      EXPECT_EQ(got->KNearest(q, k), want->KNearest(q, k));
    }
  }
}

/// Build an index by replaying a randomized insert/remove workload.
/// `rebuild_threshold` tunes how much of the state lives in the overlay
/// at checkpoint time.
EpochIndex BuildWorkloadIndex(size_t ops, size_t rebuild_threshold,
                              uint32_t seed) {
  EpochIndex index(8, rebuild_threshold);
  std::mt19937 rng(seed);
  std::vector<EpochIndex::Entry> live;
  for (size_t op = 0; op < ops; ++op) {
    const bool remove = !live.empty() && rng() % 4 == 0;
    if (remove) {
      const size_t victim = rng() % live.size();
      EXPECT_TRUE(index.Remove(live[victim].box, live[victim].id));
      live.erase(live.begin() + victim);
    } else {
      const EpochIndex::Entry e{BoxAt(rng), 5000 + op};
      index.Insert(e.box, e.id);
      live.push_back(e);
    }
  }
  return index;
}

class EpochIndexPersistTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EpochIndexPersistTest, RestoredIndexAnswersIdentically) {
  // The parameter is the rebuild threshold: 1 keeps the overlay empty
  // (pure base), 64 leaves a mid-size overlay, 100000 never rebuilds so
  // the whole workload lives in the delta.
  const EpochIndex index = BuildWorkloadIndex(800, GetParam(), 101);

  storage::MemoryStorageManager sm;
  auto root = index.Checkpoint(&sm);
  ASSERT_TRUE(root.ok()) << root.status().ToString();

  auto restored = EpochIndex::Restore(&sm, *root);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->size(), index.size());
  EXPECT_EQ(restored->stats().delta_entries, index.stats().delta_entries);
  EXPECT_EQ(restored->stats().tombstones, index.stats().tombstones);
  ExpectIndexesAnswerIdentically(index, *restored, 211);
}

INSTANTIATE_TEST_SUITE_P(OverlaySizes, EpochIndexPersistTest,
                         ::testing::Values(1, 64, 100000),
                         [](const auto& info) {
                           return "Threshold" + std::to_string(info.param);
                         });

TEST(EpochIndexPersistSingleTest, EmptyIndexRoundTrip) {
  const EpochIndex index(16, 128);
  storage::MemoryStorageManager sm;
  auto root = index.Checkpoint(&sm);
  ASSERT_TRUE(root.ok());
  auto restored = EpochIndex::Restore(&sm, *root);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->empty());
  EXPECT_TRUE(
      oracle::RangeHits(*restored->Acquire(), Rect(-1e9, -1e9, 1e9, 1e9))
          .empty());
}

TEST(EpochIndexPersistSingleTest, RestoredIndexStaysWritable) {
  EpochIndex index = BuildWorkloadIndex(200, 64, 303);
  storage::MemoryStorageManager sm;
  auto root = index.Checkpoint(&sm);
  ASSERT_TRUE(root.ok());
  auto restored = EpochIndex::Restore(&sm, *root);
  ASSERT_TRUE(restored.ok());

  // Mutate BOTH indexes identically; they must stay in lockstep.
  std::mt19937 rng(909);
  for (int i = 0; i < 150; ++i) {
    const Rect box = BoxAt(rng);
    const uint64_t id = 90000 + i;
    index.Insert(box, id);
    restored->Insert(box, id);
  }
  ExpectIndexesAnswerIdentically(index, *restored, 911);
}

TEST(EpochIndexPersistSingleTest, RestoredIndexMergesInLockstep) {
  // 3,000 moves at threshold 64 leave a base that has been through many
  // merge repacks since its last full build.
  EpochIndex index = BuildWorkloadIndex(3000, 64, 505);
  ASSERT_GT(index.stats().rebuilds, 20u);
  storage::MemoryStorageManager sm;
  auto root = index.Checkpoint(&sm);
  ASSERT_TRUE(root.ok());
  auto restored = EpochIndex::Restore(&sm, *root);
  ASSERT_TRUE(restored.ok());

  // Move entries in both indexes identically, through more merges; the
  // repacked bases must match row for row, so even the raw range order
  // stays equal.
  std::mt19937 rng(707);
  std::vector<EpochIndex::Entry> live =
      oracle::RangeHits(*index.Acquire(), Rect(-1e9, -1e9, 1e9, 1e9));
  const uint64_t rebuilds = index.stats().rebuilds;
  const uint64_t restored_rebuilds = restored->stats().rebuilds;
  for (int round = 0; round < 4; ++round) {
    for (int move = 0; move < 200; ++move) {
      EpochIndex::Entry& e = live[rng() % live.size()];
      const Rect box = BoxAt(rng);
      ASSERT_TRUE(index.Remove(e.box, e.id));
      ASSERT_TRUE(restored->Remove(e.box, e.id));
      index.Insert(box, e.id);
      restored->Insert(box, e.id);
      e.box = box;
    }
    ExpectIndexesAnswerIdentically(index, *restored, 800 + round);
  }
  EXPECT_GE(index.stats().rebuilds - rebuilds, 12u);
  EXPECT_EQ(restored->stats().rebuilds - restored_rebuilds,
            index.stats().rebuilds - rebuilds);
}

TEST(EpochIndexPersistSingleTest, GarbageRootFails) {
  storage::MemoryStorageManager sm;
  auto id = sm.Store(storage::kNoPage, "not an epoch checkpoint");
  ASSERT_TRUE(id.ok());
  const auto restored = EpochIndex::Restore(&sm, *id);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

/// Writes an EPX1 overlay page by hand: no delta, `dead` as the
/// tombstones, over the packed base at `base_root`.
storage::PageId WriteOverlay(storage::MemoryStorageManager* sm,
                             storage::PageId base_root,
                             const std::vector<EpochIndex::Entry>& dead) {
  wire::Writer w;
  w.U32(0x31585045u);  // "EPX1"
  w.I32(16);           // max_entries
  w.U64(128);          // rebuild_threshold
  w.U64(base_root);
  w.Count(0);
  w.Count(dead.size());
  for (const EpochIndex::Entry& e : dead) {
    w.R(e.box);
    w.U64(e.id);
  }
  auto id = sm->Store(storage::kNoPage, w.Take());
  EXPECT_TRUE(id.ok());
  return id.ok() ? *id : storage::kNoPage;
}

TEST(EpochIndexPersistSingleTest, DeltaBoxThatIsNotStorableFails) {
  for (const Rect& box : {Rect(), Rect(0, 0, std::nan(""), 1)}) {
    storage::MemoryStorageManager sm;
    wire::Writer w;
    w.U32(0x31585045u);  // "EPX1"
    w.I32(16);           // max_entries
    w.U64(128);          // rebuild_threshold
    w.U64(storage::kNoPage);
    w.Count(1);
    w.R(box);
    w.U64(9);
    w.Count(0);
    auto id = sm.Store(storage::kNoPage, w.Take());
    ASSERT_TRUE(id.ok());
    const auto restored = EpochIndex::Restore(&sm, *id);
    EXPECT_FALSE(restored.ok()) << box.ToString();
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
}

class EpochIndexTombstoneRestoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 50 entries, one of them stored twice: id 7 at `twin_`.
    std::vector<EpochIndex::Entry> entries;
    std::mt19937 rng(404);
    for (uint64_t id = 0; id < 50; ++id) entries.push_back({BoxAt(rng), id});
    entries.push_back({twin_, 7});
    entries[7].box = twin_;
    auto root = FlatRTree::Build(entries, 16).SaveTo(&sm_);
    ASSERT_TRUE(root.ok());
    base_root_ = *root;
  }

  Result<EpochIndex> RestoreWith(const std::vector<EpochIndex::Entry>& dead) {
    return EpochIndex::Restore(&sm_, WriteOverlay(&sm_, base_root_, dead));
  }

  const Rect twin_{600, 600, 601, 601};
  storage::MemoryStorageManager sm_;
  storage::PageId base_root_ = storage::kNoPage;
};

TEST_F(EpochIndexTombstoneRestoreTest, EachTwinCopyTakesOneTombstone) {
  auto restored = RestoreWith({{twin_, 7}, {twin_, 7}});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->size(), 49u);
  EXPECT_EQ(restored->stats().tombstones, 2u);
  EXPECT_TRUE(oracle::RangeHits(*restored->Acquire(), twin_).empty());
}

TEST_F(EpochIndexTombstoneRestoreTest, TombstoneWithNoBaseEntryFails) {
  // Right box, wrong id: the base holds no such (box, id).
  const auto restored = RestoreWith({{twin_, 8}});
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EpochIndexTombstoneRestoreTest, MoreTombstonesThanTwinCopiesFails) {
  const auto restored = RestoreWith({{twin_, 7}, {twin_, 7}, {twin_, 7}});
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace casper::spatial
