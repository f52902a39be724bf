#include "src/processor/target_store.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"

namespace casper::processor {
namespace {

std::vector<PublicTarget> SomeTargets() {
  return {{0, {0.1, 0.1}}, {1, {0.9, 0.9}}, {2, {0.5, 0.5}}, {3, {0.9, 0.1}}};
}

using PublicSnapshot = PublicTargetStore::Snapshot;
using PrivateSnapshot = PrivateTargetStore::Snapshot;

TEST(PublicTargetStoreTest, NearestAndRange) {
  const PublicSnapshot store{PublicTargetStore(SomeTargets())};
  EXPECT_EQ(store.size(), 4u);

  auto nn = store.KNearest({0.45, 0.55}, 1);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 2u);

  auto in_range = store.Overlapping(Rect(0.0, 0.0, 0.5, 0.5));
  std::vector<uint64_t> ids;
  for (const auto& t : in_range) ids.push_back(t.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint64_t>{0, 2}));
}

TEST(PublicTargetStoreTest, EmptyStore) {
  const PublicSnapshot store{PublicTargetStore()};
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.KNearest({0.5, 0.5}, 1).empty());
  EXPECT_TRUE(store.Overlapping(Rect(0, 0, 1, 1)).empty());
}

TEST(PublicTargetStoreTest, InsertRemove) {
  PublicTargetStore store;
  store.Insert({7, {0.3, 0.3}});
  EXPECT_EQ(PublicSnapshot(store).size(), 1u);
  EXPECT_TRUE(store.Remove({7, {0.3, 0.3}}));
  EXPECT_FALSE(store.Remove({7, {0.3, 0.3}}));
  EXPECT_TRUE(PublicSnapshot(store).empty());
}

TEST(PublicTargetStoreTest, SnapshotPinsOneEpoch) {
  PublicTargetStore store(SomeTargets());
  const PublicSnapshot before(store);
  store.Insert({7, {0.46, 0.54}});
  ASSERT_TRUE(store.Remove({2, {0.5, 0.5}}));
  const PublicSnapshot after(store);

  // The writer moved on; the pinned snapshot still answers from the
  // epoch it was taken at, and the stamps tell the two apart.
  EXPECT_NE(before.epoch(), after.epoch());
  EXPECT_EQ(before.size(), 4u);
  EXPECT_EQ(before.KNearest({0.45, 0.55}, 1)[0].id, 2u);
  EXPECT_EQ(before.Overlapping(Rect(0.4, 0.4, 0.6, 0.6)).size(), 1u);
  EXPECT_EQ(after.KNearest({0.45, 0.55}, 1)[0].id, 7u);
}

TEST(PublicTargetStoreTest, KNearestOrdered) {
  const PublicTargetStore store(SomeTargets());
  auto knn = PublicSnapshot(store).KNearest({0.0, 0.0}, 3);
  ASSERT_EQ(knn.size(), 3u);
  EXPECT_EQ(knn[0].id, 0u);
  EXPECT_EQ(knn[1].id, 2u);
}

TEST(PrivateTargetStoreTest, NearestByMaxDist) {
  // A large region close by vs a tiny region slightly farther: MaxDist
  // ranks by the furthest corner, so the tiny one can win.
  PrivateTargetStore store(std::vector<PrivateTarget>{
      {0, Rect(0.1, 0.1, 0.9, 0.9)},   // Huge: far corner ~ (0.9, 0.9).
      {1, Rect(0.3, 0.3, 0.32, 0.32)}  // Tiny, near the query.
  });
  auto nn = PrivateSnapshot(store).KNearest({0.25, 0.25}, 1);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 1u);
}

TEST(PrivateTargetStoreTest, ExcludedIdLeavesNoTwinBehind) {
  // Two regions under the excluded id 7 are the two nearest to the
  // probe; the probe must still reach past both of them to id 9.
  PrivateTargetStore store(std::vector<PrivateTarget>{
      {7, Rect(0.1, 0.1, 0.2, 0.2)},
      {7, Rect(0.12, 0.12, 0.22, 0.22)},
      {9, Rect(0.6, 0.6, 0.7, 0.7)},
  });
  const PrivateSnapshot snapshot(store);
  const auto nn = snapshot.KNearest({0, 0}, 1, TargetId{7});
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 9u);
  // Asked for more than the eligible records: all of them, no twin.
  EXPECT_EQ(snapshot.KNearest({0, 0}, 3, TargetId{7}),
            (std::vector<PrivateTarget>{{9, Rect(0.6, 0.6, 0.7, 0.7)}}));
  EXPECT_EQ(snapshot.KNearest({0, 0}, 1, TargetId{9})[0].id, 7u);
  const PrivateTargetStore lone(
      std::vector<PrivateTarget>{{7, Rect(0.1, 0.1, 0.2, 0.2)}});
  EXPECT_TRUE(PrivateSnapshot(lone).KNearest({0, 0}, 1, TargetId{7}).empty());
}

TEST(PrivateTargetStoreTest, OverlappingClosedBoundaries) {
  PrivateTargetStore store(std::vector<PrivateTarget>{
      {0, Rect(0.0, 0.0, 0.2, 0.2)},
      {1, Rect(0.2, 0.2, 0.4, 0.4)},  // Touches the query corner.
      {2, Rect(0.5, 0.5, 0.7, 0.7)},
  });
  auto hits = PrivateSnapshot(store).Overlapping(Rect(0.1, 0.1, 0.2, 0.2));
  std::vector<uint64_t> ids;
  for (const auto& t : hits) ids.push_back(t.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint64_t>{0, 1}));
}

/// The records of `snapshot` overlapping `window` with at least
/// `fraction` of their own area inside it: a check of OverlapFraction
/// over the range read. Algorithm 2's own x% admission (step 4) is
/// pinned by PrivateNNPrivateTest.OverlapThresholdAdmitsAtLeastX.
size_t OverlappingAtLeast(const PrivateSnapshot& snapshot, const Rect& window,
                          double fraction) {
  size_t n = 0;
  snapshot.ForEachOverlapping(window, [&](const PrivateTarget& t) {
    if (OverlapFraction(t.region, window) >= fraction) ++n;
  });
  return n;
}

TEST(PrivateTargetStoreTest, OverlappingAtLeastThresholds) {
  PrivateTargetStore store(std::vector<PrivateTarget>{
      {0, Rect(0.0, 0.0, 1.0, 1.0)},  // 25% inside the window below.
      {1, Rect(0.0, 0.0, 0.5, 0.5)},  // 100% inside.
  });
  const Rect window(0.0, 0.0, 0.5, 0.5);
  const PrivateSnapshot snapshot(store);
  EXPECT_EQ(OverlappingAtLeast(snapshot, window, 0.0), 2u);
  EXPECT_EQ(OverlappingAtLeast(snapshot, window, 0.3), 1u);
  EXPECT_EQ(OverlappingAtLeast(snapshot, window, 1.0), 1u);
}

TEST(PrivateTargetStoreTest, DegenerateRegionCountsAsFullOverlap) {
  PrivateTargetStore store;
  store.Insert({0, Rect::FromPoint({0.25, 0.25})});
  EXPECT_EQ(OverlappingAtLeast(store, Rect(0, 0, 0.5, 0.5), 1.0), 1u);
}

TEST(PrivateTargetStoreTest, EmptyStore) {
  const PrivateSnapshot store{PrivateTargetStore()};
  EXPECT_TRUE(store.KNearest({0, 0}, 1).empty());
  EXPECT_TRUE(store.Overlapping(Rect(0, 0, 1, 1)).empty());
}

TEST(PrivateTargetStoreTest, MaxDistNearestMatchesBruteForce) {
  Rng rng(31);
  const Rect space(0, 0, 1, 1);
  std::vector<PrivateTarget> targets;
  for (uint64_t i = 0; i < 200; ++i) {
    const Point c = rng.PointIn(space);
    targets.push_back(
        {i, Rect(c.x, c.y, std::min(c.x + rng.Uniform(0, 0.1), 1.0),
                 std::min(c.y + rng.Uniform(0, 0.1), 1.0))});
  }
  const PrivateSnapshot store{PrivateTargetStore(targets)};
  for (int trial = 0; trial < 50; ++trial) {
    const Point q = rng.PointIn(space);
    auto nn = store.KNearest(q, 1);
    ASSERT_EQ(nn.size(), 1u);
    double best = 1e300;
    for (const auto& t : targets) best = std::min(best, MaxDist(q, t.region));
    EXPECT_NEAR(MaxDist(q, nn[0].region), best, 1e-12);
  }
}

}  // namespace
}  // namespace casper::processor
