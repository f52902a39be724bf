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

  auto nn = store.Nearest({0.45, 0.55});
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->id, 2u);

  auto in_range = store.RangeQuery(Rect(0.0, 0.0, 0.5, 0.5));
  std::vector<uint64_t> ids;
  for (const auto& t : in_range) ids.push_back(t.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint64_t>{0, 2}));
}

TEST(PublicTargetStoreTest, EmptyStore) {
  const PublicSnapshot store{PublicTargetStore()};
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.Nearest({0.5, 0.5}).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.RangeQuery(Rect(0, 0, 1, 1)).empty());
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
  EXPECT_EQ(before.Nearest({0.45, 0.55})->id, 2u);
  EXPECT_EQ(before.RangeQuery(Rect(0.4, 0.4, 0.6, 0.6)).size(), 1u);
  EXPECT_EQ(after.Nearest({0.45, 0.55})->id, 7u);
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
  auto nn = PrivateSnapshot(store).NearestByMaxDist({0.25, 0.25});
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->id, 1u);
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

TEST(PrivateTargetStoreTest, OverlappingAtLeastThresholds) {
  PrivateTargetStore store(std::vector<PrivateTarget>{
      {0, Rect(0.0, 0.0, 1.0, 1.0)},  // 25% inside the window below.
      {1, Rect(0.0, 0.0, 0.5, 0.5)},  // 100% inside.
  });
  const Rect window(0.0, 0.0, 0.5, 0.5);
  const PrivateSnapshot snapshot(store);
  EXPECT_EQ(snapshot.OverlappingAtLeast(window, 0.0).size(), 2u);
  EXPECT_EQ(snapshot.OverlappingAtLeast(window, 0.3).size(), 1u);
  EXPECT_EQ(snapshot.OverlappingAtLeast(window, 1.0).size(), 1u);
}

TEST(PrivateTargetStoreTest, DegenerateRegionCountsAsFullOverlap) {
  PrivateTargetStore store;
  store.Insert({0, Rect::FromPoint({0.25, 0.25})});
  EXPECT_EQ(
      PrivateSnapshot(store).OverlappingAtLeast(Rect(0, 0, 0.5, 0.5), 1.0)
          .size(),
      1u);
}

TEST(PrivateTargetStoreTest, EmptyStore) {
  const PrivateSnapshot store{PrivateTargetStore()};
  EXPECT_EQ(store.NearestByMaxDist({0, 0}).status().code(),
            StatusCode::kNotFound);
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
    auto nn = store.NearestByMaxDist(q);
    ASSERT_TRUE(nn.ok());
    double best = 1e300;
    for (const auto& t : targets) best = std::min(best, MaxDist(q, t.region));
    EXPECT_NEAR(MaxDist(q, nn->region), best, 1e-12);
  }
}

}  // namespace
}  // namespace casper::processor
