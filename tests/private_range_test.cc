#include "src/processor/private_range.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"

namespace casper::processor {
namespace {

TEST(PrivateRangeTest, InclusiveForAllUserPositions) {
  Rng rng(1);
  const Rect space(0, 0, 1, 1);
  std::vector<PublicTarget> targets;
  for (uint64_t i = 0; i < 400; ++i) {
    targets.push_back({i, rng.PointIn(space)});
  }
  PublicTargetStore store(targets);

  const Rect cloak(0.4, 0.3, 0.6, 0.5);
  const double radius = 0.15;
  auto result = PrivateRangeOverPublic(store, cloak, radius);
  ASSERT_TRUE(result.ok());
  std::vector<uint64_t> ids;
  for (const auto& t : result->candidates) ids.push_back(t.id);
  std::sort(ids.begin(), ids.end());

  for (int trial = 0; trial < 200; ++trial) {
    const Point user = rng.PointIn(cloak);
    for (const auto& t : targets) {
      if (Distance(user, t.position) <= radius) {
        EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), t.id));
      }
    }
  }
}

TEST(PrivateRangeTest, WindowIsCloakExpandedByRadius) {
  PublicTargetStore store(std::vector<PublicTarget>{{0, {0.5, 0.5}}});
  const Rect cloak(0.4, 0.4, 0.6, 0.6);
  auto result = PrivateRangeOverPublic(store, cloak, 0.1);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->search_window.min.x, 0.3, 1e-12);
  EXPECT_NEAR(result->search_window.min.y, 0.3, 1e-12);
  EXPECT_NEAR(result->search_window.max.x, 0.7, 1e-12);
  EXPECT_NEAR(result->search_window.max.y, 0.7, 1e-12);
}

TEST(PrivateRangeTest, ZeroRadiusQueriesCloakOnly) {
  PublicTargetStore store(std::vector<PublicTarget>{
      {0, {0.5, 0.5}}, {1, {0.9, 0.9}}});
  auto result = PrivateRangeOverPublic(store, Rect(0.4, 0.4, 0.6, 0.6), 0.0);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 1u);
  EXPECT_EQ(result->candidates[0].id, 0u);
}

TEST(PrivateRangeTest, ErrorPaths) {
  PublicTargetStore store;
  EXPECT_EQ(PrivateRangeOverPublic(store, Rect(), 0.1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      PrivateRangeOverPublic(store, Rect(0, 0, 1, 1), -0.5).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(PrivateRangeTest, RefineRangeFiltersExactCircle) {
  std::vector<PublicTarget> candidates = {
      {0, {0.5, 0.5}}, {1, {0.8, 0.5}}, {2, {0.5, 0.95}}};
  auto exact = RefineRange(candidates, {0.5, 0.5}, 0.31);
  std::vector<uint64_t> ids;
  for (const auto& t : exact) ids.push_back(t.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint64_t>{0, 1}));
}

TEST(PrivateRangeTest, RefinementNeverAddsCandidates) {
  Rng rng(5);
  std::vector<PublicTarget> targets;
  for (uint64_t i = 0; i < 200; ++i) {
    targets.push_back({i, rng.PointIn(Rect(0, 0, 1, 1))});
  }
  PublicTargetStore store(targets);
  const Rect cloak(0.2, 0.2, 0.5, 0.4);
  auto result = PrivateRangeOverPublic(store, cloak, 0.2);
  ASSERT_TRUE(result.ok());
  const Point user = rng.PointIn(cloak);
  auto exact = RefineRange(result->candidates, user, 0.2);
  EXPECT_LE(exact.size(), result->candidates.size());
}

}  // namespace
}  // namespace casper::processor
