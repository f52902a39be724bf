#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/processor/extended_area.h"

/// Step 1 of Algorithm 2 under each filter policy (§6.2), checked
/// through the A_EXT it yields: the filters a policy picks must give
/// exactly the area ComputeExtendedArea builds from the expected
/// per-corner filters.

namespace casper::processor {
namespace {

FilterTarget Filter(const PublicTarget& t) { return {t.id, t.box()}; }

std::vector<PublicTarget> CornerTargets() {
  // One point target near each corner of the unit square.
  return {{0, {0.05, 0.05}}, {1, {0.95, 0.05}}, {2, {0.95, 0.95}},
          {3, {0.05, 0.95}}};
}

TEST(FilterPolicyTest, FourFiltersPickPerCornerNearest) {
  const Rect cloak(0.2, 0.2, 0.8, 0.8);
  const auto t = CornerTargets();
  const PublicTargetStore store(t);
  auto area = ComputeExtendedAreaForPolicy(PublicTargetStore::Snapshot(store),
                                           cloak, FilterPolicy::kFourFilters);
  ASSERT_TRUE(area.ok());
  EXPECT_EQ(*area, ComputeExtendedArea(cloak, {Filter(t[0]), Filter(t[1]),
                                               Filter(t[2]), Filter(t[3])}));
}

TEST(FilterPolicyTest, OneFilterAssignsCenterNearestEverywhere) {
  const Rect cloak(0.2, 0.2, 0.8, 0.8);
  auto targets = CornerTargets();
  targets.push_back({9, {0.5, 0.51}});  // Nearest to center.
  const PublicTargetStore store(targets);
  auto area = ComputeExtendedAreaForPolicy(PublicTargetStore::Snapshot(store),
                                           cloak, FilterPolicy::kOneFilter);
  ASSERT_TRUE(area.ok());
  const FilterTarget f = Filter(targets.back());
  EXPECT_EQ(*area, ComputeExtendedArea(cloak, {f, f, f, f}));
}

TEST(FilterPolicyTest, TwoFiltersAnchorOppositeCorners) {
  // v0 and v2 are anchored by their nearest targets; v1 and v3 take
  // whichever assignment of the two anchors gives the smallest A_EXT.
  const Rect cloak(0.2, 0.2, 0.8, 0.8);
  const std::vector<PublicTarget> targets = {{0, {0.2, 0.1}},
                                             {2, {0.85, 0.85}}};
  const PublicTargetStore store(targets);
  auto area = ComputeExtendedAreaForPolicy(PublicTargetStore::Snapshot(store),
                                           cloak, FilterPolicy::kTwoFilters);
  ASSERT_TRUE(area.ok());
  const FilterTarget f0 = Filter(targets[0]);
  const FilterTarget f2 = Filter(targets[1]);
  ExtendedArea best;
  for (const FilterTarget& f1 : {f0, f2}) {
    for (const FilterTarget& f3 : {f0, f2}) {
      const ExtendedArea a = ComputeExtendedArea(cloak, {f0, f1, f2, f3});
      EXPECT_LE(area->a_ext.Area(), a.a_ext.Area());
      if (best.a_ext.is_empty() || a.a_ext.Area() < best.a_ext.Area()) {
        best = a;
      }
    }
  }
  EXPECT_EQ(*area, best);
}

TEST(FilterPolicyTest, EmptyCloakRejected) {
  const PublicTargetStore store(CornerTargets());
  auto area = ComputeExtendedAreaForPolicy(PublicTargetStore::Snapshot(store),
                                           Rect(), FilterPolicy::kFourFilters);
  EXPECT_EQ(area.status().code(), StatusCode::kInvalidArgument);
}

TEST(FilterPolicyTest, EmptyStorePropagates) {
  const PublicTargetStore empty;
  EXPECT_EQ(ComputeExtendedAreaForPolicy(PublicTargetStore::Snapshot(empty),
                                         Rect(0, 0, 1, 1),
                                         FilterPolicy::kFourFilters)
                .status()
                .code(),
            StatusCode::kNotFound);
  // A store whose every record is excluded has no filter either.
  const PrivateTargetStore self(
      std::vector<PrivateTarget>{{4, Rect(0.1, 0.1, 0.2, 0.2)}});
  EXPECT_EQ(ComputeExtendedAreaForPolicy(PrivateTargetStore::Snapshot(self),
                                         Rect(0, 0, 1, 1),
                                         FilterPolicy::kOneFilter, 4)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(FilterPolicyTest, FilterUpperBoundsVertexNNDistance) {
  // Whatever the policy, both edges at a vertex v_i must extend at least
  // as far as the true MaxDist-nearest target of v_i — that is what the
  // inclusiveness proof leans on.
  Rng rng(5);
  std::vector<PrivateTarget> targets;
  for (uint64_t i = 0; i < 50; ++i) {
    const Point c = rng.PointIn(Rect(0, 0, 1, 1));
    targets.push_back({i, Rect(c.x, c.y, std::min(c.x + 0.05, 1.0),
                               std::min(c.y + 0.05, 1.0))});
  }
  const PrivateTargetStore store(targets);
  const PrivateTargetStore::Snapshot snapshot(store);
  for (int trial = 0; trial < 50; ++trial) {
    const Point c = rng.PointIn(Rect(0.1, 0.1, 0.7, 0.7));
    const Rect cloak(c.x, c.y, c.x + 0.2, c.y + 0.2);
    for (FilterPolicy policy :
         {FilterPolicy::kOneFilter, FilterPolicy::kTwoFilters,
          FilterPolicy::kFourFilters}) {
      auto area = ComputeExtendedAreaForPolicy(snapshot, cloak, policy);
      ASSERT_TRUE(area.ok());
      const auto corners = cloak.Corners();
      for (size_t i = 0; i < 4; ++i) {
        double true_nn = 1e300;
        for (const auto& t : targets) {
          true_nn = std::min(true_nn, MaxDist(corners[i], t.region));
        }
        EXPECT_GE(area->edges[i].max_d + 1e-12, true_nn);
        EXPECT_GE(area->edges[(i + 3) % 4].max_d + 1e-12, true_nn);
      }
    }
  }
}

}  // namespace
}  // namespace casper::processor
