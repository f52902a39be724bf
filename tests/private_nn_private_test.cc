#include "src/processor/private_nn_private.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"

namespace casper::processor {
namespace {

std::vector<PrivateTarget> RandomRegions(size_t n, Rng* rng,
                                         const Rect& space,
                                         double max_extent) {
  std::vector<PrivateTarget> targets;
  for (uint64_t i = 0; i < n; ++i) {
    const Point c = rng->PointIn(space);
    targets.push_back(
        {i, Rect(c.x, c.y, std::min(c.x + rng->Uniform(0, max_extent), 1.0),
                 std::min(c.y + rng->Uniform(0, max_extent), 1.0))});
  }
  return targets;
}

TEST(PrivateNNPrivateTest, BasicQuery) {
  Rng rng(1);
  auto targets = RandomRegions(100, &rng, Rect(0, 0, 1, 1), 0.1);
  PrivateTargetStore store(targets);
  auto result =
      PrivateNearestNeighborOverPrivate(store, Rect(0.4, 0.4, 0.6, 0.6));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->size(), 0u);
  EXPECT_TRUE(result->area.a_ext.Contains(Rect(0.4, 0.4, 0.6, 0.6)));
}

TEST(PrivateNNPrivateTest, ErrorPaths) {
  PrivateTargetStore empty_store;
  EXPECT_EQ(PrivateNearestNeighborOverPrivate(empty_store, Rect(0, 0, 1, 1))
                .status()
                .code(),
            StatusCode::kNotFound);
  PrivateTargetStore store;
  store.Insert({0, Rect(0.4, 0.4, 0.5, 0.5)});
  EXPECT_EQ(PrivateNearestNeighborOverPrivate(store, Rect()).status().code(),
            StatusCode::kInvalidArgument);
  PrivateNNOptions bad;
  bad.min_overlap_fraction = 1.5;
  EXPECT_EQ(PrivateNearestNeighborOverPrivate(store, Rect(0, 0, 1, 1), bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

/// Inclusiveness (Theorem 3) sweep: whatever the true position of each
/// target inside its region and of the user inside the cloak, the
/// user's true nearest target must appear in the candidate list.
struct Params {
  size_t targets;
  double region_extent;
  double cloak_size;
  FilterPolicy policy;
  uint64_t seed;
};

class RegionInclusivenessTest : public ::testing::TestWithParam<Params> {};

TEST_P(RegionInclusivenessTest, TrueNearestAlwaysReturned) {
  const Params params = GetParam();
  Rng rng(params.seed);
  const Rect space(0, 0, 1, 1);
  auto targets = RandomRegions(params.targets, &rng, space,
                               params.region_extent);
  PrivateTargetStore store(targets);

  PrivateNNOptions options;
  options.policy = params.policy;

  for (int trial = 0; trial < 25; ++trial) {
    const double s = params.cloak_size;
    const Point c = rng.PointIn(Rect(0, 0, 1 - s, 1 - s));
    const Rect cloak(c.x, c.y, c.x + s, c.y + s);
    auto result = PrivateNearestNeighborOverPrivate(store, cloak, options);
    ASSERT_TRUE(result.ok());
    std::vector<uint64_t> ids;
    for (const auto& t : result->candidates) ids.push_back(t.id);
    std::sort(ids.begin(), ids.end());

    // Sample true target positions within their regions and true user
    // positions within the cloak; the realized NN must be a candidate.
    for (int realization = 0; realization < 10; ++realization) {
      std::vector<Point> actual(targets.size());
      for (size_t i = 0; i < targets.size(); ++i) {
        actual[i] = rng.PointIn(targets[i].region);
      }
      const Point user = rng.PointIn(cloak);
      uint64_t true_nn = 0;
      double best = 1e300;
      for (size_t i = 0; i < actual.size(); ++i) {
        const double d = SquaredDistance(user, actual[i]);
        if (d < best) {
          best = d;
          true_nn = targets[i].id;
        }
      }
      EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), true_nn))
          << "policy=" << static_cast<int>(params.policy) << " trial="
          << trial;
    }
  }
}

// gtest names each case by dumping the parameter's bytes, padding
// included. A static array has zero padding, so the names stay the same
// from build to build; temporaries would leak stack contents into them.
const Params kSweep[] = {{50, 0.1, 0.2, FilterPolicy::kOneFilter, 1},
                         {50, 0.1, 0.2, FilterPolicy::kTwoFilters, 1},
                         {50, 0.1, 0.2, FilterPolicy::kFourFilters, 1},
                         {200, 0.05, 0.1, FilterPolicy::kFourFilters, 2},
                         {200, 0.3, 0.1, FilterPolicy::kFourFilters, 3},
                         {20, 0.4, 0.5, FilterPolicy::kFourFilters, 4},
                         {500, 0.02, 0.05, FilterPolicy::kTwoFilters, 5},
                         {500, 0.02, 0.05, FilterPolicy::kOneFilter, 6}};

INSTANTIATE_TEST_SUITE_P(Sweep, RegionInclusivenessTest,
                         ::testing::ValuesIn(kSweep));

TEST(PrivateNNPrivateTest, OverlapThresholdShrinksList) {
  Rng rng(11);
  auto targets = RandomRegions(300, &rng, Rect(0, 0, 1, 1), 0.2);
  PrivateTargetStore store(targets);
  const Rect cloak(0.4, 0.4, 0.6, 0.6);
  PrivateNNOptions loose;
  PrivateNNOptions strict;
  strict.min_overlap_fraction = 0.8;
  auto a = PrivateNearestNeighborOverPrivate(store, cloak, loose);
  auto b = PrivateNearestNeighborOverPrivate(store, cloak, strict);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(b->size(), a->size());
}

TEST(PrivateNNPrivateTest, RefineNearestRegionMetrics) {
  std::vector<PrivateTarget> candidates = {
      {0, Rect(0.0, 0.0, 0.1, 0.1)},   // Far but tiny.
      {1, Rect(0.3, 0.3, 1.4, 1.4)}};  // Overlaps the user but sprawls.
  const Point user{0.5, 0.5};
  // Optimistic metric: candidate 1 contains the user (MinDist 0).
  auto opt = RefineNearestRegion(candidates, user, RefineMetric::kMinDist);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(opt->id, 1u);
  // Minimax metric: candidate 0's far corner is closer than 1's.
  auto pes = RefineNearestRegion(candidates, user, RefineMetric::kMaxDist);
  ASSERT_TRUE(pes.ok());
  EXPECT_EQ(pes->id, 0u);
  EXPECT_EQ(RefineNearestRegion({}, user).status().code(),
            StatusCode::kNotFound);
}

TEST(PrivateNNPrivateTest, FourFiltersNeverWorseThanOne) {
  Rng rng(13);
  auto targets = RandomRegions(400, &rng, Rect(0, 0, 1, 1), 0.05);
  PrivateTargetStore store(targets);
  for (int trial = 0; trial < 40; ++trial) {
    const Point c = rng.PointIn(Rect(0.1, 0.1, 0.7, 0.7));
    const Rect cloak(c.x, c.y, c.x + 0.2, c.y + 0.2);
    PrivateNNOptions one;
    one.policy = FilterPolicy::kOneFilter;
    PrivateNNOptions four;
    four.policy = FilterPolicy::kFourFilters;
    auto a = PrivateNearestNeighborOverPrivate(store, cloak, one);
    auto b = PrivateNearestNeighborOverPrivate(store, cloak, four);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_LE(b->area.a_ext.Area(), a->area.a_ext.Area() + 1e-12);
  }
}

}  // namespace
}  // namespace casper::processor
