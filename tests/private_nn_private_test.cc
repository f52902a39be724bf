#include "src/processor/private_nn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

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

/// The requester's id 7 holds two regions, and a buddy holds id 9.
PrivateTargetStore TwinRequesterStore() {
  return PrivateTargetStore(std::vector<PrivateTarget>{
      {7, Rect(0.1, 0.1, 0.2, 0.2)},
      {7, Rect(0.12, 0.12, 0.22, 0.22)},
      {9, Rect(0.6, 0.6, 0.7, 0.7)},
  });
}

Result<PrivateCandidateList> BuddyQuery(const Rect& cloak) {
  PrivateNNOptions options;
  options.exclude_id = 7;
  return PrivateNearestNeighborOverPrivate(TwinRequesterStore(), cloak,
                                           options);
}

const std::vector<PrivateTarget> kBuddy = {{9, Rect(0.6, 0.6, 0.7, 0.7)}};

TEST(PrivateNNPrivateTest, ExcludedTwinsNeverFilter) {
  // Both regions of id 7 are the two nearest to every corner of this
  // cloak: the filters must reach past them to id 9.
  auto result = BuddyQuery(Rect(0.0, 0.0, 0.05, 0.05));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->candidates, kBuddy);
}

TEST(PrivateNNPrivateTest, ExcludedIdDropsEveryTwin) {
  // Id 9 filters every corner here, and A_EXT overlaps both regions of
  // id 7: neither may be a candidate.
  auto result = BuddyQuery(Rect(0.45, 0.45, 0.5, 0.5));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->area.a_ext.Intersects(Rect(0.1, 0.1, 0.2, 0.2)));
  EXPECT_EQ(result->candidates, kBuddy);
}

/// Step 4's list as the x% policy defines it: every record overlapping
/// A_EXT, minus `exclude`, with at least `fraction` of its own area
/// inside A_EXT, in canonical order.
std::vector<PrivateTarget> AdmittedAtLeast(
    const PrivateTargetStore::Snapshot& store, const Rect& a_ext,
    double fraction, std::optional<TargetId> exclude) {
  std::vector<PrivateTarget> kept;
  for (const PrivateTarget& t : store.Overlapping(a_ext)) {
    if (t.id != exclude && OverlapFraction(t.region, a_ext) >= fraction) {
      kept.push_back(t);
    }
  }
  Canonicalize(&kept);
  return kept;
}

std::vector<TargetId> Ids(const std::vector<PrivateTarget>& targets) {
  std::vector<TargetId> ids;
  for (const PrivateTarget& t : targets) ids.push_back(t.id);
  return ids;
}

TEST(PrivateNNPrivateTest, OverlapThresholdAdmitsAtLeastX) {
  // Dyadic geometry, so every fraction below is exact. The one filter
  // is the point at the cloak center; each cloak corner lies 0.3125
  // from it (a 3-4-5 triangle), so A_EXT is the cloak grown by 0.3125
  // on every side.
  const Rect cloak(0.3125, 0.25, 0.6875, 0.75);
  const Rect a_ext(0.0, -0.0625, 1.0, 1.0625);
  const PrivateTargetStore store(std::vector<PrivateTarget>{
      {1, Rect::FromPoint({0.5, 0.5})},           // Degenerate, the filter.
      {2, Rect::FromPoint({1.0, 0.5})},           // Degenerate, on the edge.
      {3, Rect(0.0, 0.0, 0.125, 0.125)},          // 100%, outside the cloak.
      {4, Rect(0.875, 0.5, 1.125, 0.625)},        // 50%.
      {5, Rect(0.9375, 0.25, 1.1875, 0.375)},     // 25%.
      {6, Rect(-0.09375, 0.5, 0.15625, 0.625)},   // 62.5%.
      {7, Rect(0.375, 0.375, 0.4375, 0.4375)},    // Excluded, 100%.
      {7, Rect(0.5, 0.875, 0.625, 1.0)},          // Excluded twin, 100%.
      {8, Rect(0.25, 1.125, 0.375, 1.25)},        // Outside A_EXT.
      {9, Rect(0.5625, 0.125, 1.0625, 0.25)},     // 87.5%.
  });
  const PrivateTargetStore::Snapshot snapshot(store);
  const std::pair<double, std::vector<TargetId>> kCases[] = {
      {0.0, {1, 2, 3, 4, 5, 6, 9}}, {0.3, {1, 2, 3, 4, 6, 9}},
      {0.5, {1, 2, 3, 4, 6, 9}},    {0.8, {1, 2, 3, 9}},
      {1.0, {1, 2, 3}},
  };
  for (const auto& [fraction, ids] : kCases) {
    PrivateNNOptions options;
    options.policy = FilterPolicy::kOneFilter;
    options.exclude_id = 7;
    options.min_overlap_fraction = fraction;
    auto result = PrivateNearestNeighborOverPrivate(snapshot, cloak, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->area.a_ext, a_ext) << "x=" << fraction;
    EXPECT_EQ(Ids(result->candidates), ids) << "x=" << fraction;
    EXPECT_EQ(result->candidates,
              AdmittedAtLeast(snapshot, a_ext, fraction, TargetId{7}))
        << "x=" << fraction;
  }
}

TEST(PrivateNNPrivateTest, OverlapThresholdShrinksList) {
  Rng rng(11);
  auto targets = RandomRegions(300, &rng, Rect(0, 0, 1, 1), 0.2);
  PrivateTargetStore store(targets);
  const PrivateTargetStore::Snapshot snapshot(store);
  const Rect cloak(0.4, 0.4, 0.6, 0.6);
  PrivateNNOptions loose;
  PrivateNNOptions strict;
  strict.min_overlap_fraction = 0.8;
  auto a = PrivateNearestNeighborOverPrivate(snapshot, cloak, loose);
  auto b = PrivateNearestNeighborOverPrivate(snapshot, cloak, strict);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(b->size(), a->size());
  EXPECT_EQ(b->area, a->area);
  EXPECT_EQ(a->candidates,
            AdmittedAtLeast(snapshot, a->area.a_ext, 0.0, std::nullopt));
  EXPECT_EQ(b->candidates,
            AdmittedAtLeast(snapshot, b->area.a_ext, 0.8, std::nullopt));
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
