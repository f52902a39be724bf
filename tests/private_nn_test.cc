#include "src/processor/private_nn.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"

namespace casper::processor {
namespace {

std::vector<PublicTarget> UniformTargets(size_t n, Rng* rng,
                                         const Rect& space) {
  std::vector<PublicTarget> targets;
  for (uint64_t i = 0; i < n; ++i) {
    targets.push_back({i, rng->PointIn(space)});
  }
  return targets;
}

uint64_t BruteNearestId(const std::vector<PublicTarget>& targets,
                        const Point& q) {
  uint64_t best = targets.front().id;
  double best_d = 1e300;
  for (const auto& t : targets) {
    const double d = SquaredDistance(q, t.position);
    if (d < best_d) {
      best_d = d;
      best = t.id;
    }
  }
  return best;
}

TEST(PrivateNNTest, BasicCandidateList) {
  Rng rng(1);
  const Rect space(0, 0, 1, 1);
  auto targets = UniformTargets(200, &rng, space);
  PublicTargetStore store(targets);

  const Rect cloak(0.4, 0.4, 0.6, 0.6);
  auto result = PrivateNearestNeighbor(store, cloak);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->size(), 0u);
  EXPECT_LT(result->size(), targets.size());
  EXPECT_TRUE(result->area.a_ext.Contains(cloak));
}

TEST(PrivateNNTest, ErrorPaths) {
  PublicTargetStore empty_store;
  EXPECT_EQ(PrivateNearestNeighbor(empty_store, Rect(0, 0, 1, 1))
                .status()
                .code(),
            StatusCode::kNotFound);
  PublicTargetStore store(std::vector<PublicTarget>{{0, {0.5, 0.5}}});
  EXPECT_EQ(PrivateNearestNeighbor(store, Rect()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PrivateNNTest, SingleTargetAlwaysInList) {
  PublicTargetStore store(std::vector<PublicTarget>{{0, {0.9, 0.9}}});
  auto result = PrivateNearestNeighbor(store, Rect(0.1, 0.1, 0.2, 0.2));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->candidates[0].id, 0u);
}

TEST(PrivateNNTest, RefineNearestPicksExact) {
  std::vector<PublicTarget> candidates = {
      {0, {0.0, 0.0}}, {1, {0.5, 0.5}}, {2, {1.0, 1.0}}};
  auto best = RefineNearest(candidates, {0.6, 0.6});
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->id, 1u);
  EXPECT_EQ(RefineNearest({}, {0, 0}).status().code(), StatusCode::kNotFound);
}

/// Inclusiveness (Theorem 1) sweep: for every filter policy, every
/// cloak, and every possible user position inside the cloak, the true
/// nearest target must be in the candidate list.
struct InclusionParams {
  size_t targets;
  double cloak_size;
  FilterPolicy policy;
  uint64_t seed;
};

class InclusivenessTest : public ::testing::TestWithParam<InclusionParams> {};

TEST_P(InclusivenessTest, CandidateListContainsTrueNearest) {
  const InclusionParams params = GetParam();
  Rng rng(params.seed);
  const Rect space(0, 0, 1, 1);
  auto targets = UniformTargets(params.targets, &rng, space);
  PublicTargetStore store(targets);

  for (int trial = 0; trial < 40; ++trial) {
    const double s = params.cloak_size;
    const Point c = rng.PointIn(Rect(0, 0, 1 - s, 1 - s));
    const Rect cloak(c.x, c.y, c.x + s, c.y + s);
    auto result = PrivateNearestNeighbor(store, cloak, params.policy);
    ASSERT_TRUE(result.ok());

    std::vector<uint64_t> candidate_ids;
    for (const auto& t : result->candidates) candidate_ids.push_back(t.id);
    std::sort(candidate_ids.begin(), candidate_ids.end());

    // Sample user positions across the cloak, including corners/edges.
    for (int sx = 0; sx <= 6; ++sx) {
      for (int sy = 0; sy <= 6; ++sy) {
        const Point user{cloak.min.x + sx / 6.0 * cloak.width(),
                         cloak.min.y + sy / 6.0 * cloak.height()};
        const uint64_t true_nn = BruteNearestId(targets, user);
        EXPECT_TRUE(std::binary_search(candidate_ids.begin(),
                                       candidate_ids.end(), true_nn))
            << "policy=" << static_cast<int>(params.policy)
            << " user=" << user.x << "," << user.y;
      }
    }
  }
}

// gtest names each case by dumping the parameter's bytes, padding
// included. A static array has zero padding, so the names stay the same
// from build to build; temporaries would leak stack contents into them.
const InclusionParams kSweep[] = {
    {50, 0.1, FilterPolicy::kOneFilter, 1},
    {50, 0.1, FilterPolicy::kTwoFilters, 1},
    {50, 0.1, FilterPolicy::kFourFilters, 1},
    {500, 0.05, FilterPolicy::kOneFilter, 2},
    {500, 0.05, FilterPolicy::kTwoFilters, 2},
    {500, 0.05, FilterPolicy::kFourFilters, 2},
    {2000, 0.2, FilterPolicy::kOneFilter, 3},
    {2000, 0.2, FilterPolicy::kTwoFilters, 3},
    {2000, 0.2, FilterPolicy::kFourFilters, 3},
    {10, 0.5, FilterPolicy::kFourFilters, 4},
    {3, 0.8, FilterPolicy::kFourFilters, 5},
    {100, 0.01, FilterPolicy::kFourFilters, 6}};

INSTANTIATE_TEST_SUITE_P(Sweep, InclusivenessTest,
                         ::testing::ValuesIn(kSweep));

/// Inclusiveness with twin ids: two targets share id 7 and filter the
/// two ends of the cloak's bottom edge, and a third target is the true
/// nearest neighbor of the edge's midpoint. Treating the twins as one
/// filter drops the bisector bound and loses that neighbor from A_EXT.
TEST(PrivateNNTest, TwinIdFiltersKeepTheListInclusive) {
  const std::vector<PublicTarget> targets = {
      {7, {-0.1, 0.0}}, {7, {1.1, 0.0}}, {9, {0.5, -0.5}}};
  PublicTargetStore store(targets);
  const Rect cloak(0, 0, 1, 1);
  for (const FilterPolicy policy :
       {FilterPolicy::kTwoFilters, FilterPolicy::kFourFilters}) {
    auto result = PrivateNearestNeighbor(store, cloak, policy);
    ASSERT_TRUE(result.ok());
    for (int sx = 0; sx <= 10; ++sx) {
      for (int sy = 0; sy <= 10; ++sy) {
        const Point user{sx / 10.0, sy / 10.0};
        const PublicTarget* nearest = &targets.front();
        for (const PublicTarget& t : targets) {
          if (SquaredDistance(user, t.position) <
              SquaredDistance(user, nearest->position)) {
            nearest = &t;
          }
        }
        EXPECT_NE(std::find(result->candidates.begin(),
                            result->candidates.end(), *nearest),
                  result->candidates.end())
            << "policy=" << static_cast<int>(policy) << " user=" << user.x
            << "," << user.y;
      }
    }
  }
}

/// More filters should never enlarge the extended area (each side's
/// extension distance is computed from tighter upper bounds).
TEST(PrivateNNTest, MoreFiltersGiveSmallerOrEqualAExt) {
  Rng rng(7);
  const Rect space(0, 0, 1, 1);
  auto targets = UniformTargets(500, &rng, space);
  PublicTargetStore store(targets);
  int four_strictly_smaller = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Point c = rng.PointIn(Rect(0.1, 0.1, 0.7, 0.7));
    const Rect cloak(c.x, c.y, c.x + 0.2, c.y + 0.2);
    auto one = PrivateNearestNeighbor(store, cloak, FilterPolicy::kOneFilter);
    auto four =
        PrivateNearestNeighbor(store, cloak, FilterPolicy::kFourFilters);
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(four.ok());
    // Four per-vertex nearest filters give the tightest per-vertex
    // bounds, so A_EXT (and the candidate list) can only shrink.
    EXPECT_LE(four->area.a_ext.Area(), one->area.a_ext.Area() + 1e-12);
    EXPECT_LE(four->size(), one->size());
    if (four->area.a_ext.Area() < one->area.a_ext.Area() - 1e-12) {
      ++four_strictly_smaller;
    }
  }
  EXPECT_GT(four_strictly_smaller, 0);  // The sweep must show real wins.
}

TEST(PrivateNNTest, CandidateListMuchSmallerThanSendAll) {
  Rng rng(9);
  const Rect space(0, 0, 1, 1);
  auto targets = UniformTargets(5000, &rng, space);
  PublicTargetStore store(targets);
  const Rect cloak(0.45, 0.45, 0.55, 0.55);
  auto result = PrivateNearestNeighbor(store, cloak);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->size(), targets.size() / 10);
}

TEST(PrivateNNTest, CandidatesAreExactlyTargetsInAExt) {
  Rng rng(10);
  const Rect space(0, 0, 1, 1);
  auto targets = UniformTargets(300, &rng, space);
  PublicTargetStore store(targets);
  const Rect cloak(0.3, 0.6, 0.5, 0.7);
  auto result = PrivateNearestNeighbor(store, cloak);
  ASSERT_TRUE(result.ok());
  std::vector<uint64_t> got;
  for (const auto& t : result->candidates) got.push_back(t.id);
  std::sort(got.begin(), got.end());
  std::vector<uint64_t> expect;
  for (const auto& t : targets) {
    if (result->area.a_ext.Contains(t.position)) expect.push_back(t.id);
  }
  EXPECT_EQ(got, expect);
}

}  // namespace
}  // namespace casper::processor
