#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/processor/private_nn.h"

/// Differential check between the two halves of the query processor:
/// private data that happens to be *degenerate* (zero-area regions) is
/// semantically identical to public point data — for point targets
/// MaxDist equals the ordinary distance and region overlap equals
/// containment. The public-data path (Algorithm 2) and the
/// private-data path (§5.2) must therefore return identical candidate
/// sets for identical inputs. Any divergence pinpoints a bug in one of
/// the two implementations.

namespace casper::processor {
namespace {

struct Params {
  size_t targets;
  double cloak_size;
  FilterPolicy policy;
  uint64_t seed;
};

class DegenerateEquivalenceTest : public ::testing::TestWithParam<Params> {};

TEST_P(DegenerateEquivalenceTest, PublicAndDegeneratePrivateAgree) {
  const Params params = GetParam();
  Rng rng(params.seed);
  const Rect space(0, 0, 1, 1);

  std::vector<PublicTarget> points;
  std::vector<PrivateTarget> regions;
  for (uint64_t i = 0; i < params.targets; ++i) {
    const Point p = rng.PointIn(space);
    points.push_back({i, p});
    regions.push_back({i, Rect::FromPoint(p)});
  }
  PublicTargetStore public_store(points);
  PrivateTargetStore private_store(regions);

  for (int trial = 0; trial < 60; ++trial) {
    const double s = params.cloak_size;
    const Point c = rng.PointIn(Rect(0, 0, 1 - s, 1 - s));
    const Rect cloak(c.x, c.y, c.x + s, c.y + s);

    auto pub = PrivateNearestNeighbor(public_store, cloak, params.policy);
    PrivateNNOptions options;
    options.policy = params.policy;
    auto prv =
        PrivateNearestNeighborOverPrivate(private_store, cloak, options);
    ASSERT_TRUE(pub.ok());
    ASSERT_TRUE(prv.ok());

    // Identical extended areas...
    EXPECT_NEAR(pub->area.a_ext.min.x, prv->area.a_ext.min.x, 1e-12);
    EXPECT_NEAR(pub->area.a_ext.min.y, prv->area.a_ext.min.y, 1e-12);
    EXPECT_NEAR(pub->area.a_ext.max.x, prv->area.a_ext.max.x, 1e-12);
    EXPECT_NEAR(pub->area.a_ext.max.y, prv->area.a_ext.max.y, 1e-12);

    // ...and identical candidate id sets.
    std::vector<uint64_t> pub_ids, prv_ids;
    for (const auto& t : pub->candidates) pub_ids.push_back(t.id);
    for (const auto& t : prv->candidates) prv_ids.push_back(t.id);
    std::sort(pub_ids.begin(), pub_ids.end());
    std::sort(prv_ids.begin(), prv_ids.end());
    EXPECT_EQ(pub_ids, prv_ids) << "trial " << trial;
  }
}

// gtest names each case by dumping the parameter's bytes, padding
// included. A static array has zero padding, so the names stay the same
// from build to build; temporaries would leak stack contents into them.
const Params kSweep[] = {{100, 0.1, FilterPolicy::kFourFilters, 1},
                         {100, 0.1, FilterPolicy::kOneFilter, 2},
                         {100, 0.1, FilterPolicy::kTwoFilters, 3},
                         {500, 0.05, FilterPolicy::kFourFilters, 4},
                         {30, 0.4, FilterPolicy::kFourFilters, 5},
                         {1000, 0.02, FilterPolicy::kTwoFilters, 6}};

INSTANTIATE_TEST_SUITE_P(Sweep, DegenerateEquivalenceTest,
                         ::testing::ValuesIn(kSweep));

}  // namespace
}  // namespace casper::processor
