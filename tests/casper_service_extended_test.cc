#include <gtest/gtest.h>

#include <algorithm>

#include "src/casper/casper.h"
#include "src/casper/workload.h"
#include "src/common/rng.h"

/// Service-level coverage of the extended query types: private k-NN,
/// public NN over private data, and the expected-density aggregate.

namespace casper {
namespace {

using PublicSnapshot = processor::PublicTargetStore::Snapshot;

CasperService MakeService(size_t users, size_t targets, uint64_t seed) {
  CasperOptions options;
  options.pyramid.height = 6;
  CasperService service(options);
  Rng rng(seed);
  const Rect space = service.options().pyramid.space;
  for (anonymizer::UserId uid = 0; uid < users; ++uid) {
    anonymizer::PrivacyProfile profile;
    profile.k = static_cast<uint32_t>(rng.UniformInt(1, 10));
    EXPECT_TRUE(service.RegisterUser(uid, profile, rng.PointIn(space)).ok());
  }
  service.SetPublicTargets(
      workload::UniformPublicTargets(targets, space, &rng));
  return service;
}

TEST(CasperServiceExtendedTest, KNearestMatchesGroundTruth) {
  CasperService service = MakeService(200, 500, 1);
  for (anonymizer::UserId uid = 0; uid < 200; uid += 23) {
    auto response = service.QueryKNearestPublic(uid, 5);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->exact.size(), 5u);
    auto pos = service.ClientPosition(uid);
    ASSERT_TRUE(pos.ok());
    const auto truth = PublicSnapshot(service.public_store()).KNearest(*pos, 5);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_NEAR(Distance(*pos, response->exact[i].position),
                  Distance(*pos, truth[i].position), 1e-12);
    }
    EXPECT_TRUE(response->cloak.region.Contains(*pos));
    EXPECT_GE(response->server_answer.size(), 5u);
  }
}

TEST(CasperServiceExtendedTest, KnnErrorPaths) {
  CasperService service = MakeService(20, 3, 2);
  EXPECT_EQ(service.QueryKNearestPublic(0, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.QueryKNearestPublic(0, 4).status().code(),
            StatusCode::kNotFound);  // Only 3 targets.
  EXPECT_EQ(service.QueryKNearestPublic(999, 1).status().code(),
            StatusCode::kNotFound);
}

TEST(CasperServiceExtendedTest, PublicNearestRequiresSyncAndIsInclusive) {
  CasperService service = MakeService(100, 10, 3);
  EXPECT_EQ(service.QueryPublicNearest({0.5, 0.5}).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.SyncPrivateData().ok());

  const Point q{0.5, 0.5};
  auto result = service.QueryPublicNearest(q);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->candidates.size(), 0u);

  // The true nearest user (by exact position, which only the harness
  // knows) must own one of the candidate regions.
  anonymizer::UserId best = 0;
  double best_d = 1e300;
  for (anonymizer::UserId uid = 0; uid < 100; ++uid) {
    auto pos = service.ClientPosition(uid);
    ASSERT_TRUE(pos.ok());
    const double d = SquaredDistance(q, *pos);
    if (d < best_d) {
      best_d = d;
      best = uid;
    }
  }
  bool found = false;
  for (const auto& c : result->candidates) {
    auto resolved = service.ResolvePseudonym(c.target.id);
    ASSERT_TRUE(resolved.ok());
    if (*resolved == best) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(CasperServiceExtendedTest, DensityTracksPopulation) {
  CasperService service = MakeService(400, 10, 4);
  ASSERT_TRUE(service.SyncPrivateData().ok());
  auto map = service.QueryDensity(4, 4);
  ASSERT_TRUE(map.ok());
  // Everyone's cloak is inside the space, so the mass sums to 400.
  EXPECT_NEAR(map->Total(), 400.0, 1e-6);

  // Per-quadrant expected counts track the true per-quadrant counts
  // within the cloak-induced uncertainty.
  double expected_sw = 0.0;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) expected_sw += map->At(c, r);
  }
  size_t true_sw = 0;
  for (anonymizer::UserId uid = 0; uid < 400; ++uid) {
    auto pos = service.ClientPosition(uid);
    ASSERT_TRUE(pos.ok());
    if (pos->x <= 0.5 && pos->y <= 0.5) ++true_sw;
  }
  EXPECT_NEAR(expected_sw, static_cast<double>(true_sw), 40.0);
}

TEST(CasperServiceExtendedTest, DensityRequiresSync) {
  CasperService service = MakeService(10, 5, 5);
  EXPECT_EQ(service.QueryDensity(2, 2).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace casper
