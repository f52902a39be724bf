#include "src/casper/casper.h"

#include <gtest/gtest.h>

#include "src/casper/workload.h"
#include "src/common/rng.h"

namespace casper {
namespace {

using PublicSnapshot = processor::PublicTargetStore::Snapshot;

CasperOptions TestOptions(bool adaptive = true) {
  CasperOptions options;
  options.pyramid.height = 6;
  options.use_adaptive_anonymizer = adaptive;
  return options;
}

/// A service pre-loaded with `users` uniform users and `targets` uniform
/// public targets.
CasperService MakeService(size_t users, size_t targets, uint64_t seed,
                          bool adaptive = true, uint32_t k_max = 10) {
  CasperService service(TestOptions(adaptive));
  Rng rng(seed);
  const Rect space = service.options().pyramid.space;
  for (anonymizer::UserId uid = 0; uid < users; ++uid) {
    anonymizer::PrivacyProfile profile;
    profile.k = static_cast<uint32_t>(rng.UniformInt(1, k_max));
    EXPECT_TRUE(service.RegisterUser(uid, profile, rng.PointIn(space)).ok());
  }
  service.SetPublicTargets(workload::UniformPublicTargets(targets, space,
                                                          &rng));
  return service;
}

TEST(CasperServiceTest, EndToEndPublicNN) {
  CasperService service = MakeService(200, 500, 1);
  auto response = service.QueryNearestPublic(7);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  // The cloak hides the user: region contains the true position.
  auto pos = service.ClientPosition(7);
  ASSERT_TRUE(pos.ok());
  EXPECT_TRUE(response->cloak.region.Contains(*pos));

  // The refined answer equals the true global NN.
  auto true_nn = PublicSnapshot(service.public_store()).KNearest(*pos, 1);
  ASSERT_EQ(true_nn.size(), 1u);
  EXPECT_EQ(response->exact.id, true_nn[0].id);

  // Timing breakdown is populated.
  EXPECT_GE(response->timing.anonymizer_seconds, 0.0);
  EXPECT_GT(response->timing.transmission_seconds, 0.0);
  EXPECT_GT(response->timing.Total(), 0.0);
}

TEST(CasperServiceTest, ExactAnswerForEveryUserAndBothAnonymizers) {
  for (bool adaptive : {false, true}) {
    CasperService service = MakeService(150, 300, 2, adaptive);
    for (anonymizer::UserId uid = 0; uid < 150; uid += 11) {
      auto response = service.QueryNearestPublic(uid);
      ASSERT_TRUE(response.ok());
      auto pos = service.ClientPosition(uid);
      ASSERT_TRUE(pos.ok());
      auto true_nn = PublicSnapshot(service.public_store()).KNearest(*pos, 1);
      ASSERT_EQ(true_nn.size(), 1u);
      EXPECT_EQ(response->exact.id, true_nn[0].id) << "adaptive=" << adaptive;
    }
  }
}

TEST(CasperServiceTest, PrivateNNRequiresSync) {
  CasperService service = MakeService(50, 10, 3);
  EXPECT_EQ(service.QueryNearestPrivate(1).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.SyncPrivateData().ok());
  auto response = service.QueryNearestPrivate(1);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // Server-side ids are pseudonyms; the trusted side resolves them and
  // the buddy answer is never the querier herself.
  auto best_uid = service.ResolvePseudonym(response->best.id);
  ASSERT_TRUE(best_uid.ok());
  EXPECT_NE(*best_uid, 1u);
  for (const auto& c : response->server_answer.candidates) {
    auto resolved = service.ResolvePseudonym(c.id);
    ASSERT_TRUE(resolved.ok());
    EXPECT_NE(*resolved, 1u);
    // Pseudonymity: the server-visible id never equals the uid.
    EXPECT_GE(c.id, 50u);  // uids here are 0..49.
  }
}

TEST(CasperServiceTest, SyncInvalidatedByMovement) {
  CasperService service = MakeService(30, 10, 4);
  ASSERT_TRUE(service.SyncPrivateData().ok());
  ASSERT_TRUE(service.QueryNearestPrivate(2).ok());
  ASSERT_TRUE(service.UpdateUserLocation(2, {0.1, 0.1}).ok());
  EXPECT_EQ(service.QueryNearestPrivate(2).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CasperServiceTest, PublicRangeCountsCloakedUsers) {
  CasperService service = MakeService(100, 10, 5);
  ASSERT_TRUE(service.SyncPrivateData().ok());
  auto result = service.QueryPublicRange(Rect(0, 0, 1, 1));
  ASSERT_TRUE(result.ok());
  // The whole space covers every cloak.
  EXPECT_EQ(result->certain, 100u);
  EXPECT_NEAR(result->expected, 100.0, 1e-9);

  auto half = service.QueryPublicRange(Rect(0, 0, 0.5, 1));
  ASSERT_TRUE(half.ok());
  EXPECT_LE(half->certain, half->possible);
  EXPECT_GT(half->possible, 0u);
}

TEST(CasperServiceTest, RangeQueryOverPublicData) {
  CasperService service = MakeService(50, 400, 6);
  auto result = service.QueryRangePublic(3, 0.1);
  ASSERT_TRUE(result.ok());
  // Refinement with the exact position keeps only true hits.
  auto pos = service.ClientPosition(3);
  ASSERT_TRUE(pos.ok());
  auto exact = processor::RefineRange(result->candidates, *pos, 0.1);
  for (const auto& t : exact) {
    EXPECT_LE(Distance(*pos, t.position), 0.1);
  }
}

TEST(CasperServiceTest, UserLifecycle) {
  CasperService service(TestOptions());
  EXPECT_EQ(service.QueryNearestPublic(9).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(service.RegisterUser(9, {1, 0.0}, {0.5, 0.5}).ok());
  EXPECT_EQ(service.RegisterUser(9, {1, 0.0}, {0.5, 0.5}).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(service.UpdateUserProfile(9, {1, 0.001}).ok());
  ASSERT_TRUE(service.UpdateUserLocation(9, {0.2, 0.8}).ok());
  ASSERT_TRUE(service.DeregisterUser(9).ok());
  EXPECT_EQ(service.DeregisterUser(9).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.user_count(), 0u);
}

TEST(CasperServiceTest, StricterProfileGrowsCandidateList) {
  CasperService service = MakeService(500, 2000, 7, true, 1);
  // Query with k=1, then tighten to k=100 and compare.
  auto relaxed = service.QueryNearestPublic(0);
  ASSERT_TRUE(relaxed.ok());
  ASSERT_TRUE(service.UpdateUserProfile(0, {100, 0.0}).ok());
  auto strict = service.QueryNearestPublic(0);
  ASSERT_TRUE(strict.ok());
  EXPECT_GE(strict->cloak.region.Area(), relaxed->cloak.region.Area());
  EXPECT_GE(strict->server_answer.size(), relaxed->server_answer.size());
}

TEST(CasperServiceTest, QualityNeverCompromised) {
  // The headline guarantee: across users, profiles, and movement, the
  // refined answer always equals the true nearest neighbor.
  CasperService service = MakeService(120, 250, 8);
  Rng rng(99);
  const Rect space = service.options().pyramid.space;
  for (int round = 0; round < 3; ++round) {
    for (anonymizer::UserId uid = 0; uid < 120; ++uid) {
      ASSERT_TRUE(service.UpdateUserLocation(uid, rng.PointIn(space)).ok());
    }
    for (anonymizer::UserId uid = 0; uid < 120; uid += 17) {
      auto response = service.QueryNearestPublic(uid);
      ASSERT_TRUE(response.ok());
      auto pos = service.ClientPosition(uid);
      ASSERT_TRUE(pos.ok());
      auto true_nn = PublicSnapshot(service.public_store()).KNearest(*pos, 1);
      ASSERT_EQ(true_nn.size(), 1u);
      EXPECT_EQ(response->exact.id, true_nn[0].id);
    }
  }
}

}  // namespace
}  // namespace casper
