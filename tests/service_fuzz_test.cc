#include <gtest/gtest.h>

#include "src/casper/casper.h"
#include "src/casper/workload.h"
#include "src/common/rng.h"

/// Randomized operation-sequence fuzzing of the whole CasperService:
/// register / move / re-profile / deregister / query in arbitrary
/// interleavings. Invariants checked continuously:
///  * no operation crashes or returns an unexpected status;
///  * every successful private-NN answer, refined with the client's
///    exact position, equals the true global nearest target;
///  * every cloak contains the client's position and satisfies the
///    user's current profile.

namespace casper {
namespace {

using PublicSnapshot = processor::PublicTargetStore::Snapshot;

struct FuzzParams {
  uint64_t seed;
  int operations;
  bool adaptive;
};

class ServiceFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(ServiceFuzzTest, RandomOperationSequences) {
  const FuzzParams params = GetParam();
  Rng rng(params.seed);

  CasperOptions options;
  options.pyramid.height = 6;
  options.use_adaptive_anonymizer = params.adaptive;
  CasperService service(options);
  const Rect space = options.pyramid.space;

  service.SetPublicTargets(
      workload::UniformPublicTargets(300, space, &rng));

  std::unordered_map<anonymizer::UserId, anonymizer::PrivacyProfile> live;
  anonymizer::UserId next_uid = 0;

  for (int op = 0; op < params.operations; ++op) {
    const double action = rng.NextDouble();
    if (action < 0.25 || live.size() < 3) {
      anonymizer::PrivacyProfile profile;
      profile.k = static_cast<uint32_t>(rng.UniformInt(1, 12));
      profile.a_min = space.Area() * rng.Uniform(0.0, 0.001);
      const anonymizer::UserId uid = next_uid++;
      ASSERT_TRUE(
          service.RegisterUser(uid, profile, rng.PointIn(space)).ok());
      live[uid] = profile;
    } else if (action < 0.45) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(0, live.size() - 1)));
      ASSERT_TRUE(service.UpdateUserLocation(it->first, rng.PointIn(space))
                      .ok());
    } else if (action < 0.55) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(0, live.size() - 1)));
      anonymizer::PrivacyProfile profile;
      profile.k = static_cast<uint32_t>(rng.UniformInt(1, 12));
      profile.a_min = space.Area() * rng.Uniform(0.0, 0.001);
      ASSERT_TRUE(service.UpdateUserProfile(it->first, profile).ok());
      it->second = profile;
    } else if (action < 0.62 && live.size() > 13) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(0, live.size() - 1)));
      ASSERT_TRUE(service.DeregisterUser(it->first).ok());
      live.erase(it);
    } else {
      // Query a random live user; k never exceeds the population here
      // (live.size() >= 13 whenever deregistration is possible).
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(0, live.size() - 1)));
      const anonymizer::UserId uid = it->first;
      auto response = service.QueryNearestPublic(uid);
      if (!response.ok()) {
        // The only legitimate failure: k exceeds the population.
        ASSERT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
        ASSERT_GT(it->second.k, live.size());
        continue;
      }
      auto pos = service.ClientPosition(uid);
      ASSERT_TRUE(pos.ok());
      // Cloak invariants.
      ASSERT_TRUE(response->cloak.region.Contains(*pos));
      ASSERT_GE(response->cloak.users_in_region, it->second.k);
      ASSERT_GE(response->cloak.region.Area() + 1e-15, it->second.a_min);
      // Answer-quality invariant.
      auto truth = PublicSnapshot(service.public_store()).KNearest(*pos, 1);
      ASSERT_EQ(truth.size(), 1u);
      ASSERT_EQ(response->exact.id, truth[0].id) << "op " << op;
    }
  }

  // Final integrity: a full private-data sync succeeds and the density
  // mass equals the live population.
  ASSERT_TRUE(service.SyncPrivateData().ok());
  auto map = service.QueryDensity(4, 4);
  ASSERT_TRUE(map.ok());
  EXPECT_NEAR(map->Total(), static_cast<double>(live.size()), 1e-6);
}

// gtest names each case by dumping the parameter's bytes, padding
// included. A static array has zero padding, so the names stay the same
// from build to build; temporaries would leak stack contents into them.
const FuzzParams kRuns[] = {{1, 600, true},
                            {2, 600, false},
                            {3, 1200, true},
                            {4, 1200, false},
                            {5, 2000, true}};

INSTANTIATE_TEST_SUITE_P(Runs, ServiceFuzzTest, ::testing::ValuesIn(kRuns));

}  // namespace
}  // namespace casper
