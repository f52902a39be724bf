#include <gtest/gtest.h>

#include "src/anonymizer/adaptive_anonymizer.h"
#include "src/anonymizer/basic_anonymizer.h"
#include "src/common/rng.h"

/// Parameterized stress sweeps over both anonymizers: mixed lifecycles
/// (register / move / re-profile / deregister) at several heights,
/// populations, and profile mixes, with structural invariants checked
/// throughout and every cloak validated against the issuing profile.

namespace casper::anonymizer {
namespace {

struct StressParams {
  int height;
  size_t peak_users;
  uint32_t k_max;
  double a_min_max_fraction;
  int operations;
  uint64_t seed;
};

class AnonymizerStressTest : public ::testing::TestWithParam<StressParams> {
};

template <typename Anon>
void RunStress(const StressParams& params) {
  PyramidConfig config;
  config.height = params.height;
  Anon anon(config);
  Rng rng(params.seed);

  std::unordered_map<UserId, PrivacyProfile> live;
  std::unordered_map<UserId, Point> positions;
  UserId next_uid = 0;

  auto random_profile = [&]() {
    PrivacyProfile profile;
    profile.k = static_cast<uint32_t>(rng.UniformInt(1, params.k_max));
    profile.a_min =
        config.space.Area() * rng.Uniform(0.0, params.a_min_max_fraction);
    return profile;
  };

  for (int op = 0; op < params.operations; ++op) {
    const double action = rng.NextDouble();
    if ((action < 0.35 && live.size() < params.peak_users) || live.empty()) {
      const UserId uid = next_uid++;
      const Point p = rng.PointIn(config.space);
      const PrivacyProfile profile = random_profile();
      ASSERT_TRUE(anon.RegisterUser(uid, profile, p).ok());
      live[uid] = profile;
      positions[uid] = p;
    } else if (action < 0.65) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(0, live.size() - 1)));
      const Point p = rng.PointIn(config.space);
      ASSERT_TRUE(anon.UpdateLocation(it->first, p).ok());
      positions[it->first] = p;
    } else if (action < 0.8) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(0, live.size() - 1)));
      const PrivacyProfile profile = random_profile();
      ASSERT_TRUE(anon.UpdateProfile(it->first, profile).ok());
      it->second = profile;
    } else if (action < 0.9 && live.size() > 1) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(0, live.size() - 1)));
      ASSERT_TRUE(anon.DeregisterUser(it->first).ok());
      positions.erase(it->first);
      live.erase(it);
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(0, live.size() - 1)));
      auto cloak = anon.Cloak(it->first);
      if (it->second.k > live.size()) {
        ASSERT_FALSE(cloak.ok());
        ASSERT_EQ(cloak.status().code(), StatusCode::kFailedPrecondition);
      } else {
        ASSERT_TRUE(cloak.ok()) << cloak.status().ToString();
        EXPECT_GE(cloak->users_in_region, it->second.k);
        EXPECT_GE(cloak->region.Area() + 1e-15, it->second.a_min);
        EXPECT_TRUE(cloak->region.Contains(positions[it->first]));
      }
    }
  }
  EXPECT_EQ(anon.user_count(), live.size());
}

TEST_P(AnonymizerStressTest, BasicSurvivesChurn) {
  RunStress<BasicAnonymizer>(GetParam());
}

TEST_P(AnonymizerStressTest, AdaptiveSurvivesChurnWithInvariants) {
  const StressParams params = GetParam();
  // Same churn, plus periodic full structural validation.
  PyramidConfig config;
  config.height = params.height;
  AdaptiveAnonymizer anon(config);
  Rng rng(params.seed ^ 0xabcdef);

  std::vector<UserId> live;
  UserId next_uid = 0;
  for (int op = 0; op < params.operations; ++op) {
    const double action = rng.NextDouble();
    if ((action < 0.4 && live.size() < params.peak_users) || live.empty()) {
      PrivacyProfile profile;
      profile.k = static_cast<uint32_t>(rng.UniformInt(1, params.k_max));
      profile.a_min =
          config.space.Area() * rng.Uniform(0.0, params.a_min_max_fraction);
      ASSERT_TRUE(
          anon.RegisterUser(next_uid, profile, rng.PointIn(config.space))
              .ok());
      live.push_back(next_uid++);
    } else if (action < 0.8) {
      const size_t idx = rng.UniformInt(0, live.size() - 1);
      ASSERT_TRUE(
          anon.UpdateLocation(live[idx], rng.PointIn(config.space)).ok());
    } else {
      const size_t idx = rng.UniformInt(0, live.size() - 1);
      ASSERT_TRUE(anon.DeregisterUser(live[idx]).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
    }
    if (op % 100 == 0) {
      ASSERT_TRUE(anon.CheckInvariants()) << "op " << op;
    }
  }
  EXPECT_TRUE(anon.CheckInvariants());
}

// gtest names each case by dumping the parameter's bytes, padding
// included. A static array has zero padding, so the names stay the same
// from build to build; temporaries would leak stack contents into them.
const StressParams kSweep[] = {
    {4, 50, 10, 0.0, 800, 1},     {6, 150, 30, 0.001, 1000, 2},
    {8, 300, 60, 0.0005, 1200, 3}, {9, 200, 20, 0.01, 800, 4},
    {5, 30, 40, 0.0, 600, 5},     {7, 500, 5, 0.0001, 1500, 6}};

INSTANTIATE_TEST_SUITE_P(Sweep, AnonymizerStressTest,
                         ::testing::ValuesIn(kSweep));

}  // namespace
}  // namespace casper::anonymizer
