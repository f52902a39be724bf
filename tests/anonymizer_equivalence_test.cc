#include <gtest/gtest.h>

#include "src/anonymizer/adaptive_anonymizer.h"
#include "src/anonymizer/basic_anonymizer.h"
#include "src/common/rng.h"

/// The paper observes (§6.1.1) that the basic and adaptive anonymizers
/// "yield the same accuracy as they result in the same cloaked region
/// from Algorithm 1". This suite drives both implementations through
/// identical registration / movement / profile-change histories and
/// asserts region-for-region equality of every cloak.

namespace casper::anonymizer {
namespace {

struct Scenario {
  int height;
  size_t users;
  uint32_t k_max;
  double a_min_max_fraction;
  uint64_t seed;
};

class EquivalenceTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(EquivalenceTest, IdenticalCloaksThroughoutHistory) {
  const Scenario s = GetParam();
  PyramidConfig config;
  config.height = s.height;
  BasicAnonymizer basic(config);
  AdaptiveAnonymizer adaptive(config);
  Rng rng(s.seed);

  // Identical registrations.
  std::vector<Point> pos(s.users);
  for (UserId uid = 0; uid < s.users; ++uid) {
    pos[uid] = rng.PointIn(config.space);
    PrivacyProfile profile;
    profile.k = static_cast<uint32_t>(rng.UniformInt(1, s.k_max));
    profile.a_min =
        config.space.Area() * rng.Uniform(0.0, s.a_min_max_fraction);
    ASSERT_TRUE(basic.RegisterUser(uid, profile, pos[uid]).ok());
    ASSERT_TRUE(adaptive.RegisterUser(uid, profile, pos[uid]).ok());
  }

  auto compare_all_cloaks = [&](const char* phase) {
    for (UserId uid = 0; uid < s.users; ++uid) {
      auto b = basic.Cloak(uid);
      auto a = adaptive.Cloak(uid);
      ASSERT_TRUE(b.ok()) << phase << " uid " << uid;
      ASSERT_TRUE(a.ok()) << phase << " uid " << uid;
      EXPECT_EQ(b->region, a->region)
          << phase << " uid " << uid << " basic=" << b->region.ToString()
          << " adaptive=" << a->region.ToString();
      EXPECT_EQ(b->users_in_region, a->users_in_region);
    }
  };
  compare_all_cloaks("after-registration");

  // Random movement.
  for (int round = 0; round < 5; ++round) {
    for (UserId uid = 0; uid < s.users; ++uid) {
      pos[uid].x = std::clamp(pos[uid].x + rng.Uniform(-0.1, 0.1), 0.0, 1.0);
      pos[uid].y = std::clamp(pos[uid].y + rng.Uniform(-0.1, 0.1), 0.0, 1.0);
      ASSERT_TRUE(basic.UpdateLocation(uid, pos[uid]).ok());
      ASSERT_TRUE(adaptive.UpdateLocation(uid, pos[uid]).ok());
    }
  }
  ASSERT_TRUE(adaptive.CheckInvariants());
  compare_all_cloaks("after-movement");

  // Random profile changes.
  for (UserId uid = 0; uid < s.users; uid += 3) {
    PrivacyProfile profile;
    profile.k = static_cast<uint32_t>(rng.UniformInt(1, s.k_max));
    profile.a_min =
        config.space.Area() * rng.Uniform(0.0, s.a_min_max_fraction);
    ASSERT_TRUE(basic.UpdateProfile(uid, profile).ok());
    ASSERT_TRUE(adaptive.UpdateProfile(uid, profile).ok());
  }
  ASSERT_TRUE(adaptive.CheckInvariants());
  compare_all_cloaks("after-profile-change");

  // Partial deregistration (keep enough users for remaining k values:
  // re-relax survivors first).
  for (UserId uid = 0; uid < s.users; ++uid) {
    ASSERT_TRUE(basic.UpdateProfile(uid, {1, 0.0}).ok());
    ASSERT_TRUE(adaptive.UpdateProfile(uid, {1, 0.0}).ok());
  }
  for (UserId uid = 0; uid < s.users / 2; ++uid) {
    ASSERT_TRUE(basic.DeregisterUser(uid).ok());
    ASSERT_TRUE(adaptive.DeregisterUser(uid).ok());
  }
  ASSERT_TRUE(adaptive.CheckInvariants());
  for (UserId uid = s.users / 2; uid < s.users; ++uid) {
    auto b = basic.Cloak(uid);
    auto a = adaptive.Cloak(uid);
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(b->region, a->region);
  }
}

// gtest names each case by dumping the parameter's bytes, padding
// included. A static array has zero padding, so the names stay the same
// from build to build; temporaries would leak stack contents into them.
const Scenario kScenarios[] = {
    {4, 60, 8, 0.0, 1},      {5, 120, 20, 0.0, 2},    {6, 200, 30, 0.001, 3},
    {7, 150, 10, 0.01, 4},   {5, 80, 60, 0.0005, 5},  {8, 250, 40, 0.0001, 6}};

INSTANTIATE_TEST_SUITE_P(Scenarios, EquivalenceTest,
                         ::testing::ValuesIn(kScenarios));

}  // namespace
}  // namespace casper::anonymizer
