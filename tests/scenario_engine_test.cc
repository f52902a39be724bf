#include "src/scenarios/scenario.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/casper/workload.h"
#include "src/scenarios/oracles.h"

namespace casper::scenarios {
namespace {

/// CI-sized knobs: every named scenario finishes in well under a
/// second, and the oracle cadence still samples several ticks.
ScenarioOptions TinyOptions() {
  ScenarioOptions options;
  options.users = 40;
  options.targets = 50;
  options.ticks = 6;
  options.queries_per_tick = 12;
  options.threads = 2;
  options.seed = 7;
  options.oracle_interval = 2;
  options.oracle_samples = 6;
  return options;
}

class AllScenariosTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllScenariosTest, GreenOnFacade) {
  auto script = ScriptFor(GetParam());
  ASSERT_TRUE(script.ok()) << script.status().message();
  auto report = RunScenario(*script, TinyOptions());
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->Passed())
      << "nn=" << report->oracles.nn_violations
      << " region=" << report->oracles.region_violations
      << " continuous=" << report->oracles.continuous_violations;
  EXPECT_GT(report->queries_total, 0u);
  EXPECT_GT(report->oracles.nn_checks, 0u);
  EXPECT_GT(report->oracles.region_checks, 0u);
}

TEST_P(AllScenariosTest, GreenOnSocket) {
  auto script = ScriptFor(GetParam());
  ASSERT_TRUE(script.ok());
  ScenarioOptions options = TinyOptions();
  options.ticks = 4;
  options.stack.kind = StackKind::kSocket;
  auto report = RunScenario(*script, options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->stack, "socket");
  EXPECT_TRUE(report->Passed());
}

INSTANTIATE_TEST_SUITE_P(Named, AllScenariosTest,
                         ::testing::ValuesIn(ScenarioNames()),
                         [](const auto& info) { return info.param; });

TEST(ScenarioEngineTest, UnknownScenarioIsNotFound) {
  auto script = ScriptFor("gridlock");
  EXPECT_EQ(script.status().code(), StatusCode::kNotFound);
}

TEST(ScenarioEngineTest, RegistryListsFiveScenarios) {
  const auto names = ScenarioNames();
  ASSERT_EQ(names.size(), 5u);
  for (const auto& name : names) {
    EXPECT_TRUE(ScriptFor(name).ok()) << name;
  }
}

TEST(ScenarioEngineTest, SameSeedSameCounts) {
  auto script = ScriptFor("rush_hour");
  ASSERT_TRUE(script.ok());
  auto a = RunScenario(*script, TinyOptions());
  auto b = RunScenario(*script, TinyOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->queries_total, b->queries_total);
  EXPECT_EQ(a->queries_ok, b->queries_ok);
  EXPECT_EQ(a->updates.applied, b->updates.applied);
  EXPECT_EQ(a->updates.dropped, b->updates.dropped);
  EXPECT_EQ(a->cloak_area.count, b->cloak_area.count);
  EXPECT_DOUBLE_EQ(a->cloak_area.p95, b->cloak_area.p95);
  EXPECT_DOUBLE_EQ(a->k_achieved.p50, b->k_achieved.p50);
  EXPECT_EQ(a->oracles.nn_checks, b->oracles.nn_checks);
}

TEST(ScenarioEngineTest, ContinuousStormExercisesShortcuts) {
  auto script = ScriptFor("continuous_storm");
  ASSERT_TRUE(script.ok());
  EXPECT_TRUE(script->assert_shortcuts);
  auto report = RunScenario(*script, TinyOptions());
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->continuous_queries, 0u);
  EXPECT_GT(report->continuous.reuses, 0u) << "shortcuts never fired";
  EXPECT_GT(report->oracles.continuous_checks, 0u);
  EXPECT_TRUE(report->shortcuts_ok);
}

TEST(ScenarioEngineTest, ChurnChaosDropsDeregisteredUpdates) {
  auto script = ScriptFor("churn_chaos");
  ASSERT_TRUE(script.ok());
  auto report = RunScenario(*script, TinyOptions());
  ASSERT_TRUE(report.ok());
  // Each tick deregisters a slice whose simulator updates then miss.
  EXPECT_GT(report->updates.dropped, 0u);
  EXPECT_GT(report->updates.applied, 0u);
  EXPECT_TRUE(report->Passed());
}

TEST(ScenarioEngineTest, ReportJsonCarriesTheSchema) {
  auto script = ScriptFor("mixed_profiles");
  ASSERT_TRUE(script.ok());
  ScenarioOptions options = TinyOptions();
  options.out_path =
      ::testing::TempDir() + "/BENCH_scenario_mixed_profiles.json";
  auto report = RunScenario(*script, options);
  ASSERT_TRUE(report.ok());

  std::ifstream in(options.out_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  std::remove(options.out_path.c_str());

  for (const char* key :
       {"\"scenario\"", "\"stack\"", "\"config\"", "\"qps\"", "\"queries\"",
        "\"latency_micros\"", "\"cloak_area\"", "\"k_achieved\"",
        "\"candidates\"", "\"updates\"", "\"zero_progress_fallbacks\"",
        "\"continuous\"", "\"oracles\"", "\"passed\"", "\"metrics\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find("\"scenario\": \"mixed_profiles\""), std::string::npos);
}

TEST(ScenarioEngineTest, NnOracleCatchesAPlantedViolation) {
  // Feed the oracle a ground truth the serving stack has never seen: a
  // target right on top of the user that the served candidate list
  // cannot contain. The check must flag it, proving a broken stack
  // cannot slip past a watching oracle.
  StackOptions stack_options;
  auto stack = ScenarioStack::Create(stack_options);
  ASSERT_TRUE(stack.ok());
  CasperService& service = (*stack)->service();
  anonymizer::PrivacyProfile profile;
  profile.k = 1;
  ASSERT_TRUE(service.RegisterUser(1, profile, Point{0.5, 0.5}).ok());

  Rng rng(3);
  auto served = workload::UniformPublicTargets(20, Rect(0, 0, 0.2, 0.2), &rng);
  (*stack)->ProvisionTargets(served);

  std::vector<processor::PublicTarget> truth = served;
  truth.push_back(processor::PublicTarget{999, Point{0.5, 0.5}});

  OracleStats stats;
  CheckNnInclusiveness(&service, truth, 1, &stats);
  EXPECT_EQ(stats.nn_checks, 1u);
  EXPECT_EQ(stats.nn_violations, 1u);

  // Against the honest ground truth the same stack passes.
  OracleStats honest;
  CheckNnInclusiveness(&service, served, 1, &honest);
  EXPECT_EQ(honest.nn_checks, 1u);
  EXPECT_EQ(honest.nn_violations, 0u);
}

TEST(ScenarioEngineTest, RegionOracleCatchesAMissingUser) {
  StackOptions stack_options;
  auto stack = ScenarioStack::Create(stack_options);
  ASSERT_TRUE(stack.ok());
  CasperService& service = (*stack)->service();
  anonymizer::PrivacyProfile profile;
  profile.k = 1;
  ASSERT_TRUE(service.RegisterUser(1, profile, Point{0.25, 0.25}).ok());
  ASSERT_TRUE(service.RegisterUser(2, profile, Point{0.75, 0.75}).ok());
  ASSERT_TRUE(service.SyncPrivateData().ok());

  OracleStats stats;
  CheckRegionPerUser(&service, &stats);
  EXPECT_EQ(stats.region_checks, 1u);
  EXPECT_EQ(stats.region_violations, 0u);

  // Remove a user behind the facade's back (raw anonymizer, so no
  // retraction reaches the server): the server still stores two
  // regions for a one-user population — the exact kind of
  // bypass-induced inconsistency the census oracle exists to catch.
  ASSERT_TRUE(service.anonymizer().DeregisterUser(2).ok());
  OracleStats stale;
  CheckRegionPerUser(&service, &stale);
  EXPECT_EQ(stale.region_checks, 1u);
  EXPECT_EQ(stale.region_violations, 1u);
}

}  // namespace
}  // namespace casper::scenarios
