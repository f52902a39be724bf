#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/casper/batch_query_engine.h"
#include "src/casper/casper.h"
#include "src/casper/workload.h"
#include "src/common/rng.h"
#include "src/obs/casper_metrics.h"
#include "src/obs/exporters.h"

/// End-to-end observability test: a service with an injected (fresh)
/// metrics bundle runs a batch covering every query kind, and the
/// scrape must show non-zero counters and latency histograms for all
/// seven kinds, in valid Prometheus text exposition format.

namespace casper {
namespace {

/// Minimal validator of the Prometheus text format 0.0.4: every sample
/// line belongs to an announced family, histogram series carry
/// cumulative buckets ending in +Inf, and counts reconcile.
void ValidatePrometheus(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::set<std::string> announced;
  std::string last_name;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const size_t name_start = 7;
      const size_t name_end = line.find(' ', name_start);
      ASSERT_NE(name_end, std::string::npos) << line;
      announced.insert(line.substr(name_start, name_end - name_start));
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment: " << line;
    // `name{labels} value` or `name value`.
    const size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    std::string name = line.substr(0, name_end);
    // Histogram series announce the base name.
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t pos = name.rfind(suffix);
      if (pos != std::string::npos &&
          pos + std::string(suffix).size() == name.size() &&
          announced.count(name.substr(0, pos)) > 0) {
        name = name.substr(0, pos);
        break;
      }
    }
    EXPECT_TRUE(announced.count(name) > 0)
        << "sample for unannounced family: " << line;
    last_name = name;
  }
  ASSERT_FALSE(announced.empty());
  (void)last_name;
}

TEST(ObsIntegrationTest, BatchAcrossAllKindsPopulatesEveryInstrument) {
  obs::MetricsRegistry registry;
  obs::CasperMetrics metrics(&registry);

  CasperOptions options;
  options.pyramid.height = 6;
  options.metrics = &metrics;
  CasperService service(options);

  Rng rng(7);
  const Rect space = service.options().pyramid.space;
  constexpr size_t kUsers = 32;
  for (anonymizer::UserId uid = 0; uid < kUsers; ++uid) {
    anonymizer::PrivacyProfile profile;
    profile.k = static_cast<uint32_t>(rng.UniformInt(1, 4));
    ASSERT_TRUE(
        service.RegisterUser(uid, profile, rng.PointIn(space)).ok());
  }
  service.SetPublicTargets(workload::UniformPublicTargets(200, space, &rng));
  ASSERT_TRUE(service.SyncPrivateData().ok());

  // One batch slot of every kind, several times over.
  std::vector<server::BatchQueryRequest> requests;
  for (size_t round = 0; round < 4; ++round) {
    const anonymizer::UserId uid = round % kUsers;
    requests.push_back(server::BatchQueryRequest::NearestPublic(uid));
    requests.push_back(server::BatchQueryRequest::KNearestPublic(uid, 3));
    requests.push_back(
        server::BatchQueryRequest::RangePublic(uid, space.width() * 0.05));
    requests.push_back(server::BatchQueryRequest::NearestPrivate(uid));
    requests.push_back(
        server::BatchQueryRequest::PublicNearest(rng.PointIn(space)));
    requests.push_back(server::BatchQueryRequest::PublicRange(space));
    requests.push_back(server::BatchQueryRequest::Density(4, 4));
  }

  server::BatchEngineOptions engine_options;
  engine_options.threads = 2;
  engine_options.metrics = &metrics;
  server::BatchQueryEngine engine(&service, engine_options);
  const server::BatchResult result = engine.Execute(requests);
  ASSERT_EQ(result.summary.error_count, 0u)
      << result.responses[0].status.ToString();

  // Per-kind server metrics: every one of the seven kinds ran, was
  // timed, and produced candidates.
  for (size_t kind = 0; kind < obs::kQueryKindCount; ++kind) {
    EXPECT_GE(metrics.queries_total[kind]->Value(), 4u)
        << "kind=" << obs::kQueryKindLabels[kind];
    EXPECT_GE(metrics.query_seconds[kind]->Snapshot().count, 4u)
        << "kind=" << obs::kQueryKindLabels[kind];
    EXPECT_EQ(metrics.query_errors_total[kind]->Value(), 0u)
        << "kind=" << obs::kQueryKindLabels[kind];
  }

  // Anonymizer-tier distributions from registration + snapshot + the
  // batch's cloaking phase.
  EXPECT_GT(metrics.cloaks_total->Value(), 0u);
  EXPECT_GT(metrics.cloak_seconds->Snapshot().count, 0u);
  EXPECT_GT(metrics.cloak_area->Snapshot().count, 0u);
  EXPECT_GT(metrics.cloak_k_achieved->Snapshot().count, 0u);
  EXPECT_EQ(static_cast<size_t>(metrics.users->Value()), kUsers);
  EXPECT_EQ(
      metrics.user_events_total[static_cast<size_t>(obs::UserEvent::kRegister)]
          ->Value(),
      kUsers);
  EXPECT_EQ(metrics.snapshots_total->Value(), 1u);

  // Batch engine.
  EXPECT_EQ(metrics.batches_total->Value(), 1u);
  EXPECT_EQ(metrics.batch_queries_total->Value(), requests.size());
  EXPECT_EQ(static_cast<size_t>(metrics.pool_threads->Value()), 2u);
  EXPECT_EQ(metrics.batch_wall_seconds->Snapshot().count, 1u);

  // A 5,000-record candidate list (1M-target scale) lands in a finite
  // bucket, not in +Inf.
  metrics.candidates[0]->Observe(5000);
  EXPECT_EQ(metrics.candidates[0]->Snapshot().buckets.back(), 0u);

  // Spans: every batch slot traced all the way through Finish().
  EXPECT_EQ(metrics.tracer.finished_count(), requests.size());

  // The scrape renders as valid Prometheus text with the per-kind
  // latency series present and populated.
  const std::string text = obs::ExportPrometheus(registry.Scrape());
  ValidatePrometheus(text);
  for (size_t kind = 0; kind < obs::kQueryKindCount; ++kind) {
    const std::string series = "casper_server_query_seconds_count{kind=\"" +
                               std::string(obs::kQueryKindLabels[kind]) +
                               "\"}";
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
}

TEST(ObsIntegrationTest, SequentialExecutePathTracesAllFourPhases) {
  obs::MetricsRegistry registry;
  obs::CasperMetrics metrics(&registry);

  CasperOptions options;
  options.pyramid.height = 6;
  options.metrics = &metrics;
  CasperService service(options);

  Rng rng(11);
  const Rect space = service.options().pyramid.space;
  for (anonymizer::UserId uid = 0; uid < 8; ++uid) {
    anonymizer::PrivacyProfile profile;
    profile.k = 2;
    ASSERT_TRUE(
        service.RegisterUser(uid, profile, rng.PointIn(space)).ok());
  }
  service.SetPublicTargets(workload::UniformPublicTargets(50, space, &rng));
  ASSERT_TRUE(service.QueryNearestPublic(3).ok());

  // The cloaked kind exercises cloak + wire_encode + evaluate + refine:
  // one finished span, folded into every phase histogram.
  EXPECT_EQ(metrics.tracer.finished_count(), 1u);
  const obs::MetricsSnapshot snapshot = registry.Scrape();
  size_t phases_seen = 0;
  for (const obs::MetricFamily& family : snapshot.families) {
    if (family.name != "casper_query_phase_seconds") continue;
    for (const obs::MetricSample& sample : family.samples) {
      ++phases_seen;
      EXPECT_GE(sample.histogram.count, 1u) << sample.labels[0].second;
      EXPECT_GT(sample.histogram.sum, 0.0) << sample.labels[0].second;
    }
  }
  EXPECT_EQ(phases_seen, obs::kPhaseCount);
}

}  // namespace
}  // namespace casper
