#include "src/obs/span.h"

#include <gtest/gtest.h>

/// Tests of the query-span tracer: phase accumulation, histogram
/// fold-in, and the finished-span count.

namespace casper::obs {
namespace {

TEST(SpanTest, ScopedPhaseAccumulatesOntoSpan) {
  QuerySpan span;
  {
    ScopedPhase phase(&span, Phase::kEvaluate);
  }
  {
    ScopedPhase phase(&span, Phase::kEvaluate);  // Accumulates, not replaces.
  }
  EXPECT_GT(span.phase_seconds[static_cast<size_t>(Phase::kEvaluate)], 0.0);
  EXPECT_DOUBLE_EQ(span.phase_seconds[static_cast<size_t>(Phase::kCloak)],
                   0.0);
  EXPECT_GT(span.TotalSeconds(), 0.0);
}

TEST(SpanTest, StartAssignsMonotonicIdsAndKind) {
  MetricsRegistry registry;
  QueryTracer tracer(&registry);
  const QuerySpan a = tracer.Start("nearest_public");
  const QuerySpan b = tracer.Start("density");
  EXPECT_LT(a.trace_id, b.trace_id);
  EXPECT_STREQ(a.kind, "nearest_public");
  EXPECT_STREQ(b.kind, "density");
}

TEST(SpanTest, FinishFoldsOnlyRunPhasesIntoHistograms) {
  MetricsRegistry registry;
  QueryTracer tracer(&registry);

  QuerySpan span = tracer.Start("range_public");
  span.phase_seconds[static_cast<size_t>(Phase::kCloak)] = 0.002;
  span.phase_seconds[static_cast<size_t>(Phase::kEvaluate)] = 0.004;
  // wire_encode and refine stay zero: phase not run.
  tracer.Finish(span);

  const MetricsSnapshot snapshot = registry.Scrape();
  const MetricFamily* phases = nullptr;
  for (const MetricFamily& family : snapshot.families) {
    if (family.name == "casper_query_phase_seconds") phases = &family;
  }
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->samples.size(), kPhaseCount);
  for (const MetricSample& sample : phases->samples) {
    const std::string& phase = sample.labels[0].second;
    const uint64_t expected =
        (phase == "cloak" || phase == "evaluate") ? 1u : 0u;
    EXPECT_EQ(sample.histogram.count, expected) << "phase=" << phase;
  }
  EXPECT_EQ(tracer.finished_count(), 1u);
}

TEST(SpanTest, RecordPhaseBypassesSpans) {
  MetricsRegistry registry;
  QueryTracer tracer(&registry);
  tracer.RecordPhase(Phase::kCloak, 0.01);
  const MetricsSnapshot snapshot = registry.Scrape();
  for (const MetricFamily& family : snapshot.families) {
    if (family.name != "casper_query_phase_seconds") continue;
    for (const MetricSample& sample : family.samples) {
      if (sample.labels[0].second == "cloak") {
        EXPECT_EQ(sample.histogram.count, 1u);
      }
    }
  }
  EXPECT_EQ(tracer.finished_count(), 0u);  // Not a finished span.
}

TEST(SpanTest, FinishCountsEverySpan) {
  MetricsRegistry registry;
  QueryTracer tracer(&registry);
  for (int i = 0; i < 5; ++i) {
    QuerySpan span = tracer.Start("density");
    EXPECT_EQ(span.trace_id, static_cast<uint64_t>(i + 1));
    span.phase_seconds[static_cast<size_t>(Phase::kEvaluate)] = 0.001;
    tracer.Finish(span);
  }
  EXPECT_EQ(tracer.finished_count(), 5u);
  for (const MetricFamily& family : registry.Scrape().families) {
    if (family.name != "casper_query_phase_seconds") continue;
    for (const MetricSample& sample : family.samples) {
      const uint64_t expected =
          sample.labels[0].second == "evaluate" ? 5u : 0u;
      EXPECT_EQ(sample.histogram.count, expected) << sample.labels[0].second;
    }
  }
}

TEST(SpanTest, PhaseNamesAreStable) {
  EXPECT_STREQ(PhaseName(Phase::kCloak), "cloak");
  EXPECT_STREQ(PhaseName(Phase::kWireEncode), "wire_encode");
  EXPECT_STREQ(PhaseName(Phase::kEvaluate), "evaluate");
  EXPECT_STREQ(PhaseName(Phase::kRefine), "refine");
}

}  // namespace
}  // namespace casper::obs
