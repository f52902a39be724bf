#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/span.h"

/// Concurrency tests of the metrics path, written to run under
/// ThreadSanitizer (ctest label `concurrency`): many writer threads
/// hammer the relaxed-atomic instruments while a reader scrapes
/// mid-flight, then a final quiescent scrape must be exact.

namespace casper::obs {
namespace {

TEST(MetricsConcurrencyTest, ParallelIncrementsWithConcurrentScrape) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("events_total", "h");
  Gauge* gauge = registry.GetGauge("depth", "h");
  Histogram* hist = registry.GetHistogram("latency", "h", {0.25, 0.5, 0.75});

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 20000;

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        counter->Increment();
        gauge->Set(static_cast<double>(t));
        hist->Observe(static_cast<double>(i % 100) / 100.0);
      }
    });
  }

  // Concurrent scrapes observe some consistent prefix of the updates;
  // the merged values must only ever move forward.
  uint64_t last_count = 0;
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snapshot = registry.Scrape();
    for (const MetricFamily& family : snapshot.families) {
      if (family.name != "events_total") continue;
      const auto scraped = static_cast<uint64_t>(family.samples[0].value);
      EXPECT_GE(scraped, last_count);
      EXPECT_LE(scraped, kThreads * kPerThread);
      last_count = scraped;
    }
  }
  for (std::thread& w : writers) w.join();

  // Quiescent: the merge across shards is exact.
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  const HistogramData data = hist->Snapshot();
  EXPECT_EQ(data.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t bucket : data.buckets) bucket_total += bucket;
  EXPECT_EQ(bucket_total, data.count);
}

TEST(MetricsConcurrencyTest, ConcurrentRegistrationReturnsOneInstrument) {
  MetricsRegistry registry;
  constexpr size_t kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        seen[t] = registry.GetCounter("shared_total", "h", {{"k", "v"}});
        seen[t]->Increment();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->Value(), kThreads * 1000u);
}

TEST(MetricsConcurrencyTest, TracerFinishFromManyThreads) {
  MetricsRegistry registry;
  QueryTracer tracer(&registry);
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < kPerThread; ++i) {
        QuerySpan span = tracer.Start("nearest_public");
        {
          ScopedPhase phase(&span, Phase::kEvaluate);
        }
        tracer.Finish(span);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(tracer.finished_count(), kThreads * kPerThread);
  // Every span's evaluate phase landed in its histogram exactly once.
  uint64_t evaluated = 0;
  for (const MetricFamily& family : registry.Scrape().families) {
    if (family.name != "casper_query_phase_seconds") continue;
    for (const MetricSample& sample : family.samples) {
      if (sample.labels[0].second == "evaluate") {
        evaluated = sample.histogram.count;
      }
    }
  }
  EXPECT_EQ(evaluated, kThreads * kPerThread);
}

}  // namespace
}  // namespace casper::obs
