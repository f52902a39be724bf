#include "src/casper/batch_query_engine.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <optional>
#include <utility>

#include "src/common/stopwatch.h"

namespace casper::server {

QueryRequest BatchQueryRequest::ToRequest() const {
  switch (kind) {
    case QueryKind::kNearestPublic:
      return NearestPublicQ{uid};
    case QueryKind::kKNearestPublic:
      return KNearestPublicQ{uid, k};
    case QueryKind::kRangePublic:
      return RangePublicQ{uid, radius};
    case QueryKind::kNearestPrivate:
      return NearestPrivateQ{uid};
    case QueryKind::kPublicNearest:
      return PublicNearestQ{point};
    case QueryKind::kPublicRange:
      return PublicRangeQ{region};
    case QueryKind::kDensity:
      return DensityQ{cols, rows};
  }
  return NearestPublicQ{uid};
}

BatchQueryEngine::BatchQueryEngine(CasperService* service,
                                   const BatchEngineOptions& options)
    : service_(service), options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : obs::CasperMetrics::Default()),
      pool_(options.threads > 0 ? options.threads : 1) {
  CASPER_DCHECK(service != nullptr);
  metrics_->pool_threads->Set(
      static_cast<double>(options_.threads > 0 ? options_.threads : 1));
  if (options_.use_cache) {
    cache_ = std::make_unique<processor::ConcurrentQueryCache>(
        &service_->public_store(), options_.cache_capacity,
        service_->options().filter_policy, options_.cache_shards);
    cache_->AttachMetrics(metrics_->cache_hits_total,
                          metrics_->cache_misses_total);
  }
}

void BatchQueryEngine::EvaluateOne(const BatchQueryRequest& request,
                                   const anonymizer::CloakingResult& cloak,
                                   double anonymizer_seconds,
                                   BatchQueryResponse* out) const {
  auto result = service_->Evaluate(request.ToRequest(), cloak, cache_.get(),
                                   anonymizer_seconds);
  out->status = result.status();
  if (!result.ok()) return;
  QueryResponse response = std::move(result).value();
  SetAnonymizerSeconds(response, anonymizer_seconds);
  std::visit([out](auto&& payload) { out->payload = std::move(payload); },
             std::move(response));
}

BatchResult BatchQueryEngine::Execute(
    const std::vector<BatchQueryRequest>& requests) {
  const size_t n = requests.size();
  BatchResult result;
  result.responses.resize(n);
  result.summary.batch_size = n;
  const double busy_before = pool_.busy_seconds();
  Stopwatch wall;

  // Phase 1 — sequential cloaking of the private kinds. The anonymizer
  // mutates bookkeeping (stats, adaptive structure on other entry
  // points), so this phase stays on the calling thread; it is also the
  // cheap half (Figure 17: anonymizer time is negligible next to
  // processor time). Public kinds carry exact parameters and skip it.
  std::vector<std::optional<anonymizer::CloakingResult>> cloaks(n);
  std::vector<double> anonymizer_seconds(n, 0.0);
  std::vector<char> ready(n, 0);
  Stopwatch cloak_watch;
  for (size_t i = 0; i < n; ++i) {
    result.responses[i].kind = requests[i].kind;
    if (!IsCloakedKind(requests[i].kind)) {
      ready[i] = 1;
      continue;
    }
    Stopwatch watch;
    auto cloak = service_->anonymizer_tier().Cloak(requests[i].uid);
    anonymizer_seconds[i] = watch.ElapsedSeconds();
    if (!cloak.ok()) {
      result.responses[i].status = cloak.status();
      continue;
    }
    cloaks[i] = std::move(cloak).value();
    ready[i] = 1;
  }
  result.summary.cloak_seconds = cloak_watch.ElapsedSeconds();

  // Phase 2 — parallel read-only evaluation through the unified
  // dispatch: one pool task per worker, each pulling the next ready
  // slot from a shared cursor until none is left. Each slot is claimed
  // by exactly one task, so request order is preserved by
  // construction, and the shard-locked cache is the only shared
  // mutable state.
  std::vector<size_t> ready_idx;
  ready_idx.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (ready[i]) ready_idx.push_back(i);
  }
  const size_t threads = options_.threads > 0 ? options_.threads : 1;
  if (options_.shed_queue_depth > 0) {
    // Overload degradation: admit at most the watermark per worker and
    // fail the overflow fast instead of letting queued latency grow
    // without bound.
    const size_t admit_cap = options_.shed_queue_depth * threads;
    for (size_t j = admit_cap; j < ready_idx.size(); ++j) {
      result.responses[ready_idx[j]].status =
          Status::Unavailable("batch engine overloaded; query shed");
      metrics_->batch_shed_total->Increment();
    }
    if (ready_idx.size() > admit_cap) ready_idx.resize(admit_cap);
  }
  // High-water queue depth of this batch: everything admitted is
  // queued before execution starts.
  metrics_->batch_queue_depth->Set(static_cast<double>(ready_idx.size()));
  std::atomic<size_t> cursor{0};
  auto drain = [&] {
    for (size_t j = cursor++; j < ready_idx.size(); j = cursor++) {
      const size_t i = ready_idx[j];
      EvaluateOne(requests[i],
                  cloaks[i].has_value() ? *cloaks[i]
                                        : anonymizer::CloakingResult{},
                  anonymizer_seconds[i], &result.responses[i]);
    }
  };
  // Joining every task's future orders its slot writes before the
  // aggregation below. A Submit that fails (the pool is shutting down)
  // runs the loop on the calling thread instead.
  const size_t tasks = std::min(threads, ready_idx.size());
  std::vector<std::future<void>> workers;
  workers.reserve(tasks);
  for (size_t t = 0; t < tasks; ++t) {
    auto submitted = pool_.Submit([&drain] { drain(); });
    if (submitted.ok()) {
      workers.push_back(std::move(submitted).value());
    } else {
      drain();
    }
  }
  for (std::future<void>& worker : workers) worker.get();
  metrics_->batch_queue_depth->Set(0.0);

  // Aggregate: throughput, latency percentiles, Figure-17 totals.
  result.summary.wall_seconds = wall.ElapsedSeconds();
  if (result.summary.wall_seconds > 0.0) {
    result.summary.queries_per_second =
        static_cast<double>(n) / result.summary.wall_seconds;
  }
  SummaryStats processor_micros;
  for (const BatchQueryResponse& response : result.responses) {
    if (!response.ok()) {
      ++result.summary.error_count;
      continue;
    }
    ++result.summary.ok_count;
    const TimingBreakdown* timing = response.timing();
    if (timing == nullptr) continue;  // Untimed public-over-private kind.
    processor_micros.Add(timing->processor_seconds * 1e6);
    result.summary.totals.anonymizer_seconds += timing->anonymizer_seconds;
    result.summary.totals.processor_seconds += timing->processor_seconds;
    result.summary.totals.transmission_seconds +=
        timing->transmission_seconds;
  }
  result.summary.processor_p50_micros = processor_micros.Quantile(0.50);
  result.summary.processor_p95_micros = processor_micros.Quantile(0.95);
  result.summary.processor_p99_micros = processor_micros.Quantile(0.99);
  result.summary.processor_mean_micros =
      processor_micros.count() > 0 ? processor_micros.mean() : 0.0;
  if (cache_) result.summary.cache = cache_->stats();

  metrics_->batches_total->Increment();
  metrics_->batch_queries_total->Increment(n);
  metrics_->batch_errors_total->Increment(result.summary.error_count);
  metrics_->batch_wall_seconds->Observe(result.summary.wall_seconds);
  if (result.summary.wall_seconds > 0.0) {
    metrics_->pool_utilization->Set(
        (pool_.busy_seconds() - busy_before) /
        (result.summary.wall_seconds * static_cast<double>(threads)));
  }
  return result;
}

}  // namespace casper::server
