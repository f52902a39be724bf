#ifndef CASPER_CASPER_BATCH_QUERY_ENGINE_H_
#define CASPER_CASPER_BATCH_QUERY_ENGINE_H_

#include <memory>
#include <variant>
#include <vector>

#include "src/casper/casper.h"
#include "src/common/stats.h"
#include "src/common/thread_pool.h"
#include "src/processor/concurrent_query_cache.h"

/// \file
/// Parallel batch query engine: answers a heterogeneous batch of
/// queries by splitting each one along the paper's own architectural
/// seam. Cloaking runs sequentially on the calling thread — the
/// anonymizer is the paper's single trusted middleware process and its
/// structures are not thread-safe — while the expensive server-side
/// evaluation plus client-side refinement, which are read-only over the
/// target stores, fan out across a fixed ThreadPool through the unified
/// CasperService::Evaluate dispatch. The only shared mutable state
/// during the parallel phase is the shard-locked candidate-list cache.
///
/// Responses come back in request order regardless of completion order,
/// and the engine aggregates the per-query TimingBreakdowns into
/// throughput and latency percentiles — the axis the scaling
/// experiments (and the related LBS-performance literature) measure.
///
/// The engine lives with the facade (not under src/server/) because it
/// orchestrates all three tiers; the namespace is kept for source
/// compatibility with its original home.

namespace casper::server {

/// The tier-level query taxonomy, re-exported under the engine's
/// original spelling (server::QueryKind).
using QueryKind = casper::QueryKind;

/// One batch slot's input: a flat, copyable superset of every kind's
/// parameters plus factories per kind. ToRequest() lowers it onto the
/// unified QueryRequest variant the facade dispatches on.
struct BatchQueryRequest {
  QueryKind kind = QueryKind::kNearestPublic;
  uint64_t uid = 0;     ///< Private (cloaked) kinds only.
  size_t k = 1;         ///< kKNearestPublic only.
  double radius = 0.0;  ///< kRangePublic only.
  Point point;          ///< kPublicNearest only.
  Rect region;          ///< kPublicRange only.
  int cols = 0;         ///< kDensity only.
  int rows = 0;         ///< kDensity only.

  static BatchQueryRequest NearestPublic(uint64_t uid) {
    BatchQueryRequest request;
    request.kind = QueryKind::kNearestPublic;
    request.uid = uid;
    return request;
  }
  static BatchQueryRequest KNearestPublic(uint64_t uid, size_t k) {
    BatchQueryRequest request;
    request.kind = QueryKind::kKNearestPublic;
    request.uid = uid;
    request.k = k;
    return request;
  }
  static BatchQueryRequest RangePublic(uint64_t uid, double radius) {
    BatchQueryRequest request;
    request.kind = QueryKind::kRangePublic;
    request.uid = uid;
    request.radius = radius;
    return request;
  }
  static BatchQueryRequest NearestPrivate(uint64_t uid) {
    BatchQueryRequest request;
    request.kind = QueryKind::kNearestPrivate;
    request.uid = uid;
    return request;
  }
  static BatchQueryRequest PublicNearest(const Point& q) {
    BatchQueryRequest request;
    request.kind = QueryKind::kPublicNearest;
    request.point = q;
    return request;
  }
  static BatchQueryRequest PublicRange(const Rect& region) {
    BatchQueryRequest request;
    request.kind = QueryKind::kPublicRange;
    request.region = region;
    return request;
  }
  static BatchQueryRequest Density(int cols, int rows) {
    BatchQueryRequest request;
    request.kind = QueryKind::kDensity;
    request.cols = cols;
    request.rows = rows;
    return request;
  }

  QueryRequest ToRequest() const;
};

/// The answer payload of one slot: exactly one alternative is engaged
/// when `status.ok()`, monostate otherwise — by construction, not by
/// convention (and a fraction of the footprint of the four parallel
/// optionals it replaced).
using BatchPayload =
    std::variant<std::monostate, PublicNNResponse, PublicKnnResponse,
                 PublicRangeResponse, PrivateNNResponse,
                 processor::PublicNNCandidates, processor::RangeCountResult,
                 processor::DensityMap>;

/// One slot per request, in request order.
struct BatchQueryResponse {
  QueryKind kind = QueryKind::kNearestPublic;
  Status status;
  BatchPayload payload;

  bool ok() const { return status.ok(); }

  const PublicNNResponse* nearest_public() const {
    return std::get_if<PublicNNResponse>(&payload);
  }
  const PublicKnnResponse* k_nearest_public() const {
    return std::get_if<PublicKnnResponse>(&payload);
  }
  const PublicRangeResponse* range_public() const {
    return std::get_if<PublicRangeResponse>(&payload);
  }
  const PrivateNNResponse* nearest_private() const {
    return std::get_if<PrivateNNResponse>(&payload);
  }
  const processor::PublicNNCandidates* public_nearest() const {
    return std::get_if<processor::PublicNNCandidates>(&payload);
  }
  const processor::RangeCountResult* public_range() const {
    return std::get_if<processor::RangeCountResult>(&payload);
  }
  const processor::DensityMap* density() const {
    return std::get_if<processor::DensityMap>(&payload);
  }

  /// Timing of the payload; nullptr on error slots and on the
  /// public-over-private kinds (which have always been untimed).
  const TimingBreakdown* timing() const {
    if (const auto* r = nearest_public()) return &r->timing;
    if (const auto* r = k_nearest_public()) return &r->timing;
    if (const auto* r = range_public()) return &r->timing;
    if (const auto* r = nearest_private()) return &r->timing;
    return nullptr;
  }
};

struct BatchEngineOptions {
  /// Worker threads evaluating queries (the cloaking phase is always
  /// sequential).
  size_t threads = 4;

  /// Memoize NN candidate lists by cloak rectangle across the batch
  /// (and across batches, until the target set changes).
  bool use_cache = true;
  size_t cache_capacity = 1024;
  size_t cache_shards = processor::ConcurrentQueryCache::kDefaultShards;

  /// Instrument bundle; null resolves to obs::CasperMetrics::Default().
  /// Feeds the batch gauges (queue depth, pool utilization) and routes
  /// the cache's hit/miss counts into the registry.
  obs::CasperMetrics* metrics = nullptr;

  /// Load-shedding watermark: a batch admits at most this many queries
  /// per worker, i.e. the first `shed_queue_depth * threads` ready
  /// slots, and fails the rest fast with kUnavailable (counted in
  /// `casper_batch_shed_total`). 0 disables shedding (the default —
  /// batches are admitted whole).
  size_t shed_queue_depth = 0;
};

/// Aggregate cost of one Execute() call.
struct BatchSummary {
  size_t batch_size = 0;
  size_t ok_count = 0;
  size_t error_count = 0;

  double wall_seconds = 0.0;        ///< Whole batch, cloaking included.
  double cloak_seconds = 0.0;       ///< Sequential anonymizer phase.
  double queries_per_second = 0.0;  ///< batch_size / wall_seconds.

  /// Per-query processor (server evaluation) latency percentiles, in
  /// microseconds, over the successful timed slots.
  double processor_p50_micros = 0.0;
  double processor_p95_micros = 0.0;
  double processor_p99_micros = 0.0;
  double processor_mean_micros = 0.0;

  /// Summed per-query breakdown (Figure 17's decomposition, batch-wide).
  TimingBreakdown totals;

  /// Cache counters accumulated over this engine's lifetime.
  processor::QueryCacheStats cache;
};

struct BatchResult {
  std::vector<BatchQueryResponse> responses;  ///< Request order.
  BatchSummary summary;
};

/// The engine borrows the service; the service must outlive it. One
/// Execute() call runs at a time per engine (callers serialize), and no
/// mutating CasperService call may run concurrently with Execute() —
/// the same external-synchronization contract as the underlying stores.
class BatchQueryEngine {
 public:
  explicit BatchQueryEngine(CasperService* service,
                            const BatchEngineOptions& options = {});

  /// Answer the whole batch; responses[i] corresponds to requests[i].
  /// Per-query failures (unknown uid, unsynced private data, ...) land
  /// in the slot's status and never abort the rest of the batch.
  BatchResult Execute(const std::vector<BatchQueryRequest>& requests);

  const BatchEngineOptions& options() const { return options_; }
  const processor::ConcurrentQueryCache* cache() const {
    return cache_.get();
  }

 private:
  void EvaluateOne(const BatchQueryRequest& request,
                   const anonymizer::CloakingResult& cloak,
                   double anonymizer_seconds, BatchQueryResponse* out) const;

  CasperService* service_;
  BatchEngineOptions options_;
  obs::CasperMetrics* metrics_;
  ThreadPool pool_;
  std::unique_ptr<processor::ConcurrentQueryCache> cache_;
};

}  // namespace casper::server

#endif  // CASPER_CASPER_BATCH_QUERY_ENGINE_H_
