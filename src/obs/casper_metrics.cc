#include "src/obs/casper_metrics.h"

namespace casper::obs {
namespace {

/// Latency bounds shared by cloak / query-processing histograms:
/// 1µs .. 1s, roughly logarithmic.
std::vector<double> LatencyBounds() {
  return {1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
          5e-4, 1e-3,   5e-3, 1e-2, 5e-2,   0.1,  0.5,  1.0};
}

/// Candidate-list size / k-achieved bounds (counts). The top buckets
/// cover 1M-target candidate lists, which run to ~4K records.
std::vector<double> CountBounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384, 65536};
}

/// Cloak-area bounds as absolute area in space units² (the managed
/// space is 1×1 by default, so these read as fractions of it).
std::vector<double> AreaBounds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0};
}

std::vector<double> BatchWallBounds() {
  return {1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0};
}

/// Retries-per-request bounds (small integers; the retry cap is single
/// digits in any sane policy).
std::vector<double> RetryBounds() {
  return {0, 1, 2, 3, 4, 6, 8, 16};
}

constexpr const char* kEventLabels[4] = {"register", "move", "profile",
                                         "deregister"};

}  // namespace

CasperMetrics::CasperMetrics(MetricsRegistry* r)
    : registry(r),
      cloaks_total(r->GetCounter("casper_anonymizer_cloaks_total",
                                 "Successful Algorithm-1 cloaks.")),
      cloak_failures_total(
          r->GetCounter("casper_anonymizer_cloak_failures_total",
                        "Cloak attempts that failed (unknown user, "
                        "unsatisfiable profile, ...).")),
      cloak_seconds(r->GetHistogram("casper_anonymizer_cloak_seconds",
                                    "Algorithm-1 cloaking latency.",
                                    LatencyBounds())),
      cloak_area(r->GetHistogram(
          "casper_anonymizer_cloak_area",
          "Cloaked-region area in space units squared.", AreaBounds())),
      cloak_k_achieved(r->GetHistogram(
          "casper_anonymizer_cloak_k_achieved",
          "Users inside the returned cloaked region (k').", CountBounds())),
      pyramid_splits_total(r->GetCounter(
          "casper_anonymizer_pyramid_splits_total",
          "Adaptive-pyramid cell splits during maintenance.")),
      pyramid_merges_total(r->GetCounter(
          "casper_anonymizer_pyramid_merges_total",
          "Adaptive-pyramid cell merges during maintenance.")),
      pyramid_counter_updates_total(r->GetCounter(
          "casper_anonymizer_pyramid_counter_updates_total",
          "Pyramid cell-counter mutations (the paper's update-cost "
          "metric).")),
      users(r->GetGauge("casper_anonymizer_users",
                        "Currently registered users.")),
      pending_publications(r->GetGauge(
          "casper_anonymizer_pending_publications",
          "Users whose profile cannot be satisfied yet (awaiting "
          "re-publication).")),
      snapshots_total(r->GetCounter("casper_anonymizer_snapshots_total",
                                    "Identity-stripped snapshots built.")),
      regions_published_total(r->GetCounter(
          "casper_anonymizer_regions_published_total",
          "Cloaked regions published to the server tier.")),
      regions_retracted_total(r->GetCounter(
          "casper_anonymizer_regions_retracted_total",
          "Stored regions retracted from the server tier.")),
      workload_dropped_updates_total(r->GetCounter(
          "casper_workload_dropped_updates_total",
          "Simulator location updates dropped because the uid is not "
          "registered with the anonymizer.")),
      cache_hits_total(r->GetCounter(
          "casper_server_cache_hits_total",
          "Candidate-list cache hits (shared cloak evaluations).")),
      cache_misses_total(r->GetCounter("casper_server_cache_misses_total",
                                       "Candidate-list cache misses.")),
      batches_total(r->GetCounter("casper_batch_batches_total",
                                  "BatchQueryEngine::Execute calls.")),
      batch_queries_total(r->GetCounter("casper_batch_queries_total",
                                        "Queries submitted in batches.")),
      batch_errors_total(r->GetCounter(
          "casper_batch_errors_total", "Batch slots that ended in error.")),
      batch_shed_total(r->GetCounter(
          "casper_batch_shed_total",
          "Batch slots shed with kUnavailable at the queue-depth "
          "watermark.")),
      batch_queue_depth(r->GetGauge(
          "casper_batch_queue_depth",
          "Tasks waiting in the engine's pool after fan-out.")),
      pool_utilization(r->GetGauge(
          "casper_batch_pool_utilization",
          "Worker busy-time share of the last batch (busy / threads x "
          "wall).")),
      pool_threads(r->GetGauge("casper_batch_pool_threads",
                               "Worker threads in the engine's pool.")),
      batch_wall_seconds(r->GetHistogram("casper_batch_wall_seconds",
                                         "Whole-batch wall time.",
                                         BatchWallBounds())),
      breaker_state(r->GetGauge(
          "casper_transport_breaker_state",
          "Circuit-breaker state: 0 closed, 1 open, 2 half-open.")),
      transport_requests_total(r->GetCounter(
          "casper_transport_requests_total",
          "Requests entering the resilient client.")),
      transport_retries_total(r->GetCounter(
          "casper_transport_retries_total",
          "Attempts re-sent after a retryable transport failure.")),
      transport_failures_total(r->GetCounter(
          "casper_transport_failures_total",
          "Channel attempts that failed (dropped, corrupted, rejected).")),
      transport_deadline_exceeded_total(r->GetCounter(
          "casper_transport_deadline_exceeded_total",
          "Requests abandoned at their deadline.")),
      transport_unavailable_total(r->GetCounter(
          "casper_transport_unavailable_total",
          "Requests that ultimately failed kUnavailable.")),
      transport_degraded_total(r->GetCounter(
          "casper_transport_degraded_total",
          "Private queries answered degraded from the candidate-list "
          "cache during an outage.")),
      transport_retries_per_request(r->GetHistogram(
          "casper_transport_retries_per_request",
          "Retries spent per request (0 = first attempt succeeded).",
          RetryBounds())),
      replay_enqueued_total(r->GetCounter(
          "casper_transport_replay_enqueued_total",
          "Maintenance messages queued while the server was "
          "unreachable.")),
      replay_drained_total(r->GetCounter(
          "casper_transport_replay_drained_total",
          "Queued maintenance messages applied on recovery.")),
      replay_dropped_total(r->GetCounter(
          "casper_transport_replay_dropped_total",
          "Maintenance messages rejected because the replay buffer was "
          "full.")),
      replay_depth(r->GetGauge(
          "casper_transport_replay_depth",
          "Maintenance messages currently queued for replay.")),
      net_connections_accepted_total(r->GetCounter(
          "casper_net_connections_accepted_total",
          "Socket connections accepted by the listener.")),
      net_connections_active(r->GetGauge(
          "casper_net_connections_active",
          "Socket connections currently open on the listener.")),
      net_frames_read_total(r->GetCounter(
          "casper_net_frames_read_total",
          "Complete request frames read off sockets.")),
      net_frames_written_total(r->GetCounter(
          "casper_net_frames_written_total",
          "Response frames written to sockets.")),
      net_bytes_read_total(r->GetCounter(
          "casper_net_bytes_read_total",
          "Bytes read off accepted sockets.")),
      net_bytes_written_total(r->GetCounter(
          "casper_net_bytes_written_total",
          "Bytes written to accepted sockets.")),
      net_shed_total(r->GetCounter(
          "casper_net_shed_total",
          "Frames answered kUnavailable at the inbound-queue "
          "watermark.")),
      net_rate_limited_total(r->GetCounter(
          "casper_net_rate_limited_total",
          "Frames rejected by per-peer rate or byte limits.")),
      net_bans_total(r->GetCounter(
          "casper_net_bans_total",
          "Peers temporarily banned for repeated abuse.")),
      net_ban_rejects_total(r->GetCounter(
          "casper_net_ban_rejects_total",
          "Connections refused because the peer is banned.")),
      net_banned_peers(r->GetGauge("casper_net_banned_peers",
                                   "Peers currently banned.")),
      net_inbound_queue_depth(r->GetGauge(
          "casper_net_inbound_queue_depth",
          "Admitted frames waiting for a listener worker.")),
      net_dials_total(r->GetCounter(
          "casper_net_dials_total",
          "Client socket connection attempts.")),
      net_dial_failures_total(r->GetCounter(
          "casper_net_dial_failures_total",
          "Client socket connection attempts that failed.")),
      net_reconnects_total(r->GetCounter(
          "casper_net_reconnects_total",
          "Successful client dials after at least one failure.")),
      net_backoff_fastfails_total(r->GetCounter(
          "casper_net_backoff_fastfails_total",
          "Client calls failed fast inside the reconnect-backoff "
          "window.")),
      net_io_timeouts_total(r->GetCounter(
          "casper_net_io_timeouts_total",
          "Client socket reads/writes abandoned at their deadline.")),
      storage_pages_read_total(r->GetCounter(
          "casper_storage_pages_read_total",
          "Logical pages read by the disk storage manager.")),
      storage_pages_written_total(r->GetCounter(
          "casper_storage_pages_written_total",
          "Logical pages written by the disk storage manager.")),
      storage_checksum_failures_total(r->GetCounter(
          "casper_storage_checksum_failures_total",
          "Pages whose checksum failed verification on load (torn or "
          "corrupt writes).")),
      tracer(r) {
  for (size_t i = 0; i < kBreakerStateCount; ++i) {
    breaker_transitions_total[i] =
        r->GetCounter("casper_transport_breaker_transitions_total",
                      "Circuit-breaker transitions by target state.",
                      {{"to", kBreakerStateLabels[i]}});
  }
  for (size_t i = 0; i < kNetCloseReasonCount; ++i) {
    net_connections_closed_total[i] =
        r->GetCounter("casper_net_connections_closed_total",
                      "Socket connections closed, by reason.",
                      {{"reason", kNetCloseReasonLabels[i]}});
  }
  for (size_t i = 0; i < 4; ++i) {
    user_events_total[i] =
        r->GetCounter("casper_anonymizer_events_total",
                      "User lifecycle events by type.",
                      {{"event", kEventLabels[i]}});
  }
  for (size_t s = 0; s < kStoreCount; ++s) {
    const LabelSet labels = {{"store", kStoreLabels[s]}};
    store_epoch[s] = r->GetGauge(
        "casper_server_store_epoch",
        "Read snapshots published by the epoch index so far.", labels);
    store_snapshots_reclaimed[s] = r->GetGauge(
        "casper_server_store_snapshots_reclaimed",
        "Retired read snapshots whose memory was reclaimed.", labels);
    store_rebuilds[s] = r->GetGauge(
        "casper_server_store_rebuilds",
        "Flat-base STR rebuilds triggered by the delta threshold.", labels);
    store_delta_entries[s] = r->GetGauge(
        "casper_server_store_delta_entries",
        "Entries in the published snapshot's unmerged delta.", labels);
    store_tombstones[s] = r->GetGauge(
        "casper_server_store_tombstones",
        "Tombstones in the published snapshot's unmerged delta.", labels);
  }
  for (size_t k = 0; k < kQueryKindCount; ++k) {
    const LabelSet labels = {{"kind", kQueryKindLabels[k]}};
    queries_total[k] =
        r->GetCounter("casper_server_queries_total",
                      "Queries answered by the server tier.", labels);
    query_errors_total[k] =
        r->GetCounter("casper_server_query_errors_total",
                      "Server-tier evaluations that failed.", labels);
    query_seconds[k] = r->GetHistogram(
        "casper_server_query_seconds",
        "Server-side processing latency per query.", LatencyBounds(), labels);
    candidates[k] = r->GetHistogram(
        "casper_server_candidates",
        "Candidate-list records returned per query.", CountBounds(), labels);
  }
}

CasperMetrics* CasperMetrics::Default() {
  static CasperMetrics* const metrics =
      new CasperMetrics(MetricsRegistry::Default());
  return metrics;
}

}  // namespace casper::obs
