#ifndef CASPER_OBS_CASPER_METRICS_H_
#define CASPER_OBS_CASPER_METRICS_H_

#include "src/obs/metrics.h"
#include "src/obs/span.h"

/// \file
/// The named instruments of the serving path, registered once and
/// shared by the three tiers. Naming scheme (see DESIGN.md §2c):
/// `casper_<tier>_<what>[_<unit>][_total]` with `kind=`, `event=`, and
/// `phase=` labels; the seven `kind` label values follow the QueryKind
/// wire order, mirrored here as strings so this directory stays
/// dependency-free of the protocol headers (and therefore usable from
/// both sides of the trust boundary).
///
/// Components resolve a null options pointer to Default(), which hangs
/// off MetricsRegistry::Default() — the registry `casper_cli metrics`
/// scrapes. Tests inject a fresh registry instead.

namespace casper::obs {

/// Mirror of the QueryKind count/order (static_assert'd at the one
/// include site that sees both, src/casper/casper.cc).
inline constexpr size_t kQueryKindCount = 7;
inline constexpr const char* kQueryKindLabels[kQueryKindCount] = {
    "nearest_public", "k_nearest_public", "range_public", "nearest_private",
    "public_nearest", "public_range",     "density",
};

struct CasperMetrics {
  explicit CasperMetrics(MetricsRegistry* registry);

  /// The process-wide bundle over MetricsRegistry::Default().
  static CasperMetrics* Default();

  MetricsRegistry* registry;

  // --- Anonymizer tier (trusted) --------------------------------------
  Counter* cloaks_total;
  Counter* cloak_failures_total;
  Histogram* cloak_seconds;     ///< Algorithm-1 latency.
  Histogram* cloak_area;        ///< Cloaked-region area (space units²).
  Histogram* cloak_k_achieved;  ///< Users inside the region (k').
  Counter* pyramid_splits_total;
  Counter* pyramid_merges_total;
  Counter* pyramid_counter_updates_total;
  Counter* user_events_total[4];  ///< register / move / profile / deregister.
  Gauge* users;
  Gauge* pending_publications;
  Counter* snapshots_total;
  Counter* regions_published_total;
  Counter* regions_retracted_total;
  Counter* workload_dropped_updates_total;  ///< Simulator updates for
                                            ///< unregistered uids.

  // --- Server tier (untrusted), per query kind ------------------------
  Counter* queries_total[kQueryKindCount];
  Counter* query_errors_total[kQueryKindCount];
  Histogram* query_seconds[kQueryKindCount];  ///< Processor latency.
  Histogram* candidates[kQueryKindCount];     ///< Candidate-list size.
  Counter* cache_hits_total;
  Counter* cache_misses_total;

  /// Epoch-published store snapshots (spatial::EpochIndex), per store
  /// population (`store=` label, kStoreLabels order). Absolute values
  /// mirrored from the index's own counters after every mutation, so
  /// they are gauges: scrape-to-scrape deltas recover the rates.
  Gauge* store_epoch[2];                ///< Snapshots published so far.
  Gauge* store_snapshots_reclaimed[2];  ///< Retired snapshots freed.
  Gauge* store_rebuilds[2];             ///< Flat-base STR rebuilds.
  Gauge* store_delta_entries[2];        ///< Entries in the current delta.
  Gauge* store_tombstones[2];           ///< Tombstones in the current delta.

  // --- Batch engine ----------------------------------------------------
  Counter* batches_total;
  Counter* batch_queries_total;
  Counter* batch_errors_total;
  Counter* batch_shed_total;  ///< Slots shed at the queue-depth watermark.
  Gauge* batch_queue_depth;
  Gauge* pool_utilization;  ///< Busy-time share of the last batch.
  Gauge* pool_threads;
  Histogram* batch_wall_seconds;

  // --- Transport (anonymizer <-> server channel) ------------------------
  Gauge* breaker_state;  ///< BreakerState wire value: 0 closed, 1 open,
                         ///< 2 half-open.
  Counter* breaker_transitions_total[3];  ///< By target state (`to=`).
  Counter* transport_requests_total;      ///< Calls entering the client.
  Counter* transport_retries_total;       ///< Re-sent attempts.
  Counter* transport_failures_total;      ///< Failed channel attempts.
  Counter* transport_deadline_exceeded_total;
  Counter* transport_unavailable_total;   ///< Calls failed kUnavailable.
  Counter* transport_degraded_total;      ///< Cache-served answers.
  Histogram* transport_retries_per_request;
  Counter* replay_enqueued_total;  ///< Upserts queued during an outage.
  Counter* replay_drained_total;   ///< Queued upserts applied on recovery.
  Counter* replay_dropped_total;   ///< Queued upserts lost to the bound.
  Gauge* replay_depth;

  // --- Socket transport (framed TCP/UDS, listener + client) -------------
  Counter* net_connections_accepted_total;
  Gauge* net_connections_active;
  Counter* net_connections_closed_total[8];  ///< By `reason=`
                                             ///< (kNetCloseReasonLabels).
  Counter* net_frames_read_total;
  Counter* net_frames_written_total;
  Counter* net_bytes_read_total;
  Counter* net_bytes_written_total;
  Counter* net_shed_total;  ///< Frames answered kUnavailable at the
                            ///< inbound-queue watermark.
  Counter* net_rate_limited_total;  ///< Frames rejected by per-peer
                                    ///< rate/byte limits.
  Counter* net_bans_total;          ///< Peers banned for repeat abuse.
  Counter* net_ban_rejects_total;   ///< Connections refused while banned.
  Gauge* net_banned_peers;
  Gauge* net_inbound_queue_depth;  ///< Admitted frames awaiting a worker.
  Counter* net_dials_total;        ///< Client connection attempts.
  Counter* net_dial_failures_total;
  Counter* net_reconnects_total;  ///< Successful dials after a failure.
  Counter* net_backoff_fastfails_total;  ///< Calls failed fast inside the
                                         ///< reconnect-backoff window.
  Counter* net_io_timeouts_total;  ///< Client reads/writes abandoned at
                                   ///< their deadline.

  // --- Storage tier (disk page store) -----------------------------------
  Counter* storage_pages_read_total;     ///< Pages read by the disk backend.
  Counter* storage_pages_written_total;  ///< Pages written by the disk
                                         ///< backend.
  Counter* storage_checksum_failures_total;  ///< Torn/corrupt pages detected.

  // --- Query-path spans -------------------------------------------------
  QueryTracer tracer;
};

/// Index of a lifecycle event in `user_events_total`.
enum class UserEvent : size_t {
  kRegister = 0,
  kMove = 1,
  kProfile = 2,
  kDeregister = 3
};

/// Store populations, in `store_*` instrument label order.
inline constexpr size_t kStoreCount = 2;
inline constexpr const char* kStoreLabels[kStoreCount] = {"public",
                                                          "private"};

/// Socket-connection close reasons, in `net_connections_closed_total`
/// label order (mirrors transport::SocketListener without a header
/// dependency).
inline constexpr size_t kNetCloseReasonCount = 8;
inline constexpr const char* kNetCloseReasonLabels[kNetCloseReasonCount] = {
    "eof",    "error", "idle", "slow_loris",
    "frame_error", "banned", "cap",  "drain"};

/// Circuit-breaker states, in `breaker_state` gauge / transition-label
/// order (mirrors transport::BreakerState without a header dependency —
/// obs stays includable from both sides of the trust boundary).
inline constexpr size_t kBreakerStateCount = 3;
inline constexpr const char* kBreakerStateLabels[kBreakerStateCount] = {
    "closed", "open", "half_open"};

}  // namespace casper::obs

#endif  // CASPER_OBS_CASPER_METRICS_H_
