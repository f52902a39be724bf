#ifndef CASPER_TRANSPORT_RESILIENT_CLIENT_H_
#define CASPER_TRANSPORT_RESILIENT_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>

#include "src/casper/messages.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/obs/casper_metrics.h"
#include "src/processor/concurrent_query_cache.h"
#include "src/transport/channel.h"

/// \file
/// The anonymizer-side client of the tier channel, and the home of every
/// resilience mechanism in the transport:
///
///  - **Deadlines** — each logical request gets a wall-clock budget; once
///    it is spent the call fails kDeadlineExceeded (terminal: the budget
///    cannot be un-spent, so deadline failures are never retried).
///  - **Retries** — kUnavailable and kDataLoss are retried with capped
///    exponential backoff and deterministic jitter (seeded Rng), re-sending
///    the *same* request id so the server's idempotency window can replay
///    the original outcome of a duplicated delivery.
///  - **Circuit breaking** — consecutive transport failures open a
///    three-state breaker (closed -> open -> half-open); while open, calls
///    fail fast without touching the channel, and after a cool-down a few
///    probe requests decide between re-closing and re-opening. The state is
///    exported as the `casper_transport_breaker_state` gauge.
///  - **Graceful degradation** — see Execute() and Apply(): unreachable-
///    server failures fall back to cache-served degraded answers (queries)
///    or a bounded replay buffer (maintenance). Degradation never weakens
///    privacy: everything that crosses the channel is already cloaked, and
///    the fallbacks only ever *reuse* previously-cloaked artifacts.
///
/// Application-level errors carried in an AckMsg (kNotFound,
/// kInvalidArgument, ...) are *successes* for the breaker — the server
/// answered; the channel is healthy — and are returned to the caller
/// unchanged and unretried.

namespace casper::transport {

/// Breaker states, in wire/gauge order (obs::kBreakerStateLabels).
enum class BreakerState : int {
  kClosed = 0,    ///< Healthy: calls flow, failures are counted.
  kOpen = 1,      ///< Tripped: calls fail fast until the cool-down ends.
  kHalfOpen = 2,  ///< Probing: a few successes re-close, one failure
                  ///< re-opens.
};

/// Deadline / retry / backoff knobs. Defaults are sized for the
/// in-process channel (microsecond round trips): tests override them.
struct RetryPolicy {
  /// Total attempts per logical request (first try + retries).
  int max_attempts = 3;
  double initial_backoff_seconds = 0.0005;
  double max_backoff_seconds = 0.01;
  double backoff_multiplier = 2.0;
  /// Each backoff is scaled by a uniform factor in
  /// [1 - jitter_fraction, 1 + jitter_fraction], drawn from the seeded
  /// jitter Rng — deterministic for a fixed seed.
  double jitter_fraction = 0.2;
  /// Wall-clock budget per logical request, spanning all attempts and
  /// backoffs; <= 0 disables the deadline.
  double deadline_seconds = 0.05;
};

struct BreakerPolicy {
  /// Consecutive transport failures that trip the breaker open.
  int failure_threshold = 5;
  /// Cool-down before an open breaker admits its first probe.
  double open_seconds = 0.05;
  /// Probe successes required to re-close from half-open.
  int half_open_successes = 2;
};

struct DegradationPolicy {
  /// Serve breaker-open / retries-exhausted private NN queries from the
  /// candidate-list cache, flagged degraded=true (inclusive, possibly
  /// non-minimal). Never serves stale-epoch entries.
  bool serve_degraded_from_cache = true;
  /// Maintenance messages queued while the server is unreachable; 0
  /// disables the replay buffer (failures surface immediately).
  size_t replay_buffer_capacity = 1024;
};

struct ResilienceOptions {
  RetryPolicy retry;
  BreakerPolicy breaker;
  DegradationPolicy degradation;

  /// Seed of the backoff-jitter stream.
  uint64_t jitter_seed = 0xCA59E12;

  /// Monotonic clock in seconds; null uses a steady-clock stopwatch.
  /// Injected by tests to drive deadlines and breaker cool-downs
  /// deterministically.
  std::function<double()> clock;

  /// Backoff sleeper; null uses std::this_thread::sleep_for. Tests
  /// inject a recorder so retries take zero wall time.
  std::function<void(double seconds)> sleep;

  /// Instrument bundle; null resolves to obs::CasperMetrics::Default().
  obs::CasperMetrics* metrics = nullptr;
};

/// The resilient anonymizer->server client. Thread-safe: Execute() may be
/// called from many threads at once (the batch engine does); maintenance
/// (Apply / Load / Flush) keeps the store contract of QueryServer —
/// single-threaded, never concurrent with queries — and the replay buffer
/// is only drained from maintenance calls for the same reason.
class ResilientClient : public PrivateStoreSink {
 public:
  /// The channel must outlive the client.
  ResilientClient(Channel* channel, const ResilienceOptions& options);

  /// Send one cloaked query. Stamps a fresh request id, retries
  /// transport failures within the deadline, and validates that the
  /// response answers *this* request (id echo) before returning it.
  /// When the server is unreachable (breaker open, retries exhausted,
  /// or deadline spent) and the query is a private NN with a live
  /// cache entry for the same cloak, returns that entry flagged
  /// degraded=true instead of failing — inclusiveness holds because
  /// the entry was computed for the same cloak in the current store
  /// epoch; minimality may not.
  Result<CandidateListMsg> Execute(const CloakedQueryMsg& query,
                                   processor::ConcurrentQueryCache* cache);

  /// Maintenance stream (PrivateStoreSink). On transport failure the
  /// message is queued in the bounded replay buffer and OK is returned
  /// — the upsert is durable in the client and will be drained, in
  /// order, by the next maintenance call that finds the channel
  /// healthy (or an explicit Flush()). kUnavailable is returned only
  /// when the buffer is full (the message is truly lost; counted in
  /// `casper_transport_replay_dropped_total`).
  Status Apply(const RegionUpsertMsg& msg) override;
  Status Apply(const RegionRemoveMsg& msg) override;

  /// Bulk snapshot. On success the replay buffer is cleared — the
  /// snapshot supersedes every queued incremental change.
  Status Load(const SnapshotMsg& snapshot);

  /// Drain the replay buffer now. OK when it empties (or was empty);
  /// otherwise the transport error that stopped the drain.
  Status Flush();

  BreakerState breaker_state() const;
  size_t replay_depth() const;

 private:
  struct ReplayEntry {
    uint64_t request_id = 0;
    std::string bytes;
  };

  uint64_t NextRequestId() { return next_id_.fetch_add(1); }

  /// The full resilience pipeline for one logical request: breaker
  /// admission, deadline, attempts with backoff. Each attempt's response
  /// is decoded once, straight into `Reply` (CandidateListMsg for a
  /// query, AckMsg for maintenance): an ack carrying an error becomes
  /// that error, and anything undecodable, of the wrong type, or
  /// answering another request becomes kDataLoss and is retried.
  /// Returns the decoded reply, or the final classified Status.
  template <typename Reply>
  Result<Reply> CallResilient(const std::string& request,
                              uint64_t request_id,
                              const CallContext& context);

  /// Shared maintenance path: drain the backlog, send, queue on
  /// transport failure. Caller must hold maintenance_mu_.
  Status ApplyMaintenanceLocked(std::string bytes, uint64_t request_id);
  Status DrainLocked();
  Status EnqueueLocked(std::string bytes, uint64_t request_id);

  // Breaker (guarded by mu_).
  Status Admit();
  void RecordSuccess();
  void RecordFailure();
  void TransitionLocked(BreakerState to);

  double Now() const { return clock_(); }
  double JitteredBackoff(int completed_attempts);

  Channel* channel_;
  ResilienceOptions options_;
  obs::CasperMetrics* metrics_;
  Stopwatch watch_;  ///< Backs the default clock.
  std::function<double()> clock_;
  std::function<void(double)> sleep_;

  std::atomic<uint64_t> next_id_{1};

  mutable std::mutex mu_;  ///< Breaker state + jitter Rng.
  Rng jitter_rng_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  double open_until_seconds_ = 0.0;

  mutable std::mutex maintenance_mu_;  ///< Replay buffer.
  std::deque<ReplayEntry> replay_;
};

}  // namespace casper::transport

#endif  // CASPER_TRANSPORT_RESILIENT_CLIENT_H_
