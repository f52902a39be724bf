#include "src/transport/resilient_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <type_traits>
#include <utility>

namespace casper::transport {
namespace {

/// Failures of the *transport* (retry / breaker / degradation territory),
/// as opposed to application errors the server answered with.
bool IsTransportFailure(const Status& status) {
  return status.IsRetryable() ||
         status.code() == StatusCode::kDeadlineExceeded;
}

/// One attempt's response bytes as the reply to `request_id`, unsealed
/// and parsed exactly once: the `Reply` message, the error a well-formed
/// ack carries (an application error, terminal), or kDataLoss for a
/// frame that is undecodable, of the wrong type, or answering a
/// different request (a transport failure, retried).
template <typename Reply>
Result<Reply> DecodeReply(const std::string& bytes, uint64_t request_id) {
  Result<MessageTag> tag = TagOf(bytes);
  if (!tag.ok()) return Status::DataLoss("undecodable response");
  if (tag.value() == MessageTag::kAck) {
    Result<AckMsg> ack = DecodeAck(bytes);
    if (!ack.ok()) return Status::DataLoss("undecodable response");
    if (ack->request_id != request_id) {
      return Status::DataLoss("response answers a different request");
    }
    if (!ack->ok()) return ack->ToStatus();
    if constexpr (std::is_same_v<Reply, AckMsg>) return ack;
  }
  if constexpr (std::is_same_v<Reply, CandidateListMsg>) {
    if (tag.value() == MessageTag::kCandidateList) {
      Result<CandidateListMsg> answer = DecodeCandidateList(bytes);
      if (!answer.ok()) return Status::DataLoss("undecodable response");
      if (answer->request_id != request_id) {
        return Status::DataLoss("response answers a different request");
      }
      return answer;
    }
  }
  return Status::DataLoss("unexpected response message type");
}

}  // namespace

ResilientClient::ResilientClient(Channel* channel,
                                 const ResilienceOptions& options)
    : channel_(channel),
      options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : obs::CasperMetrics::Default()),
      clock_(options.clock ? options.clock
                           : [this] { return watch_.ElapsedSeconds(); }),
      sleep_(options.sleep ? options.sleep
                           : [](double seconds) {
                               std::this_thread::sleep_for(
                                   std::chrono::duration<double>(seconds));
                             }),
      jitter_rng_(options.jitter_seed) {
  CASPER_DCHECK(channel != nullptr);
  metrics_->breaker_state->Set(static_cast<double>(BreakerState::kClosed));
}

// --- Breaker ---------------------------------------------------------------

void ResilientClient::TransitionLocked(BreakerState to) {
  state_ = to;
  metrics_->breaker_state->Set(static_cast<double>(to));
  metrics_->breaker_transitions_total[static_cast<int>(to)]->Increment();
}

Status ResilientClient::Admit() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return Status::OK();
    case BreakerState::kOpen:
      if (Now() >= open_until_seconds_) {
        half_open_successes_ = 0;
        TransitionLocked(BreakerState::kHalfOpen);
        return Status::OK();  // This call is the first probe.
      }
      return Status::Unavailable("circuit breaker open");
    case BreakerState::kHalfOpen:
      return Status::OK();
  }
  return Status::OK();
}

void ResilientClient::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_failures_ = 0;
  if (state_ == BreakerState::kHalfOpen &&
      ++half_open_successes_ >= options_.breaker.half_open_successes) {
    TransitionLocked(BreakerState::kClosed);
  }
}

void ResilientClient::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == BreakerState::kHalfOpen) {
    open_until_seconds_ = Now() + options_.breaker.open_seconds;
    TransitionLocked(BreakerState::kOpen);
    return;
  }
  if (state_ == BreakerState::kClosed &&
      ++consecutive_failures_ >= options_.breaker.failure_threshold) {
    open_until_seconds_ = Now() + options_.breaker.open_seconds;
    TransitionLocked(BreakerState::kOpen);
  }
}

BreakerState ResilientClient::breaker_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

size_t ResilientClient::replay_depth() const {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  return replay_.size();
}

// --- Per-request pipeline --------------------------------------------------

double ResilientClient::JitteredBackoff(int completed_attempts) {
  double backoff = options_.retry.initial_backoff_seconds;
  for (int i = 1; i < completed_attempts; ++i) {
    backoff *= options_.retry.backoff_multiplier;
  }
  backoff = std::min(backoff, options_.retry.max_backoff_seconds);
  const double jitter = options_.retry.jitter_fraction;
  if (jitter > 0.0) {
    std::lock_guard<std::mutex> lock(mu_);
    backoff *= 1.0 - jitter + 2.0 * jitter * jitter_rng_.NextDouble();
  }
  return backoff;
}

template <typename Reply>
Result<Reply> ResilientClient::CallResilient(const std::string& request,
                                             uint64_t request_id,
                                             const CallContext& context) {
  metrics_->transport_requests_total->Increment();
  const double start = Now();
  const double deadline = options_.retry.deadline_seconds;
  int attempts = 0;
  Status last = Status::Unavailable("no attempt admitted");
  std::optional<Reply> success;

  for (int attempt = 0; attempt < options_.retry.max_attempts; ++attempt) {
    // The deadline outranks the breaker: once the budget is spent the
    // caller-facing truth is kDeadlineExceeded, whatever state the
    // breaker reached while the peer was down.
    if (deadline > 0.0 && Now() - start >= deadline) {
      last = Status::DeadlineExceeded("request deadline spent");
      break;
    }
    Status admitted = Admit();
    if (!admitted.ok()) {
      // Fail fast against an open breaker — backing off here would just
      // serialize rejections; the cool-down clock, not the retry loop,
      // decides when the channel is probed again.
      last = admitted;
      break;
    }
    if (attempt > 0) metrics_->transport_retries_total->Increment();
    ++attempts;

    // Each attempt carries what is left of the end-to-end budget, so a
    // blocking transport (socket dial/read against a dead peer) cannot
    // spend past the deadline inside a single Call.
    CallContext attempt_context = context;
    if (deadline > 0.0) {
      attempt_context.deadline_seconds =
          std::max(deadline - (Now() - start), 1e-3);
    }
    Result<std::string> response = channel_->Call(request, attempt_context);
    Result<Reply> outcome =
        response.ok() ? DecodeReply<Reply>(response.value(), request_id)
                      : Result<Reply>(response.status());
    if (outcome.ok()) {
      RecordSuccess();
      success = std::move(outcome).value();
      break;
    }
    last = outcome.status();
    if (!last.IsRetryable()) {
      // Application error in a well-formed ack: the server answered, so
      // the channel is healthy. Terminal for the retry loop too.
      RecordSuccess();
      break;
    }
    RecordFailure();
    metrics_->transport_failures_total->Increment();
    if (attempt + 1 < options_.retry.max_attempts) {
      double backoff = JitteredBackoff(attempt + 1);
      if (deadline > 0.0) {
        const double remaining = deadline - (Now() - start);
        backoff = std::min(backoff, std::max(remaining, 0.0));
      }
      if (backoff > 0.0) sleep_(backoff);
    }
  }

  metrics_->transport_retries_per_request->Observe(
      static_cast<double>(attempts > 0 ? attempts - 1 : 0));
  if (success.has_value()) return *std::move(success);
  if (deadline > 0.0 && last.IsRetryable() && Now() - start >= deadline) {
    // The last attempt spent the rest of the budget: the binding
    // constraint was the deadline, not the retry cap.
    last = Status::DeadlineExceeded("request deadline spent");
  }
  if (last.code() == StatusCode::kDataLoss) {
    // Retries exhausted on corrupted / misdirected replies: to the caller
    // the server is simply unreachable through this channel right now, so
    // surface the transport failure as kUnavailable (the caller-facing
    // contract is a trichotomy: answer, degraded answer, or
    // kUnavailable / kDeadlineExceeded).
    last = Status::Unavailable("retries exhausted: " +
                               std::string(last.message()));
  }
  if (last.code() == StatusCode::kDeadlineExceeded) {
    metrics_->transport_deadline_exceeded_total->Increment();
  } else if (last.code() == StatusCode::kUnavailable) {
    metrics_->transport_unavailable_total->Increment();
  }
  return last;
}

// --- Queries ---------------------------------------------------------------

Result<CandidateListMsg> ResilientClient::Execute(
    const CloakedQueryMsg& query, processor::ConcurrentQueryCache* cache) {
  CloakedQueryMsg stamped = query;
  stamped.request_id = NextRequestId();
  CallContext context;
  context.cache = cache;
  Result<CandidateListMsg> answer = CallResilient<CandidateListMsg>(
      Encode(stamped), stamped.request_id, context);
  if (answer.ok()) return answer;

  const Status& failure = answer.status();
  // Graceful degradation: only when the *transport* failed (never for an
  // application error), only for the cached query kind, and only from a
  // current-epoch entry — which is what makes the answer still inclusive:
  // the candidate list was computed for this exact cloak against the very
  // store the unreachable server is still holding.
  if (IsTransportFailure(failure) &&
      options_.degradation.serve_degraded_from_cache && cache != nullptr &&
      stamped.kind == QueryKind::kNearestPublic) {
    std::optional<processor::PublicCandidateList> hit =
        cache->Peek(stamped.cloak);
    if (hit.has_value()) {
      metrics_->transport_degraded_total->Increment();
      CandidateListMsg degraded;
      degraded.kind = stamped.kind;
      degraded.request_id = stamped.request_id;
      degraded.degraded = true;
      degraded.payload = *std::move(hit);
      return degraded;
    }
  }
  return failure;
}

// --- Maintenance -----------------------------------------------------------

Status ResilientClient::EnqueueLocked(std::string bytes, uint64_t request_id) {
  if (replay_.size() >= options_.degradation.replay_buffer_capacity) {
    metrics_->replay_dropped_total->Increment();
    return Status::Unavailable("replay buffer full");
  }
  replay_.push_back(ReplayEntry{request_id, std::move(bytes)});
  metrics_->replay_enqueued_total->Increment();
  metrics_->replay_depth->Set(static_cast<double>(replay_.size()));
  return Status::OK();
}

Status ResilientClient::DrainLocked() {
  while (!replay_.empty()) {
    const ReplayEntry& entry = replay_.front();
    Result<AckMsg> outcome =
        CallResilient<AckMsg>(entry.bytes, entry.request_id, CallContext{});
    if (!outcome.ok() && IsTransportFailure(outcome.status())) {
      return outcome.status();  // Still down; keep the backlog, in order.
    }
    // Applied — or rejected by the server with an application error,
    // which replay cannot surface to the original (long-returned)
    // caller; either way the entry's journey is over.
    replay_.pop_front();
    metrics_->replay_drained_total->Increment();
    metrics_->replay_depth->Set(static_cast<double>(replay_.size()));
  }
  return Status::OK();
}

Status ResilientClient::ApplyMaintenanceLocked(std::string bytes,
                                               uint64_t request_id) {
  // Older queued changes must land first — the stream is ordered (an
  // upsert may replace a handle published by an earlier one).
  Status drained = DrainLocked();
  if (!drained.ok()) {
    if (options_.degradation.replay_buffer_capacity == 0) return drained;
    return EnqueueLocked(std::move(bytes), request_id);
  }
  Result<AckMsg> outcome =
      CallResilient<AckMsg>(bytes, request_id, CallContext{});
  if (outcome.ok()) return Status::OK();
  Status failure = outcome.status();
  if (IsTransportFailure(failure) &&
      options_.degradation.replay_buffer_capacity > 0) {
    return EnqueueLocked(std::move(bytes), request_id);
  }
  return failure;
}

Status ResilientClient::Apply(const RegionUpsertMsg& msg) {
  RegionUpsertMsg stamped = msg;
  stamped.request_id = NextRequestId();
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  return ApplyMaintenanceLocked(Encode(stamped), stamped.request_id);
}

Status ResilientClient::Apply(const RegionRemoveMsg& msg) {
  RegionRemoveMsg stamped = msg;
  stamped.request_id = NextRequestId();
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  return ApplyMaintenanceLocked(Encode(stamped), stamped.request_id);
}

Status ResilientClient::Load(const SnapshotMsg& snapshot) {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  // Snapshot acks echo id 0 (whole-store replacement is naturally
  // idempotent, so snapshots are unkeyed).
  Result<AckMsg> outcome =
      CallResilient<AckMsg>(Encode(snapshot), 0, CallContext{});
  if (!outcome.ok()) return outcome.status();
  // The snapshot supersedes every queued incremental change: the
  // anonymizer built it from the same state those changes led up to.
  replay_.clear();
  metrics_->replay_depth->Set(0.0);
  return Status::OK();
}

Status ResilientClient::Flush() {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  return DrainLocked();
}

}  // namespace casper::transport
