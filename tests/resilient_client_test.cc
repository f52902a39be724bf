#include "src/transport/resilient_client.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/casper/messages.h"
#include "src/common/rng.h"
#include "src/obs/casper_metrics.h"
#include "src/processor/concurrent_query_cache.h"
#include "src/server/query_server.h"
#include "src/transport/fault_injection.h"
#include "src/transport/server_endpoint.h"

/// Deterministic unit tests of every resilience mechanism: retries with
/// backoff, deadlines, the three-state circuit breaker, cache-served
/// degradation, the bounded replay buffer, and request-id idempotency.
/// Time is injected (ResilienceOptions::clock / ::sleep), so deadline
/// and cool-down transitions run without wall-clock sleeps.

namespace casper::transport {
namespace {

using PrivateSnapshot = processor::PrivateTargetStore::Snapshot;

/// Injectable time: the clock reads a variable, the sleeper advances it.
struct FakeTime {
  double now = 0.0;
  std::vector<double> slept;

  std::function<double()> Clock() {
    return [this] { return now; };
  }
  std::function<void(double)> Sleep() {
    return [this](double seconds) {
      slept.push_back(seconds);
      now += seconds;
    };
  }
};

/// Fails the next `fail_remaining` calls (or all of them) with
/// kUnavailable; otherwise delegates to the real endpoint channel.
class FlakyChannel : public Channel {
 public:
  explicit FlakyChannel(Channel* inner) : inner_(inner) {}

  Result<std::string> Call(std::string_view request,
                           const CallContext& context) override {
    ++calls_;
    if (fail_remaining_ > 0) {
      --fail_remaining_;
      return Status::Unavailable("injected outage");
    }
    if (always_fail_) return Status::Unavailable("server down");
    return inner_->Call(request, context);
  }

  int calls_ = 0;
  int fail_remaining_ = 0;
  bool always_fail_ = false;

 private:
  Channel* inner_;
};

/// Delivers to the server, then loses the first `lose_responses` replies
/// — the case that makes idempotency keys necessary.
class ResponseLosingChannel : public Channel {
 public:
  explicit ResponseLosingChannel(Channel* inner) : inner_(inner) {}

  Result<std::string> Call(std::string_view request,
                           const CallContext& context) override {
    Result<std::string> response = inner_->Call(request, context);
    if (lose_responses_ > 0) {
      --lose_responses_;
      return Status::Unavailable("response lost");
    }
    return response;
  }

  int lose_responses_ = 0;

 private:
  Channel* inner_;
};

/// Answers every call with bytes no codec accepts.
class JunkChannel : public Channel {
 public:
  Result<std::string> Call(std::string_view, const CallContext&) override {
    return std::string("junk-response");
  }
};

class ResilientClientTest : public ::testing::Test {
 protected:
  ResilientClientTest()
      : metrics_(&registry_),
        server_(ServerOptions()),
        endpoint_(&server_),
        direct_(&endpoint_) {
    Rng rng(42);
    for (uint64_t id = 1; id <= 24; ++id) {
      server_.AddPublicTarget({id, rng.PointIn(Rect(0, 0, 1, 1))});
    }
  }

  server::QueryServerOptions ServerOptions() {
    server::QueryServerOptions options;
    options.metrics = &metrics_;
    return options;
  }

  /// Fake-timed options with no jitter: every schedule is exact.
  ResilienceOptions Options() {
    ResilienceOptions options;
    options.retry.jitter_fraction = 0.0;
    options.retry.deadline_seconds = 0.0;  // Tests opt in explicitly.
    options.breaker.failure_threshold = 1000;  // Tests opt in explicitly.
    options.clock = time_.Clock();
    options.sleep = time_.Sleep();
    options.metrics = &metrics_;
    return options;
  }

  CloakedQueryMsg NearestQuery() {
    CloakedQueryMsg query;
    query.kind = QueryKind::kNearestPublic;
    query.cloak = Rect(0.2, 0.2, 0.5, 0.5);
    return query;
  }

  RegionUpsertMsg Upsert(uint64_t handle) {
    RegionUpsertMsg msg;
    msg.handle = handle;
    msg.region = Rect(0.1, 0.1, 0.3, 0.3);
    return msg;
  }

  obs::MetricsRegistry registry_;
  obs::CasperMetrics metrics_;
  server::QueryServer server_;
  ServerEndpoint endpoint_;
  DirectChannel direct_;
  FakeTime time_;
};

TEST_F(ResilientClientTest, HealthyPathStampsFreshRequestIds) {
  ResilientClient client(&direct_, Options());
  Result<CandidateListMsg> first = client.Execute(NearestQuery(), nullptr);
  Result<CandidateListMsg> second = client.Execute(NearestQuery(), nullptr);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(first->degraded);
  EXPECT_NE(first->request_id, 0u);  // 0 would bypass idempotency.
  EXPECT_NE(first->request_id, second->request_id);
  EXPECT_EQ(first->payload, second->payload);

  // Identical to the direct tier call, transport aside.
  Result<CandidateListMsg> expected = server_.Execute(NearestQuery());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(first->payload, expected->payload);
}

TEST_F(ResilientClientTest, RetriesTransientFailuresWithBackoff) {
  FlakyChannel flaky(&direct_);
  flaky.fail_remaining_ = 2;
  ResilienceOptions options = Options();
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_seconds = 0.001;
  options.retry.backoff_multiplier = 2.0;
  ResilientClient client(&flaky, options);

  Result<CandidateListMsg> answer = client.Execute(NearestQuery(), nullptr);
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->degraded);
  EXPECT_EQ(flaky.calls_, 3);
  // Two backoffs, exponentially spaced (no jitter).
  ASSERT_EQ(time_.slept.size(), 2u);
  EXPECT_DOUBLE_EQ(time_.slept[0], 0.001);
  EXPECT_DOUBLE_EQ(time_.slept[1], 0.002);
  EXPECT_EQ(metrics_.transport_retries_total->Value(), 2u);
  EXPECT_EQ(metrics_.transport_failures_total->Value(), 2u);
}

TEST_F(ResilientClientTest, ApplicationErrorsAreNotRetried) {
  FlakyChannel flaky(&direct_);
  ResilientClient client(&flaky, Options());
  CloakedQueryMsg bad;
  bad.kind = QueryKind::kDensity;
  bad.cols = 0;  // The server rejects the grid; the channel is healthy.
  bad.rows = 0;
  Result<CandidateListMsg> answer = client.Execute(bad, nullptr);
  ASSERT_FALSE(answer.ok());
  EXPECT_FALSE(answer.status().IsRetryable());
  EXPECT_EQ(flaky.calls_, 1);  // One attempt: the server *answered*.
  EXPECT_EQ(client.breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(metrics_.transport_retries_total->Value(), 0u);
}

TEST_F(ResilientClientTest, DeadlineSpentIsTerminal) {
  FlakyChannel flaky(&direct_);
  flaky.always_fail_ = true;
  ResilienceOptions options = Options();
  options.retry.max_attempts = 5;
  options.retry.deadline_seconds = 0.01;
  options.retry.initial_backoff_seconds = 0.05;  // Clamped to the budget.
  ResilientClient client(&flaky, options);

  Result<CandidateListMsg> answer = client.Execute(NearestQuery(), nullptr);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
  // The backoff was clamped to the remaining budget, so only one attempt
  // fit — the deadline bounds wall time, not just attempt count.
  EXPECT_EQ(flaky.calls_, 1);
  EXPECT_EQ(metrics_.transport_deadline_exceeded_total->Value(), 1u);
}

TEST_F(ResilientClientTest, UndecodableResponsesSurfaceAsUnavailable) {
  JunkChannel junk;
  ResilienceOptions options = Options();
  options.retry.max_attempts = 3;
  ResilientClient client(&junk, options);
  Result<CandidateListMsg> answer = client.Execute(NearestQuery(), nullptr);
  ASSERT_FALSE(answer.ok());
  // Internally kDataLoss per attempt; the caller-facing contract folds
  // exhausted retries into kUnavailable.
  EXPECT_EQ(answer.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(answer.status().message().find("retries exhausted"),
            std::string::npos);
  EXPECT_EQ(metrics_.transport_unavailable_total->Value(), 1u);
}

TEST_F(ResilientClientTest, MismatchedResponseIdIsRejected) {
  // A channel that answers every query with an ack for someone else's
  // request (id 0 can never match: stamped ids start at 1).
  class MisdirectingChannel : public Channel {
   public:
    Result<std::string> Call(std::string_view, const CallContext&) override {
      ++calls_;
      return Encode(AckMsg::For(0, Status::OK()));
    }
    int calls_ = 0;
  } misdirecting;

  ResilienceOptions options = Options();
  options.retry.max_attempts = 2;
  ResilientClient client(&misdirecting, options);
  Result<CandidateListMsg> answer = client.Execute(NearestQuery(), nullptr);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(misdirecting.calls_, 2);  // Retried: the answer may yet come.
}

TEST_F(ResilientClientTest, BreakerOpensAfterConsecutiveFailuresAndFailsFast) {
  FlakyChannel flaky(&direct_);
  flaky.always_fail_ = true;
  ResilienceOptions options = Options();
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 3;
  options.breaker.open_seconds = 10.0;
  ResilientClient client(&flaky, options);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.Execute(NearestQuery(), nullptr).status().code(),
              StatusCode::kUnavailable);
  }
  EXPECT_EQ(client.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(metrics_.breaker_state->Value(), 1.0);
  EXPECT_EQ(flaky.calls_, 3);

  // While open, calls fail fast without touching the channel.
  EXPECT_EQ(client.Execute(NearestQuery(), nullptr).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(flaky.calls_, 3);
  EXPECT_EQ(metrics_.breaker_transitions_total[1]->Value(), 1u);
}

TEST_F(ResilientClientTest, BreakerHalfOpenProbesThenRecloses) {
  FlakyChannel flaky(&direct_);
  flaky.always_fail_ = true;
  ResilienceOptions options = Options();
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 2;
  options.breaker.open_seconds = 5.0;
  options.breaker.half_open_successes = 2;
  ResilientClient client(&flaky, options);

  for (int i = 0; i < 2; ++i) {
    (void)client.Execute(NearestQuery(), nullptr);
  }
  ASSERT_EQ(client.breaker_state(), BreakerState::kOpen);

  // Cool-down passes; the channel has recovered. The first probe runs
  // half-open; the second success re-closes.
  time_.now += 6.0;
  flaky.always_fail_ = false;
  ASSERT_TRUE(client.Execute(NearestQuery(), nullptr).ok());
  EXPECT_EQ(client.breaker_state(), BreakerState::kHalfOpen);
  ASSERT_TRUE(client.Execute(NearestQuery(), nullptr).ok());
  EXPECT_EQ(client.breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(metrics_.breaker_state->Value(), 0.0);
  EXPECT_EQ(metrics_.breaker_transitions_total[2]->Value(), 1u);  // half-open
  EXPECT_EQ(metrics_.breaker_transitions_total[0]->Value(), 1u);  // closed
}

TEST_F(ResilientClientTest, BreakerReopensWhenTheProbeFails) {
  FlakyChannel flaky(&direct_);
  flaky.always_fail_ = true;
  ResilienceOptions options = Options();
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 2;
  options.breaker.open_seconds = 5.0;
  ResilientClient client(&flaky, options);

  for (int i = 0; i < 2; ++i) {
    (void)client.Execute(NearestQuery(), nullptr);
  }
  ASSERT_EQ(client.breaker_state(), BreakerState::kOpen);

  time_.now += 6.0;  // Cool-down passes, but the server is still down.
  EXPECT_FALSE(client.Execute(NearestQuery(), nullptr).ok());
  EXPECT_EQ(client.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(flaky.calls_, 3);  // Exactly one probe crossed the channel.
  EXPECT_EQ(metrics_.breaker_transitions_total[1]->Value(), 2u);
}

TEST_F(ResilientClientTest, ServesDegradedFromCacheDuringOutage) {
  FlakyChannel flaky(&direct_);
  ResilienceOptions options = Options();
  options.retry.max_attempts = 2;
  ResilientClient client(&flaky, options);
  processor::ConcurrentQueryCache cache(&server_.public_store(), 64);

  // Healthy query warms the cache for this cloak.
  Result<CandidateListMsg> healthy = client.Execute(NearestQuery(), &cache);
  ASSERT_TRUE(healthy.ok());
  ASSERT_FALSE(healthy->degraded);

  // Outage: the same cloak is served from the cache, flagged degraded.
  flaky.always_fail_ = true;
  Result<CandidateListMsg> degraded = client.Execute(NearestQuery(), &cache);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->payload, healthy->payload);  // Same candidate list.
  EXPECT_EQ(metrics_.transport_degraded_total->Value(), 1u);

  // A cloak the cache has never seen cannot be served degraded.
  CloakedQueryMsg other = NearestQuery();
  other.cloak = Rect(0.6, 0.6, 0.9, 0.9);
  Result<CandidateListMsg> miss = client.Execute(other, &cache);
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kUnavailable);
}

TEST_F(ResilientClientTest, ReplayBufferQueuesUpsertsAndDrainsInOrder) {
  FlakyChannel flaky(&direct_);
  flaky.always_fail_ = true;
  ResilienceOptions options = Options();
  options.retry.max_attempts = 1;
  ResilientClient client(&flaky, options);

  // Both upserts "succeed" during the outage: durable in the client.
  EXPECT_TRUE(client.Apply(Upsert(1)).ok());
  RegionUpsertMsg second = Upsert(2);
  second.has_replaces = true;  // Only applies cleanly *after* handle 1.
  second.replaces = 1;
  EXPECT_TRUE(client.Apply(second).ok());
  EXPECT_EQ(client.replay_depth(), 2u);
  EXPECT_EQ(server_.applied_request_count(), 0u);
  EXPECT_EQ(metrics_.replay_enqueued_total->Value(), 2u);

  // Recovery: the backlog lands in order, so the replace chain holds.
  flaky.always_fail_ = false;
  EXPECT_TRUE(client.Flush().ok());
  EXPECT_EQ(client.replay_depth(), 0u);
  EXPECT_EQ(server_.applied_request_count(), 2u);
  // Handle 2 only.
  EXPECT_EQ(PrivateSnapshot(server_.private_store()).size(), 1u);
  EXPECT_EQ(metrics_.replay_drained_total->Value(), 2u);
}

TEST_F(ResilientClientTest, FullReplayBufferSurfacesUnavailable) {
  FlakyChannel flaky(&direct_);
  flaky.always_fail_ = true;
  ResilienceOptions options = Options();
  options.retry.max_attempts = 1;
  options.degradation.replay_buffer_capacity = 1;
  ResilientClient client(&flaky, options);

  EXPECT_TRUE(client.Apply(Upsert(1)).ok());
  Status overflow = client.Apply(Upsert(2));
  EXPECT_EQ(overflow.code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.replay_depth(), 1u);
  EXPECT_EQ(metrics_.replay_dropped_total->Value(), 1u);
}

TEST_F(ResilientClientTest, SuccessfulSnapshotSupersedesTheReplayBuffer) {
  FlakyChannel flaky(&direct_);
  flaky.always_fail_ = true;
  ResilienceOptions options = Options();
  options.retry.max_attempts = 1;
  ResilientClient client(&flaky, options);

  EXPECT_TRUE(client.Apply(Upsert(1)).ok());
  EXPECT_TRUE(client.Apply(Upsert(2)).ok());
  ASSERT_EQ(client.replay_depth(), 2u);

  flaky.always_fail_ = false;
  SnapshotMsg snapshot;
  snapshot.regions.push_back({77, Rect(0.4, 0.4, 0.6, 0.6)});
  EXPECT_TRUE(client.Load(snapshot).ok());
  EXPECT_EQ(client.replay_depth(), 0u);  // Queued changes superseded.
  // Snapshot only.
  EXPECT_EQ(PrivateSnapshot(server_.private_store()).size(), 1u);
}

TEST_F(ResilientClientTest, DuplicatedDeliveryNeverDoubleApplies) {
  // Every request is delivered to the server twice. Without the
  // idempotency window, the duplicate of "upsert 2 replaces 1" would
  // re-remove the vanished handle 1 and re-insert handle 2, and the
  // caller would see an Internal error.
  FaultProfile profile;
  profile.duplicate_rate = 1.0;
  FaultInjectingChannel duplicating(&direct_, profile, 0xD0B1E);
  ResilientClient client(&duplicating, Options());

  EXPECT_TRUE(client.Apply(Upsert(1)).ok());
  RegionUpsertMsg second = Upsert(2);
  second.has_replaces = true;
  second.replaces = 1;
  EXPECT_TRUE(client.Apply(second).ok());
  EXPECT_EQ(PrivateSnapshot(server_.private_store()).size(), 1u);
  EXPECT_EQ(server_.applied_request_count(), 2u);
  EXPECT_EQ(duplicating.stats().duplicated, 2u);
}

TEST_F(ResilientClientTest, RetryAfterLostResponseReplaysTheOutcome) {
  // The server applies the upsert, the reply is lost, the client retries
  // with the *same* request id: the server must replay the recorded OK
  // instead of double-applying (which would be an Internal error here,
  // since the retried upsert replaces an already-removed handle).
  ResponseLosingChannel losing(&direct_);
  ResilienceOptions options = Options();
  options.retry.max_attempts = 3;
  ResilientClient client(&losing, options);

  EXPECT_TRUE(client.Apply(Upsert(1)).ok());
  losing.lose_responses_ = 1;
  RegionUpsertMsg second = Upsert(2);
  second.has_replaces = true;
  second.replaces = 1;
  EXPECT_TRUE(client.Apply(second).ok());
  EXPECT_EQ(PrivateSnapshot(server_.private_store()).size(), 1u);
  EXPECT_EQ(server_.applied_request_count(), 2u);
  EXPECT_EQ(metrics_.transport_retries_total->Value(), 1u);
}

}  // namespace
}  // namespace casper::transport
