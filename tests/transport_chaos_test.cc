#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/casper/batch_query_engine.h"
#include "src/casper/casper.h"
#include "src/casper/workload.h"
#include "src/common/rng.h"
#include "src/obs/exporters.h"
#include "src/transport/fault_injection.h"

/// End-to-end chaos acceptance test (the ISSUE's headline criterion):
/// a full CasperService whose tier channel is wrapped in a seeded
/// FaultInjectingChannel at >= 10% combined fault rates, driven with
/// over a thousand mixed queries (plus continuous movement publishing
/// region upserts through the same chaotic channel), verifying that
///
///  - every successful private NN answer is *correct*: the true nearest
///    public target of the user's exact position appears in the
///    candidate list (inclusiveness) and survives client refinement —
///    degraded (cache-served) answers included;
///  - every failure is one of the two typed transport errors the client
///    is allowed to surface, kUnavailable or kDeadlineExceeded — no
///    hangs, no crashes, no silent wrong answers, no leaked kDataLoss;
///  - duplicated deliveries never double-apply maintenance: after the
///    chaos ends and the replay buffer flushes, the server holds
///    exactly one cloaked region per registered user;
///  - the breaker trips under a scripted outage, recovers afterwards,
///    and its transitions plus the retry counters appear in a scraped
///    Prometheus export.

namespace casper {
namespace {

using PrivateSnapshot = processor::PrivateTargetStore::Snapshot;

constexpr size_t kUsers = 48;
constexpr size_t kTargets = 120;
constexpr size_t kBatches = 12;
constexpr size_t kBatchSize = 100;  // 12 * 100 = 1200 >= 1000 queries.

/// True nearest target of `p` by exhaustive scan — the oracle the
/// server's candidate lists are checked against.
uint64_t BruteNearest(const std::vector<processor::PublicTarget>& targets,
                      const Point& p) {
  uint64_t best_id = 0;
  double best_d2 = -1.0;
  for (const processor::PublicTarget& t : targets) {
    const double dx = t.position.x - p.x;
    const double dy = t.position.y - p.y;
    const double d2 = dx * dx + dy * dy;
    if (best_d2 < 0.0 || d2 < best_d2) {
      best_d2 = d2;
      best_id = t.id;
    }
  }
  return best_id;
}

bool ContainsId(const std::vector<processor::PublicTarget>& candidates,
                uint64_t id) {
  for (const processor::PublicTarget& t : candidates) {
    if (t.id == id) return true;
  }
  return false;
}

/// A deterministic mix over all seven query kinds, weighted toward the
/// private NN kind so the inclusiveness oracle gets plenty of samples
/// (and the cache warms enough to serve degraded answers).
server::BatchQueryRequest MixedRequest(size_t i, const Rect& space) {
  const uint64_t uid = i % kUsers;
  switch (i % 8) {
    case 0:
    case 4:
      return server::BatchQueryRequest::NearestPublic(uid);
    case 1:
      return server::BatchQueryRequest::KNearestPublic(uid, 3);
    case 2:
      return server::BatchQueryRequest::RangePublic(
          uid, space.width() * 0.02);
    case 3:
      return server::BatchQueryRequest::NearestPrivate(uid);
    case 5:
      return server::BatchQueryRequest::PublicNearest(
          Point{space.min.x + space.width() * 0.3,
                space.min.y + space.height() * 0.7});
    case 6:
      return server::BatchQueryRequest::PublicRange(
          Rect(space.min.x, space.min.y,
               space.min.x + space.width() * 0.4,
               space.min.y + space.height() * 0.4));
    default:
      return server::BatchQueryRequest::Density(4, 4);
  }
}

TEST(TransportChaosTest, ThousandMixedQueriesUnderTenPercentFaults) {
  obs::MetricsRegistry registry;
  obs::CasperMetrics metrics(&registry);

  transport::FaultProfile profile;
  profile.drop_request_rate = 0.03;
  profile.drop_response_rate = 0.02;
  profile.duplicate_rate = 0.02;
  profile.corrupt_request_rate = 0.02;
  profile.corrupt_response_rate = 0.02;
  profile.delay_rate = 0.02;
  profile.delay_micros = 50;
  profile.late_delivery_rate = 0.02;
  ASSERT_GE(profile.CombinedRate(), 0.10);

  CasperOptions options;
  options.pyramid.height = 6;
  options.metrics = &metrics;
  // Every user event publishes a fresh cloaked region through the
  // chaotic channel — the maintenance stream (idempotency keys, replay
  // buffer) is under test, not just the query stream.
  options.auto_sync_private_data = true;
  options.resilience.retry.max_attempts = 4;
  options.resilience.retry.initial_backoff_seconds = 1e-5;
  options.resilience.retry.max_backoff_seconds = 1e-4;
  options.resilience.retry.deadline_seconds = 2.0;
  options.resilience.breaker.failure_threshold = 5;
  options.resilience.breaker.open_seconds = 0.002;
  options.resilience.breaker.half_open_successes = 1;
  options.resilience.metrics = &metrics;

  transport::FaultInjectingChannel* fault = nullptr;
  options.channel_decorator =
      [&fault, &profile](
          transport::Channel* inner) -> std::unique_ptr<transport::Channel> {
    auto owned = std::make_unique<transport::FaultInjectingChannel>(
        inner, profile, /*seed=*/0xC4A05);
    fault = owned.get();
    return owned;
  };

  CasperService service(options);
  ASSERT_NE(fault, nullptr);

  Rng rng(0xC4A0);
  const Rect space = service.options().pyramid.space;
  for (anonymizer::UserId uid = 0; uid < kUsers; ++uid) {
    anonymizer::PrivacyProfile user_profile;
    user_profile.k = static_cast<uint32_t>(rng.UniformInt(1, 8));
    ASSERT_TRUE(
        service.RegisterUser(uid, user_profile, rng.PointIn(space)).ok());
  }
  const std::vector<processor::PublicTarget> targets =
      workload::UniformPublicTargets(kTargets, space, &rng);
  service.SetPublicTargets(targets);

  server::BatchEngineOptions engine_options;
  engine_options.threads = 4;
  engine_options.use_cache = true;
  engine_options.metrics = &metrics;
  server::BatchQueryEngine engine(&service, engine_options);

  size_t ok_count = 0;
  size_t degraded_count = 0;
  size_t unavailable_count = 0;
  size_t deadline_count = 0;
  size_t inclusive_checks = 0;

  for (size_t batch = 0; batch < kBatches; ++batch) {
    // Batch 6 runs into a scripted hard outage: the next 40 channel
    // calls all fail, which (threshold 5) must trip the breaker.
    if (batch == 6) {
      fault->FailRequests(fault->calls() + 1, fault->calls() + 40);
    }

    std::vector<server::BatchQueryRequest> requests;
    requests.reserve(kBatchSize);
    for (size_t i = 0; i < kBatchSize; ++i) {
      requests.push_back(MixedRequest(batch * kBatchSize + i, space));
    }
    const server::BatchResult result = engine.Execute(requests);
    ASSERT_EQ(result.responses.size(), requests.size());

    for (size_t i = 0; i < result.responses.size(); ++i) {
      const server::BatchQueryResponse& response = result.responses[i];
      if (!response.ok()) {
        // The caller-facing trichotomy: nothing but the two typed
        // transport errors may surface (application errors cannot occur
        // in this workload — every uid is registered and private data
        // auto-syncs).
        EXPECT_TRUE(
            response.status.code() == StatusCode::kUnavailable ||
            response.status.code() == StatusCode::kDeadlineExceeded)
            << "batch " << batch << " slot " << i << ": "
            << response.status.message();
        if (response.status.code() == StatusCode::kUnavailable) {
          ++unavailable_count;
        } else {
          ++deadline_count;
        }
        continue;
      }
      ++ok_count;
      if (response.kind != QueryKind::kNearestPublic) continue;
      ASSERT_NE(response.nearest_public(), nullptr);
      const PublicNNResponse& nn = *response.nearest_public();
      if (nn.degraded) ++degraded_count;
      // Inclusiveness (and hence end-to-end correctness after client
      // refinement) must hold for every successful answer — degraded
      // ones included.
      const uint64_t uid = requests[i].uid;
      const auto position = service.ClientPosition(uid);
      ASSERT_TRUE(position.ok());
      const uint64_t truth = BruteNearest(targets, position.value());
      EXPECT_TRUE(ContainsId(nn.server_answer.candidates, truth))
          << "batch " << batch << " slot " << i
          << ": true NN missing from candidate list";
      EXPECT_EQ(nn.exact.id, truth)
          << "batch " << batch << " slot " << i
          << ": client refinement picked a wrong answer";
      ++inclusive_checks;
    }

    // Movement between batches: every user event publishes a region
    // upsert (pseudonym-rotated, so each one is a replace chain the
    // idempotency window must protect) through the chaotic channel.
    for (anonymizer::UserId uid = 0; uid < kUsers; ++uid) {
      ASSERT_TRUE(
          service.UpdateUserLocation(uid, rng.PointIn(space)).ok());
    }
  }

  // The workload genuinely exercised the fault model.
  const transport::FaultStats stats = fault->stats();
  EXPECT_GT(stats.TotalInjected(), 50u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.scripted_failures, 0u);
  EXPECT_GT(ok_count, kBatches * kBatchSize / 2);
  EXPECT_GT(inclusive_checks, 100u);
  EXPECT_GT(degraded_count + unavailable_count + deadline_count, 0u);
  EXPECT_GE(metrics.breaker_transitions_total[1]->Value(), 1u)
      << "the scripted outage should have tripped the breaker open";
  EXPECT_GT(metrics.transport_retries_total->Value(), 0u);

  // End the chaos and let the breaker recover: the remaining scripted
  // failures burn off through half-open probes (one every cool-down),
  // after which a probe success re-closes the breaker.
  fault->SetProfile(transport::FaultProfile{});
  for (int i = 0; i < 500 && service.transport_client().breaker_state() !=
                                 transport::BreakerState::kClosed;
       ++i) {
    (void)service.QueryNearestPublic(i % kUsers);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.transport_client().breaker_state(),
            transport::BreakerState::kClosed);

  // Drain the replay buffer; with duplicates deduplicated and every
  // queued upsert applied exactly once, the server must hold exactly
  // one region per user — no lost and no doubled regions.
  ASSERT_TRUE(service.transport_client().Flush().ok());
  EXPECT_EQ(service.transport_client().replay_depth(), 0u);
  EXPECT_EQ(PrivateSnapshot(service.private_store()).size(),
            service.user_count());

  // The resilience instruments made it into the scraped export.
  const std::string prom = obs::ExportPrometheus(registry.Scrape());
  EXPECT_NE(prom.find("casper_transport_breaker_transitions_total{to=\"open\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("casper_transport_retries_total"), std::string::npos);
  EXPECT_NE(prom.find("casper_transport_requests_total"), std::string::npos);
  EXPECT_NE(prom.find("casper_transport_breaker_state"), std::string::npos);
}

/// Load shedding: with one worker and a queue-depth watermark of 1, a
/// large batch cannot be admitted whole — the overflow fails fast with
/// kUnavailable and is counted, while the admitted slots still succeed.
TEST(TransportChaosTest, BatchEngineShedsLoadBeyondTheWatermark) {
  obs::MetricsRegistry registry;
  obs::CasperMetrics metrics(&registry);

  CasperOptions options;
  options.pyramid.height = 6;
  options.metrics = &metrics;
  CasperService service(options);

  Rng rng(0x5EDD);
  const Rect space = service.options().pyramid.space;
  for (anonymizer::UserId uid = 0; uid < 16; ++uid) {
    anonymizer::PrivacyProfile profile;
    profile.k = 2;
    ASSERT_TRUE(
        service.RegisterUser(uid, profile, rng.PointIn(space)).ok());
  }
  service.SetPublicTargets(
      workload::UniformPublicTargets(64, space, &rng));

  server::BatchEngineOptions engine_options;
  engine_options.threads = 1;
  engine_options.shed_queue_depth = 1;
  engine_options.metrics = &metrics;
  server::BatchQueryEngine engine(&service, engine_options);

  std::vector<server::BatchQueryRequest> requests;
  for (size_t i = 0; i < 64; ++i) {
    requests.push_back(server::BatchQueryRequest::NearestPublic(i % 16));
  }
  const server::BatchResult result = engine.Execute(requests);
  ASSERT_EQ(result.responses.size(), requests.size());

  size_t shed = 0;
  size_t served = 0;
  for (const server::BatchQueryResponse& response : result.responses) {
    if (response.ok()) {
      ++served;
      continue;
    }
    EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
    EXPECT_NE(response.status.message().find("overloaded"),
              std::string::npos);
    ++shed;
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(served, 0u);
  EXPECT_EQ(metrics.batch_shed_total->Value(), shed);
  EXPECT_EQ(shed + served, requests.size());
}

}  // namespace
}  // namespace casper
