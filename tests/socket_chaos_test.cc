#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/casper/batch_query_engine.h"
#include "src/casper/casper.h"
#include "src/casper/workload.h"
#include "src/common/rng.h"
#include "src/transport/fault_injection.h"
#include "src/transport/listener.h"
#include "src/transport/socket_channel.h"

/// The PR-4 chaos acceptance suite, re-run over a *real* socket: the
/// tier channel becomes FaultInjectingChannel -> SocketChannel ->
/// SocketListener -> (the service's own in-process endpoint), so every
/// drop, duplicate, corruption, and delay now exercises framing,
/// connection pooling, reconnects, and the listener's worker pool on
/// top of the resilience stack. FaultInjectingChannel wraps the socket
/// channel *unchanged* — that composability is the point of the
/// Channel seam. A second test restarts the listener mid-run (a
/// network-level outage): the breaker must trip, the replay buffer
/// must hold the maintenance stream, and recovery must end with
/// exactly one region per user.

namespace casper {
namespace {

using PrivateSnapshot = processor::PrivateTargetStore::Snapshot;

using transport::CallContext;
using transport::SocketChannel;
using transport::SocketChannelOptions;
using transport::SocketListener;

constexpr size_t kUsers = 24;
constexpr size_t kTargets = 60;
constexpr size_t kBatches = 6;
constexpr size_t kBatchSize = 60;

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

server::BatchQueryRequest MixedRequest(size_t i, const Rect& space) {
  const uint64_t uid = i % kUsers;
  switch (i % 8) {
    case 0:
    case 4:
      return server::BatchQueryRequest::NearestPublic(uid);
    case 1:
      return server::BatchQueryRequest::KNearestPublic(uid, 3);
    case 2:
      return server::BatchQueryRequest::RangePublic(uid,
                                                    space.width() * 0.02);
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

/// Shuts the listener down before the service (and the inner channel
/// the listener's handler calls into) is destroyed, regardless of how
/// the test exits.
struct ListenerGuard {
  std::unique_ptr<SocketListener>* listener;
  ~ListenerGuard() {
    if (listener != nullptr && *listener != nullptr) {
      (*listener)->Shutdown();
    }
  }
};

TEST(SocketChaosTest, ChaosSuiteHoldsOverRealSockets) {
  transport::FaultProfile profile;
  profile.drop_request_rate = 0.03;
  profile.drop_response_rate = 0.02;
  profile.duplicate_rate = 0.02;
  profile.corrupt_request_rate = 0.02;
  profile.corrupt_response_rate = 0.02;
  profile.delay_rate = 0.01;
  profile.delay_micros = 50;
  ASSERT_GE(profile.CombinedRate(), 0.10);

  const std::string address = "unix:/tmp/casper_chaos_" +
                              std::to_string(getpid()) + ".sock";
  std::unique_ptr<SocketListener> listener;

  CasperOptions options;
  options.pyramid.height = 6;
  options.auto_sync_private_data = true;
  options.resilience.retry.max_attempts = 4;
  options.resilience.retry.initial_backoff_seconds = 1e-4;
  options.resilience.retry.max_backoff_seconds = 1e-3;
  options.resilience.retry.deadline_seconds = 5.0;
  options.resilience.breaker.failure_threshold = 8;
  options.resilience.breaker.open_seconds = 0.005;
  options.resilience.breaker.half_open_successes = 1;

  transport::FaultInjectingChannel* fault = nullptr;
  options.channel_decorator =
      [&listener, &address, &fault, &profile](transport::Channel* inner)
      -> std::unique_ptr<transport::Channel> {
    // The listener dispatches straight back into the service's own
    // endpoint via the inner DirectChannel — a loopback deployment, so
    // the suite's oracles keep working while the bytes really cross a
    // socket. SerializedHandler restores the facade's write/read
    // locking that a multi-worker listener cannot inherit.
    auto started = SocketListener::Start(
        address,
        transport::SerializedHandler(
            [inner](std::string_view request, const CallContext& context) {
              return inner->Call(request, context);
            }),
        transport::ListenerOptions{});
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    listener = std::move(started).value();

    SocketChannelOptions socket_options;
    socket_options.io_timeout_seconds = 2.0;
    socket_options.backoff_initial_seconds = 0.001;
    socket_options.backoff_max_seconds = 0.01;
    struct Composite : transport::Channel {
      std::unique_ptr<SocketChannel> socket;
      std::unique_ptr<transport::FaultInjectingChannel> chaos;
      Result<std::string> Call(std::string_view request,
                               const CallContext& context) override {
        return chaos->Call(request, context);
      }
    };
    auto composite = std::make_unique<Composite>();
    composite->socket =
        std::make_unique<SocketChannel>(address, socket_options);
    composite->chaos = std::make_unique<transport::FaultInjectingChannel>(
        composite->socket.get(), profile, /*seed=*/0x50C4E7);
    fault = composite->chaos.get();
    return composite;
  };

  CasperService service(options);
  ListenerGuard guard{&listener};
  ASSERT_NE(fault, nullptr);
  ASSERT_NE(listener, nullptr);

  Rng rng(0x50C4);
  const Rect space = service.options().pyramid.space;
  for (anonymizer::UserId uid = 0; uid < kUsers; ++uid) {
    anonymizer::PrivacyProfile user_profile;
    user_profile.k = static_cast<uint32_t>(rng.UniformInt(1, 6));
    ASSERT_TRUE(
        service.RegisterUser(uid, user_profile, rng.PointIn(space)).ok());
  }
  const std::vector<processor::PublicTarget> targets =
      workload::UniformPublicTargets(kTargets, space, &rng);
  service.SetPublicTargets(targets);

  server::BatchEngineOptions engine_options;
  engine_options.threads = 4;
  engine_options.use_cache = true;
  server::BatchQueryEngine engine(&service, engine_options);

  size_t ok_count = 0;
  size_t inclusive_checks = 0;
  for (size_t batch = 0; batch < kBatches; ++batch) {
    if (batch == 3) {
      // Scripted hard outage on top of the random chaos: trips the
      // breaker even though the socket peer is alive. Short enough
      // (relative to the 360-query run) that well over half the
      // workload still succeeds.
      fault->FailRequests(fault->calls() + 1, fault->calls() + 12);
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
        EXPECT_TRUE(
            response.status.code() == StatusCode::kUnavailable ||
            response.status.code() == StatusCode::kDeadlineExceeded)
            << "batch " << batch << " slot " << i << ": "
            << response.status.message();
        continue;
      }
      ++ok_count;
      if (response.kind != QueryKind::kNearestPublic) continue;
      ASSERT_NE(response.nearest_public(), nullptr);
      const PublicNNResponse& nn = *response.nearest_public();
      const uint64_t uid = requests[i].uid;
      const auto position = service.ClientPosition(uid);
      ASSERT_TRUE(position.ok());
      const uint64_t truth = BruteNearest(targets, position.value());
      EXPECT_TRUE(ContainsId(nn.server_answer.candidates, truth))
          << "batch " << batch << " slot " << i
          << ": true NN missing from candidate list over the socket";
      EXPECT_EQ(nn.exact.id, truth);
      ++inclusive_checks;
    }
    for (anonymizer::UserId uid = 0; uid < kUsers; ++uid) {
      ASSERT_TRUE(service.UpdateUserLocation(uid, rng.PointIn(space)).ok());
    }
    // A condensed workload finishes batches in single-digit
    // milliseconds — faster than half-open probes can burn off a
    // scripted outage. Give the breaker the wall-clock a real client
    // would: probe until it re-closes before the next burst.
    for (int i = 0; i < 300 && service.transport_client().breaker_state() ==
                                   transport::BreakerState::kOpen;
         ++i) {
      (void)service.QueryNearestPublic(i % kUsers);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const transport::FaultStats stats = fault->stats();
  EXPECT_GT(stats.TotalInjected(), 20u);
  EXPECT_GT(ok_count, kBatches * kBatchSize / 2);
  EXPECT_GT(inclusive_checks, 30u);

  // Calm the channel, recover the breaker, drain the replay buffer:
  // exactly one region per user, duplicates and retries notwithstanding.
  fault->SetProfile(transport::FaultProfile{});
  for (int i = 0; i < 500 && service.transport_client().breaker_state() !=
                                 transport::BreakerState::kClosed;
       ++i) {
    (void)service.QueryNearestPublic(i % kUsers);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.transport_client().breaker_state(),
            transport::BreakerState::kClosed);
  ASSERT_TRUE(service.transport_client().Flush().ok());
  EXPECT_EQ(PrivateSnapshot(service.private_store()).size(), kUsers);
}

TEST(SocketChaosTest, BreakerTripsAndRecoversAcrossListenerRestart) {
  const std::string address = "unix:/tmp/casper_churn_" +
                              std::to_string(getpid()) + ".sock";
  std::unique_ptr<SocketListener> listener;
  transport::SocketHandler handler;  // Rebuilt listeners reuse this.

  CasperOptions options;
  options.pyramid.height = 6;
  options.auto_sync_private_data = true;
  options.resilience.retry.max_attempts = 2;
  options.resilience.retry.initial_backoff_seconds = 1e-4;
  options.resilience.retry.max_backoff_seconds = 1e-3;
  options.resilience.retry.deadline_seconds = 0.5;
  options.resilience.breaker.failure_threshold = 3;
  options.resilience.breaker.open_seconds = 0.01;
  options.resilience.breaker.half_open_successes = 1;

  options.channel_decorator =
      [&listener, &handler, &address](transport::Channel* inner)
      -> std::unique_ptr<transport::Channel> {
    handler = transport::SerializedHandler(
        [inner](std::string_view request, const CallContext& context) {
          return inner->Call(request, context);
        });
    auto started = SocketListener::Start(address, handler,
                                         transport::ListenerOptions{});
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    listener = std::move(started).value();

    SocketChannelOptions socket_options;
    socket_options.connect_timeout_seconds = 0.1;
    socket_options.io_timeout_seconds = 1.0;
    socket_options.backoff_initial_seconds = 0.001;
    socket_options.backoff_max_seconds = 0.02;
    return std::make_unique<SocketChannel>(address, socket_options);
  };

  CasperService service(options);
  ListenerGuard guard{&listener};
  ASSERT_NE(listener, nullptr);

  Rng rng(0xC1124);
  const Rect space = service.options().pyramid.space;
  for (anonymizer::UserId uid = 0; uid < 16; ++uid) {
    anonymizer::PrivacyProfile user_profile;
    user_profile.k = static_cast<uint32_t>(rng.UniformInt(1, 4));
    ASSERT_TRUE(
        service.RegisterUser(uid, user_profile, rng.PointIn(space)).ok());
  }
  ASSERT_TRUE(service.QueryNearestPrivate(0).ok() ||
              PrivateSnapshot(service.private_store()).size() > 0);

  // Outage: the listener dies mid-run. Queries fail typed; the breaker
  // opens; maintenance keeps landing in the replay buffer.
  listener->Shutdown();
  listener.reset();
  bool breaker_opened = false;
  for (int i = 0; i < 100 && !breaker_opened; ++i) {
    auto failed = service.QueryNearestPrivate(i % 16);
    if (failed.ok()) continue;
    EXPECT_TRUE(failed.status().code() == StatusCode::kUnavailable ||
                failed.status().code() == StatusCode::kDeadlineExceeded)
        << failed.status().ToString();
    breaker_opened = service.transport_client().breaker_state() ==
                     transport::BreakerState::kOpen;
  }
  EXPECT_TRUE(breaker_opened);
  for (anonymizer::UserId uid = 0; uid < 16; ++uid) {
    // Buffered while unreachable, OK by contract.
    ASSERT_TRUE(service.UpdateUserLocation(uid, rng.PointIn(space)).ok());
  }

  // Restart on the same address (the anonymizer-side state and the
  // in-process server both survived; only the wire went away).
  auto restarted = SocketListener::Start(address, handler,
                                         transport::ListenerOptions{});
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  listener = std::move(restarted).value();

  bool recovered = false;
  for (int i = 0; i < 500 && !recovered; ++i) {
    recovered = service.QueryNearestPrivate(i % 16).ok() &&
                service.transport_client().breaker_state() ==
                    transport::BreakerState::kClosed;
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(recovered) << "breaker never re-closed after the restart";

  ASSERT_TRUE(service.transport_client().Flush().ok());
  EXPECT_EQ(PrivateSnapshot(service.private_store()).size(), 16u)
      << "replayed maintenance did not land exactly once";
}

}  // namespace
}  // namespace casper
