#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/casper/messages.h"
#include "src/common/stopwatch.h"
#include "src/obs/casper_metrics.h"
#include "src/transport/listener.h"
#include "src/transport/resilient_client.h"
#include "src/transport/socket_channel.h"

/// SocketChannel behavior against live, dead, restarting, and
/// never-answering peers: framed round trips, connection pooling under
/// concurrency, reconnect-with-backoff across a listener restart, the
/// backoff fast-fail gate, deadline-bounded I/O on a peer that accepts
/// but never answers (the slow-peer case io_timeout alone would let
/// hang for seconds), and the end-to-end guarantee that a
/// ResilientClient deadline holds across dials, retries, and backoff.

namespace casper {
namespace {

using transport::CallContext;
using transport::ListenerOptions;
using transport::SocketChannel;
using transport::SocketChannelOptions;
using transport::SocketListener;

std::string TempSocketPath(const char* tag) {
  return "unix:/tmp/casper_" + std::string(tag) + "_" +
         std::to_string(getpid()) + ".sock";
}

transport::SocketHandler EchoHandler() {
  return [](std::string_view request, const CallContext&) {
    return Result<std::string>(std::string(request));
  };
}

TEST(SocketChannelTest, RoundTripOverUnixSocket) {
  obs::MetricsRegistry registry;
  obs::CasperMetrics metrics(&registry);
  ListenerOptions server_options;
  server_options.metrics = &metrics;
  const std::string address = TempSocketPath("roundtrip");
  auto listener =
      SocketListener::Start(address, EchoHandler(), server_options);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  SocketChannelOptions options;
  options.metrics = &metrics;
  SocketChannel channel(address, options);
  for (int i = 0; i < 20; ++i) {
    const std::string request = "payload-" + std::to_string(i);
    auto response = channel.Call(request, CallContext{});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value(), request);
  }
  const transport::SocketChannelStats stats = channel.stats();
  EXPECT_EQ(stats.calls, 20u);
  EXPECT_EQ(stats.dials, 1u) << "sequential calls reuse one pooled conn";
  (*listener)->Shutdown();
}

TEST(SocketChannelTest, RoundTripOverTcp) {
  auto listener = SocketListener::Start("127.0.0.1:0", EchoHandler());
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  SocketChannel channel((*listener)->bound_address());
  auto response = channel.Call("over tcp", CallContext{});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value(), "over tcp");
  (*listener)->Shutdown();
}

TEST(SocketChannelTest, ConcurrentCallsEachGetTheirOwnResponse) {
  const std::string address = TempSocketPath("concurrent");
  auto listener = SocketListener::Start(address, EchoHandler());
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  SocketChannel channel(address);
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&channel, &mismatches, &failures, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        std::string request = "t";
        request.append(std::to_string(t)).append("-").append(
            std::to_string(i));
        auto response = channel.Call(request, CallContext{});
        if (!response.ok()) {
          ++failures;
        } else if (response.value() != request) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "responses crossed between concurrent calls";
  (*listener)->Shutdown();
}

TEST(SocketChannelTest, ReconnectsAfterListenerRestart) {
  const std::string address = TempSocketPath("restart");
  auto listener = SocketListener::Start(address, EchoHandler());
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  SocketChannelOptions options;
  options.backoff_initial_seconds = 0.005;
  options.backoff_max_seconds = 0.05;
  SocketChannel channel(address, options);
  ASSERT_TRUE(channel.Call("before", CallContext{}).ok());

  (*listener)->Shutdown();
  // The pooled connection is dead and redials fail until the peer is
  // back; every failure is typed and retryable.
  for (int i = 0; i < 5; ++i) {
    auto down = channel.Call("down", CallContext{});
    ASSERT_FALSE(down.ok());
    EXPECT_TRUE(down.status().IsRetryable()) << down.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  auto restarted = SocketListener::Start(address, EchoHandler());
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  bool recovered = false;
  for (int i = 0; i < 200 && !recovered; ++i) {
    recovered = channel.Call("after", CallContext{}).ok();
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(recovered) << "channel never recovered after restart";
  const transport::SocketChannelStats stats = channel.stats();
  EXPECT_GE(stats.dial_failures, 1u);
  EXPECT_GE(stats.reconnects, 1u);
  (*restarted)->Shutdown();
}

TEST(SocketChannelTest, BackoffGateFailsFastWithoutRedialing) {
  SocketChannelOptions options;
  options.connect_timeout_seconds = 0.1;
  // A wide window so the fast-fail path is deterministic.
  options.backoff_initial_seconds = 5.0;
  options.backoff_jitter_fraction = 0.0;
  SocketChannel channel("unix:/tmp/casper_no_such_peer.sock", options);

  auto first = channel.Call("x", CallContext{});
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);

  auto second = channel.Call("x", CallContext{});
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.status().message().find("reconnect backoff"),
            std::string_view::npos)
      << second.status().ToString();

  const transport::SocketChannelStats stats = channel.stats();
  EXPECT_EQ(stats.dials, 1u) << "the second call must not redial";
  EXPECT_EQ(stats.dial_failures, 1u);
  EXPECT_GE(stats.backoff_fastfails, 1u);
}

/// A TCP listener that accepts nothing: connects succeed through the
/// kernel backlog, but no byte is ever answered — the worst-case slow
/// peer for a client-side deadline.
class NeverAcceptingListener {
 public:
  NeverAcceptingListener() {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(listen(fd_, 8), 0);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    EXPECT_EQ(
        getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len), 0);
    address_ = "127.0.0.1:" + std::to_string(ntohs(bound.sin_port));
  }
  ~NeverAcceptingListener() {
    if (fd_ >= 0) close(fd_);
  }
  const std::string& address() const { return address_; }

 private:
  int fd_ = -1;
  std::string address_;
};

TEST(SocketChannelTest, DeadlineBoundsIoOnNeverAnsweringPeer) {
  NeverAcceptingListener dead_peer;
  SocketChannelOptions options;
  options.io_timeout_seconds = 30.0;  // The deadline must win, not this.
  SocketChannel channel(dead_peer.address(), options);

  CallContext context;
  context.deadline_seconds = 0.3;
  Stopwatch watch;
  auto response = channel.Call("stalls forever", context);
  const double elapsed = watch.ElapsedSeconds();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(elapsed, 0.25);
  EXPECT_LT(elapsed, 3.0)
      << "the 30s io timeout leaked past the 0.3s deadline";
  EXPECT_GE(channel.stats().io_timeouts, 1u);
}

/// Satellite regression: a ResilientClient deadline is end-to-end. A
/// dead peer costs the caller its deadline — dials, io stalls, retry
/// backoffs, and breaker bookkeeping all together — and the final
/// status is kDeadlineExceeded, not a leaked retryable.
TEST(SocketChannelTest, ResilientClientDeadlineHoldsEndToEnd) {
  NeverAcceptingListener dead_peer;
  obs::MetricsRegistry registry;
  obs::CasperMetrics metrics(&registry);

  SocketChannelOptions channel_options;
  channel_options.io_timeout_seconds = 30.0;
  channel_options.metrics = &metrics;
  SocketChannel channel(dead_peer.address(), channel_options);

  transport::ResilienceOptions resilience;
  resilience.retry.max_attempts = 10;
  resilience.retry.deadline_seconds = 0.5;
  resilience.retry.initial_backoff_seconds = 0.001;
  resilience.retry.max_backoff_seconds = 0.01;
  resilience.breaker.failure_threshold = 100;  // Deadline, not breaker.
  resilience.degradation.serve_degraded_from_cache = false;
  resilience.metrics = &metrics;
  transport::ResilientClient client(&channel, resilience);

  CloakedQueryMsg query;
  query.kind = QueryKind::kNearestPublic;
  query.cloak = Rect(0.4, 0.4, 0.6, 0.6);

  Stopwatch watch;
  auto response = client.Execute(query, nullptr);
  const double elapsed = watch.ElapsedSeconds();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
  EXPECT_GE(elapsed, 0.4);
  EXPECT_LT(elapsed, 3.0) << "attempts did not share one deadline budget";
}

TEST(SocketChannelTest, GarbageResponseIsTypedDataLoss) {
  // A raw TCP server that answers every connection with non-frame
  // bytes: the channel must surface kDataLoss and drop the conn.
  const int listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)),
            0);
  ASSERT_EQ(listen(listen_fd, 4), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ASSERT_EQ(
      getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len), 0);
  const std::string address =
      "127.0.0.1:" + std::to_string(ntohs(bound.sin_port));

  std::thread evil_server([listen_fd] {
    const int conn = accept(listen_fd, nullptr, nullptr);
    if (conn < 0) return;
    const char garbage[] = "HTTP/1.1 400 Bad Request\r\n\r\n";
    (void)!write(conn, garbage, sizeof(garbage) - 1);
    close(conn);
  });

  SocketChannel channel(address);
  auto response = channel.Call("hello?", CallContext{});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDataLoss)
      << response.status().ToString();
  EXPECT_GE(channel.stats().data_loss, 1u);

  evil_server.join();
  close(listen_fd);
}

}  // namespace
}  // namespace casper
