#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/casper/messages.h"
#include "src/obs/exporters.h"
#include "src/transport/framing.h"
#include "src/transport/listener.h"
#include "src/transport/net_util.h"
#include "src/transport/resilient_client.h"
#include "src/transport/socket_channel.h"

/// Admission control and connection supervision of the SocketListener,
/// each policy exercised by a hostile raw-socket peer: watermark load
/// shedding (with a concurrent well-behaved client that must keep
/// succeeding — the acceptance criterion), per-peer rate limits
/// escalating to a temporary ban, ban rejection at accept until expiry,
/// the max-connection cap, idle and slow-loris timeouts, framing-
/// violation closes, graceful drain, and the casper_net_* series
/// showing up in both exporters.

namespace casper {
namespace {

using transport::CallContext;
using transport::EncodeFrame;
using transport::FrameDecoder;
using transport::ListenerOptions;
using transport::SocketChannel;
using transport::SocketChannelOptions;
using transport::SocketListener;

std::string TempSocketPath(const char* tag) {
  return "unix:/tmp/casper_" + std::string(tag) + "_" +
         std::to_string(getpid()) + ".sock";
}

/// Connections the listener closed for `reason`, one of
/// obs::kNetCloseReasonLabels.
uint64_t ClosedFor(const obs::CasperMetrics& metrics,
                   std::string_view reason) {
  for (size_t i = 0; i < obs::kNetCloseReasonCount; ++i) {
    if (reason == obs::kNetCloseReasonLabels[i]) {
      return metrics.net_connections_closed_total[i]->Value();
    }
  }
  ADD_FAILURE() << "unknown close reason " << reason;
  return 0;
}

std::string QueryBytes(uint64_t request_id) {
  CloakedQueryMsg msg;
  msg.kind = QueryKind::kNearestPublic;
  msg.request_id = request_id;
  msg.cloak = Rect(0.1, 0.1, 0.2, 0.2);
  return Encode(msg);
}

/// A raw-socket peer driven byte by byte — the adversary the admission
/// layer exists for.
class RawPeer {
 public:
  explicit RawPeer(const std::string& address) {
    auto parsed = transport::net::ParseAddress(address);
    EXPECT_TRUE(parsed.ok());
    auto fd = transport::net::Dial(parsed.value(), 1.0);
    if (fd.ok()) fd_ = fd.value();
  }
  ~RawPeer() {
    if (fd_ >= 0) close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  bool Send(std::string_view bytes) {
    return fd_ >= 0 &&
           transport::net::WriteAll(fd_, bytes, 2.0).ok();
  }

  /// Read framed payloads until `count` arrived, EOF, or timeout.
  std::vector<std::string> ReadPayloads(size_t count,
                                        double timeout_seconds = 5.0) {
    std::vector<std::string> out;
    FrameDecoder decoder;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_seconds);
    while (out.size() < count &&
           std::chrono::steady_clock::now() < deadline) {
      auto next = decoder.Next();
      if (!next.ok()) break;
      if (next->has_value()) {
        out.push_back(**next);
        continue;
      }
      std::string chunk;
      const Status read =
          transport::net::ReadSome(fd_, &chunk, 1 << 16, 0.25);
      if (!read.ok()) {
        // Keep waiting through timeouts; EOF/reset ends the stream.
        if (read.message().find("timed out") == std::string_view::npos) {
          break;
        }
        continue;
      }
      decoder.Append(chunk);
    }
    return out;
  }

  /// True when the peer observes EOF (the server closed us).
  bool WaitForClose(double timeout_seconds = 5.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_seconds);
    std::string chunk;
    while (std::chrono::steady_clock::now() < deadline) {
      chunk.clear();
      const Status read =
          transport::net::ReadSome(fd_, &chunk, 4096, 0.25);
      if (!read.ok() &&
          read.message().find("timed out") == std::string_view::npos) {
        return true;  // EOF or reset.
      }
    }
    return false;
  }

 private:
  int fd_ = -1;
};

TEST(ListenerAdmissionTest, ShedsAboveWatermarkWhileGoodPeerSucceeds) {
  obs::MetricsRegistry registry;
  obs::CasperMetrics metrics(&registry);

  ListenerOptions options;
  options.worker_threads = 2;
  options.inbound_queue_watermark = 4;
  options.metrics = &metrics;
  std::atomic<int> handled{0};
  const std::string address = TempSocketPath("shed");
  auto listener = SocketListener::Start(
      address,
      [&handled](std::string_view request, const CallContext&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ++handled;
        return Result<std::string>(std::string(request));
      },
      options);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  // The well-behaved peer: sequential resilient calls that must all
  // succeed while the flooder is being shed on its own connection.
  std::atomic<int> good_ok{0};
  std::atomic<int> good_failed{0};
  std::thread good_peer([&] {
    SocketChannel channel(address);
    for (int i = 0; i < 30; ++i) {
      const std::string request = "good-" + std::to_string(i);
      auto response = channel.Call(request, CallContext{});
      if (response.ok() && response.value() == request) {
        ++good_ok;
      } else {
        ++good_failed;
      }
    }
  });

  // The flooder: pipeline far more frames than the watermark without
  // reading a single response.
  constexpr size_t kFlood = 200;
  RawPeer flooder(address);
  ASSERT_TRUE(flooder.connected());
  std::string burst;
  for (size_t i = 0; i < kFlood; ++i) {
    burst += EncodeFrame(QueryBytes(1000 + i));
  }
  ASSERT_TRUE(flooder.Send(burst));

  // Every flooded frame is answered — echoed when admitted, or shed
  // with a *typed* kUnavailable ack addressed to its request id.
  const std::vector<std::string> responses =
      flooder.ReadPayloads(kFlood, 10.0);
  good_peer.join();

  EXPECT_EQ(responses.size(), kFlood);
  size_t shed_acks = 0;
  for (const std::string& payload : responses) {
    auto ack = DecodeAck(payload);
    if (!ack.ok()) continue;  // An admitted frame, echoed back.
    EXPECT_EQ(ack->code, StatusCode::kUnavailable);
    EXPECT_NE(ack->message.find("shed"), std::string::npos);
    EXPECT_GE(ack->request_id, 1000u) << "shed ack echoes the request id";
    ++shed_acks;
  }
  EXPECT_GT(shed_acks, 0u) << "the flood never overflowed the watermark";

  EXPECT_EQ(good_failed.load(), 0)
      << "load shedding leaked onto the well-behaved peer";
  EXPECT_EQ(good_ok.load(), 30);

  EXPECT_EQ(metrics.net_shed_total->Value(), shed_acks);
  (*listener)->Shutdown();

  // The shed shows up in both exporters, not just the counter.
  const obs::MetricsSnapshot snapshot = registry.Scrape();
  const std::string prom = obs::ExportPrometheus(snapshot);
  const std::string json = obs::ExportJson(snapshot);
  EXPECT_NE(prom.find("casper_net_shed_total"), std::string::npos);
  EXPECT_NE(json.find("casper_net_shed_total"), std::string::npos);
  EXPECT_NE(prom.find("casper_net_frames_read_total"), std::string::npos);
  EXPECT_NE(json.find("casper_net_connections_accepted_total"),
            std::string::npos);
}

TEST(ListenerAdmissionTest, RateLimitStrikesEscalateToBan) {
  obs::MetricsRegistry registry;
  obs::CasperMetrics metrics(&registry);

  ListenerOptions options;
  options.rate_window_seconds = 10.0;  // One window spans the test.
  options.max_requests_per_window = 5;
  options.strike_threshold = 3;
  options.ban_seconds = 0.4;
  options.metrics = &metrics;
  const std::string address = "127.0.0.1:0";
  auto listener = SocketListener::Start(
      address,
      [](std::string_view request, const CallContext&) {
        return Result<std::string>(std::string(request));
      },
      options);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const std::string bound = (*listener)->bound_address();

  {
    RawPeer flooder(bound);
    ASSERT_TRUE(flooder.connected());
    // 5 admitted + (threshold) violations -> strikes -> ban -> close.
    std::string burst;
    for (size_t i = 0; i < 16; ++i) burst += EncodeFrame(QueryBytes(i + 1));
    ASSERT_TRUE(flooder.Send(burst));
    EXPECT_TRUE(flooder.WaitForClose())
        << "the struck-out peer was never banned away";
  }

  // While the ban lasts, reconnects from the same address are refused
  // at accept.
  bool saw_ban_reject = false;
  for (int i = 0; i < 10 && !saw_ban_reject; ++i) {
    RawPeer retry(bound);
    if (!retry.connected()) break;
    saw_ban_reject = retry.WaitForClose(0.5);
  }
  EXPECT_TRUE(saw_ban_reject);
  EXPECT_GE(metrics.net_rate_limited_total->Value(), 3u);
  EXPECT_GE(metrics.net_bans_total->Value(), 1u);
  EXPECT_GE(metrics.net_ban_rejects_total->Value(), 1u);

  // After expiry the same peer is clean again.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  bool recovered = false;
  for (int i = 0; i < 20 && !recovered; ++i) {
    RawPeer again(bound);
    if (again.connected() && again.Send(EncodeFrame(QueryBytes(99)))) {
      recovered = !again.ReadPayloads(1, 1.0).empty();
    }
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(recovered) << "the ban never expired";
  (*listener)->Shutdown();

  const std::string prom = obs::ExportPrometheus(registry.Scrape());
  EXPECT_NE(prom.find("casper_net_rate_limited_total"), std::string::npos);
  EXPECT_NE(prom.find("casper_net_bans_total"), std::string::npos);
}

TEST(ListenerAdmissionTest, ConnectionCapRejectsTheOverflow) {
  obs::MetricsRegistry registry;
  obs::CasperMetrics metrics(&registry);
  ListenerOptions options;
  options.max_connections = 2;
  options.metrics = &metrics;
  const std::string address = TempSocketPath("cap");
  auto listener = SocketListener::Start(
      address,
      [](std::string_view request, const CallContext&) {
        return Result<std::string>(std::string(request));
      },
      options);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  RawPeer first(address), second(address);
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(second.connected());
  // Round trips pin both connections as registered before the third
  // arrives.
  ASSERT_TRUE(first.Send(EncodeFrame(QueryBytes(1))));
  ASSERT_TRUE(second.Send(EncodeFrame(QueryBytes(2))));
  ASSERT_EQ(first.ReadPayloads(1).size(), 1u);
  ASSERT_EQ(second.ReadPayloads(1).size(), 1u);

  RawPeer third(address);
  ASSERT_TRUE(third.connected());  // The kernel accepts; the loop closes.
  EXPECT_TRUE(third.WaitForClose());
  EXPECT_GE(ClosedFor(metrics, "cap"), 1u);
  // The refused connection was never registered.
  EXPECT_EQ(metrics.net_connections_active->Value(), 2.0);
  (*listener)->Shutdown();
}

TEST(ListenerAdmissionTest, IdleConnectionsAreReaped) {
  obs::MetricsRegistry registry;
  obs::CasperMetrics metrics(&registry);
  ListenerOptions options;
  options.idle_timeout_seconds = 0.2;
  options.metrics = &metrics;
  const std::string address = TempSocketPath("idle");
  auto listener = SocketListener::Start(
      address,
      [](std::string_view request, const CallContext&) {
        return Result<std::string>(std::string(request));
      },
      options);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  RawPeer idler(address);
  ASSERT_TRUE(idler.connected());
  ASSERT_TRUE(idler.Send(EncodeFrame(QueryBytes(1))));
  ASSERT_EQ(idler.ReadPayloads(1).size(), 1u);
  EXPECT_TRUE(idler.WaitForClose()) << "idle conn outlived its timeout";
  EXPECT_GE(ClosedFor(metrics, "idle"), 1u);
  (*listener)->Shutdown();
}

TEST(ListenerAdmissionTest, SlowLorisIsCutOffMidFrame) {
  obs::MetricsRegistry registry;
  obs::CasperMetrics metrics(&registry);
  ListenerOptions options;
  options.idle_timeout_seconds = 60.0;
  options.partial_frame_timeout_seconds = 0.2;
  options.metrics = &metrics;
  const std::string address = TempSocketPath("loris");
  auto listener = SocketListener::Start(
      address,
      [](std::string_view request, const CallContext&) {
        return Result<std::string>(std::string(request));
      },
      options);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  RawPeer loris(address);
  ASSERT_TRUE(loris.connected());
  const std::string frame = EncodeFrame(QueryBytes(1));
  // Half a frame, then silence: the partial-frame clock, not the idle
  // clock, must cut this off.
  ASSERT_TRUE(loris.Send(std::string_view(frame).substr(0, 6)));
  EXPECT_TRUE(loris.WaitForClose(5.0));
  EXPECT_GE(ClosedFor(metrics, "slow_loris"), 1u);
  (*listener)->Shutdown();
}

TEST(ListenerAdmissionTest, FramingViolationClosesTheConnection) {
  obs::MetricsRegistry registry;
  obs::CasperMetrics metrics(&registry);
  ListenerOptions options;
  options.metrics = &metrics;
  const std::string address = TempSocketPath("frame_err");
  auto listener = SocketListener::Start(
      address,
      [](std::string_view request, const CallContext&) {
        return Result<std::string>(std::string(request));
      },
      options);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  RawPeer garbler(address);
  ASSERT_TRUE(garbler.connected());
  ASSERT_TRUE(garbler.Send("GET / HTTP/1.1\r\nHost: casper\r\n\r\n"));
  EXPECT_TRUE(garbler.WaitForClose());
  EXPECT_GE(ClosedFor(metrics, "frame_error"), 1u);

  // A framing violation is one peer's problem: the listener still
  // serves the next connection.
  RawPeer clean(address);
  ASSERT_TRUE(clean.connected());
  ASSERT_TRUE(clean.Send(EncodeFrame(QueryBytes(5))));
  EXPECT_EQ(clean.ReadPayloads(1).size(), 1u);
  (*listener)->Shutdown();
}

TEST(ListenerAdmissionTest, GracefulDrainFinishesInFlightWork) {
  ListenerOptions options;
  options.drain_timeout_seconds = 5.0;
  const std::string address = TempSocketPath("drain");
  auto listener = SocketListener::Start(
      address,
      [](std::string_view request, const CallContext&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return Result<std::string>(std::string(request));
      },
      options);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  std::atomic<bool> call_ok{false};
  std::string echoed;
  std::thread in_flight([&] {
    SocketChannel channel(address);
    auto response = channel.Call("survives the drain", CallContext{});
    call_ok = response.ok();
    if (response.ok()) echoed = response.value();
  });
  // Let the request land in a worker, then shut down around it.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  (*listener)->Shutdown();
  in_flight.join();
  EXPECT_TRUE(call_ok.load())
      << "shutdown dropped a response that was already in flight";
  EXPECT_EQ(echoed, "survives the drain");
}

}  // namespace
}  // namespace casper
