#include "src/transport/channel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/casper/messages.h"
#include "src/common/rng.h"
#include "src/obs/casper_metrics.h"
#include "src/server/query_server.h"
#include "src/transport/fault_injection.h"
#include "src/transport/server_endpoint.h"

/// The transport seam below the resilience machinery: ServerEndpoint
/// dispatch + DirectChannel (every message kind round-trips, every
/// failure travels as a typed AckMsg), and FaultInjectingChannel (each
/// fault mode does exactly what it claims, deterministically per seed).

namespace casper::transport {
namespace {

using PrivateSnapshot = processor::PrivateTargetStore::Snapshot;

CloakedQueryMsg NearestQuery(uint64_t request_id) {
  CloakedQueryMsg query;
  query.kind = QueryKind::kNearestPublic;
  query.request_id = request_id;
  query.cloak = Rect(0.2, 0.2, 0.5, 0.5);
  return query;
}

RegionUpsertMsg Upsert(uint64_t request_id, uint64_t handle) {
  RegionUpsertMsg msg;
  msg.request_id = request_id;
  msg.handle = handle;
  msg.region = Rect(0.1, 0.1, 0.3, 0.3);
  return msg;
}

class EndpointTest : public ::testing::Test {
 protected:
  EndpointTest()
      : metrics_(&registry_),
        server_(ServerOptions()),
        endpoint_(&server_),
        channel_(&endpoint_) {
    Rng rng(99);
    for (uint64_t id = 1; id <= 32; ++id) {
      server_.AddPublicTarget({id, rng.PointIn(Rect(0, 0, 1, 1))});
    }
  }

  server::QueryServerOptions ServerOptions() {
    server::QueryServerOptions options;
    options.metrics = &metrics_;
    return options;
  }

  obs::MetricsRegistry registry_;
  obs::CasperMetrics metrics_;
  server::QueryServer server_;
  ServerEndpoint endpoint_;
  DirectChannel channel_;
};

TEST_F(EndpointTest, QueryRoundTripsAndEchoesRequestId) {
  const CloakedQueryMsg query = NearestQuery(7);
  Result<std::string> bytes = channel_.Call(Encode(query), CallContext{});
  ASSERT_TRUE(bytes.ok());

  Result<CandidateListMsg> answer = DecodeCandidateList(bytes.value());
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->kind, QueryKind::kNearestPublic);
  EXPECT_EQ(answer->request_id, 7u);
  EXPECT_FALSE(answer->degraded);

  // Byte-for-byte the same answer the server gives when called directly.
  Result<CandidateListMsg> direct = server_.Execute(query);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(answer->payload, direct->payload);
}

TEST_F(EndpointTest, MaintenanceAcksEchoRequestId) {
  Result<std::string> bytes =
      channel_.Call(Encode(Upsert(11, 5)), CallContext{});
  ASSERT_TRUE(bytes.ok());
  Result<AckMsg> ack = DecodeAck(bytes.value());
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack->ok());
  EXPECT_EQ(ack->request_id, 11u);
  EXPECT_EQ(PrivateSnapshot(server_.private_store()).size(), 1u);

  RegionRemoveMsg remove;
  remove.request_id = 12;
  remove.handle = 5;
  bytes = channel_.Call(Encode(remove), CallContext{});
  ASSERT_TRUE(bytes.ok());
  ack = DecodeAck(bytes.value());
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack->ok());
  EXPECT_EQ(ack->request_id, 12u);
  EXPECT_EQ(PrivateSnapshot(server_.private_store()).size(), 0u);
}

TEST_F(EndpointTest, SnapshotAcksWithIdZero) {
  SnapshotMsg snapshot;
  snapshot.regions.push_back({42, Rect(0.1, 0.1, 0.2, 0.2)});
  Result<std::string> bytes =
      channel_.Call(Encode(snapshot), CallContext{});
  ASSERT_TRUE(bytes.ok());
  Result<AckMsg> ack = DecodeAck(bytes.value());
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack->ok());
  EXPECT_EQ(ack->request_id, 0u);
  EXPECT_EQ(PrivateSnapshot(server_.private_store()).size(), 1u);
}

TEST_F(EndpointTest, EmptyOrNaNRegionsAckInvalidArgumentAndStoreIsKept) {
  const auto ack_of = [this](const std::string& request) {
    Result<std::string> bytes = channel_.Call(request, CallContext{});
    EXPECT_TRUE(bytes.ok());
    Result<AckMsg> ack = DecodeAck(bytes.value());
    EXPECT_TRUE(ack.ok());
    return ack.value();
  };
  ASSERT_TRUE(ack_of(Encode(Upsert(1, 5))).ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Rect bad_regions[] = {Rect(), Rect(0.5, 0.1, 0.4, 0.3),
                              Rect(nan, 0.1, 0.3, 0.3),
                              Rect(0.1, 0.1, 0.3, nan)};
  uint64_t request_id = 10;
  for (const Rect& region : bad_regions) {
    RegionUpsertMsg upsert = Upsert(++request_id, 6);
    upsert.has_replaces = true;
    upsert.replaces = 5;
    upsert.region = region;
    for (int delivery = 0; delivery < 2; ++delivery) {  // Replay too.
      const AckMsg ack = ack_of(Encode(upsert));
      EXPECT_EQ(ack.code, StatusCode::kInvalidArgument);
      EXPECT_EQ(ack.request_id, request_id);
    }

    SnapshotMsg snapshot;
    snapshot.regions = {{42, Rect(0.1, 0.1, 0.2, 0.2)}, {43, region}};
    const AckMsg ack = ack_of(Encode(snapshot));
    EXPECT_EQ(ack.code, StatusCode::kInvalidArgument);
    EXPECT_EQ(ack.request_id, 0u);
  }
  // Two good regions under one handle are refused the same way: the
  // handle map could keep only one of them.
  SnapshotMsg twins;
  twins.regions = {{42, Rect(0.1, 0.1, 0.2, 0.2)},
                   {42, Rect(0.5, 0.5, 0.6, 0.6)}};
  EXPECT_EQ(ack_of(Encode(twins)).code, StatusCode::kInvalidArgument);

  // Nothing was applied: handle 5 is still the one stored region, and
  // the server keeps answering queries and maintenance.
  const PrivateSnapshot store(server_.private_store());
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Overlapping(Rect(0, 0, 1, 1)),
            (std::vector<processor::PrivateTarget>{
                {5, Rect(0.1, 0.1, 0.3, 0.3)}}));
  Result<std::string> bytes =
      channel_.Call(Encode(NearestQuery(30)), CallContext{});
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(DecodeCandidateList(bytes.value()).ok());
  EXPECT_TRUE(ack_of(Encode(Upsert(31, 7))).ok());
  EXPECT_EQ(PrivateSnapshot(server_.private_store()).size(), 2u);
}

TEST_F(EndpointTest, OversizeDensityGridsAckInvalidArgumentAndServerAnswers) {
  ASSERT_TRUE(channel_.Call(Encode(Upsert(1, 5)), CallContext{}).ok());
  const auto density = [](uint64_t request_id, int cols, int rows) {
    CloakedQueryMsg query;
    query.kind = QueryKind::kDensity;
    query.request_id = request_id;
    query.cols = cols;
    query.rows = rows;
    return query;
  };
  const int max = std::numeric_limits<int>::max();
  // Over the cell cap; 65536^2 and max^2 also overflow 32-bit products.
  const std::pair<int, int> grids[] = {
      {257, 256}, {1 << 16, 2}, {1 << 16, 1 << 16}, {max, max}, {max, 1}};
  uint64_t request_id = 20;
  for (const auto& [cols, rows] : grids) {
    Result<std::string> bytes =
        channel_.Call(Encode(density(++request_id, cols, rows)), CallContext{});
    ASSERT_TRUE(bytes.ok());
    Result<AckMsg> ack = DecodeAck(bytes.value());
    ASSERT_TRUE(ack.ok()) << cols << "x" << rows;
    EXPECT_EQ(ack->code, StatusCode::kInvalidArgument) << cols << "x" << rows;
    EXPECT_EQ(ack->request_id, request_id);
  }

  // The server is still up and serves a map at the cap and a 16x16 one.
  for (const auto& [cols, rows] : {std::pair{256, 256}, std::pair{16, 16}}) {
    Result<std::string> bytes =
        channel_.Call(Encode(density(++request_id, cols, rows)), CallContext{});
    ASSERT_TRUE(bytes.ok());
    Result<CandidateListMsg> answer = DecodeCandidateList(bytes.value());
    ASSERT_TRUE(answer.ok()) << answer.status().message();
    const auto* map = std::get_if<processor::DensityMap>(&answer->payload);
    ASSERT_NE(map, nullptr);
    EXPECT_EQ(map->cols(), cols);
    EXPECT_EQ(map->rows(), rows);
    EXPECT_NEAR(map->Total(), 1.0, 1e-12);
  }
  Result<std::string> bytes =
      channel_.Call(Encode(NearestQuery(40)), CallContext{});
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(DecodeCandidateList(bytes.value()).ok());
}

TEST_F(EndpointTest, QueryErrorTravelsAsTypedAck) {
  CloakedQueryMsg bad;
  bad.kind = QueryKind::kDensity;
  bad.request_id = 9;
  bad.cols = 0;  // Invalid grid: the server rejects it.
  bad.rows = 0;
  Result<std::string> bytes = channel_.Call(Encode(bad), CallContext{});
  ASSERT_TRUE(bytes.ok());
  Result<AckMsg> ack = DecodeAck(bytes.value());
  ASSERT_TRUE(ack.ok());
  EXPECT_FALSE(ack->ok());
  EXPECT_EQ(ack->request_id, 9u);  // Still answers *this* request.
  EXPECT_FALSE(ack->ToStatus().IsRetryable());
}

TEST_F(EndpointTest, UndecodableRequestAcksDataLossWithIdZero) {
  for (const std::string& request :
       {std::string("garbage"), Encode(NearestQuery(3)).substr(0, 5),
        std::string()}) {
    Result<std::string> bytes = channel_.Call(request, CallContext{});
    ASSERT_TRUE(bytes.ok());
    Result<AckMsg> ack = DecodeAck(bytes.value());
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->request_id, 0u);  // It cannot know the id.
    EXPECT_EQ(ack->code, StatusCode::kDataLoss);
    EXPECT_TRUE(ack->ToStatus().IsRetryable());
  }
}

TEST_F(EndpointTest, ResponseMessagesSentAsRequestsAreRejected) {
  for (const std::string& request :
       {Encode(AckMsg::For(1, Status::OK())), Encode(CandidateListMsg{})}) {
    Result<std::string> bytes = channel_.Call(request, CallContext{});
    ASSERT_TRUE(bytes.ok());
    Result<AckMsg> ack = DecodeAck(bytes.value());
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->code, StatusCode::kInvalidArgument);
  }
}

// --- FaultInjectingChannel over a scripted inner channel -------------------

/// Records every delivered request and answers with a canned response.
class ScriptedChannel : public Channel {
 public:
  Result<std::string> Call(std::string_view request,
                           const CallContext&) override {
    std::lock_guard<std::mutex> lock(mu_);
    requests_.push_back(std::string(request));
    return response_;
  }

  size_t calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return requests_.size();
  }
  std::vector<std::string> requests() const {
    std::lock_guard<std::mutex> lock(mu_);
    return requests_;
  }
  void set_response(std::string response) {
    std::lock_guard<std::mutex> lock(mu_);
    response_ = std::move(response);
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> requests_;
  std::string response_ = "pong";
};

TEST(FaultInjectionTest, DropRequestNeverReachesTheServer) {
  ScriptedChannel inner;
  FaultProfile profile;
  profile.drop_request_rate = 1.0;
  FaultInjectingChannel channel(&inner, profile, 1);
  Result<std::string> result = channel.Call("ping", CallContext{});
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(inner.calls(), 0u);
  EXPECT_EQ(channel.stats().dropped_requests, 1u);
}

TEST(FaultInjectionTest, DropResponseLosesTheReplyAfterDelivery) {
  ScriptedChannel inner;
  FaultProfile profile;
  profile.drop_response_rate = 1.0;
  FaultInjectingChannel channel(&inner, profile, 2);
  Result<std::string> result = channel.Call("ping", CallContext{});
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(inner.calls(), 1u);  // The server *acted*.
  EXPECT_EQ(channel.stats().dropped_responses, 1u);
}

TEST(FaultInjectionTest, DuplicateDeliversTheRequestTwice) {
  ScriptedChannel inner;
  FaultProfile profile;
  profile.duplicate_rate = 1.0;
  FaultInjectingChannel channel(&inner, profile, 3);
  Result<std::string> result = channel.Call("ping", CallContext{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), "pong");
  EXPECT_EQ(inner.calls(), 2u);
  EXPECT_EQ(channel.stats().duplicated, 1u);
}

TEST(FaultInjectionTest, CorruptRequestFlipsOneByteButNeverTheTag) {
  const std::string request = Encode(NearestQuery(1));
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ScriptedChannel inner;
    FaultProfile profile;
    profile.corrupt_request_rate = 1.0;
    FaultInjectingChannel channel(&inner, profile, seed);
    ASSERT_TRUE(channel.Call(request, CallContext{}).ok());
    ASSERT_EQ(inner.calls(), 1u);
    const std::string delivered = inner.requests()[0];
    ASSERT_EQ(delivered.size(), request.size());
    EXPECT_EQ(delivered[0], request[0]);  // Tag byte untouched.
    EXPECT_NE(delivered, request);        // The flip is never a no-op.
  }
}

TEST(FaultInjectionTest, CorruptResponseFlipsOneByteButNeverTheTag) {
  ScriptedChannel inner;
  inner.set_response("candidate-list-bytes");
  FaultProfile profile;
  profile.corrupt_response_rate = 1.0;
  FaultInjectingChannel channel(&inner, profile, 5);
  Result<std::string> result = channel.Call("ping", CallContext{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), std::string("candidate-list-bytes").size());
  EXPECT_EQ(result.value()[0], 'c');
  EXPECT_NE(result.value(), "candidate-list-bytes");
  EXPECT_EQ(channel.stats().corrupted_responses, 1u);
}

TEST(FaultInjectionTest, DelayedCallStillSucceeds) {
  ScriptedChannel inner;
  FaultProfile profile;
  profile.delay_rate = 1.0;
  profile.delay_micros = 500;
  FaultInjectingChannel channel(&inner, profile, 6);
  Result<std::string> result = channel.Call("ping", CallContext{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(channel.stats().delayed, 1u);
}

TEST(FaultInjectionTest, LateDeliveryDefersQueriesUntilTheNextCall) {
  ScriptedChannel inner;
  FaultProfile profile;
  profile.late_delivery_rate = 1.0;
  FaultInjectingChannel channel(&inner, profile, 7);

  // A query is deferred: the caller sees a failure, the server nothing.
  const std::string query = Encode(NearestQuery(1));
  Result<std::string> first = channel.Call(query, CallContext{});
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(inner.calls(), 0u);
  EXPECT_EQ(channel.stats().late_deliveries, 1u);

  // The next call flushes the deferred query first, then delivers its
  // own request. Maintenance messages are never deferred (a mutation
  // flushed from a query thread would race the read-only fan-out).
  const std::string upsert = Encode(Upsert(2, 5));
  Result<std::string> second = channel.Call(upsert, CallContext{});
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(inner.calls(), 2u);
  EXPECT_EQ(inner.requests()[0], query);
  EXPECT_EQ(inner.requests()[1], upsert);
  EXPECT_EQ(channel.stats().late_deliveries, 1u);
}

TEST(FaultInjectionTest, ScriptedWindowFailsExactlyThoseCalls) {
  ScriptedChannel inner;
  FaultInjectingChannel channel(&inner, FaultProfile{}, 8);
  channel.FailRequests(2, 3);
  EXPECT_TRUE(channel.Call("a", CallContext{}).ok());
  EXPECT_EQ(channel.Call("b", CallContext{}).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(channel.Call("c", CallContext{}).status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(channel.Call("d", CallContext{}).ok());
  EXPECT_EQ(channel.stats().scripted_failures, 2u);
  EXPECT_EQ(channel.calls(), 4u);
}

TEST(FaultInjectionTest, BlackoutFailsUntilTheWindowPasses) {
  ScriptedChannel inner;
  FaultInjectingChannel channel(&inner, FaultProfile{}, 9);
  channel.BlackoutForMillis(30);
  EXPECT_EQ(channel.Call("a", CallContext{}).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(channel.stats().blackout_failures, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(channel.Call("b", CallContext{}).ok());
}

TEST(FaultInjectionTest, SameSeedSameFaults) {
  FaultProfile profile;
  profile.drop_request_rate = 0.3;
  profile.drop_response_rate = 0.2;
  profile.corrupt_response_rate = 0.2;
  profile.duplicate_rate = 0.2;

  const std::string request = Encode(NearestQuery(1));
  std::vector<bool> outcomes[2];
  FaultStats stats[2];
  for (int run = 0; run < 2; ++run) {
    ScriptedChannel inner;
    FaultInjectingChannel channel(&inner, profile, 0xD5EED);
    for (int i = 0; i < 200; ++i) {
      outcomes[run].push_back(channel.Call(request, CallContext{}).ok());
    }
    stats[run] = channel.stats();
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
  EXPECT_EQ(stats[0].dropped_requests, stats[1].dropped_requests);
  EXPECT_EQ(stats[0].dropped_responses, stats[1].dropped_responses);
  EXPECT_EQ(stats[0].corrupted_responses, stats[1].corrupted_responses);
  EXPECT_EQ(stats[0].duplicated, stats[1].duplicated);
  EXPECT_GT(stats[0].TotalInjected(), 0u);
}

TEST(FaultInjectionTest, SetProfileEndsTheChaos) {
  ScriptedChannel inner;
  FaultProfile profile;
  profile.drop_request_rate = 1.0;
  FaultInjectingChannel channel(&inner, profile, 10);
  EXPECT_FALSE(channel.Call("a", CallContext{}).ok());
  channel.SetProfile(FaultProfile{});
  EXPECT_TRUE(channel.Call("b", CallContext{}).ok());
}

}  // namespace
}  // namespace casper::transport
