#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/casper/messages.h"
#include "src/casper/workload.h"
#include "src/common/rng.h"
#include "src/server/query_server.h"
#include "src/transport/channel.h"
#include "src/transport/listener.h"
#include "src/transport/server_endpoint.h"
#include "src/transport/socket_channel.h"

/// The acceptance bar for the real transport: against the *same*
/// QueryServer, every one of the seven query kinds answered over a
/// Unix-domain socket is byte-identical (after zeroing the one
/// measured field, processor_seconds) to the answer over the
/// in-process DirectChannel. The socket moves bytes; it must never
/// change them.

namespace casper {
namespace {

using PrivateSnapshot = processor::PrivateTargetStore::Snapshot;

using transport::CallContext;
using transport::DirectChannel;
using transport::SocketChannel;
using transport::SocketListener;

std::vector<CloakedQueryMsg> AllSevenKinds() {
  std::vector<CloakedQueryMsg> queries;
  {
    CloakedQueryMsg q;
    q.kind = QueryKind::kNearestPublic;
    q.request_id = 101;
    q.cloak = Rect(0.2, 0.2, 0.4, 0.4);
    queries.push_back(q);
  }
  {
    CloakedQueryMsg q;
    q.kind = QueryKind::kKNearestPublic;
    q.request_id = 102;
    q.cloak = Rect(0.3, 0.1, 0.5, 0.3);
    q.k = 4;
    queries.push_back(q);
  }
  {
    CloakedQueryMsg q;
    q.kind = QueryKind::kRangePublic;
    q.request_id = 103;
    q.cloak = Rect(0.6, 0.6, 0.7, 0.7);
    q.radius = 0.05;
    queries.push_back(q);
  }
  {
    CloakedQueryMsg q;
    q.kind = QueryKind::kNearestPrivate;
    q.request_id = 104;
    q.cloak = Rect(0.4, 0.4, 0.45, 0.45);
    q.has_exclude = true;
    q.exclude_handle = 3;
    queries.push_back(q);
  }
  {
    CloakedQueryMsg q;
    q.kind = QueryKind::kPublicNearest;
    q.request_id = 105;
    q.point = Point{0.31, 0.64};
    queries.push_back(q);
  }
  {
    CloakedQueryMsg q;
    q.kind = QueryKind::kPublicRange;
    q.request_id = 106;
    q.region = Rect(0.1, 0.1, 0.8, 0.8);
    queries.push_back(q);
  }
  {
    CloakedQueryMsg q;
    q.kind = QueryKind::kDensity;
    q.request_id = 107;
    q.cols = 4;
    q.rows = 4;
    queries.push_back(q);
  }
  return queries;
}

TEST(SocketParityTest, AllSevenKindsByteIdenticalToDirectChannel) {
  // One populated server answers through both transports.
  server::QueryServerOptions server_options;
  server::QueryServer server(server_options);
  Rng rng(0xBEEF);
  const Rect space(0.0, 0.0, 1.0, 1.0);
  server.SetPublicTargets(workload::UniformPublicTargets(64, space, &rng));
  SnapshotMsg snapshot;
  for (uint64_t handle = 1; handle <= 24; ++handle) {
    const Point center = rng.PointIn(space);
    processor::PrivateTarget region;
    region.id = handle;
    region.region = Rect(center.x, center.y,
                         std::min(1.0, center.x + 0.03),
                         std::min(1.0, center.y + 0.03));
    snapshot.regions.push_back(region);
  }
  const std::string snapshot_frame = Encode(snapshot);
  auto snapshot_view = DecodeSnapshotView(snapshot_frame);
  ASSERT_TRUE(snapshot_view.ok());
  ASSERT_TRUE(server.Load(snapshot_view.value()).ok());

  transport::ServerEndpoint endpoint(&server);
  DirectChannel direct(&endpoint);

  const std::string address = "unix:/tmp/casper_parity_" +
                              std::to_string(getpid()) + ".sock";
  auto listener = SocketListener::Start(
      address,
      [&endpoint](std::string_view request, const CallContext& context) {
        return endpoint.Handle(request, context);
      },
      transport::ListenerOptions{});
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  SocketChannel socket(address);

  for (const CloakedQueryMsg& query : AllSevenKinds()) {
    const std::string request = Encode(query);
    auto direct_bytes = direct.Call(request, CallContext{});
    auto socket_bytes = socket.Call(request, CallContext{});
    ASSERT_TRUE(direct_bytes.ok()) << direct_bytes.status().ToString();
    ASSERT_TRUE(socket_bytes.ok()) << socket_bytes.status().ToString();

    auto direct_msg = DecodeCandidateList(direct_bytes.value());
    auto socket_msg = DecodeCandidateList(socket_bytes.value());
    ASSERT_TRUE(direct_msg.ok())
        << "kind " << static_cast<int>(query.kind) << ": "
        << direct_msg.status().ToString();
    ASSERT_TRUE(socket_msg.ok())
        << "kind " << static_cast<int>(query.kind) << ": "
        << socket_msg.status().ToString();

    // processor_seconds is a measurement, not an answer; everything
    // else must survive the wire byte for byte.
    CandidateListMsg direct_answer = std::move(direct_msg).value();
    CandidateListMsg socket_answer = std::move(socket_msg).value();
    direct_answer.processor_seconds = 0.0;
    socket_answer.processor_seconds = 0.0;
    EXPECT_EQ(Encode(direct_answer), Encode(socket_answer))
        << "kind " << static_cast<int>(query.kind)
        << " diverged across the socket";
    EXPECT_EQ(socket_answer.request_id, query.request_id);
  }
  (*listener)->Shutdown();
}

TEST(SocketParityTest, MaintenanceAcksMatchAcrossTransports) {
  server::QueryServerOptions server_options;
  server::QueryServer direct_server(server_options);
  server::QueryServer socket_server(server_options);
  transport::ServerEndpoint direct_endpoint(&direct_server);
  transport::ServerEndpoint socket_endpoint(&socket_server);
  DirectChannel direct(&direct_endpoint);

  const std::string address = "unix:/tmp/casper_parity_maint_" +
                              std::to_string(getpid()) + ".sock";
  auto listener = SocketListener::Start(
      address,
      [&socket_endpoint](std::string_view request,
                         const CallContext& context) {
        return socket_endpoint.Handle(request, context);
      },
      transport::ListenerOptions{});
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  SocketChannel socket(address);

  RegionUpsertMsg upsert;
  upsert.request_id = 11;
  upsert.handle = 42;
  upsert.region = Rect(0.1, 0.2, 0.3, 0.4);
  RegionRemoveMsg remove;
  remove.request_id = 12;
  remove.handle = 42;
  RegionRemoveMsg missing;
  missing.request_id = 13;
  missing.handle = 777;  // Never stored: still an identical typed ack.

  const std::vector<std::string> stream = {Encode(upsert), Encode(remove),
                                           Encode(missing)};
  for (const std::string& request : stream) {
    auto direct_bytes = direct.Call(request, CallContext{});
    auto socket_bytes = socket.Call(request, CallContext{});
    ASSERT_TRUE(direct_bytes.ok());
    ASSERT_TRUE(socket_bytes.ok());
    EXPECT_EQ(direct_bytes.value(), socket_bytes.value());
  }
  EXPECT_EQ(PrivateSnapshot(direct_server.private_store()).size(),
            PrivateSnapshot(socket_server.private_store()).size());
  (*listener)->Shutdown();
}

}  // namespace
}  // namespace casper
