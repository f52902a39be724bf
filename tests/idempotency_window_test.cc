#include <gtest/gtest.h>

#include "src/casper/casper.h"
#include "src/casper/messages.h"
#include "src/server/query_server.h"

/// The server-side idempotency window is now a configurable capacity
/// (QueryServerOptions::idempotency_window, surfaced as
/// CasperOptions::server_idempotency_window and `casper_cli
/// --idempotency-window`). The regression at stake: a replay arriving
/// *after* its window entry was evicted must re-execute safely —
/// converging to the already-applied state — never double-applying an
/// upsert or resurrecting a replaced region.

namespace casper {
namespace {

using PrivateSnapshot = processor::PrivateTargetStore::Snapshot;

RegionUpsertMsg Upsert(uint64_t request_id, uint64_t handle,
                       const Rect& region) {
  RegionUpsertMsg msg;
  msg.request_id = request_id;
  msg.handle = handle;
  msg.region = region;
  return msg;
}

RegionUpsertMsg Rotate(uint64_t request_id, uint64_t handle,
                       uint64_t replaces, const Rect& region) {
  RegionUpsertMsg msg = Upsert(request_id, handle, region);
  msg.has_replaces = true;
  msg.replaces = replaces;
  return msg;
}

TEST(IdempotencyWindowTest, WindowCapacityIsConfigurable) {
  server::QueryServerOptions options;
  options.idempotency_window = 2;
  server::QueryServer server(options);
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(
        server.Apply(Upsert(i, 100 + i, Rect(0.1, 0.1, 0.2, 0.2))).ok());
  }
  EXPECT_EQ(server.applied_request_count(), 2u)
      << "the FIFO window must hold exactly the configured capacity";
}

TEST(IdempotencyWindowTest, WindowZeroDisablesReplayMemory) {
  server::QueryServerOptions options;
  options.idempotency_window = 0;
  server::QueryServer server(options);
  ASSERT_TRUE(server.Apply(Upsert(1, 7, Rect(0.1, 0.1, 0.2, 0.2))).ok());
  EXPECT_EQ(server.applied_request_count(), 0u);
  // Re-execution is still safe (same handle converges), just unrecorded.
  ASSERT_TRUE(server.Apply(Upsert(1, 7, Rect(0.1, 0.1, 0.2, 0.2))).ok());
  EXPECT_EQ(PrivateSnapshot(server.private_store()).size(), 1u);
}

TEST(IdempotencyWindowTest, ReplayWithinWindowIsStable) {
  server::QueryServerOptions options;
  options.idempotency_window = 8;
  server::QueryServer server(options);
  const RegionUpsertMsg msg = Upsert(5, 50, Rect(0.2, 0.2, 0.3, 0.3));
  ASSERT_TRUE(server.Apply(msg).ok());
  for (int replay = 0; replay < 3; ++replay) {
    ASSERT_TRUE(server.Apply(msg).ok());
  }
  EXPECT_EQ(PrivateSnapshot(server.private_store()).size(), 1u);
}

TEST(IdempotencyWindowTest, ReplayAfterEvictionNeverDoubleApplies) {
  // Window of 2: the pseudonym-rotation chain below evicts request 1's
  // outcome before its duplicate arrives.
  server::QueryServerOptions options;
  options.idempotency_window = 2;
  server::QueryServer server(options);

  const RegionUpsertMsg first = Upsert(1, 100, Rect(0.1, 0.1, 0.2, 0.2));
  const RegionUpsertMsg second =
      Rotate(2, 101, /*replaces=*/100, Rect(0.2, 0.2, 0.3, 0.3));
  const RegionUpsertMsg third =
      Rotate(3, 102, /*replaces=*/101, Rect(0.3, 0.3, 0.4, 0.4));
  ASSERT_TRUE(server.Apply(first).ok());
  ASSERT_TRUE(server.Apply(second).ok());
  ASSERT_TRUE(server.Apply(third).ok());
  ASSERT_EQ(PrivateSnapshot(server.private_store()).size(), 1u);

  // An at-least-once transport re-delivers requests 1 and 2 after both
  // outcomes left the window. Blind re-execution would resurrect the
  // retired handles 100/101 next to 102 — the double-apply this test
  // pins down. The retired-handle memory must make both no-ops.
  ASSERT_TRUE(server.Apply(first).ok());
  ASSERT_TRUE(server.Apply(second).ok());
  EXPECT_EQ(PrivateSnapshot(server.private_store()).size(), 1u)
      << "a stale replayed upsert resurrected a replaced region";
}

TEST(IdempotencyWindowTest, ReplayOfLiveHandleAfterEvictionConverges) {
  server::QueryServerOptions options;
  options.idempotency_window = 1;
  server::QueryServer server(options);
  const RegionUpsertMsg msg = Upsert(1, 9, Rect(0.4, 0.4, 0.5, 0.5));
  ASSERT_TRUE(server.Apply(msg).ok());
  // Evict request 1, then replay it: the handle is still live, so
  // re-execution replaces in place — same state, no duplicate.
  ASSERT_TRUE(server.Apply(Upsert(2, 10, Rect(0.1, 0.1, 0.2, 0.2))).ok());
  ASSERT_TRUE(server.Apply(msg).ok());
  EXPECT_EQ(PrivateSnapshot(server.private_store()).size(), 2u);
}

TEST(IdempotencyWindowTest, ReplayedRemoveOfUnknownHandleIsOk) {
  server::QueryServerOptions options;
  options.idempotency_window = 1;
  server::QueryServer server(options);
  ASSERT_TRUE(server.Apply(Upsert(1, 5, Rect(0.1, 0.1, 0.2, 0.2))).ok());
  RegionRemoveMsg remove;
  remove.request_id = 2;
  remove.handle = 5;
  ASSERT_TRUE(server.Apply(remove).ok());
  // Evict, then replay the remove: already gone must mean OK, not an
  // error the retrying client would surface.
  ASSERT_TRUE(server.Apply(Upsert(3, 6, Rect(0.2, 0.2, 0.3, 0.3))).ok());
  EXPECT_TRUE(server.Apply(remove).ok());
  EXPECT_EQ(PrivateSnapshot(server.private_store()).size(), 1u);
}

TEST(IdempotencyWindowTest, FacadePlumbsTheWindowOption) {
  CasperOptions options;
  options.server_idempotency_window = 4;
  CasperService service(options);
  EXPECT_EQ(service.query_server().options().idempotency_window, 4u);
}

}  // namespace
}  // namespace casper
