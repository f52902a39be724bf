#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/casper/messages.h"
#include "src/server/query_server.h"
#include "src/storage/disk_storage.h"

/// Reopen parity (the acceptance gate for the storage tier): build a
/// server from a randomized workload, Save() it to disk, throw the live
/// object away, Open() a fresh server over the same files, and
/// differential-test every one of the seven query kinds against a twin
/// that never left memory. Responses are compared as
/// *encoded wire bytes* (with the timing field zeroed), so candidate
/// order, counts, and payload encoding must all survive the round trip
/// exactly.
///
/// Scale follows CASPER_BENCH_SCALE like the benches: the CI value 0.05
/// means 50k public targets; unset defaults to a quick local run.

namespace casper {
namespace {

using PublicSnapshot = processor::PublicTargetStore::Snapshot;
using PrivateSnapshot = processor::PrivateTargetStore::Snapshot;

double ScaleFromEnv() {
  const char* raw = std::getenv("CASPER_BENCH_SCALE");
  if (raw == nullptr) return 0.005;  // 5k targets: quick local default.
  const double scale = std::atof(raw);
  return scale > 0.0 ? scale : 0.005;
}

class ReopenParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "casper_reopen_parity_" +
            std::to_string(::getpid());
    std::remove((path_ + ".dat").c_str());
    std::remove((path_ + ".idx").c_str());
  }

  void TearDown() override {
    std::remove((path_ + ".dat").c_str());
    std::remove((path_ + ".idx").c_str());
  }

  /// Populate `server` with the randomized workload: public targets plus
  /// a region maintenance stream with fresh upserts, rotations
  /// (has_replaces), and removals. Returns the handles still stored.
  std::vector<uint64_t> PopulateServer(server::QueryServer* server,
                                       size_t target_count) {
    std::mt19937 rng(4242);
    std::uniform_real_distribution<double> coord(0.0, 1.0);
    std::uniform_real_distribution<double> extent(0.0, 0.03);

    std::vector<processor::PublicTarget> targets;
    targets.reserve(target_count);
    for (size_t i = 0; i < target_count; ++i)
      targets.push_back({i + 1, Point{coord(rng), coord(rng)}});
    server->SetPublicTargets(targets);

    std::vector<uint64_t> live;
    uint64_t next_handle = 1;
    for (int op = 0; op < 2000; ++op) {
      const int dice = static_cast<int>(rng() % 10);
      if (dice == 0 && !live.empty()) {
        // Deregistration.
        RegionRemoveMsg remove;
        remove.handle = live[rng() % live.size()];
        EXPECT_TRUE(server->Apply(remove).ok());
        live.erase(std::find(live.begin(), live.end(), remove.handle));
      } else {
        RegionUpsertMsg upsert;
        upsert.handle = next_handle++;
        const double x = coord(rng), y = coord(rng);
        upsert.region = Rect(x, y, std::min(1.0, x + extent(rng)),
                             std::min(1.0, y + extent(rng)));
        if (dice < 4 && !live.empty()) {
          // Pseudonym rotation: replace an existing stored region.
          const size_t victim = rng() % live.size();
          upsert.has_replaces = true;
          upsert.replaces = live[victim];
          live.erase(live.begin() + victim);
        }
        EXPECT_TRUE(server->Apply(upsert).ok());
        live.push_back(upsert.handle);
      }
    }
    return live;
  }

  /// One randomized query per call for `kind`, built from the shared rng
  /// so both servers see the identical request.
  CloakedQueryMsg MakeQuery(QueryKind kind, std::mt19937& rng,
                            const std::vector<uint64_t>& handles) {
    std::uniform_real_distribution<double> coord(0.0, 1.0);
    std::uniform_real_distribution<double> extent(0.0, 0.1);
    CloakedQueryMsg query;
    query.kind = kind;
    const double x = coord(rng), y = coord(rng);
    query.cloak = Rect(x, y, std::min(1.0, x + extent(rng)),
                       std::min(1.0, y + extent(rng)));
    switch (kind) {
      case QueryKind::kNearestPublic:
        break;
      case QueryKind::kKNearestPublic:
        query.k = 1 + rng() % 8;
        break;
      case QueryKind::kRangePublic:
        query.radius = 0.01 + 0.1 * coord(rng);
        break;
      case QueryKind::kNearestPrivate:
        if (!handles.empty() && rng() % 2 == 0) {
          query.has_exclude = true;
          query.exclude_handle = handles[rng() % handles.size()];
        }
        break;
      case QueryKind::kPublicNearest:
        query.point = Point{coord(rng), coord(rng)};
        break;
      case QueryKind::kPublicRange: {
        const double rx = coord(rng), ry = coord(rng);
        query.region = Rect(rx, ry, std::min(1.0, rx + 2.0 * extent(rng)),
                            std::min(1.0, ry + 2.0 * extent(rng)));
        break;
      }
      case QueryKind::kDensity:
        query.cols = 4 + static_cast<int32_t>(rng() % 13);
        query.rows = 4 + static_cast<int32_t>(rng() % 13);
        break;
    }
    return query;
  }

  std::string path_;
};

TEST_F(ReopenParityTest, AllSevenQueryKindsAnswerIdenticallyAfterReopen) {
  const size_t target_count =
      static_cast<size_t>(1000000.0 * ScaleFromEnv());
  server::QueryServerOptions options;

  // The twin that never leaves memory.
  server::QueryServer live(options);
  const std::vector<uint64_t> handles = PopulateServer(&live, target_count);
  ASSERT_GT(handles.size(), 100u);

  // Persist and commit.
  {
    auto sm = storage::DiskStorageManager::Create(path_);
    ASSERT_TRUE(sm.ok()) << sm.status().ToString();
    ASSERT_TRUE(live.Save(sm->get()).ok());
  }

  // A cold process: fresh server object over the reopened files, read
  // exactly as the CLI's `open` reads them.
  auto reopened_sm = storage::DiskStorageManager::Open(path_);
  ASSERT_TRUE(reopened_sm.ok()) << reopened_sm.status().ToString();
  server::QueryServer reopened(options);
  ASSERT_TRUE(reopened.Open(reopened_sm->get()).ok());

  ASSERT_EQ(PublicSnapshot(reopened.public_store()).size(),
            PublicSnapshot(live.public_store()).size());
  ASSERT_EQ(PrivateSnapshot(reopened.private_store()).size(),
            PrivateSnapshot(live.private_store()).size());

  const QueryKind kinds[] = {
      QueryKind::kNearestPublic, QueryKind::kKNearestPublic,
      QueryKind::kRangePublic,   QueryKind::kNearestPrivate,
      QueryKind::kPublicNearest, QueryKind::kPublicRange,
      QueryKind::kDensity};
  std::mt19937 rng(777);
  for (const QueryKind kind : kinds) {
    for (int probe = 0; probe < 25; ++probe) {
      const CloakedQueryMsg query = MakeQuery(kind, rng, handles);
      auto want = live.Execute(query);
      auto got = reopened.Execute(query);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      // processor_seconds is wall-clock noise; everything else —
      // candidate records, their order, counts, aggregates — must match
      // byte for byte on the wire.
      want->processor_seconds = 0.0;
      got->processor_seconds = 0.0;
      EXPECT_EQ(Encode(*got), Encode(*want))
          << "kind=" << static_cast<int>(kind) << " probe=" << probe;
    }
  }
}

TEST_F(ReopenParityTest, ReopenedServerAcceptsNewMutations) {
  server::QueryServerOptions options;
  server::QueryServer live(options);
  PopulateServer(&live, 500);
  {
    auto sm = storage::DiskStorageManager::Create(path_);
    ASSERT_TRUE(sm.ok());
    ASSERT_TRUE(live.Save(sm->get()).ok());
  }
  auto sm = storage::DiskStorageManager::Open(path_);
  ASSERT_TRUE(sm.ok());
  server::QueryServer reopened(options);
  ASSERT_TRUE(reopened.Open(sm->get()).ok());

  // Apply the same post-reopen mutation to both; parity must hold for
  // queries that see it.
  RegionUpsertMsg upsert;
  upsert.handle = 999999;
  upsert.region = Rect(0.4, 0.4, 0.41, 0.41);
  ASSERT_TRUE(live.Apply(upsert).ok());
  ASSERT_TRUE(reopened.Apply(upsert).ok());

  CloakedQueryMsg query;
  query.kind = QueryKind::kPublicRange;
  query.region = Rect(0.35, 0.35, 0.45, 0.45);
  auto want = live.Execute(query);
  auto got = reopened.Execute(query);
  ASSERT_TRUE(want.ok() && got.ok());
  want->processor_seconds = 0.0;
  got->processor_seconds = 0.0;
  EXPECT_EQ(Encode(*got), Encode(*want));
}

TEST_F(ReopenParityTest, OpenOnEmptyStorageIsNotFoundAndLeavesServerIntact) {
  auto sm = storage::DiskStorageManager::Create(path_);
  ASSERT_TRUE(sm.ok());
  server::QueryServer server{server::QueryServerOptions{}};
  server.SetPublicTargets({{1, Point{0.5, 0.5}}});
  const Status opened = server.Open(sm->get());
  EXPECT_EQ(opened.code(), StatusCode::kNotFound);
  // Failed open left existing state untouched.
  EXPECT_EQ(PublicSnapshot(server.public_store()).size(), 1u);
}

}  // namespace
}  // namespace casper
