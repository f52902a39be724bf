#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/casper/messages.h"
#include "src/common/codec.h"
#include "src/common/rng.h"
#include "src/server/query_server.h"
#include "src/storage/disk_storage.h"
#include "src/storage/memory_storage.h"

/// The server checkpoint is one "SRV2" page: the magic, then the public
/// records and the private (handle, region) records, each a WriteList
/// in canonical order. These tests pin that layout, show that the page
/// is a function of the stored multisets alone, and check that Open
/// refuses every page it cannot trust without touching the server.

namespace casper::server {
namespace {

using processor::PrivateTarget;
using processor::PublicTarget;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint32_t kSrv2 = 0x32565253u;
constexpr uint32_t kSrv1 = 0x31565253u;

/// Both stores' records, in canonical order.
struct Records {
  std::vector<PublicTarget> targets;
  std::vector<PrivateTarget> regions;

  friend bool operator==(const Records&, const Records&) = default;
};

Records StoredRecords(const QueryServer& server) {
  const Rect everywhere(-kInf, -kInf, kInf, kInf);
  Records records;
  records.targets = processor::PublicTargetStore::Snapshot(
                        server.public_store())
                        .Overlapping(everywhere);
  records.regions = processor::PrivateTargetStore::Snapshot(
                        server.private_store())
                        .Overlapping(everywhere);
  processor::Canonicalize(&records.targets);
  processor::Canonicalize(&records.regions);
  return records;
}

std::string Page(const Records& records) {
  wire::Writer w;
  w.U32(kSrv2);
  WriteList(w, records.targets);
  WriteList(w, records.regions);
  return w.Take();
}

/// The checkpoint page `server` saves.
std::string SavedPage(const QueryServer& server) {
  storage::MemoryStorageManager sm;
  EXPECT_TRUE(server.Save(&sm).ok());
  auto root = sm.Root(QueryServer::kRootSlot);
  EXPECT_TRUE(root.ok());
  std::string page;
  EXPECT_TRUE(sm.Load(*root, &page).ok());
  return page;
}

/// Open `server` over a store whose checkpoint root names `page`.
Status OpenPage(QueryServer* server, const std::string& page) {
  storage::MemoryStorageManager sm;
  auto id = sm.Store(storage::kNoPage, page);
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(sm.SetRoot(QueryServer::kRootSlot, *id).ok());
  return server->Open(&sm);
}

Rect RandomRegion(Rng* rng) {
  const Point c = rng->PointIn(Rect(0, 0, 1, 1));
  return Rect(c.x, c.y, c.x + rng->Uniform(0.0, 0.03),
              c.y + rng->Uniform(0.0, 0.03));
}

/// A server that holds one target and one region, for showing that a
/// failed Open leaves state alone.
QueryServer HoldingServer() {
  QueryServer server{QueryServerOptions{}};
  server.SetPublicTargets({{1, Point{0.5, 0.5}}});
  RegionUpsertMsg upsert;
  upsert.handle = 9;
  upsert.region = Rect(0.1, 0.1, 0.2, 0.2);
  EXPECT_TRUE(server.Apply(upsert).ok());
  return server;
}

const Records kHeld = {{{1, Point{0.5, 0.5}}}, {{9, Rect(0.1, 0.1, 0.2, 0.2)}}};

TEST(ServerCheckpointTest, PageIsMagicThenTwoCanonicalRecordLists) {
  QueryServer server{QueryServerOptions{}};
  server.SetPublicTargets({{5, Point{0.9, 0.1}}, {2, Point{0.3, 0.3}},
                           {5, Point{0.1, 0.9}}});
  SnapshotMsg snapshot;
  snapshot.regions = {{8, Rect(0.5, 0.5, 0.6, 0.6)},
                      {3, Rect(0.1, 0.2, 0.3, 0.4)}};
  ASSERT_TRUE(server.Load(snapshot).ok());
  const Records want = {
      {{2, Point{0.3, 0.3}}, {5, Point{0.1, 0.9}}, {5, Point{0.9, 0.1}}},
      {{3, Rect(0.1, 0.2, 0.3, 0.4)}, {8, Rect(0.5, 0.5, 0.6, 0.6)}}};
  EXPECT_EQ(SavedPage(server), Page(want));
}

/// Bulk loads on one side; on the other, public targets added one by
/// one in reverse (twin ids included) and over 1K upserts, rotations,
/// re-upserts and removes, with repacks in between. The pages match
/// byte for byte: only the stored multisets reach them.
TEST(ServerCheckpointTest, SameMultisetSavesIdenticalPages) {
  Rng rng(0xC0DE);
  std::vector<PublicTarget> targets;
  for (uint64_t id = 1; id <= 300; ++id) {
    targets.push_back({id, rng.PointIn(Rect(0, 0, 1, 1))});
    if (id % 25 == 0) targets.push_back({id, rng.PointIn(Rect(0, 0, 1, 1))});
  }
  QueryServer churned{QueryServerOptions{}};
  for (auto t = targets.rbegin(); t != targets.rend(); ++t) {
    churned.AddPublicTarget(*t);
  }
  std::map<uint64_t, Rect> live;
  uint64_t next_handle = 1;
  for (int op = 0; op < 1200; ++op) {
    const double dice = rng.NextDouble();
    if (dice < 0.15 && !live.empty()) {
      auto victim = std::next(live.begin(), rng.UniformInt(0, live.size() - 1));
      RegionRemoveMsg remove;
      remove.handle = victim->first;
      ASSERT_TRUE(churned.Apply(remove).ok());
      live.erase(victim);
    } else if (dice < 0.25 && !live.empty()) {
      // Re-upsert of a stored handle: the server converges on the new
      // region.
      auto it = std::next(live.begin(), rng.UniformInt(0, live.size() - 1));
      RegionUpsertMsg upsert;
      upsert.handle = it->first;
      upsert.region = RandomRegion(&rng);
      ASSERT_TRUE(churned.Apply(upsert).ok());
      it->second = upsert.region;
    } else {
      RegionUpsertMsg upsert;
      upsert.handle = next_handle++;
      upsert.region = RandomRegion(&rng);
      if (dice < 0.5 && !live.empty()) {
        auto victim =
            std::next(live.begin(), rng.UniformInt(0, live.size() - 1));
        upsert.has_replaces = true;
        upsert.replaces = victim->first;
        live.erase(victim);
      }
      ASSERT_TRUE(churned.Apply(upsert).ok());
      live[upsert.handle] = upsert.region;
    }
  }
  ASSERT_GT(churned.public_store().epoch_stats().rebuilds, 1u);
  ASSERT_GT(churned.private_store().epoch_stats().rebuilds, 1u);
  ASSERT_GT(churned.private_store().epoch_stats().delta_entries +
                churned.private_store().epoch_stats().tombstones,
            0u);

  QueryServer bulk{QueryServerOptions{}};
  bulk.SetPublicTargets(targets);
  SnapshotMsg snapshot;
  for (const auto& [handle, region] : live) {
    snapshot.regions.push_back({handle, region});
  }
  ASSERT_TRUE(bulk.Load(snapshot).ok());

  ASSERT_EQ(StoredRecords(churned), StoredRecords(bulk));
  EXPECT_EQ(SavedPage(churned), SavedPage(bulk));
}

TEST(ServerCheckpointTest, SaveOpenSaveIsByteIdentical) {
  Rng rng(17);
  QueryServer server{QueryServerOptions{}};
  for (uint64_t id = 1; id <= 500; ++id) {
    server.AddPublicTarget({id, rng.PointIn(Rect(0, 0, 1, 1))});
  }
  for (uint64_t handle = 1; handle <= 400; ++handle) {
    RegionUpsertMsg upsert;
    upsert.handle = handle;
    upsert.region = RandomRegion(&rng);
    upsert.has_replaces = handle % 3 == 0;
    upsert.replaces = handle - 1;
    ASSERT_TRUE(server.Apply(upsert).ok());
  }
  const std::string saved = SavedPage(server);
  QueryServer reopened = HoldingServer();
  ASSERT_TRUE(OpenPage(&reopened, saved).ok());
  EXPECT_EQ(StoredRecords(reopened), StoredRecords(server));
  EXPECT_EQ(SavedPage(reopened), saved);
}

TEST(ServerCheckpointTest, EmptyServerRoundTrip) {
  const std::string saved = SavedPage(QueryServer{QueryServerOptions{}});
  EXPECT_EQ(saved, Page({}));
  QueryServer server = HoldingServer();
  ASSERT_TRUE(OpenPage(&server, saved).ok());
  EXPECT_EQ(StoredRecords(server), Records{});
}

/// The page spans many 64-byte slots of a disk store and survives a
/// reopen of the files.
TEST(ServerCheckpointTest, RoundTripThroughTinyDiskPages) {
  const std::string path = testing::TempDir() + "casper_srv2_tiny_" +
                           std::to_string(::getpid());
  Rng rng(23);
  QueryServer server{QueryServerOptions{}};
  std::vector<PublicTarget> targets;
  for (uint64_t id = 1; id <= 700; ++id) {
    targets.push_back({id, rng.PointIn(Rect(0, 0, 1, 1))});
  }
  server.SetPublicTargets(targets);
  SnapshotMsg snapshot;
  for (uint64_t handle = 1; handle <= 300; ++handle) {
    snapshot.regions.push_back({handle * 7919, RandomRegion(&rng)});
  }
  ASSERT_TRUE(server.Load(snapshot).ok());
  {
    storage::DiskStorageOptions options;
    options.page_size = 64;
    auto sm = storage::DiskStorageManager::Create(path, options);
    ASSERT_TRUE(sm.ok()) << sm.status().ToString();
    ASSERT_TRUE(server.Save(sm->get()).ok());
    EXPECT_EQ((*sm)->stats().pages, 1u);
    EXPECT_GT((*sm)->stats().slots, 400u);
  }
  auto sm = storage::DiskStorageManager::Open(path);
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  QueryServer reopened = HoldingServer();
  ASSERT_TRUE(reopened.Open(sm->get()).ok());
  EXPECT_EQ(StoredRecords(reopened), StoredRecords(server));
  std::remove((path + ".dat").c_str());
  std::remove((path + ".idx").c_str());
}

/// A page in the old layout, whose magic "SRV1" is followed by three
/// page ids, names an unsupported version, and the server keeps its
/// state.
TEST(ServerCheckpointTest, Srv1PageFailsWithVersionErrorAndServerIsUntouched) {
  wire::Writer w;
  w.U32(kSrv1);
  w.U64(0);
  w.U64(1);
  w.U64(2);
  QueryServer server = HoldingServer();
  const Status opened = OpenPage(&server, w.Take());
  EXPECT_EQ(opened.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.message().find("version 1"), std::string::npos)
      << opened.ToString();
  EXPECT_EQ(StoredRecords(server), kHeld);
}

/// Two public targets and two private regions under distinct handles.
Records GoodRecords() {
  return {{{1, Point{0.2, 0.2}}, {2, Point{0.4, 0.4}}},
          {{7, Rect(0.1, 0.1, 0.2, 0.2)}, {8, Rect(0.5, 0.5, 0.6, 0.6)}}};
}

/// Each named page fails kInvalidArgument before any state changes, while
/// the unmutated page opens.
void ExpectEachFailsInvalidArgument(
    const std::vector<std::pair<std::string, std::string>>& pages) {
  for (const auto& [name, page] : pages) {
    QueryServer server = HoldingServer();
    EXPECT_EQ(OpenPage(&server, page).code(), StatusCode::kInvalidArgument)
        << name;
    EXPECT_EQ(StoredRecords(server), kHeld) << name;
  }
  QueryServer server = HoldingServer();
  ASSERT_TRUE(OpenPage(&server, Page(GoodRecords())).ok());
  EXPECT_EQ(StoredRecords(server), GoodRecords());
}

/// Pages that do not decode fail kInvalidArgument before any state
/// changes.
TEST(ServerCheckpointTest, UntrustworthyPagesFailInvalidArgument) {
  const std::string good = Page(GoodRecords());
  std::vector<std::pair<std::string, std::string>> pages;
  pages.emplace_back("trailing byte", good + '\0');
  pages.emplace_back("truncated", good.substr(0, 40));
  pages.emplace_back("garbage", "not a checkpoint page");
  pages.emplace_back("short magic", "SR");
  std::string wrong_magic = good;
  wrong_magic[3] = '3';
  pages.emplace_back("SRV3", wrong_magic);
  ExpectEachFailsInvalidArgument(pages);
}

/// Pages that decode but hold a record that cannot be stored fail
/// kInvalidArgument before any state changes.
TEST(ServerCheckpointTest, NaNOrEmptyRecordFailsInvalidArgument) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<std::string, std::string>> pages;
  Records nan_point = GoodRecords();
  nan_point.targets[0].position.y = nan;
  pages.emplace_back("NaN point", Page(nan_point));
  Records nan_region = GoodRecords();
  nan_region.regions[0].region.max.x = nan;
  pages.emplace_back("NaN region", Page(nan_region));
  Records empty_region = GoodRecords();
  empty_region.regions[0].region = Rect(0.3, 0.1, 0.2, 0.2);
  pages.emplace_back("empty region", Page(empty_region));
  ExpectEachFailsInvalidArgument(pages);
}

/// The handle map is derived from the private records, so the one way it
/// can be inconsistent is two regions under one handle.
TEST(ServerCheckpointTest, TwinHandleFailsInvalidArgument) {
  Records twin = GoodRecords();
  twin.regions[1].id = 7;
  ExpectEachFailsInvalidArgument({{"twin handle", Page(twin)}});
}

TEST(ServerCheckpointTest, MissingPageFailsNotFound) {
  storage::MemoryStorageManager sm;
  QueryServer server = HoldingServer();
  EXPECT_EQ(server.Open(&sm).code(), StatusCode::kNotFound);
  ASSERT_TRUE(sm.SetRoot(QueryServer::kRootSlot, 123).ok());
  EXPECT_EQ(server.Open(&sm).code(), StatusCode::kNotFound);
  EXPECT_EQ(StoredRecords(server), kHeld);
}

}  // namespace
}  // namespace casper::server
