#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "src/casper/messages.h"
#include "src/common/codec.h"
#include "src/common/rng.h"
#include "src/server/query_server.h"
#include "src/spatial/flat_rtree.h"
#include "src/storage/memory_storage.h"
#include "tests/spatial_oracle.h"

/// Seeded byte-mutation fuzz over a saved FlatRTree's pages: the root
/// page, the node pages and the entry pages. Pages carry no checksum,
/// so LoadFrom's own validation is all that stands between a damaged
/// page and the query walks, which trust a loaded tree's MBRs to be
/// tight and covering (the range walk reports the entries of a node
/// the window contains without testing them). Each mutant flips 1 to 3
/// bytes of one page and must either
///
///  1. fail to load with a typed Status (kInvalidArgument, or kNotFound
///     for a page id that names no page), or
///  2. load a tree that passes CheckInvariants and whose range (with
///     and without skipped rows) and k-NN answers,
///     equal a linear scan of its own entry(i) rows.
///
/// Build it with -DCASPER_SANITIZE=address to also catch out-of-bounds
/// reads on the accepted trees.

namespace casper::spatial {
namespace {

constexpr int kMutantsPerKind = 20480;

/// Flip 1 to 3 bytes of the page at `id`, each XORed with a non-zero
/// mask. Returns the original bytes.
std::string MutatePage(storage::MemoryStorageManager* sm, storage::PageId id,
                       Rng* rng) {
  std::string original;
  EXPECT_TRUE(sm->Load(id, &original).ok());
  std::string mutant = original;
  const uint64_t flips = rng->UniformInt(1, 3);
  for (uint64_t f = 0; f < flips; ++f) {
    const size_t pos = rng->UniformInt(0, mutant.size() - 1);
    mutant[pos] = static_cast<char>(static_cast<uint8_t>(mutant[pos]) ^
                                    rng->UniformInt(1, 255));
  }
  EXPECT_TRUE(sm->Store(id, mutant).ok());
  return original;
}

enum class PageKind { kRoot, kNode, kEntry };

/// A tree that has been through a few merge repacks, with points and
/// rectangles, saved to a fresh in-memory store.
class CheckpointFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(0xC4E1);
    std::vector<Entry> entries;
    for (uint64_t id = 0; id < 240; ++id) {
      entries.push_back({RandomBox(&rng), id});
    }
    FlatRTree tree = FlatRTree::Build(entries, 8);
    uint64_t next_id = 1000;
    for (int round = 0; round < 4; ++round) {
      std::vector<uint32_t> dead;
      for (uint32_t row = 0; row < tree.size(); ++row) {
        if (rng.Bernoulli(0.1)) dead.push_back(row);
      }
      std::vector<Entry> added;
      for (int i = 0; i < 30; ++i) {
        added.push_back({RandomBox(&rng), next_id++});
      }
      tree = tree.Repack(dead, added);
    }
    ASSERT_TRUE(tree.CheckInvariants());
    auto root = tree.SaveTo(&sm_);
    ASSERT_TRUE(root.ok()) << root.status().ToString();
    root_ = *root;

    std::string bytes;
    ASSERT_TRUE(sm_.Load(root_, &bytes).ok());
    wire::Reader r(bytes);
    r.U32();  // Magic.
    r.I32();  // max_entries.
    r.I32();  // Height.
    r.U64();  // Node rows.
    r.U64();  // Entry rows.
    node_pages_.resize(r.Count(8));
    for (storage::PageId& id : node_pages_) id = r.U64();
    entry_pages_.resize(r.Count(8));
    for (storage::PageId& id : entry_pages_) id = r.U64();
    ASSERT_TRUE(r.Finish("root").ok());
    ASSERT_FALSE(node_pages_.empty());
    ASSERT_GT(entry_pages_.size(), 1u);

    for (int i = 0; i < 6; ++i) {
      const Point a = rng.PointIn(Rect(-0.1, -0.1, 1.0, 1.0));
      const double side = rng.Uniform(0.05, 0.6);
      windows_.emplace_back(a.x, a.y, a.x + side, a.y + side);
      queries_.push_back(rng.PointIn(Rect(-0.2, -0.2, 1.2, 1.2)));
    }
    windows_.emplace_back(-1e300, -1e300, 1e300, 1e300);
  }

  static Rect RandomBox(Rng* rng) {
    const Point c = rng->PointIn(Rect(0, 0, 1, 1));
    if (rng->Bernoulli(0.5)) return Rect::FromPoint(c);
    return Rect(c.x, c.y, c.x + rng->Uniform(0.0, 0.05),
                c.y + rng->Uniform(0.0, 0.05));
  }

  /// The accepted tree answers like a linear scan of its own rows.
  void ExpectBruteForceAnswers(const FlatRTree& tree) {
    ASSERT_TRUE(tree.CheckInvariants());
    std::vector<Entry> rows, unskipped;
    std::vector<uint32_t> skip;
    for (size_t i = 0; i < tree.size(); ++i) {
      rows.push_back(tree.entry(i));
      if (i % 3 == 0) {
        skip.push_back(static_cast<uint32_t>(i));
      } else {
        unskipped.push_back(tree.entry(i));
      }
    }
    for (const Rect& window : windows_) {
      ASSERT_EQ(oracle::SortedIds(oracle::RangeHits(tree, window)),
                oracle::RangeIds(rows, window))
          << window.ToString();
      std::vector<Entry> hits;
      tree.RangeQuery(
          window,
          [&hits](const Entry& e) {
            hits.push_back(e);
            return true;
          },
          skip);
      ASSERT_EQ(oracle::SortedIds(hits), oracle::RangeIds(unskipped, window))
          << window.ToString();
    }
    for (const Point& q : queries_) {
      for (const size_t k : {size_t{1}, size_t{7}}) {
        ASSERT_EQ(tree.KNearest(q, k), oracle::Knn(rows, q, k));
      }
    }
  }

  void Fuzz(PageKind kind, uint64_t seed) {
    auto clean = FlatRTree::LoadFrom(&sm_, root_);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ExpectBruteForceAnswers(*clean);

    Rng rng(seed);
    size_t accepted = 0;
    for (int m = 0; m < kMutantsPerKind; ++m) {
      storage::PageId page = root_;
      if (kind == PageKind::kNode) {
        page = node_pages_[m % node_pages_.size()];
      } else if (kind == PageKind::kEntry) {
        page = entry_pages_[m % entry_pages_.size()];
      }
      const std::string original = MutatePage(&sm_, page, &rng);
      auto loaded = FlatRTree::LoadFrom(&sm_, root_);
      if (loaded.ok()) {
        ++accepted;
        ExpectBruteForceAnswers(*loaded);
      } else {
        const StatusCode code = loaded.status().code();
        ASSERT_TRUE(code == StatusCode::kInvalidArgument ||
                    code == StatusCode::kNotFound)
            << loaded.status().ToString();
      }
      ASSERT_TRUE(sm_.Store(page, original).ok());
      if (HasFatalFailure()) {
        ADD_FAILURE() << "mutant " << m << " of page " << page;
        return;
      }
    }
    // Entry-page mutants that change an id or a coordinate inside the
    // leaf's MBR load, so the accepted branch runs. (A node-page mutant
    // always breaks a tight MBR or the tree's shape.)
    if (kind == PageKind::kEntry) {
      EXPECT_GT(accepted, 0u);
    }
  }

  storage::MemoryStorageManager sm_;
  storage::PageId root_ = storage::kNoPage;
  std::vector<storage::PageId> node_pages_;
  std::vector<storage::PageId> entry_pages_;
  std::vector<Rect> windows_;
  std::vector<Point> queries_;
};

TEST_F(CheckpointFuzzTest, RootPageMutants) {
  Fuzz(PageKind::kRoot, 0xF001);
}

TEST_F(CheckpointFuzzTest, NodePageMutants) {
  Fuzz(PageKind::kNode, 0xF002);
}

TEST_F(CheckpointFuzzTest, EntryPageMutants) {
  Fuzz(PageKind::kEntry, 0xF003);
}

}  // namespace
}  // namespace casper::spatial

namespace casper::server {
namespace {

using PrivateSnapshot = processor::PrivateTargetStore::Snapshot;

/// Every entry of the server's private store, in canonical order.
std::vector<processor::PrivateTarget> StoredRegions(const QueryServer& server) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<processor::PrivateTarget> out =
      PrivateSnapshot(server.private_store())
          .Overlapping(Rect(-kInf, -kInf, kInf, kInf));
  processor::Canonicalize(&out);
  return out;
}

/// The handle -> region page a saved server's manifest names.
storage::PageId RegionsPage(storage::MemoryStorageManager* sm) {
  auto manifest = sm->Root(QueryServer::kManifestRootSlot);
  EXPECT_TRUE(manifest.ok());
  std::string bytes;
  EXPECT_TRUE(sm->Load(*manifest, &bytes).ok());
  wire::Reader r(bytes);
  r.U32();  // Magic.
  r.U64();  // Public store root.
  r.U64();  // Private store root.
  const storage::PageId regions = r.U64();
  EXPECT_TRUE(r.Finish("server manifest").ok());
  return regions;
}

std::vector<processor::PrivateTarget> ReadRegionsPage(
    storage::MemoryStorageManager* sm, storage::PageId id) {
  std::string bytes;
  EXPECT_TRUE(sm->Load(id, &bytes).ok());
  wire::Reader r(bytes);
  std::vector<processor::PrivateTarget> records =
      ReadList<processor::PrivateTarget>(r);
  EXPECT_TRUE(r.Finish("server regions page").ok());
  return records;
}

void WriteRegionsPage(storage::MemoryStorageManager* sm, storage::PageId id,
                      const std::vector<processor::PrivateTarget>& records) {
  wire::Writer w;
  WriteList(w, records);
  ASSERT_TRUE(sm->Store(id, w.Take()).ok());
}

RegionRemoveMsg Remove(uint64_t handle) {
  RegionRemoveMsg msg;
  msg.handle = handle;
  return msg;
}

/// A server's own checkpoint pages, the SRV1 manifest and the handle ->
/// region page, under the same 1-to-3-byte mutants as the tree pages
/// above (the stores' pages are FlatRTree and EPX1 pages). Each mutant
/// must either fail Open with a typed Status (kInvalidArgument, or
/// kNotFound for a page id that names no page), or open a server whose
/// handle map and private store agree: removing every stored handle
/// succeeds and leaves the store, and the handle page of a new Save,
/// empty.
class ServerCheckpointFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(0x5E41);
    QueryServer server{QueryServerOptions{}};
    std::vector<processor::PublicTarget> targets;
    for (uint64_t id = 1; id <= 40; ++id) {
      targets.push_back({id, rng.PointIn(Rect(0, 0, 1, 1))});
    }
    server.SetPublicTargets(targets);
    SnapshotMsg snapshot;
    for (uint64_t handle = 1; handle <= 60; ++handle) {
      snapshot.regions.push_back({handle, RandomRegion(&rng)});
    }
    ASSERT_TRUE(server.Load(snapshot).ok());
    // Maintenance on top of the bulk load, so the private store's
    // checkpoint carries a delta and tombstones too.
    for (uint64_t handle = 61; handle <= 80; ++handle) {
      RegionUpsertMsg upsert;
      upsert.handle = handle;
      upsert.region = RandomRegion(&rng);
      upsert.has_replaces = handle % 2 == 0;
      upsert.replaces = handle - 60;
      ASSERT_TRUE(server.Apply(upsert).ok());
    }
    ASSERT_TRUE(server.Apply(Remove(3)).ok());
    const spatial::EpochIndex::Stats epoch =
        server.private_store().epoch_stats();
    ASSERT_GT(epoch.delta_entries, 0u);
    ASSERT_GT(epoch.tombstones, 0u);
    stored_ = StoredRegions(server);
    ASSERT_EQ(stored_.size(), 69u);
    ASSERT_TRUE(server.Save(&sm_).ok());
    auto manifest = sm_.Root(QueryServer::kManifestRootSlot);
    ASSERT_TRUE(manifest.ok());
    manifest_ = *manifest;
    regions_ = RegionsPage(&sm_);
  }

  static Rect RandomRegion(Rng* rng) {
    const Point c = rng->PointIn(Rect(0, 0, 1, 1));
    return Rect(c.x, c.y, c.x + rng->Uniform(0.0, 0.05),
                c.y + rng->Uniform(0.0, 0.05));
  }

  /// Every stored handle removes cleanly, and then no region is left in
  /// the store or in the handle map (which a Save writes out).
  static void ExpectMapMatchesStore(QueryServer* server) {
    for (const processor::PrivateTarget& target : StoredRegions(*server)) {
      const Status removed = server->Apply(Remove(target.id));
      ASSERT_TRUE(removed.ok()) << target.id << ": " << removed.ToString();
    }
    EXPECT_TRUE(PrivateSnapshot(server->private_store()).empty());
    storage::MemoryStorageManager resaved;
    ASSERT_TRUE(server->Save(&resaved).ok());
    EXPECT_TRUE(ReadRegionsPage(&resaved, RegionsPage(&resaved)).empty());
  }

  void Fuzz(storage::PageId page, uint64_t seed) {
    {
      QueryServer clean{QueryServerOptions{}};
      ASSERT_TRUE(clean.Open(&sm_).ok());
      ASSERT_EQ(StoredRegions(clean), stored_);
      ExpectMapMatchesStore(&clean);
    }
    Rng rng(seed);
    for (int m = 0; m < spatial::kMutantsPerKind; ++m) {
      const std::string original = spatial::MutatePage(&sm_, page, &rng);
      QueryServer server{QueryServerOptions{}};
      const Status opened = server.Open(&sm_);
      if (opened.ok()) {
        ExpectMapMatchesStore(&server);
      } else {
        ASSERT_TRUE(opened.code() == StatusCode::kInvalidArgument ||
                    opened.code() == StatusCode::kNotFound)
            << opened.ToString();
      }
      ASSERT_TRUE(sm_.Store(page, original).ok());
      if (HasFatalFailure()) {
        ADD_FAILURE() << "mutant " << m << " of page " << page;
        return;
      }
    }
  }

  storage::MemoryStorageManager sm_;
  storage::PageId manifest_ = storage::kNoPage;
  storage::PageId regions_ = storage::kNoPage;
  std::vector<processor::PrivateTarget> stored_;
};

TEST_F(ServerCheckpointFuzzTest, ManifestPageMutants) {
  Fuzz(manifest_, 0xF004);
}

TEST_F(ServerCheckpointFuzzTest, RegionsPageMutants) {
  Fuzz(regions_, 0xF005);
}

/// A handle page that disagrees with the private store must not open:
/// the moved handle's remove would fail kInternal, and a rotation away
/// from it would leave the stale region in the store for good. Each
/// disagreement fails Open with kInvalidArgument and leaves the server
/// as it was.
TEST_F(ServerCheckpointFuzzTest, OpenRejectsHandlePageThatDisagreesWithStore) {
  const std::vector<processor::PrivateTarget> page =
      ReadRegionsPage(&sm_, regions_);
  ASSERT_EQ(page.size(), stored_.size());

  std::vector<std::vector<processor::PrivateTarget>> mismatches;
  // One handle's region moved.
  mismatches.push_back(page);
  mismatches.back()[0].region = Rect(0.9, 0.9, 0.95, 0.95);
  // One handle the store does not hold.
  mismatches.push_back(page);
  mismatches.back().push_back({999, Rect(0.5, 0.5, 0.6, 0.6)});
  // One stored region with no handle.
  mismatches.push_back(page);
  mismatches.back().pop_back();
  for (size_t i = 0; i < mismatches.size(); ++i) {
    WriteRegionsPage(&sm_, regions_, mismatches[i]);
    QueryServer server{QueryServerOptions{}};
    RegionUpsertMsg existing;
    existing.handle = 5;
    existing.region = Rect(0.1, 0.1, 0.2, 0.2);
    ASSERT_TRUE(server.Apply(existing).ok());
    const Status opened = server.Open(&sm_);
    EXPECT_EQ(opened.code(), StatusCode::kInvalidArgument) << "case " << i;
    if (opened.ok()) {
      // Show what trusting the page does.
      EXPECT_TRUE(server.Apply(Remove(mismatches[i][0].id)).ok())
          << "case " << i;
    } else {
      ASSERT_EQ(StoredRegions(server),
                (std::vector<processor::PrivateTarget>{{5, existing.region}}))
          << "case " << i;
    }
  }
  WriteRegionsPage(&sm_, regions_, page);
  {
    QueryServer server{QueryServerOptions{}};
    ASSERT_TRUE(server.Open(&sm_).ok());
    ExpectMapMatchesStore(&server);
  }

  // A private store with two regions under one handle, and a page that
  // lists both: the handle map could keep only one of them.
  const std::vector<processor::PrivateTarget> twins = {
      {7, Rect(0.1, 0.1, 0.2, 0.2)}, {7, Rect(0.5, 0.5, 0.6, 0.6)}};
  auto twins_root = processor::PrivateTargetStore(twins).SaveTo(&sm_);
  ASSERT_TRUE(twins_root.ok());
  std::string manifest;
  ASSERT_TRUE(sm_.Load(manifest_, &manifest).ok());
  // The private root follows the 4-byte magic and the public root.
  wire::Writer root;
  root.U64(*twins_root);
  manifest.replace(12, 8, root.Take());
  ASSERT_TRUE(sm_.Store(manifest_, manifest).ok());
  WriteRegionsPage(&sm_, regions_, twins);
  QueryServer server{QueryServerOptions{}};
  EXPECT_EQ(server.Open(&sm_).code(), StatusCode::kInvalidArgument);
}

/// A manifest whose public root names the private store's checkpoint
/// must not open: the public store would serve region corners as
/// targets.
TEST_F(ServerCheckpointFuzzTest, OpenRejectsPublicRootNamingTheRegionStore) {
  std::string manifest;
  ASSERT_TRUE(sm_.Load(manifest_, &manifest).ok());
  // The public root follows the 4-byte magic, the private root follows
  // the public one.
  manifest.replace(4, 8, manifest.substr(12, 8));
  ASSERT_TRUE(sm_.Store(manifest_, manifest).ok());
  QueryServer server{QueryServerOptions{}};
  EXPECT_EQ(server.Open(&sm_).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace casper::server
