#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/common/codec.h"
#include "src/spatial/flat_rtree.h"
#include "src/storage/disk_storage.h"
#include "src/storage/memory_storage.h"
#include "tests/spatial_oracle.h"

/// FlatRTree page round-trips: a tree saved with SaveTo and rebuilt
/// with LoadFrom must pass the same structural invariants and answer
/// every query identically — the loaded tree IS the saved tree, not an
/// approximation of it. Pages that decode but do not describe a valid
/// tree must fail to load.

namespace casper::spatial {
namespace {

using storage::PageId;

std::vector<FlatRTree::Entry> RandomEntries(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, 1000.0);
  std::uniform_real_distribution<double> extent(0.0, 8.0);
  std::vector<FlatRTree::Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = coord(rng), y = coord(rng);
    entries.push_back(
        {Rect(x, y, x + extent(rng), y + extent(rng)), 1000 + i});
  }
  return entries;
}

void ExpectTreesAnswerIdentically(const FlatRTree& original,
                                  const FlatRTree& loaded, uint32_t seed) {
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.height(), original.height());
  EXPECT_TRUE(loaded.CheckInvariants());

  // Byte-identical entry storage order, so snapshot overlays (and any
  // order-sensitive caller) behave the same after a reload.
  for (size_t i = 0; i < original.size(); ++i) {
    const auto a = original.entry(i);
    const auto b = loaded.entry(i);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.box.min.x, b.box.min.x);
    EXPECT_EQ(a.box.min.y, b.box.min.y);
    EXPECT_EQ(a.box.max.x, b.box.max.x);
    EXPECT_EQ(a.box.max.y, b.box.max.y);
  }

  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coord(-50.0, 1050.0);
  for (int probe = 0; probe < 50; ++probe) {
    const Point q{coord(rng), coord(rng)};
    const Rect window(q.x, q.y, q.x + 120.0, q.y + 120.0);

    const auto want = oracle::RangeHits(original, window);
    const auto got = oracle::RangeHits(loaded, window);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i].id, want[i].id);

    for (const size_t k : {size_t{1}, size_t{7}}) {
      EXPECT_EQ(loaded.KNearest(q, k), original.KNearest(q, k));
    }
  }
}

TEST(FlatRTreePersistTest, RoundTripThroughMemoryStorage) {
  const auto tree = FlatRTree::Build(RandomEntries(3000, 11), 16);
  ASSERT_TRUE(tree.CheckInvariants());

  storage::MemoryStorageManager sm;
  auto root = tree.SaveTo(&sm);
  ASSERT_TRUE(root.ok()) << root.status().ToString();

  auto loaded = FlatRTree::LoadFrom(&sm, *root);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTreesAnswerIdentically(tree, *loaded, 29);
}

TEST(FlatRTreePersistTest, SmallFanoutRoundTrip) {
  // Deep tree: fan-out 4 over 500 entries exercises multi-level node
  // runs in the page codec.
  const auto tree = FlatRTree::Build(RandomEntries(500, 5), 4);
  storage::MemoryStorageManager sm;
  auto root = tree.SaveTo(&sm);
  ASSERT_TRUE(root.ok());
  auto loaded = FlatRTree::LoadFrom(&sm, *root);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTreesAnswerIdentically(tree, *loaded, 31);
}

TEST(FlatRTreePersistTest, EmptyTreeRoundTrip) {
  const FlatRTree tree;
  storage::MemoryStorageManager sm;
  auto root = tree.SaveTo(&sm);
  ASSERT_TRUE(root.ok());
  auto loaded = FlatRTree::LoadFrom(&sm, *root);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->empty());
  EXPECT_TRUE(oracle::RangeHits(*loaded, Rect(-1e9, -1e9, 1e9, 1e9)).empty());
  EXPECT_TRUE(loaded->KNearest({0, 0}, 1).empty());
}

TEST(FlatRTreePersistTest, SingleEntryRoundTrip) {
  const auto tree =
      FlatRTree::Build({{Rect(1.0, 2.0, 3.0, 4.0), 77}}, 16);
  storage::MemoryStorageManager sm;
  auto root = tree.SaveTo(&sm);
  ASSERT_TRUE(root.ok());
  auto loaded = FlatRTree::LoadFrom(&sm, *root);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->entry(0).id, 77u);
}

TEST(FlatRTreePersistTest, RoundTripThroughTinyDiskPages) {
  // page_size far below a full row chunk forces every tree page to
  // chain across many physical slots.
  const std::string path = testing::TempDir() + "casper_frt_persist_" +
                           std::to_string(::getpid());
  storage::DiskStorageOptions options;
  options.page_size = 512;
  const auto tree = FlatRTree::Build(RandomEntries(1200, 17), 8);
  PageId root_id;
  {
    auto sm = storage::DiskStorageManager::Create(path, options);
    ASSERT_TRUE(sm.ok()) << sm.status().ToString();
    auto root = tree.SaveTo(sm->get());
    ASSERT_TRUE(root.ok()) << root.status().ToString();
    root_id = *root;
    ASSERT_TRUE((*sm)->SetRoot(0, root_id).ok());
    ASSERT_TRUE((*sm)->Flush().ok());
  }
  auto sm = storage::DiskStorageManager::Open(path, options);
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  auto root = (*sm)->Root(0);
  ASSERT_TRUE(root.ok());
  ASSERT_EQ(*root, root_id);
  auto loaded = FlatRTree::LoadFrom(sm->get(), *root);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTreesAnswerIdentically(tree, *loaded, 37);
  std::remove((path + ".dat").c_str());
  std::remove((path + ".idx").c_str());
}

TEST(FlatRTreePersistTest, MissingRootPageFails) {
  storage::MemoryStorageManager sm;
  const auto loaded = FlatRTree::LoadFrom(&sm, 123);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(FlatRTreePersistTest, GarbageRootPageFailsInvalidArgument) {
  storage::MemoryStorageManager sm;
  auto id = sm.Store(storage::kNoPage, "definitely not a tree root page");
  ASSERT_TRUE(id.ok());
  const auto loaded = FlatRTree::LoadFrom(&sm, *id);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

/// Overwrites the little-endian int32 at `offset` of page `id`.
void PatchI32(storage::MemoryStorageManager* sm, PageId id, size_t offset,
              int32_t value) {
  std::string page;
  ASSERT_TRUE(sm->Load(id, &page).ok());
  ASSERT_LE(offset + 4, page.size());
  const auto bits = static_cast<uint32_t>(value);
  for (size_t b = 0; b < 4; ++b) {
    page[offset + b] = static_cast<char>(bits >> (8 * b));
  }
  ASSERT_TRUE(sm->Store(id, page).ok());
}

TEST(FlatRTreePersistTest, FanoutAboveMaxEntriesFailsInvalidArgument) {
  // 3,000 entries at fan-out 16 fill nodes past 4 children; a root page
  // that claims max_entries 4 would overrun the k-NN distance scratch.
  const auto tree = FlatRTree::Build(RandomEntries(3000, 41), 16);
  storage::MemoryStorageManager sm;
  auto root = tree.SaveTo(&sm);
  ASSERT_TRUE(root.ok());
  PatchI32(&sm, *root, 4, 4);  // max_entries follows the 4-byte magic.
  const auto loaded = FlatRTree::LoadFrom(&sm, *root);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlatRTreePersistTest, NodeThatIsItsOwnChildFailsInvalidArgument) {
  // Point the root's child run at the root itself: the run stays in
  // bounds, but every walk would push the root forever.
  const auto tree = FlatRTree::Build(RandomEntries(500, 43), 8);
  ASSERT_GT(tree.height(), 1);
  storage::MemoryStorageManager sm;
  auto root = tree.SaveTo(&sm);
  ASSERT_TRUE(root.ok());
  std::string bytes;
  ASSERT_TRUE(sm.Load(*root, &bytes).ok());
  wire::Reader r(bytes);
  r.U32();  // Magic.
  r.I32();  // max_entries.
  r.I32();  // Height.
  r.U64();  // Node rows.
  r.U64();  // Entry rows.
  ASSERT_GE(r.Count(8), 1u);
  const PageId first_node_page = r.U64();
  ASSERT_FALSE(r.failed());
  // Node 0's `first` follows the page's 8-byte row count.
  PatchI32(&sm, first_node_page, 8, 0);
  const auto loaded = FlatRTree::LoadFrom(&sm, *root);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlatRTreePersistTest, RootCountsBeyondThePagesFailInvalidArgument) {
  // A root page claiming 2^31 - 1 node and entry rows over one page of
  // each: the arrays grow with the rows read, so nothing is sized from
  // the claim, and the counts then disagree.
  const auto tree = FlatRTree::Build(RandomEntries(50, 47), 16);
  storage::MemoryStorageManager sm;
  auto root = tree.SaveTo(&sm);
  ASSERT_TRUE(root.ok());
  std::string bytes;
  ASSERT_TRUE(sm.Load(*root, &bytes).ok());
  wire::Reader r(bytes);
  wire::Writer w;
  w.U32(r.U32());  // Magic.
  w.I32(r.I32());  // max_entries.
  w.I32(r.I32());  // Height.
  r.U64();
  r.U64();
  w.U64(0x7fffffffu);
  w.U64(0x7fffffffu);
  for (int kind = 0; kind < 2; ++kind) {
    const size_t pages = r.Count(8);
    ASSERT_EQ(pages, 1u);
    w.Count(pages);
    w.U64(r.U64());
  }
  ASSERT_TRUE(r.Finish("root").ok());
  ASSERT_TRUE(sm.Store(*root, w.Take()).ok());
  const auto loaded = FlatRTree::LoadFrom(&sm, *root);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

/// Overwrites the little-endian double at `offset` of page `id`.
void PatchF64(storage::MemoryStorageManager* sm, PageId id, size_t offset,
              double value) {
  std::string page;
  ASSERT_TRUE(sm->Load(id, &page).ok());
  ASSERT_LE(offset + 8, page.size());
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  for (size_t b = 0; b < 8; ++b) {
    page[offset + b] = static_cast<char>(bits >> (8 * b));
  }
  ASSERT_TRUE(sm->Store(id, page).ok());
}

TEST(FlatRTreePersistTest, EmptyOrNaNEntryBoxFailsInvalidArgument) {
  // The middle point's box is turned empty, or given a NaN min x. The
  // other two still span the leaf's MBR, so it stays tight; the walk's
  // contained shortcut would report the entry, which no window
  // intersects.
  const Rect bad[] = {Rect(0.6, 0.5, 0.4, 0.5),
                      Rect(std::nan(""), 0.5, 0.5, 0.5)};
  for (const Rect& box : bad) {
    const auto tree = FlatRTree::Build({{Rect(0, 0, 0, 0), 1},
                                        {Rect(0.5, 0.5, 0.5, 0.5), 2},
                                        {Rect(1, 1, 1, 1), 3}},
                                       4);
    ASSERT_EQ(tree.entry(1).id, 2u);
    storage::MemoryStorageManager sm;
    auto root = tree.SaveTo(&sm);
    ASSERT_TRUE(root.ok());
    ASSERT_TRUE(FlatRTree::LoadFrom(&sm, *root).ok());
    std::string bytes;
    ASSERT_TRUE(sm.Load(*root, &bytes).ok());
    wire::Reader r(bytes);
    r.U32();  // Magic.
    r.I32();  // max_entries.
    r.I32();  // Height.
    r.U64();  // Node rows.
    r.U64();  // Entry rows.
    ASSERT_EQ(r.Count(8), 1u);
    r.U64();  // The node page.
    ASSERT_EQ(r.Count(8), 1u);
    const PageId entry_page = r.U64();
    ASSERT_FALSE(r.failed());
    // Row 1 starts after the 8-byte row count and one 40-byte row; its
    // 8-byte id comes before xlo, ylo, xhi, yhi.
    PatchF64(&sm, entry_page, 8 + 40 + 8, box.min.x);
    PatchF64(&sm, entry_page, 8 + 40 + 24, box.max.x);
    const auto loaded = FlatRTree::LoadFrom(&sm, *root);
    EXPECT_FALSE(loaded.ok()) << box.ToString();
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FlatRTreePersistTest, FanoutIsCappedOnBuildAndLoad) {
  // Build clamps a fan-out of 2^30 to the cap, so the saved root page
  // says kMaxFanout; a root page that says 2^30 does not load (every
  // k-NN would size its scratch by it).
  const auto tree = FlatRTree::Build(RandomEntries(200, 53), 1 << 30);
  EXPECT_TRUE(tree.CheckInvariants());
  storage::MemoryStorageManager sm;
  auto root = tree.SaveTo(&sm);
  ASSERT_TRUE(root.ok());
  std::string bytes;
  ASSERT_TRUE(sm.Load(*root, &bytes).ok());
  wire::Reader r(bytes);
  r.U32();  // Magic.
  ASSERT_EQ(r.I32(), FlatRTree::kMaxFanout);
  auto loaded = FlatRTree::LoadFrom(&sm, *root);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTreesAnswerIdentically(tree, *loaded, 59);

  PatchI32(&sm, *root, 4, 1 << 30);  // max_entries follows the magic.
  const auto patched = FlatRTree::LoadFrom(&sm, *root);
  EXPECT_FALSE(patched.ok());
  EXPECT_EQ(patched.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace casper::spatial
