#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/codec.h"
#include "src/common/rng.h"
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

  /// Flip 1 to 3 bytes of the page at `id`, each XORed with a non-zero
  /// mask. Returns the original bytes.
  std::string MutatePage(storage::PageId id, Rng* rng) {
    std::string original;
    EXPECT_TRUE(sm_.Load(id, &original).ok());
    std::string mutant = original;
    const uint64_t flips = rng->UniformInt(1, 3);
    for (uint64_t f = 0; f < flips; ++f) {
      const size_t pos = rng->UniformInt(0, mutant.size() - 1);
      mutant[pos] = static_cast<char>(static_cast<uint8_t>(mutant[pos]) ^
                                      rng->UniformInt(1, 255));
    }
    EXPECT_TRUE(sm_.Store(id, mutant).ok());
    return original;
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
      const std::string original = MutatePage(page, &rng);
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
