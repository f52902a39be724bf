#include "src/processor/query_cache.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"

namespace casper::processor {
namespace {

PublicTargetStore MakeStore(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<PublicTarget> targets;
  for (uint64_t i = 0; i < n; ++i) {
    targets.push_back({i, rng.PointIn(Rect(0, 0, 1, 1))});
  }
  return PublicTargetStore(targets);
}

std::vector<uint64_t> Ids(const PublicCandidateList& list) {
  std::vector<uint64_t> ids;
  for (const auto& t : list.candidates) ids.push_back(t.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(QueryCacheTest, HitReturnsIdenticalAnswer) {
  PublicTargetStore store = MakeStore(300, 1);
  CachingQueryProcessor cache(&store, 16);
  const Rect cloak(0.4, 0.4, 0.6, 0.6);

  auto first = cache.Query(cloak);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  auto second = cache.Query(cloak);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(Ids(*first), Ids(*second));
  EXPECT_EQ(first->area.a_ext, second->area.a_ext);

  // The cached answer equals a direct evaluation.
  auto direct = PrivateNearestNeighbor(store, cloak);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(Ids(*second), Ids(*direct));
}

TEST(QueryCacheTest, LruEviction) {
  PublicTargetStore store = MakeStore(100, 2);
  CachingQueryProcessor cache(&store, 2);
  const Rect a(0.0, 0.0, 0.1, 0.1);
  const Rect b(0.2, 0.2, 0.3, 0.3);
  const Rect c(0.4, 0.4, 0.5, 0.5);
  ASSERT_TRUE(cache.Query(a).ok());  // miss {a}
  ASSERT_TRUE(cache.Query(b).ok());  // miss {a, b}
  ASSERT_TRUE(cache.Query(a).ok());  // hit, a is MRU
  ASSERT_TRUE(cache.Query(c).ok());  // miss, evicts b -> {a, c}
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.Query(b).ok());  // miss again (was evicted)
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(QueryCacheTest, InvalidationForcesReevaluation) {
  PublicTargetStore store = MakeStore(200, 3);
  CachingQueryProcessor cache(&store, 8);
  const Rect cloak(0.45, 0.45, 0.55, 0.55);
  auto before = cache.Query(cloak);
  ASSERT_TRUE(before.ok());

  // Mutate the store, and nothing else: the stale answer must not be
  // served. Invalidation is lazy — the entry stays resident and is
  // refilled on lookup.
  store.Insert({9999, {0.5, 0.5}});
  EXPECT_EQ(cache.size(), 1u);
  auto after = cache.Query(cloak);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), before->size() + 1);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // A remove moves the epoch too, even though it restores the old set.
  ASSERT_TRUE(store.Remove({9999, {0.5, 0.5}}));
  auto restored = cache.Query(cloak);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(Ids(*restored), Ids(*before));
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(QueryCacheTest, EpochBumpIsLazyAndO1) {
  PublicTargetStore store = MakeStore(200, 8);
  CachingQueryProcessor cache(&store, 8);
  std::vector<Rect> cloaks;
  for (int i = 0; i < 4; ++i) {
    cloaks.push_back(Rect(i * 0.2, i * 0.2, i * 0.2 + 0.1, i * 0.2 + 0.1));
  }
  for (const Rect& c : cloaks) ASSERT_TRUE(cache.Query(c).ok());
  EXPECT_EQ(cache.size(), 4u);

  // Far from every cloak: no answer changes, but the epoch does.
  const uint64_t epoch = PublicTargetStore::Snapshot(store).epoch();
  store.Insert({9999, {5.0, 5.0}});
  EXPECT_NE(PublicTargetStore::Snapshot(store).epoch(), epoch);
  // Nothing is eagerly dropped; only the store's epoch moved.
  EXPECT_EQ(cache.size(), 4u);

  // A stale entry counts as a miss and is refilled at the new epoch...
  ASSERT_TRUE(cache.Query(cloaks[0]).ok());
  EXPECT_EQ(cache.stats().misses, 5u);
  EXPECT_EQ(cache.size(), 4u);  // Refilled in place, not duplicated.
  // ...after which it hits again.
  ASSERT_TRUE(cache.Query(cloaks[0]).ok());
  EXPECT_EQ(cache.stats().hits, 1u);

  // The cached answer after invalidation matches direct evaluation.
  auto cached = cache.Query(cloaks[1]);
  auto direct = PrivateNearestNeighbor(store, cloaks[1]);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(Ids(*cached), Ids(*direct));
}

TEST(QueryCacheTest, ReplacedStoreNeverServesOldAnswers) {
  // Wholesale replacement builds a new index in place; its epochs must
  // not repeat the old index's, or entries from the old target set would
  // match again.
  PublicTargetStore store = MakeStore(200, 9);
  CachingQueryProcessor cache(&store, 8);
  const Rect cloak(0.45, 0.45, 0.55, 0.55);
  ASSERT_TRUE(cache.Query(cloak).ok());
  ASSERT_TRUE(cache.Peek(cloak).has_value());

  store = MakeStore(200, 10);
  EXPECT_FALSE(cache.Peek(cloak).has_value());
  auto cached = cache.Query(cloak);
  auto direct = PrivateNearestNeighbor(store, cloak);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(Ids(*cached), Ids(*direct));
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(QueryCacheTest, CellAlignedWorkloadGetsHighHitRate) {
  // Co-located users share cell-aligned cloaks: with 16 distinct cloak
  // rectangles and hundreds of queries the hit rate approaches 1.
  PublicTargetStore store = MakeStore(500, 4);
  CachingQueryProcessor cache(&store, 32);
  Rng rng(5);
  std::vector<Rect> cloaks;
  for (int i = 0; i < 16; ++i) {
    const double x = (i % 4) * 0.25;
    const double y = (i / 4) * 0.25;
    cloaks.push_back(Rect(x, y, x + 0.25, y + 0.25));
  }
  for (int q = 0; q < 500; ++q) {
    ASSERT_TRUE(cache.Query(cloaks[rng.UniformInt(0, 15)]).ok());
  }
  EXPECT_EQ(cache.stats().misses, 16u);
  EXPECT_GT(cache.stats().HitRate(), 0.95);
}

TEST(QueryCacheTest, CapacityOneStillCorrect) {
  PublicTargetStore store = MakeStore(100, 6);
  CachingQueryProcessor cache(&store, 1);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const Point c = rng.PointIn(Rect(0, 0, 0.8, 0.8));
    const Rect cloak(c.x, c.y, c.x + 0.1, c.y + 0.1);
    auto cached = cache.Query(cloak);
    auto direct = PrivateNearestNeighbor(store, cloak);
    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(Ids(*cached), Ids(*direct));
  }
}

}  // namespace
}  // namespace casper::processor
