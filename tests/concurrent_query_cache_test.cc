#include "src/processor/concurrent_query_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

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
  return ids;
}

std::vector<Rect> CellAlignedCloaks(int per_side) {
  std::vector<Rect> cloaks;
  const double step = 1.0 / per_side;
  for (int i = 0; i < per_side; ++i) {
    for (int j = 0; j < per_side; ++j) {
      cloaks.push_back(
          Rect(i * step, j * step, (i + 1) * step, (j + 1) * step));
    }
  }
  return cloaks;
}

TEST(ConcurrentQueryCacheTest, AnswersMatchDirectEvaluation) {
  PublicTargetStore store = MakeStore(400, 1);
  ConcurrentQueryCache cache(&store, 64);
  for (const Rect& cloak : CellAlignedCloaks(4)) {
    auto cached = cache.Query(cloak);
    auto again = cache.Query(cloak);
    auto direct = PrivateNearestNeighbor(store, cloak);
    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE(again.ok());
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(Ids(*cached), Ids(*direct));
    EXPECT_EQ(Ids(*again), Ids(*direct));
  }
  const QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 16u);
  EXPECT_EQ(stats.hits, 16u);
}

TEST(ConcurrentQueryCacheTest, SharedAcrossThreads) {
  PublicTargetStore store = MakeStore(500, 2);
  ConcurrentQueryCache cache(&store, 64, FilterPolicy::kFourFilters, 8);
  const std::vector<Rect> cloaks = CellAlignedCloaks(4);

  // Precompute reference answers single-threaded.
  std::vector<std::vector<uint64_t>> expected;
  for (const Rect& cloak : cloaks) {
    auto direct = PrivateNearestNeighbor(store, cloak);
    ASSERT_TRUE(direct.ok());
    expected.push_back(Ids(*direct));
  }

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const size_t i = rng.UniformInt(0, cloaks.size() - 1);
        auto answer = cache.Query(cloaks[i]);
        if (!answer.ok() || Ids(*answer) != expected[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  const QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kQueriesPerThread));
  // 16 distinct cloaks, capacity 64: at most one miss per cloak.
  EXPECT_LE(stats.misses, cloaks.size());
  EXPECT_GT(stats.HitRate(), 0.95);
}

TEST(ConcurrentQueryCacheTest, StoreMutationDropsStaleAnswers) {
  PublicTargetStore store = MakeStore(200, 3);
  ConcurrentQueryCache cache(&store, 32);
  const Rect cloak(0.45, 0.45, 0.55, 0.55);
  auto before = cache.Query(cloak);
  ASSERT_TRUE(before.ok());

  store.Insert({9999, {0.5, 0.5}});
  EXPECT_FALSE(cache.Peek(cloak).has_value());
  auto after = cache.Query(cloak);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), before->size() + 1);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ConcurrentQueryCacheTest, ConcurrentQueriesWithInvalidation) {
  // Readers race a writer that keeps mutating the store, so the epoch
  // moves while queries are in flight and every entry keeps going
  // stale. The writer only touches (5, 5), outside every cloak's
  // extended area, so every answer must still match the direct
  // evaluation made before the race.
  PublicTargetStore store = MakeStore(300, 4);
  ConcurrentQueryCache cache(&store, 32, FilterPolicy::kFourFilters, 4);
  const std::vector<Rect> cloaks = CellAlignedCloaks(3);
  std::vector<std::vector<uint64_t>> expected;
  for (const Rect& cloak : cloaks) {
    auto direct = PrivateNearestNeighbor(store, cloak);
    ASSERT_TRUE(direct.ok());
    expected.push_back(Ids(*direct));
  }

  std::atomic<int> mismatches{0};
  std::atomic<bool> stop{false};
  std::atomic<int> writes{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(200 + t);
      // Keep querying until the writer has moved the epoch many times.
      for (int q = 0; q < 300 || writes.load() < 100; ++q) {
        const size_t i = rng.UniformInt(0, cloaks.size() - 1);
        auto answer = cache.Query(cloaks[i]);
        if (!answer.ok() || Ids(*answer) != expected[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread writer([&] {
    for (uint64_t id = 10000; !stop.load(); ++id) {
      store.Insert({id, {5, 5}});
      if (id % 2 == 1) store.Remove({id - 1, {5, 5}});
      writes.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  for (auto& th : readers) th.join();
  stop.store(true);
  writer.join();

  EXPECT_EQ(mismatches.load(), 0);
  // Entries went stale under the readers and were re-evaluated.
  EXPECT_GT(cache.stats().misses, cloaks.size());
}

TEST(ConcurrentQueryCacheTest, CapacitySplitsAcrossShards) {
  PublicTargetStore store = MakeStore(100, 5);
  ConcurrentQueryCache cache(&store, 16, FilterPolicy::kFourFilters, 4);
  EXPECT_EQ(cache.shard_count(), 4u);
  // Far more distinct cloaks than capacity: resident entries stay
  // bounded by capacity (+ rounding slack per shard).
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const Point c = rng.PointIn(Rect(0, 0, 0.9, 0.9));
    ASSERT_TRUE(cache.Query(Rect(c.x, c.y, c.x + 0.05, c.y + 0.05)).ok());
  }
  EXPECT_LE(cache.size(), 16u + 4u);
}

}  // namespace
}  // namespace casper::processor
