#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/casper/messages.h"
#include "src/common/rng.h"
#include "src/processor/private_knn.h"
#include "src/processor/private_nn.h"
#include "src/processor/private_range.h"
#include "src/spatial/epoch_index.h"
#include "src/storage/memory_storage.h"
#include "tests/spatial_oracle.h"

/// Differential testing of the epoch index against a brute-force
/// linear scan: driven through a randomized insert / remove / move
/// workload over points and rectangles of every size, every snapshot
/// must answer range and k-NN queries exactly as a scan of the live
/// multiset does. The workload includes duplicate (box, id) pairs,
/// removals of absent entries, points on window edges, and a
/// Checkpoint / Restore round trip in the middle of the churn. A last
/// case checks that encoded answers do not depend on how the index was
/// built when ids repeat.

namespace casper::spatial {
namespace {

struct WorkloadParams {
  size_t initial;
  int rounds;
  int fanout;
  size_t rebuild_threshold;
  uint64_t seed;
};

class DifferentialSpatialTest
    : public ::testing::TestWithParam<WorkloadParams> {};

TEST_P(DifferentialSpatialTest, IndexesAgreeUnderChurn) {
  const WorkloadParams params = GetParam();
  Rng rng(params.seed);
  const Rect space(0, 0, 1, 1);

  std::vector<Entry> live;
  std::vector<Entry> gone;  // Removed or moved-away entries.
  uint64_t next_id = 0;

  // Mostly points; some rectangles up to a quarter of the space.
  auto random_box = [&]() {
    const Point p = rng.PointIn(space);
    if (rng.NextDouble() < 0.6) return Rect::FromPoint(p);
    const double extent = rng.NextDouble() < 0.2 ? 0.5 : 0.05;
    return Rect(p.x, p.y, p.x + rng.Uniform(0, extent),
                p.y + rng.Uniform(0, extent));
  };
  auto pick = [&]() {
    return static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
  };

  std::vector<Entry> initial;
  for (size_t i = 0; i < params.initial; ++i) {
    initial.push_back({random_box(), next_id++});
  }
  live = initial;
  EpochIndex index = EpochIndex::BulkLoad(std::move(initial), params.fanout,
                                          params.rebuild_threshold);

  auto check = [&](int round) {
    const auto snap = index.Acquire();
    ASSERT_EQ(snap->size(), live.size()) << "round " << round;
    ASSERT_EQ(index.size(), live.size()) << "round " << round;

    std::vector<Rect> windows;
    const Point c = rng.PointIn(space);
    windows.emplace_back(c.x, c.y, std::min(c.x + rng.Uniform(0, 0.3), 1.0),
                         std::min(c.y + rng.Uniform(0, 0.3), 1.0));
    windows.emplace_back(0.1, 0.1, 0.9, 0.9);  // A large region.
    if (!live.empty()) {
      // Closed boundaries: an entry whose corner sits exactly on a
      // window edge is inside it.
      const Rect& b = live[pick()].box;
      windows.emplace_back(b.max.x, b.max.y, b.max.x + 0.1, b.max.y + 0.1);
      windows.emplace_back(b.min.x - 0.1, b.min.y - 0.1, b.min.x, b.min.y);
    }
    for (const Rect& window : windows) {
      ASSERT_EQ(oracle::SortedIds(oracle::RangeHits(*snap, window)),
                oracle::RangeIds(live, window))
          << "round " << round;
    }

    const Point q = rng.PointIn(space);
    for (auto metric : {Metric::kMinDist, Metric::kMaxDist}) {
      for (size_t k : {1u, 7u}) {
        ASSERT_EQ(
            oracle::Distances(oracle::Ranks(snap->KNearest(q, k, metric))),
            oracle::Distances(oracle::Knn(live, q, k, metric)))
            << "round " << round << " metric=" << static_cast<int>(metric)
            << " k=" << k;
      }
    }
  };

  for (int round = 0; round < params.rounds; ++round) {
    const double action = rng.NextDouble();
    if (action < 0.3 || live.size() < 5) {
      const Entry e{random_box(), next_id++};
      index.Insert(e.box, e.id);
      live.push_back(e);
    } else if (action < 0.4) {
      // A twin of a live entry; removing one copy must leave the other.
      const Entry e = live[pick()];
      index.Insert(e.box, e.id);
      live.push_back(e);
    } else if (action < 0.55) {
      const size_t victim = pick();
      ASSERT_TRUE(index.Remove(live[victim].box, live[victim].id))
          << "round " << round;
      gone.push_back(live[victim]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    } else if (action < 0.6) {
      // Absent entries: an unused id, a live id with a box it does not
      // have, and an entry already removed (its base copy may still sit
      // under a tombstone).
      auto absent = [&](const Entry& e) {
        return std::none_of(live.begin(), live.end(), [&](const Entry& l) {
          return l.id == e.id && l.box == e.box;
        });
      };
      ASSERT_FALSE(index.Remove(random_box(), next_id + 1000));
      const Entry& e = live[pick()];
      const Entry shifted{Rect(e.box.min.x + 1e-7, e.box.min.y,
                               e.box.max.x + 1e-7, e.box.max.y),
                          e.id};
      if (absent(shifted)) {
        ASSERT_FALSE(index.Remove(shifted.box, shifted.id));
      }
      if (!gone.empty()) {
        const Entry& old = gone[rng.UniformInt(0, gone.size() - 1)];
        if (absent(old)) {
          ASSERT_FALSE(index.Remove(old.box, old.id)) << "round " << round;
        }
      }
    } else if (action < 0.8) {
      // Move: the stores' upsert is Remove(old) + Insert(new).
      Entry& e = live[pick()];
      ASSERT_TRUE(index.Remove(e.box, e.id)) << "round " << round;
      gone.push_back(e);
      e.box = random_box();
      index.Insert(e.box, e.id);
    } else {
      check(round);
    }
    if (round == params.rounds / 2) {
      storage::MemoryStorageManager sm;
      auto root = index.Checkpoint(&sm);
      ASSERT_TRUE(root.ok()) << root.status().message();
      auto restored = EpochIndex::Restore(&sm, *root);
      ASSERT_TRUE(restored.ok()) << restored.status().message();
      EXPECT_EQ(restored->stats().delta_entries, index.stats().delta_entries);
      EXPECT_EQ(restored->stats().tombstones, index.stats().tombstones);
      index = std::move(restored).value();
      check(round);
    }
  }
  check(params.rounds);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DifferentialSpatialTest,
    ::testing::Values(WorkloadParams{50, 400, 4, 16, 1},
                      WorkloadParams{200, 400, 8, 128, 2},
                      WorkloadParams{500, 300, 16, 64, 3},
                      WorkloadParams{5, 500, 4, 1, 4},
                      WorkloadParams{1000, 200, 12, 100000, 5}));

/// The wire answers of the public kinds are a function of the stored
/// multiset alone, also when ids repeat: the same (position, id) pairs
/// bulk-loaded, inserted forward, inserted in reverse, and bulk-loaded
/// then churned encode to the same bytes. Every id is stored twice, at
/// two positions.
TEST(TwinIdOrderTest, AnswersEncodeIdenticallyWhateverTheBuildOrder) {
  using processor::PublicTarget;
  using processor::PublicTargetStore;
  Rng rng(23);
  // One twin pair, which stays in the insert delta, and 1,500 pairs
  // spread over a packed base and its delta.
  for (uint64_t ids : {uint64_t{1}, uint64_t{1500}}) {
    std::vector<PublicTarget> targets;
    for (uint64_t id = 0; id < ids; ++id) {
      targets.push_back({id, rng.PointIn(Rect(0, 0, 1, 1))});
      targets.push_back({id, rng.PointIn(Rect(0, 0, 1, 1))});
    }
    const PublicTargetStore bulk(targets);
    PublicTargetStore forward;
    PublicTargetStore reverse;
    for (const PublicTarget& t : targets) forward.Insert(t);
    for (auto t = targets.rbegin(); t != targets.rend(); ++t) {
      reverse.Insert(*t);
    }
    // Remove and re-insert the first copy of every 25th id, id 0
    // included, so the packed base carries tombstones over twin copies
    // and the delta holds their re-inserts. 60 ids make 120 overlay
    // entries, under the default rebuild threshold of 128.
    PublicTargetStore churned(targets);
    for (size_t i = 0; i < targets.size(); i += 50) {
      ASSERT_TRUE(churned.Remove(targets[i]));
      churned.Insert(targets[i]);
    }
    ASSERT_EQ(churned.epoch_stats().tombstones, (targets.size() + 49) / 50);

    std::vector<Rect> cloaks = {Rect(0, 0, 1, 1)};
    for (int i = 0; i < 500; ++i) {
      const Point c = rng.PointIn(Rect(0, 0, 0.97, 0.97));
      cloaks.emplace_back(c.x, c.y, c.x + 0.03, c.y + 0.03);
    }
    auto wire = [](QueryKind kind, auto answer) {
      EXPECT_TRUE(answer.ok()) << answer.status().message();
      CandidateListMsg msg;
      msg.kind = kind;
      msg.payload = std::move(answer).value();
      return Encode(msg);
    };
    auto answers = [&](const PublicTargetStore& store, const Rect& cloak) {
      return std::vector<std::string>{
          wire(QueryKind::kNearestPublic,
               processor::PrivateNearestNeighbor(store, cloak)),
          wire(QueryKind::kKNearestPublic,
               processor::PrivateKNearestNeighbors(store, cloak, 2)),
          wire(QueryKind::kRangePublic,
               processor::PrivateRangeOverPublic(store, cloak, 0.02))};
    };
    for (size_t c = 0; c < cloaks.size(); ++c) {
      const std::vector<std::string> want = answers(bulk, cloaks[c]);
      const std::vector<std::string> fwd = answers(forward, cloaks[c]);
      const std::vector<std::string> rev = answers(reverse, cloaks[c]);
      const std::vector<std::string> churn = answers(churned, cloaks[c]);
      for (size_t kind = 0; kind < want.size(); ++kind) {
        ASSERT_TRUE(fwd[kind] == want[kind])
            << ids << " ids, cloak " << c << ", answer " << kind
            << ": forward inserts differ from bulk load";
        ASSERT_TRUE(rev[kind] == want[kind])
            << ids << " ids, cloak " << c << ", answer " << kind
            << ": reverse inserts differ from bulk load";
        ASSERT_TRUE(churn[kind] == want[kind])
            << ids << " ids, cloak " << c << ", answer " << kind
            << ": a churned bulk load differs from the bulk load";
      }
    }
  }
}

}  // namespace
}  // namespace casper::spatial
