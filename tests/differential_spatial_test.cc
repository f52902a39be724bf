#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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
    for (size_t k : {1u, 7u}) {
      ASSERT_EQ(snap->KNearest(q, k), oracle::Knn(live, q, k))
          << "round " << round << " k=" << k;
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

const char* const kBuildOrders[] = {"bulk load", "forward inserts",
                                    "reverse inserts", "churned bulk load"};

/// The same targets bulk-loaded, inserted forward, inserted in
/// reverse, and bulk-loaded then churned: the first copy of every 50th
/// target, the first included, is removed and re-inserted, so the
/// packed base carries tombstones over twin copies and the delta holds
/// their re-inserts.
template <typename Store, typename Target>
std::vector<Store> FourBuildOrders(const std::vector<Target>& targets) {
  std::vector<Store> stores;
  stores.emplace_back(targets);
  stores.emplace_back();
  for (const Target& t : targets) stores.back().Insert(t);
  stores.emplace_back();
  for (auto t = targets.rbegin(); t != targets.rend(); ++t) {
    stores.back().Insert(*t);
  }
  stores.emplace_back(targets);
  for (size_t i = 0; i < targets.size(); i += 50) {
    EXPECT_TRUE(stores.back().Remove(targets[i]));
    stores.back().Insert(targets[i]);
  }
  EXPECT_EQ(stores.back().epoch_stats().tombstones,
            (targets.size() + 49) / 50);
  return stores;
}

std::string Wire(QueryKind kind, auto answer) {
  EXPECT_TRUE(answer.ok()) << answer.status().message();
  CandidateListMsg msg;
  msg.kind = kind;
  msg.payload = std::move(answer).value();
  return Encode(msg);
}

/// The encoded NN, k-NN and range answers for `cloak` and the two
/// targets nearest each of its vertices are equal in every build order
/// of `targets`.
void ExpectPublicAnswersIndependentOfBuildOrder(
    const std::vector<processor::PublicTarget>& targets,
    const std::vector<Rect>& cloaks) {
  using processor::PublicTargetStore;
  const auto stores = FourBuildOrders<PublicTargetStore>(targets);
  auto answers = [](const PublicTargetStore& store, const Rect& cloak) {
    return std::vector<std::string>{
        Wire(QueryKind::kNearestPublic,
             processor::PrivateNearestNeighbor(store, cloak)),
        Wire(QueryKind::kKNearestPublic,
             processor::PrivateKNearestNeighbors(store, cloak, 2)),
        Wire(QueryKind::kRangePublic,
             processor::PrivateRangeOverPublic(store, cloak, 0.02))};
  };
  for (size_t c = 0; c < cloaks.size(); ++c) {
    const std::vector<std::string> want = answers(stores[0], cloaks[c]);
    for (size_t s = 1; s < stores.size(); ++s) {
      const std::vector<std::string> got = answers(stores[s], cloaks[c]);
      for (size_t kind = 0; kind < want.size(); ++kind) {
        ASSERT_TRUE(got[kind] == want[kind])
            << targets.size() << " targets, cloak " << c << ", answer "
            << kind << ": " << kBuildOrders[s] << " differ from the bulk load";
      }
      for (const Point& v : cloaks[c].Corners()) {
        ASSERT_EQ(PublicTargetStore::Snapshot(stores[s]).KNearest(v, 2),
                  PublicTargetStore::Snapshot(stores[0]).KNearest(v, 2))
            << targets.size() << " targets, cloak " << c << ": "
            << kBuildOrders[s] << " differ from the bulk load";
      }
    }
  }
}

/// The wire answers of the public kinds are a function of the stored
/// multiset alone, also when ids repeat: the same (position, id) pairs
/// in every build order encode to the same bytes. Every id is stored
/// twice, at two positions.
TEST(TwinIdOrderTest, AnswersEncodeIdenticallyWhateverTheBuildOrder) {
  Rng rng(23);
  // One twin pair, which stays in the insert delta, and 1,500 pairs
  // spread over a packed base and its delta. 1,500 pairs churn 60 ids
  // into 120 overlay entries, under the default rebuild threshold of
  // 128.
  for (uint64_t ids : {uint64_t{1}, uint64_t{1500}}) {
    std::vector<processor::PublicTarget> targets;
    for (uint64_t id = 0; id < ids; ++id) {
      targets.push_back({id, rng.PointIn(Rect(0, 0, 1, 1))});
      targets.push_back({id, rng.PointIn(Rect(0, 0, 1, 1))});
    }
    std::vector<Rect> cloaks = {Rect(0, 0, 1, 1)};
    for (int i = 0; i < 500; ++i) {
      const Point c = rng.PointIn(Rect(0, 0, 0.97, 0.97));
      cloaks.emplace_back(c.x, c.y, c.x + 0.03, c.y + 0.03);
    }
    ExpectPublicAnswersIndependentOfBuildOrder(targets, cloaks);
  }
}

/// An offset of up to ~0.1 in multiples of 2^-10, so that a point and
/// its mirror image about (0.5, 0.5) are exact, and so are their
/// distances from it.
Point MirroredOffset(Rng* rng) {
  const auto coord = [rng] {
    return (static_cast<double>(rng->UniformInt(0, 200)) - 100.0) / 1024.0;
  };
  return {coord(), coord()};
}

/// A twin pair mirrored about a cloak vertex: both copies of id 7 lie
/// at exactly one distance from it, so which box the filter probe there
/// gets is decided by the tie order alone.
TEST(TwinIdOrderTest, MirroredTwinsAnswerIdenticallyWhateverTheBuildOrder) {
  Rng rng(26);
  const Point corner{0.5, 0.5};
  for (int trial = 0; trial < 300; ++trial) {
    const Point d = MirroredOffset(&rng);
    std::vector<processor::PublicTarget> targets = {
        {7, {corner.x + d.x, corner.y + d.y}},
        {7, {corner.x - d.x, corner.y - d.y}}};
    for (uint64_t id = 100; id < 130; ++id) {
      targets.push_back({id, rng.PointIn(Rect(0, 0, 1, 1))});
    }
    const double w = rng.Uniform(0.01, 0.2), h = rng.Uniform(0.01, 0.2);
    ExpectPublicAnswersIndependentOfBuildOrder(
        targets, {Rect(corner.x, corner.y, corner.x + w, corner.y + h),
                  Rect(corner.x - w, corner.y - h, corner.x, corner.y)});
    if (HasFatalFailure()) return;
  }
}

/// The MaxDist probe of §5.2.1 over region twins mirrored about a cloak
/// vertex: both boxes of id 7 have the same furthest-corner distance
/// from it, and every build order picks the same one, for the probe and
/// for the buddy answer built on it.
TEST(TwinIdOrderTest, MirroredRegionTwinsPickOneMaxDistFilter) {
  using processor::PrivateTarget;
  using processor::PrivateTargetStore;
  Rng rng(27);
  const Point corner{0.5, 0.5};
  for (int trial = 0; trial < 300; ++trial) {
    const Point a = MirroredOffset(&rng);
    const Point b = MirroredOffset(&rng);
    const Rect box(corner.x + std::min(a.x, b.x),
                   corner.y + std::min(a.y, b.y),
                   corner.x + std::max(a.x, b.x),
                   corner.y + std::max(a.y, b.y));
    const Rect mirror(2 * corner.x - box.max.x, 2 * corner.y - box.max.y,
                      2 * corner.x - box.min.x, 2 * corner.y - box.min.y);
    std::vector<PrivateTarget> targets = {{7, box}, {7, mirror}};
    for (uint64_t id = 100; id < 130; ++id) {
      const Point p = rng.PointIn(Rect(0, 0, 0.9, 0.9));
      targets.push_back(
          {id, Rect(p.x, p.y, p.x + rng.Uniform(0, 0.1),
                    p.y + rng.Uniform(0, 0.1))});
    }
    const auto stores = FourBuildOrders<PrivateTargetStore>(targets);
    const double w = rng.Uniform(0.01, 0.2), h = rng.Uniform(0.01, 0.2);
    const Rect cloak(corner.x, corner.y, corner.x + w, corner.y + h);
    const auto want_probe =
        PrivateTargetStore::Snapshot(stores[0]).KNearest(corner, 1);
    ASSERT_EQ(want_probe.size(), 1u);
    const std::string want = Wire(
        QueryKind::kNearestPrivate,
        processor::PrivateNearestNeighborOverPrivate(stores[0], cloak));
    for (size_t s = 1; s < stores.size(); ++s) {
      const auto probe =
          PrivateTargetStore::Snapshot(stores[s]).KNearest(corner, 1);
      ASSERT_TRUE(probe == want_probe)
          << "trial " << trial << ": " << kBuildOrders[s]
          << " probe a different box than the bulk load";
      ASSERT_TRUE(Wire(QueryKind::kNearestPrivate,
                       processor::PrivateNearestNeighborOverPrivate(
                           stores[s], cloak)) == want)
          << "trial " << trial << ": " << kBuildOrders[s]
          << " differ from the bulk load";
    }
  }
}

}  // namespace
}  // namespace casper::spatial
