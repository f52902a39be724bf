#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/processor/private_knn.h"
#include "src/processor/private_nn.h"

/// One evaluation reads one store epoch. The cloak sits at the emptiest
/// spot of a uniform target set, and a writer thread keeps inserting
/// and removing one target at the cloak's centre. While that target is
/// stored it is every corner's filter and A_EXT hugs the cloak; while
/// it is not, the filters are far away and A_EXT is wide. An evaluation
/// that took its filters from one state and its candidate range from
/// the other returns a list that is inclusive for neither, so every
/// answer must be inclusive, by brute force over a grid of user
/// positions, for the state with the target or for the state without.
/// (k-NN's filter is the k-th nearest target, so its case adds k - 1
/// fixed targets next to the toggled one.)

namespace casper::processor {
namespace {

constexpr size_t kTargets = 200;
constexpr TargetId kToggledId = kTargets;
constexpr double kCloakSide = 0.02;
constexpr int kGrid = 9;  // User positions per cloak side.
constexpr int kReaders = 2;
/// Wall time per case: a plain build answers tens of thousands of
/// queries in it, and it keeps the TSan run to a few seconds.
constexpr auto kRaceTime = std::chrono::milliseconds(400);

std::vector<Point> UniformPoints(uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (size_t i = 0; i < kTargets; ++i) {
    points.push_back(rng.PointIn(Rect(0, 0, 1, 1)));
  }
  return points;
}

/// The cloak centred on the grid point farthest from every point.
Rect EmptiestCloak(const std::vector<Point>& points) {
  Point best;
  double best_d = -1.0;
  for (int i = 1; i < 40; ++i) {
    for (int j = 1; j < 40; ++j) {
      const Point c{i / 40.0, j / 40.0};
      double d = 1e300;
      for (const Point& p : points) d = std::min(d, Distance(c, p));
      if (d > best_d) {
        best_d = d;
        best = c;
      }
    }
  }
  return Rect::FromPoint(best).Expanded(kCloakSide / 2);
}

std::vector<Point> UserGrid(const Rect& cloak) {
  std::vector<Point> users;
  for (int i = 0; i < kGrid; ++i) {
    for (int j = 0; j < kGrid; ++j) {
      users.push_back({cloak.min.x + cloak.width() * i / (kGrid - 1),
                       cloak.min.y + cloak.height() * j / (kGrid - 1)});
    }
  }
  return users;
}

std::vector<TargetId> SortedUnique(std::vector<TargetId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// Ids an inclusive public k-NN answer must hold: the k nearest targets
/// of every grid user.
std::vector<TargetId> MustHoldPublic(const std::vector<PublicTarget>& state,
                                     const std::vector<Point>& users,
                                     size_t k) {
  std::vector<TargetId> ids;
  for (const Point& u : users) {
    std::vector<PublicTarget> ranked = state;
    std::sort(ranked.begin(), ranked.end(),
              [&](const PublicTarget& a, const PublicTarget& b) {
                return Distance(u, a.position) < Distance(u, b.position);
              });
    for (size_t i = 0; i < k; ++i) ids.push_back(ranked[i].id);
  }
  return SortedUnique(std::move(ids));
}

/// Ids an inclusive buddy-NN answer must hold: for every grid user u,
/// each region that could host u's nearest buddy, i.e. whose MinDist
/// from u is below the smallest MaxDist from u (Theorem 3).
std::vector<TargetId> MustHoldPrivate(const std::vector<PrivateTarget>& state,
                                      const std::vector<Point>& users) {
  std::vector<TargetId> ids;
  for (const Point& u : users) {
    double bound = 1e300;
    for (const PrivateTarget& t : state) {
      bound = std::min(bound, MaxDist(u, t.region));
    }
    for (const PrivateTarget& t : state) {
      if (MinDist(u, t.region) + 1e-12 < bound) ids.push_back(t.id);
    }
  }
  return SortedUnique(std::move(ids));
}

template <typename Target>
bool Holds(const std::vector<Target>& candidates,
           const std::vector<TargetId>& must) {
  std::vector<TargetId> ids;
  for (const Target& t : candidates) ids.push_back(t.id);
  ids = SortedUnique(std::move(ids));
  return std::includes(ids.begin(), ids.end(), must.begin(), must.end());
}

struct RaceCounts {
  uint64_t answers = 0;
  uint64_t failures = 0;
};

/// Runs `answer_ok` on reader threads for kRaceTime while a writer
/// calls `toggle(true)`, `toggle(false)`, ... as fast as it can.
RaceCounts Race(const std::function<void(bool)>& toggle,
                const std::function<bool()>& answer_ok) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (bool on = true; !stop.load(std::memory_order_relaxed); on = !on) {
      toggle(on);
    }
  });
  std::atomic<uint64_t> answers{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  const auto deadline = std::chrono::steady_clock::now() + kRaceTime;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (std::chrono::steady_clock::now() < deadline) {
        answers.fetch_add(1, std::memory_order_relaxed);
        if (!answer_ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true);
  writer.join();
  return {answers.load(), failures.load()};
}

class PublicSnapshotRaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const Point& p : UniformPoints(17)) {
      without_.push_back({without_.size(), p});
    }
    cloak_ = EmptiestCloak(UniformPoints(17));
    toggled_ = {kToggledId, cloak_.Center()};
    with_ = without_;
    with_.push_back(toggled_);
    store_ = PublicTargetStore(without_);
  }

  /// Stores `target` in both states.
  void AddFixed(const PublicTarget& target) {
    without_.push_back(target);
    with_.push_back(target);
    store_.Insert(target);
  }

  void Toggle(bool on) {
    if (on) {
      store_.Insert(toggled_);
    } else {
      store_.Remove(toggled_);
    }
  }

  std::vector<PublicTarget> without_;
  std::vector<PublicTarget> with_;
  PublicTarget toggled_;
  Rect cloak_;
  PublicTargetStore store_;
};

TEST_F(PublicSnapshotRaceTest, NearestNeighborIsInclusiveForOneState) {
  const std::vector<Point> users = UserGrid(cloak_);
  const auto must_with = MustHoldPublic(with_, users, 1);
  const auto must_without = MustHoldPublic(without_, users, 1);
  // The toggled target really does flip the answer.
  ASSERT_EQ(must_with, std::vector<TargetId>{kToggledId});
  ASSERT_NE(must_without, must_with);

  const RaceCounts counts = Race(
      [this](bool on) { Toggle(on); },
      [&] {
        auto answer = PrivateNearestNeighbor(store_, cloak_);
        return answer.ok() && (Holds(answer->candidates, must_with) ||
                               Holds(answer->candidates, must_without));
      });
  EXPECT_GT(counts.answers, 0u);
  EXPECT_EQ(counts.failures, 0u) << "of " << counts.answers << " answers";
}

TEST_F(PublicSnapshotRaceTest, KNearestIsInclusiveForOneState) {
  constexpr size_t k = 3;
  const Point c = cloak_.Center();
  AddFixed({kToggledId + 1, {c.x - 0.004, c.y}});
  AddFixed({kToggledId + 2, {c.x + 0.004, c.y}});
  const std::vector<Point> users = UserGrid(cloak_);
  const auto must_with = MustHoldPublic(with_, users, k);
  const auto must_without = MustHoldPublic(without_, users, k);
  ASSERT_EQ(must_with, (std::vector<TargetId>{kToggledId, kToggledId + 1,
                                              kToggledId + 2}));
  ASSERT_NE(must_without, must_with);

  const RaceCounts counts = Race(
      [this](bool on) { Toggle(on); },
      [&] {
        auto answer = PrivateKNearestNeighbors(store_, cloak_, k);
        return answer.ok() && (Holds(answer->candidates, must_with) ||
                               Holds(answer->candidates, must_without));
      });
  EXPECT_GT(counts.answers, 0u);
  EXPECT_EQ(counts.failures, 0u) << "of " << counts.answers << " answers";
}

TEST(PrivateSnapshotRaceTest, BuddyNearestIsInclusiveForOneState) {
  std::vector<PrivateTarget> without;
  for (const Point& p : UniformPoints(17)) {
    without.push_back({without.size(), Rect::FromPoint(p).Expanded(0.002)});
  }
  const Rect cloak = EmptiestCloak(UniformPoints(17));
  const PrivateTarget toggled{kToggledId,
                              Rect::FromPoint(cloak.Center()).Expanded(0.001)};
  std::vector<PrivateTarget> with = without;
  with.push_back(toggled);
  PrivateTargetStore store(without);

  const std::vector<Point> users = UserGrid(cloak);
  const auto must_with = MustHoldPrivate(with, users);
  const auto must_without = MustHoldPrivate(without, users);
  ASSERT_EQ(must_with, std::vector<TargetId>{kToggledId});
  ASSERT_NE(must_without, must_with);

  const RaceCounts counts = Race(
      [&](bool on) {
        if (on) {
          store.Insert(toggled);
        } else {
          store.Remove(toggled);
        }
      },
      [&] {
        auto answer = PrivateNearestNeighborOverPrivate(store, cloak);
        return answer.ok() && (Holds(answer->candidates, must_with) ||
                               Holds(answer->candidates, must_without));
      });
  EXPECT_GT(counts.answers, 0u);
  EXPECT_EQ(counts.failures, 0u) << "of " << counts.answers << " answers";
}

}  // namespace
}  // namespace casper::processor
