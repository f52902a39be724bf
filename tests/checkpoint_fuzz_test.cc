#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/casper/messages.h"
#include "src/common/codec.h"
#include "src/common/rng.h"
#include "src/processor/extended_area.h"
#include "src/server/query_server.h"
#include "src/storage/memory_storage.h"
#include "tests/spatial_oracle.h"

/// Seeded byte-mutation fuzz over a saved server's checkpoint page, the
/// one "SRV2" page of public and private records. Pages carry no
/// checksum in memory, so Open's own validation is all that stands
/// between a damaged page and the stores. Each mutant flips 1 to 3
/// bytes of the page and must either
///
///  1. fail Open with kInvalidArgument and leave the server as it was,
///     or
///  2. open a server that answers all seven query kinds exactly as a
///     brute force over the page's own records does (compared as
///     encoded payloads), and in which every stored handle removes
///     cleanly.
///
/// Build it with -DCASPER_SANITIZE=address to also catch out-of-bounds
/// reads on the accepted servers.

namespace casper::server {
namespace {

using processor::PrivateTarget;
using processor::PublicTarget;

constexpr int kMutants = 20480;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Flip 1 to 3 bytes of `page`, each XORed with a non-zero mask.
std::string Mutate(std::string page, Rng* rng) {
  const uint64_t flips = rng->UniformInt(1, 3);
  for (uint64_t f = 0; f < flips; ++f) {
    const size_t pos = rng->UniformInt(0, page.size() - 1);
    page[pos] = static_cast<char>(static_cast<uint8_t>(page[pos]) ^
                                  rng->UniformInt(1, 255));
  }
  return page;
}

/// The records of a checkpoint page that Open accepted.
struct Records {
  std::vector<PublicTarget> targets;
  std::vector<PrivateTarget> regions;
};

Records ReadPage(const std::string& page) {
  wire::Reader r(page);
  r.U32();  // Magic.
  Records records;
  records.targets = ReadList<PublicTarget>(r);
  records.regions = ReadList<PrivateTarget>(r);
  EXPECT_TRUE(r.Finish("checkpoint page").ok());
  return records;
}

template <typename Target>
std::vector<spatial::Entry> Entries(const std::vector<Target>& records,
                                    std::optional<uint64_t> exclude) {
  std::vector<spatial::Entry> entries;
  for (const Target& t : records) {
    if (t.id != exclude) entries.push_back({t.box(), t.id});
  }
  return entries;
}

/// Every record whose box meets `window`, minus `exclude`, canonical.
template <typename Target>
std::vector<Target> Overlapping(const std::vector<Target>& records,
                                const Rect& window,
                                std::optional<uint64_t> exclude = {}) {
  std::vector<Target> out;
  for (const Target& t : records) {
    if (t.id != exclude && t.box().Intersects(window)) out.push_back(t);
  }
  processor::Canonicalize(&out);
  return out;
}

/// Algorithm 2 with four filters, each the MaxDist-nearest eligible
/// record by a linear scan.
template <typename Target>
Result<processor::CandidateList<Target>> BruteAlgorithm2(
    const std::vector<Target>& records, const Rect& cloak,
    std::optional<uint64_t> exclude) {
  const std::vector<spatial::Entry> entries = Entries(records, exclude);
  if (entries.empty()) return Status::NotFound("no eligible record");
  std::array<processor::FilterTarget, 4> filters;
  const std::array<Point, 4> corners = cloak.Corners();
  for (size_t i = 0; i < 4; ++i) {
    const spatial::Neighbor nn =
        spatial::oracle::Knn(entries, corners[i], 1)[0];
    filters[i] = {nn.id, nn.box};
  }
  processor::CandidateList<Target> list;
  list.area = processor::ComputeExtendedArea(cloak, filters);
  list.candidates = Overlapping(records, list.area.a_ext, exclude);
  return list;
}

/// The per-side k-NN extension (private_knn.h's file comment).
double KnnEdgeExtension(double d_i, double d_j, double length) {
  if (std::abs(d_i - d_j) >= length) return std::max(d_i, d_j);
  return (d_i + d_j + length) / 2.0;
}

Result<processor::KnnCandidateList> BruteKnn(
    const std::vector<PublicTarget>& targets, const Rect& cloak, size_t k) {
  if (targets.size() < k) return Status::NotFound("fewer than k targets");
  const std::vector<spatial::Entry> entries = Entries(targets, std::nullopt);
  const std::array<Point, 4> v = cloak.Corners();
  std::array<double, 4> d;
  for (size_t i = 0; i < 4; ++i) {
    d[i] = Distance(v[i],
                    spatial::oracle::Knn(entries, v[i], k).back().box.min);
  }
  processor::KnnCandidateList list;
  list.k = k;
  const double w = cloak.width();
  const double h = cloak.height();
  list.a_ext = cloak.ExpandedPerSide(KnnEdgeExtension(d[3], d[0], h),
                                     KnnEdgeExtension(d[0], d[1], w),
                                     KnnEdgeExtension(d[1], d[2], h),
                                     KnnEdgeExtension(d[2], d[3], w));
  list.candidates = Overlapping(targets, list.a_ext);
  return list;
}

Result<processor::PublicNNCandidates> BrutePublicNearest(
    const std::vector<PrivateTarget>& regions, const Point& q) {
  if (regions.empty()) return Status::NotFound("no regions");
  processor::PublicNNCandidates result;
  result.minimax_bound = kInf;
  for (const PrivateTarget& t : regions) {
    result.minimax_bound = std::min(result.minimax_bound, MaxDist(q, t.region));
  }
  const Rect window = Rect::FromPoint(q).Expanded(result.minimax_bound);
  for (const PrivateTarget& t : Overlapping(regions, window)) {
    const double min_d = MinDist(q, t.region);
    if (min_d <= result.minimax_bound) {
      result.candidates.push_back({t, min_d, MaxDist(q, t.region)});
    }
  }
  std::stable_sort(result.candidates.begin(), result.candidates.end(),
                   [](const auto& a, const auto& b) {
                     return a.min_dist < b.min_dist;
                   });
  return result;
}

processor::RangeCountResult BrutePublicRange(
    const std::vector<PrivateTarget>& regions, const Rect& query) {
  processor::RangeCountResult result;
  result.overlapping = Overlapping(regions, query);
  result.possible = result.overlapping.size();
  for (const PrivateTarget& t : result.overlapping) {
    result.expected += processor::OverlapFraction(t.region, query);
    if (query.Contains(t.region)) ++result.certain;
  }
  return result;
}

/// The clamped cell index of coordinate `v` along one axis.
int Cell(double v, double lo, double cell, int n) {
  const double i = (v - lo) / cell;
  if (!(i > 0.0)) return 0;
  return i >= n - 1 ? n - 1 : static_cast<int>(i);
}

/// The share of [a0, a1] inside [c0, c0 + cell].
double Share(double a0, double a1, double c0, double cell) {
  const double overlap = std::min(a1, c0 + cell) - std::max(a0, c0);
  return overlap > 0.0 ? overlap / (a1 - a0) : 0.0;
}

/// Each region meeting `extent` spreads one user over every cell by its
/// overlap, a zero-area region all into its min corner's cell.
std::vector<double> BruteDensity(const std::vector<PrivateTarget>& regions,
                                 const Rect& extent, int cols, int rows) {
  const double cw = extent.width() / cols;
  const double ch = extent.height() / rows;
  std::vector<double> cells(static_cast<size_t>(cols) * rows, 0.0);
  for (const PrivateTarget& t : regions) {
    const Rect& r = t.region;
    if (!r.Intersects(extent)) continue;
    if (r.Area() <= 0.0) {
      cells[static_cast<size_t>(Cell(r.min.y, extent.min.y, ch, rows)) * cols +
            Cell(r.min.x, extent.min.x, cw, cols)] += 1.0;
      continue;
    }
    for (int row = 0; row < rows; ++row) {
      const double sy = Share(r.min.y, r.max.y, extent.min.y + row * ch, ch);
      for (int col = 0; col < cols && sy > 0.0; ++col) {
        cells[static_cast<size_t>(row) * cols + col] +=
            Share(r.min.x, r.max.x, extent.min.x + col * cw, cw) * sy;
      }
    }
  }
  return cells;
}

/// The payload a brute force over `records` gives for `query`.
Result<ServerPayload> BruteForce(const Records& records,
                                 const CloakedQueryMsg& query) {
  switch (query.kind) {
    case QueryKind::kNearestPublic: {
      CASPER_ASSIGN_OR_RETURN(
          list, BruteAlgorithm2(records.targets, query.cloak, std::nullopt));
      return ServerPayload(std::move(list));
    }
    case QueryKind::kKNearestPublic: {
      CASPER_ASSIGN_OR_RETURN(list,
                              BruteKnn(records.targets, query.cloak, query.k));
      return ServerPayload(std::move(list));
    }
    case QueryKind::kRangePublic: {
      processor::PublicRangeCandidates range;
      range.search_window = query.cloak.Expanded(query.radius);
      range.candidates = Overlapping(records.targets, range.search_window);
      return ServerPayload(std::move(range));
    }
    case QueryKind::kNearestPrivate: {
      CASPER_ASSIGN_OR_RETURN(
          list, BruteAlgorithm2(records.regions, query.cloak,
                                query.has_exclude
                                    ? std::optional(query.exclude_handle)
                                    : std::nullopt));
      return ServerPayload(std::move(list));
    }
    case QueryKind::kPublicNearest: {
      CASPER_ASSIGN_OR_RETURN(nn,
                              BrutePublicNearest(records.regions, query.point));
      return ServerPayload(std::move(nn));
    }
    case QueryKind::kPublicRange:
      return ServerPayload(BrutePublicRange(records.regions, query.region));
    case QueryKind::kDensity:
      break;
  }
  return Status::InvalidArgument("density is checked cell by cell");
}

std::vector<CloakedQueryMsg> Queries() {
  std::vector<CloakedQueryMsg> queries;
  for (const Rect& cloak : {Rect(0.3, 0.3, 0.45, 0.4), Rect(0, 0, 1, 1)}) {
    CloakedQueryMsg q;
    q.cloak = cloak;
    q.kind = QueryKind::kNearestPublic;
    queries.push_back(q);
    q.kind = QueryKind::kKNearestPublic;
    q.k = 3;
    queries.push_back(q);
    q.kind = QueryKind::kRangePublic;
    q.radius = 0.1;
    queries.push_back(q);
    q.kind = QueryKind::kNearestPrivate;
    queries.push_back(q);
    q.has_exclude = true;
    q.exclude_handle = 5;
    queries.push_back(q);
  }
  for (const Point& p : {Point{0.6, 0.2}, Point{-0.5, 1.5}}) {
    CloakedQueryMsg q;
    q.kind = QueryKind::kPublicNearest;
    q.point = p;
    queries.push_back(q);
  }
  for (const Rect& region : {Rect(0.2, 0.2, 0.7, 0.6), Rect(-1, -1, 2, 2)}) {
    CloakedQueryMsg q;
    q.kind = QueryKind::kPublicRange;
    q.region = region;
    queries.push_back(q);
  }
  CloakedQueryMsg density;
  density.kind = QueryKind::kDensity;
  density.cols = 8;
  density.rows = 8;
  queries.push_back(density);
  return queries;
}

/// `server` answers every query like a brute force over `records`.
void ExpectBruteForceAnswers(const QueryServer& server,
                             const Records& records) {
  ASSERT_EQ(
      processor::PublicTargetStore::Snapshot(server.public_store()).size(),
      records.targets.size());
  ASSERT_EQ(
      processor::PrivateTargetStore::Snapshot(server.private_store()).size(),
      records.regions.size());
  for (const CloakedQueryMsg& query : Queries()) {
    const auto kind = static_cast<int>(query.kind);
    Result<CandidateListMsg> got = server.Execute(query);
    if (query.kind == QueryKind::kDensity) {
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const auto& map = std::get<processor::DensityMap>(got->payload);
      const std::vector<double> want =
          BruteDensity(records.regions, server.options().density_extent,
                       query.cols, query.rows);
      for (int row = 0; row < query.rows; ++row) {
        for (int col = 0; col < query.cols; ++col) {
          ASSERT_NEAR(map.At(col, row),
                      want[static_cast<size_t>(row) * query.cols + col], 1e-9)
              << "cell " << col << "," << row;
        }
      }
      continue;
    }
    Result<ServerPayload> want = BruteForce(records, query);
    ASSERT_EQ(got.ok(), want.ok())
        << "kind " << kind << ": " << got.status().ToString() << " vs "
        << want.status().ToString();
    if (!got.ok()) {
      ASSERT_EQ(got.status().code(), want.status().code()) << "kind " << kind;
      continue;
    }
    CandidateListMsg expected;
    expected.kind = query.kind;
    expected.payload = std::move(want).value();
    got->processor_seconds = 0.0;
    ASSERT_EQ(Encode(*got), Encode(expected)) << "kind " << kind;
  }
}

RegionRemoveMsg Remove(uint64_t handle) {
  RegionRemoveMsg msg;
  msg.handle = handle;
  return msg;
}

class ServerCheckpointFuzzTest : public ::testing::Test {
 protected:
  /// A server with public targets, twin ids among them, and regions
  /// from a snapshot plus upserts, rotations and a remove on top.
  void SetUp() override {
    Rng rng(0x5E41);
    QueryServer server{QueryServerOptions{}};
    std::vector<PublicTarget> targets;
    for (uint64_t id = 1; id <= 40; ++id) {
      targets.push_back({id, rng.PointIn(Rect(0, 0, 1, 1))});
    }
    targets.push_back({7, rng.PointIn(Rect(0, 0, 1, 1))});
    server.SetPublicTargets(targets);
    SnapshotMsg snapshot;
    for (uint64_t handle = 1; handle <= 60; ++handle) {
      snapshot.regions.push_back({handle, RandomRegion(&rng)});
    }
    ASSERT_TRUE(server.Load(snapshot).ok());
    for (uint64_t handle = 61; handle <= 80; ++handle) {
      RegionUpsertMsg upsert;
      upsert.handle = handle;
      upsert.region = RandomRegion(&rng);
      upsert.has_replaces = handle % 2 == 0;
      upsert.replaces = handle - 60;
      ASSERT_TRUE(server.Apply(upsert).ok());
    }
    ASSERT_TRUE(server.Apply(Remove(3)).ok());
    ASSERT_TRUE(server.Save(&sm_).ok());
    auto page = sm_.Root(QueryServer::kRootSlot);
    ASSERT_TRUE(page.ok());
    page_id_ = *page;
    ASSERT_TRUE(sm_.Load(page_id_, &page_).ok());
    records_ = ReadPage(page_);
    ASSERT_EQ(records_.targets.size(), 41u);
    ASSERT_EQ(records_.regions.size(), 69u);
  }

  static Rect RandomRegion(Rng* rng) {
    const Point c = rng->PointIn(Rect(0, 0, 1, 1));
    return Rect(c.x, c.y, c.x + rng->Uniform(0.0, 0.05),
                c.y + rng->Uniform(0.0, 0.05));
  }

  /// Every stored handle removes cleanly, and then no region is left.
  static void ExpectHandlesRemove(QueryServer* server,
                                  const Records& records) {
    for (const PrivateTarget& target : records.regions) {
      const Status removed = server->Apply(Remove(target.id));
      ASSERT_TRUE(removed.ok()) << target.id << ": " << removed.ToString();
    }
    EXPECT_TRUE(
        processor::PrivateTargetStore::Snapshot(server->private_store())
            .empty());
  }

  storage::MemoryStorageManager sm_;
  storage::PageId page_id_ = storage::kNoPage;
  std::string page_;
  Records records_;
};

TEST_F(ServerCheckpointFuzzTest, CheckpointPageMutants) {
  {
    QueryServer clean{QueryServerOptions{}};
    ASSERT_TRUE(clean.Open(&sm_).ok());
    ExpectBruteForceAnswers(clean, records_);
    ExpectHandlesRemove(&clean, records_);
  }
  // A server that already holds state, so a failed Open can be seen to
  // leave it alone.
  const PrivateTarget kept{999, Rect(0.1, 0.1, 0.2, 0.2)};
  Rng rng(0xF004);
  size_t accepted = 0;
  for (int m = 0; m < kMutants; ++m) {
    const std::string mutant = Mutate(page_, &rng);
    ASSERT_TRUE(sm_.Store(page_id_, mutant).ok());
    QueryServer server{QueryServerOptions{}};
    server.SetPublicTargets({{1, Point{0.5, 0.5}}});
    RegionUpsertMsg upsert;
    upsert.handle = kept.id;
    upsert.region = kept.region;
    ASSERT_TRUE(server.Apply(upsert).ok());
    const Status opened = server.Open(&sm_);
    if (opened.ok()) {
      ++accepted;
      const Records records = ReadPage(mutant);
      ExpectBruteForceAnswers(server, records);
      ExpectHandlesRemove(&server, records);
    } else {
      ASSERT_EQ(opened.code(), StatusCode::kInvalidArgument)
          << opened.ToString();
      ASSERT_EQ(processor::PublicTargetStore::Snapshot(server.public_store())
                    .Overlapping(Rect(-kInf, -kInf, kInf, kInf)),
                (std::vector<PublicTarget>{{1, Point{0.5, 0.5}}}));
      ASSERT_EQ(processor::PrivateTargetStore::Snapshot(server.private_store())
                    .Overlapping(Rect(-kInf, -kInf, kInf, kInf)),
                std::vector<PrivateTarget>{kept});
    }
    if (HasFatalFailure()) {
      ADD_FAILURE() << "mutant " << m;
      return;
    }
  }
  // Mutants that change an id or a coordinate open, so the accepted
  // branch runs.
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace casper::server
