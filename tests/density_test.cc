#include "src/processor/density.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/anonymizer/pyramid_config.h"
#include "src/casper/workload.h"
#include "src/common/rng.h"

namespace casper::processor {
namespace {

/// The map as computed before cells were summed in fixed point: the
/// overlapping regions in canonical order, each adding
/// IntersectionArea / Area to every cell it touches in double, so the
/// rounding follows an order fixed by the stored multiset.
std::vector<double> ReferenceDensity(const std::vector<PrivateTarget>& stored,
                                     const Rect& extent, int cols, int rows) {
  std::vector<PrivateTarget> targets;
  for (const PrivateTarget& t : stored) {
    if (t.region.Intersects(extent)) targets.push_back(t);
  }
  Canonicalize(&targets);
  const DensityMap grid(extent, cols, rows);
  const double cell_w = extent.width() / cols;
  const double cell_h = extent.height() / rows;
  const auto index = [](double v, double lo, double cell, int n) {
    return std::clamp(static_cast<int>((v - lo) / cell), 0, n - 1);
  };
  std::vector<double> cells(static_cast<size_t>(cols) * rows, 0.0);
  for (const PrivateTarget& t : targets) {
    const Rect& r = t.region;
    const double area = r.Area();
    const int col_lo = index(r.min.x, extent.min.x, cell_w, cols);
    const int row_lo = index(r.min.y, extent.min.y, cell_h, rows);
    if (area <= 0.0) {
      cells[static_cast<size_t>(row_lo) * cols + col_lo] += 1.0;
      continue;
    }
    const int col_hi = index(r.max.x, extent.min.x, cell_w, cols);
    const int row_hi = index(r.max.y, extent.min.y, cell_h, rows);
    for (int row = row_lo; row <= row_hi; ++row) {
      for (int col = col_lo; col <= col_hi; ++col) {
        const double overlap = r.IntersectionArea(grid.CellRect(col, row));
        if (overlap > 0.0) {
          cells[static_cast<size_t>(row) * cols + col] += overlap / area;
        }
      }
    }
  }
  return cells;
}

/// Regions of every shape a map meets: `n` cell-aligned pyramid
/// cloaks of 1..8 lowest-level cells a side and `n` uniformly placed
/// boxes, some of them points and some reaching past the unit square.
std::vector<PrivateTarget> MixedRegions(size_t n, Rng* rng) {
  anonymizer::PyramidConfig pyramid;
  std::vector<PrivateTarget> regions;
  for (uint64_t i = 0; i < n; ++i) {
    regions.push_back(
        {rng->UniformInt(0, UINT64_MAX),
         workload::RandomCellAlignedRegion(
             pyramid, static_cast<int>(rng->UniformInt(1, 8)),
             static_cast<int>(rng->UniformInt(1, 8)), rng)});
    const Point c = rng->PointIn(Rect(-0.1, -0.1, 1.0, 1.0));
    const double side = i % 10 == 0 ? 0.0 : rng->Uniform(0.001, 0.15);
    regions.push_back({rng->UniformInt(0, UINT64_MAX),
                       Rect(c.x, c.y, c.x + side, c.y + side)});
  }
  return regions;
}

void ExpectMatchesReference(const std::vector<PrivateTarget>& regions,
                            const Rect& extent, int cols, int rows) {
  const PrivateTargetStore store(regions);
  auto map = ExpectedDensity(store, extent, cols, rows);
  ASSERT_TRUE(map.ok()) << map.status().message();
  const std::vector<double> want =
      ReferenceDensity(regions, extent, cols, rows);
  for (size_t i = 0; i < want.size(); ++i) {
    // Relative, or absolute for cells near zero.
    ASSERT_NEAR(map->cells()[i], want[i],
                1e-12 * std::max(1.0, std::abs(want[i])))
        << cols << "x" << rows << " grid, cell " << i;
  }
}

TEST(DensityTest, Validation) {
  PrivateTargetStore store;
  EXPECT_EQ(ExpectedDensity(store, Rect(), 2, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExpectedDensity(store, Rect(0, 0, 1, 1), 0, 2).status().code(),
            StatusCode::kInvalidArgument);
  // A zero-width extent has no cells to spread over.
  EXPECT_EQ(ExpectedDensity(store, Rect(0, 0, 0, 1), 2, 2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DensityTest, GridsAboveTheCapAreRejectedBeforeAllocating) {
  PrivateTargetStore store;
  store.Insert({0, Rect(0.1, 0.1, 0.2, 0.2)});
  const Rect extent(0, 0, 1, 1);
  EXPECT_TRUE(ExpectedDensity(store, extent, 256, 256).ok());
  EXPECT_TRUE(ExpectedDensity(store, extent, 1 << 16, 1).ok());
  const int max = std::numeric_limits<int>::max();
  for (const auto& [cols, rows] : {std::pair{257, 256}, std::pair{1 << 16, 2},
                                   std::pair{max, max}, std::pair{max, 1}}) {
    EXPECT_EQ(ExpectedDensity(store, extent, cols, rows).status().code(),
              StatusCode::kInvalidArgument)
        << cols << "x" << rows;
  }
}

TEST(DensityTest, MatchesTheCanonicalDoubleSumReference) {
  Rng rng(4);
  const std::vector<PrivateTarget> regions = MixedRegions(1500, &rng);
  // The unit square, and extents that regions reach out of.
  for (const Rect& extent :
       {Rect(0, 0, 1, 1), Rect(0.25, 0.125, 0.75, 0.875),
        Rect(0.3, 0.3, 0.33, 0.31)}) {
    for (const auto& [cols, rows] :
         {std::pair{1, 1}, std::pair{16, 16}, std::pair{7, 3},
          std::pair{64, 64}}) {
      ExpectMatchesReference(regions, extent, cols, rows);
    }
  }
}

TEST(DensityTest, MatchesTheReferenceOnPyramidCloaks) {
  // Cloaks as the anonymizer emits them: whole pyramid cells, at every
  // level, against grids aligned with the pyramid and grids that are
  // not.
  Rng rng(5);
  anonymizer::PyramidConfig pyramid;
  std::vector<PrivateTarget> cloaks;
  for (uint64_t i = 0; i < 3000; ++i) {
    const uint32_t level = static_cast<uint32_t>(rng.UniformInt(2, 9));
    const uint64_t dim = uint64_t{1} << level;
    const anonymizer::CellId cell{
        level, static_cast<uint32_t>(rng.UniformInt(0, dim - 1)),
        static_cast<uint32_t>(rng.UniformInt(0, dim - 1))};
    cloaks.push_back({rng.UniformInt(0, UINT64_MAX), pyramid.CellRect(cell)});
  }
  for (int grid : {4, 16, 10, 32}) {
    ExpectMatchesReference(cloaks, pyramid.space, grid, grid);
  }
}

TEST(DensityTest, MapIsIdenticalWhateverTheBuildOrderAndChurn) {
  Rng rng(6);
  // Every region is stored under its own id and again under a twin id
  // shared with another region.
  std::vector<PrivateTarget> regions = MixedRegions(1000, &rng);
  const size_t distinct = regions.size();
  for (size_t i = 0; i < distinct; ++i) {
    regions.push_back({regions[(i * 7) % distinct].id, regions[i].region});
  }
  const PrivateTargetStore bulk(regions);
  PrivateTargetStore forward;
  PrivateTargetStore reverse;
  for (const PrivateTarget& t : regions) forward.Insert(t);
  for (auto t = regions.rbegin(); t != regions.rend(); ++t) reverse.Insert(*t);
  // Bulk-load with 1,000 extra regions, remove and re-insert every 9th
  // stored one, then remove the extras: the overlay repacks several
  // times, so the churned store's bases and delta differ from every
  // other store's.
  std::vector<PrivateTarget> with_extra = regions;
  const std::vector<PrivateTarget> extra = MixedRegions(500, &rng);
  with_extra.insert(with_extra.end(), extra.begin(), extra.end());
  PrivateTargetStore churned(with_extra);
  for (size_t i = 0; i < regions.size(); i += 9) {
    ASSERT_TRUE(churned.Remove(regions[i]));
    churned.Insert(regions[i]);
  }
  for (const PrivateTarget& t : extra) ASSERT_TRUE(churned.Remove(t));
  ASSERT_GT(churned.epoch_stats().rebuilds, 0u);

  for (const Rect& extent : {Rect(0, 0, 1, 1), Rect(0.2, 0.1, 0.7, 0.9)}) {
    for (int grid : {1, 16, 33}) {
      auto want = ExpectedDensity(bulk, extent, grid, grid);
      ASSERT_TRUE(want.ok());
      for (const PrivateTargetStore* store : {&forward, &reverse, &churned}) {
        auto got = ExpectedDensity(*store, extent, grid, grid);
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(*got == *want)
            << grid << "x" << grid << " grid, store "
            << (store == &forward ? "forward" : store == &reverse ? "reverse"
                                                                  : "churned");
      }
    }
  }
}

TEST(DensityTest, PointsInOneCellCountExactly) {
  Rng rng(7);
  // All inside cell (1, 2) of a 4x4 grid over the unit square: half are
  // points, half zero-height segments.
  for (size_t n : {1u, 3u, 1000u, 4099u}) {
    std::vector<PrivateTarget> points;
    for (uint64_t i = 0; i < n; ++i) {
      const Point p = rng.PointIn(Rect(0.26, 0.51, 0.49, 0.74));
      points.push_back({i, i % 2 == 0 ? Rect::FromPoint(p)
                                      : Rect(p.x, p.y, p.x + 0.003, p.y)});
    }
    const PrivateTargetStore store(points);
    auto map = ExpectedDensity(store, Rect(0, 0, 1, 1), 4, 4);
    ASSERT_TRUE(map.ok());
    for (int row = 0; row < 4; ++row) {
      for (int col = 0; col < 4; ++col) {
        EXPECT_EQ(map->At(col, row),
                  col == 1 && row == 2 ? static_cast<double>(n) : 0.0);
      }
    }
  }
}

TEST(DensityTest, EmptyStoreIsZero) {
  PrivateTargetStore store;
  auto map = ExpectedDensity(store, Rect(0, 0, 1, 1), 4, 4);
  ASSERT_TRUE(map.ok());
  EXPECT_DOUBLE_EQ(map->Total(), 0.0);
}

TEST(DensityTest, RegionInsideOneCell) {
  PrivateTargetStore store;
  store.Insert({0, Rect(0.1, 0.1, 0.2, 0.2)});
  auto map = ExpectedDensity(store, Rect(0, 0, 1, 1), 2, 2);
  ASSERT_TRUE(map.ok());
  EXPECT_DOUBLE_EQ(map->At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(map->At(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(map->At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(map->At(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(map->Total(), 1.0);
}

TEST(DensityTest, RegionSplitsAcrossCells) {
  PrivateTargetStore store;
  // Centered square overlapping all four quadrants equally.
  store.Insert({0, Rect(0.4, 0.4, 0.6, 0.6)});
  auto map = ExpectedDensity(store, Rect(0, 0, 1, 1), 2, 2);
  ASSERT_TRUE(map.ok());
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_NEAR(map->At(c, r), 0.25, 1e-12);
    }
  }
  EXPECT_NEAR(map->Total(), 1.0, 1e-12);
}

TEST(DensityTest, DegenerateRegionCountsOnce) {
  PrivateTargetStore store;
  store.Insert({0, Rect::FromPoint({0.75, 0.25})});
  auto map = ExpectedDensity(store, Rect(0, 0, 1, 1), 2, 2);
  ASSERT_TRUE(map.ok());
  EXPECT_DOUBLE_EQ(map->At(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(map->Total(), 1.0);
}

TEST(DensityTest, TotalEqualsPopulationWhenAllInside) {
  Rng rng(1);
  PrivateTargetStore store;
  const size_t n = 200;
  for (uint64_t i = 0; i < n; ++i) {
    const Point c = rng.PointIn(Rect(0, 0, 0.9, 0.9));
    store.Insert({i, Rect(c.x, c.y, c.x + 0.1, c.y + 0.1)});
  }
  auto map = ExpectedDensity(store, Rect(0, 0, 1, 1), 8, 8);
  ASSERT_TRUE(map.ok());
  EXPECT_NEAR(map->Total(), static_cast<double>(n), 1e-9);
}

TEST(DensityTest, MatchesPerCellRangeCounts) {
  // The density map must equal running PublicRangeCount per cell.
  Rng rng(2);
  std::vector<PrivateTarget> regions;
  for (uint64_t i = 0; i < 100; ++i) {
    const Point c = rng.PointIn(Rect(0, 0, 0.8, 0.8));
    regions.push_back({i, Rect(c.x, c.y, c.x + rng.Uniform(0.01, 0.2),
                               c.y + rng.Uniform(0.01, 0.2))});
  }
  PrivateTargetStore store(regions);
  auto map = ExpectedDensity(store, Rect(0, 0, 1, 1), 4, 4);
  ASSERT_TRUE(map.ok());
  for (int row = 0; row < 4; ++row) {
    for (int col = 0; col < 4; ++col) {
      const Rect cell = map->CellRect(col, row);
      double expect = 0.0;
      for (const auto& r : regions) {
        if (r.region.Area() > 0.0) {
          expect += r.region.IntersectionArea(cell) / r.region.Area();
        }
      }
      EXPECT_NEAR(map->At(col, row), expect, 1e-9);
    }
  }
}

TEST(DensityTest, SkewedPopulationShowsSkew) {
  Rng rng(3);
  PrivateTargetStore store;
  for (uint64_t i = 0; i < 100; ++i) {
    const Point c = rng.PointIn(Rect(0, 0, 0.4, 0.4));  // All in the SW.
    store.Insert({i, Rect(c.x, c.y, c.x + 0.05, c.y + 0.05)});
  }
  auto map = ExpectedDensity(store, Rect(0, 0, 1, 1), 2, 2);
  ASSERT_TRUE(map.ok());
  EXPECT_GT(map->At(0, 0), 90.0);
  EXPECT_LT(map->At(1, 1), 1.0);
}

}  // namespace
}  // namespace casper::processor
