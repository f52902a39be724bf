#include "src/processor/extended_area.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace casper::processor {
namespace {

TEST(ExtendedAreaTest, ContainsCloak) {
  const Rect cloak(0.4, 0.4, 0.6, 0.6);
  std::array<FilterTarget, 4> filters = {
      FilterTarget{0, Rect::FromPoint({0.3, 0.3})},
      FilterTarget{1, Rect::FromPoint({0.7, 0.3})},
      FilterTarget{2, Rect::FromPoint({0.7, 0.7})},
      FilterTarget{3, Rect::FromPoint({0.3, 0.7})}};
  const ExtendedArea area = ComputeExtendedArea(cloak, filters);
  EXPECT_TRUE(area.a_ext.Contains(cloak));
  for (const auto& e : area.edges) EXPECT_GE(e.max_d, 0.0);
}

TEST(ExtendedAreaTest, SameFilterEverywhereUsesVertexDistances) {
  // One shared filter: no middle points; each side extends by the
  // larger corner distance of that edge.
  const Rect cloak(0, 0, 1, 1);
  const Point t{0.5, -1.0};  // Below the cloak.
  std::array<FilterTarget, 4> filters;
  filters.fill(FilterTarget{7, Rect::FromPoint(t)});
  const ExtendedArea area = ComputeExtendedArea(cloak, filters);
  for (const auto& e : area.edges) EXPECT_FALSE(e.has_middle);

  const auto v = cloak.Corners();
  // Bottom edge (v0, v1): both corners at distance sqrt(0.25 + 1).
  EXPECT_NEAR(area.edges[0].max_d, Distance(v[0], t), 1e-12);
  // Right edge (v1, v2): v2 is farther.
  EXPECT_NEAR(area.edges[1].max_d, Distance(v[2], t), 1e-12);
  // Per-side expansion matches the edge extents.
  EXPECT_NEAR(area.a_ext.min.y, cloak.min.y - area.edges[0].max_d, 1e-12);
  EXPECT_NEAR(area.a_ext.max.x, cloak.max.x + area.edges[1].max_d, 1e-12);
  EXPECT_NEAR(area.a_ext.max.y, cloak.max.y + area.edges[2].max_d, 1e-12);
  EXPECT_NEAR(area.a_ext.min.x, cloak.min.x - area.edges[3].max_d, 1e-12);
}

TEST(ExtendedAreaTest, MiddlePointOnEdgeAndEquidistant) {
  const Rect cloak(0, 0, 1, 1);
  // Distinct filters for v0 and v1, symmetric about x = 0.5.
  const Point t0{0.2, -0.5};
  const Point t1{0.8, -0.5};
  std::array<FilterTarget, 4> filters = {
      FilterTarget{0, Rect::FromPoint(t0)},
      FilterTarget{1, Rect::FromPoint(t1)},
      FilterTarget{1, Rect::FromPoint(t1)},
      FilterTarget{0, Rect::FromPoint(t0)}};
  const ExtendedArea area = ComputeExtendedArea(cloak, filters);
  const EdgeExtension& bottom = area.edges[0];
  ASSERT_TRUE(bottom.has_middle);
  EXPECT_NEAR(bottom.middle.x, 0.5, 1e-12);
  EXPECT_NEAR(bottom.middle.y, 0.0, 1e-12);
  EXPECT_NEAR(Distance(bottom.middle, t0), Distance(bottom.middle, t1),
              1e-12);
  // max_d covers the middle-point distance, which here exceeds both
  // vertex distances.
  EXPECT_NEAR(bottom.max_d, Distance(bottom.middle, t0), 1e-12);
  EXPECT_GT(bottom.max_d, Distance(Point{0, 0}, t0));
}

TEST(ExtendedAreaTest, PrivateRegionsUseFurthestCorners) {
  const Rect cloak(0.4, 0.4, 0.6, 0.6);
  // A single region filter shared by all vertices.
  const Rect region(0.0, 0.0, 0.2, 0.2);
  std::array<FilterTarget, 4> filters;
  filters.fill(FilterTarget{3, region});
  const ExtendedArea area = ComputeExtendedArea(cloak, filters);
  const auto v = cloak.Corners();
  // Bottom edge: max over corners of MaxDist(v, region).
  const double expect =
      std::max(MaxDist(v[0], region), MaxDist(v[1], region));
  EXPECT_NEAR(area.edges[0].max_d, expect, 1e-12);
}

TEST(ExtendedAreaTest, ExtensionCoversEveryEdgePointNNRadius) {
  // Property: for every point p on the cloak boundary, the circle
  // around p with radius MaxDist(p, nearest-filter-region) must fit
  // inside A_EXT in the outward direction of p's edge. We verify the
  // weaker but sufficient check used by the proofs: the per-edge
  // extension is at least the distance from any sampled edge point to
  // its nearer endpoint filter.
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const Point c = rng.PointIn(Rect(0.2, 0.2, 0.6, 0.6));
    const Rect cloak(c.x, c.y, c.x + rng.Uniform(0.05, 0.3),
                     c.y + rng.Uniform(0.05, 0.3));
    std::array<FilterTarget, 4> filters;
    for (uint64_t i = 0; i < 4; ++i) {
      filters[i] = FilterTarget{i, Rect::FromPoint(rng.PointIn(
                                       Rect(0, 0, 1, 1)))};
    }
    const ExtendedArea area = ComputeExtendedArea(cloak, filters);
    const auto v = cloak.Corners();
    for (size_t e = 0; e < 4; ++e) {
      const Point a = v[e];
      const Point b = v[(e + 1) % 4];
      const Rect ri = filters[e].region;
      const Rect rj = filters[(e + 1) % 4].region;
      for (int s = 0; s <= 20; ++s) {
        const double u = s / 20.0;
        const Point p{a.x + u * (b.x - a.x), a.y + u * (b.y - a.y)};
        const double bound = std::min(MaxDist(p, ri), MaxDist(p, rj));
        EXPECT_LE(bound, area.edges[e].max_d + 1e-9)
            << "edge " << e << " s " << s;
      }
    }
  }
}

TEST(ExtendedAreaTest, IdenticalFiltersNoMiddleEvenIfRegionsEqual) {
  const Rect cloak(0, 0, 1, 1);
  std::array<FilterTarget, 4> filters;
  filters.fill(FilterTarget{5, Rect(0.4, -0.4, 0.6, -0.2)});
  const ExtendedArea area = ComputeExtendedArea(cloak, filters);
  for (const auto& e : area.edges) EXPECT_FALSE(e.has_middle);
}

TEST(ExtendedAreaTest, TwinIdFiltersStillGetAMiddlePoint) {
  // Two different targets that share id 7 filter the bottom edge's two
  // ends. They are two filters: the bisector crosses the edge at
  // (0.5, 0), 0.6 from either, and that bounds the bottom extension.
  const Rect cloak(0, 0, 1, 1);
  const FilterTarget left{7, Rect::FromPoint({-0.1, 0.0})};
  const FilterTarget right{7, Rect::FromPoint({1.1, 0.0})};
  const ExtendedArea area =
      ComputeExtendedArea(cloak, {left, right, right, left});
  ASSERT_TRUE(area.edges[0].has_middle);
  EXPECT_NEAR(area.edges[0].middle.x, 0.5, 1e-12);
  EXPECT_NEAR(area.edges[0].max_d, 0.6, 1e-12);
  EXPECT_NEAR(area.a_ext.min.y, -0.6, 1e-12);
  // The same target at both ends of an edge is still one filter.
  EXPECT_FALSE(area.edges[1].has_middle);
  EXPECT_FALSE(area.edges[3].has_middle);
}

}  // namespace
}  // namespace casper::processor
