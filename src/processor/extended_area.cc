#include "src/processor/extended_area.h"

#include <algorithm>

#include "src/common/status.h"

namespace casper::processor {

ExtendedArea ComputeExtendedArea(const Rect& cloak,
                                 const std::array<FilterTarget, 4>& filters) {
  CASPER_DCHECK(!cloak.is_empty());
  const std::array<Point, 4> v = cloak.Corners();

  ExtendedArea result;
  for (size_t e = 0; e < 4; ++e) {
    const size_t i = e;
    const size_t j = (e + 1) % 4;
    const FilterTarget& fi = filters[i];
    const FilterTarget& fj = filters[j];
    const Segment edge{v[i], v[j]};

    const double d_i = MaxDist(v[i], fi.region);
    const double d_j = MaxDist(v[j], fj.region);
    double d_m = 0.0;

    EdgeExtension ext;
    // One filter at both ends bounds the edge by max(d_i, d_j), MaxDist
    // being convex. Stores may hold twin ids, so a filter is its id and
    // its region: two targets sharing an id are still two filters.
    if (fi.id != fj.id || fi.region != fj.region) {
      // Anchor segment endpoints: furthest corners from the reverse
      // vertices (for point targets these are the points themselves).
      const Point s = FurthestCorner(v[j], fi.region);
      const Point t = FurthestCorner(v[i], fj.region);
      Point m;
      if (BisectorEdgeIntersection(s, t, edge, &m)) {
        ext.has_middle = true;
        ext.middle = m;
        d_m = Distance(m, s);  // == Distance(m, t) up to rounding.
      }
    }
    ext.max_d = std::max({d_i, d_j, d_m});
    result.edges[e] = ext;
  }

  result.a_ext = cloak.ExpandedPerSide(
      /*left=*/result.edges[3].max_d, /*bottom=*/result.edges[0].max_d,
      /*right=*/result.edges[1].max_d, /*top=*/result.edges[2].max_d);
  return result;
}

Result<ExtendedArea> ComputeExtendedAreaForPolicy(
    const Rect& cloak, FilterPolicy policy, const NearestTargetFn& nearest) {
  if (policy != FilterPolicy::kTwoFilters) {
    CASPER_ASSIGN_OR_RETURN(filters, SelectFilters(cloak, policy, nearest));
    return ComputeExtendedArea(cloak, filters);
  }

  if (cloak.is_empty()) {
    return Status::InvalidArgument("cloaked area must be non-empty");
  }
  const std::array<Point, 4> v = cloak.Corners();
  CASPER_ASSIGN_OR_RETURN(f0, nearest(v[0]));
  CASPER_ASSIGN_OR_RETURN(f2, nearest(v[2]));

  ExtendedArea best;
  bool have_best = false;
  for (int assign1 = 0; assign1 < 2; ++assign1) {
    for (int assign3 = 0; assign3 < 2; ++assign3) {
      std::array<FilterTarget, 4> filters = {
          f0, assign1 == 0 ? f0 : f2, f2, assign3 == 0 ? f0 : f2};
      const ExtendedArea area = ComputeExtendedArea(cloak, filters);
      if (!have_best || area.a_ext.Area() < best.a_ext.Area()) {
        best = area;
        have_best = true;
      }
    }
  }
  return best;
}

}  // namespace casper::processor
