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

template <typename Snapshot>
Result<ExtendedArea> ComputeExtendedAreaForPolicy(
    const Snapshot& store, const Rect& cloak, FilterPolicy policy,
    std::optional<TargetId> exclude) {
  if (cloak.is_empty()) {
    return Status::InvalidArgument("cloaked area must be non-empty");
  }
  const auto filter = [&](const Point& q) -> Result<FilterTarget> {
    const auto nn = store.KNearest(q, 1, exclude);
    if (nn.empty()) return Status::NotFound("no eligible target in store");
    return FilterTarget{nn[0].id, nn[0].box()};
  };
  const std::array<Point, 4> v = cloak.Corners();
  switch (policy) {
    case FilterPolicy::kOneFilter: {
      CASPER_ASSIGN_OR_RETURN(f, filter(cloak.Center()));
      return ComputeExtendedArea(cloak, {f, f, f, f});
    }
    case FilterPolicy::kTwoFilters: {
      CASPER_ASSIGN_OR_RETURN(f0, filter(v[0]));
      CASPER_ASSIGN_OR_RETURN(f2, filter(v[2]));
      ExtendedArea best;
      bool have_best = false;
      for (const FilterTarget& f1 : {f0, f2}) {
        for (const FilterTarget& f3 : {f0, f2}) {
          const ExtendedArea area =
              ComputeExtendedArea(cloak, {f0, f1, f2, f3});
          if (!have_best || area.a_ext.Area() < best.a_ext.Area()) {
            best = area;
            have_best = true;
          }
        }
      }
      return best;
    }
    case FilterPolicy::kFourFilters: {
      std::array<FilterTarget, 4> filters;
      for (size_t i = 0; i < 4; ++i) {
        CASPER_ASSIGN_OR_RETURN(f, filter(v[i]));
        filters[i] = f;
      }
      return ComputeExtendedArea(cloak, filters);
    }
  }
  return Status::InvalidArgument("unknown filter policy");
}

template Result<ExtendedArea> ComputeExtendedAreaForPolicy(
    const PublicTargetStore::Snapshot&, const Rect&, FilterPolicy,
    std::optional<TargetId>);
template Result<ExtendedArea> ComputeExtendedAreaForPolicy(
    const PrivateTargetStore::Snapshot&, const Rect&, FilterPolicy,
    std::optional<TargetId>);

}  // namespace casper::processor
