#ifndef CASPER_PROCESSOR_EXTENDED_AREA_H_
#define CASPER_PROCESSOR_EXTENDED_AREA_H_

#include <array>
#include <optional>

#include "src/common/geometry.h"
#include "src/common/result.h"
#include "src/processor/target_store.h"

/// \file
/// Steps 1 to 3 of Algorithm 2 (§5.1.1) generalized to rectangular
/// filter regions (§5.2.1): the filter per cloak vertex, the
/// middle-point construction per cloak edge and the per-side extension
/// distances that form A_EXT. A public point target is its degenerate
/// rectangle, so one code path serves both data kinds: for a point,
/// MaxDist is the ordinary distance and the furthest corner is the
/// point itself.

namespace casper::processor {

/// How many filter targets seed the pruning (§6.2): one (nearest to the
/// cloak center), two (nearest to two opposite corners), or four
/// (nearest to every corner, the full Algorithm 2).
enum class FilterPolicy {
  kOneFilter = 1,
  kTwoFilters = 2,
  kFourFilters = 4,
};

/// A filter target: identity plus its (possibly degenerate) region.
struct FilterTarget {
  TargetId id = 0;
  Rect region;
};

/// Extension computed for one cloak edge.
struct EdgeExtension {
  /// Largest distance from any point on the edge to its nearest filter
  /// (max of d_i, d_j, d_m in the paper) — the offset applied to this
  /// side of the cloak.
  double max_d = 0.0;

  /// The middle point m_ij, when the endpoint filters differ (in id or
  /// region) and the perpendicular bisector of their anchor segment
  /// crosses the edge.
  bool has_middle = false;
  Point middle;

  friend bool operator==(const EdgeExtension& a, const EdgeExtension& b) {
    return a.max_d == b.max_d && a.has_middle == b.has_middle &&
           a.middle == b.middle;
  }
};

/// The extended search region A_EXT plus per-edge detail. Edge order
/// follows Rect::Corners(): 0 = bottom (v0->v1), 1 = right (v1->v2),
/// 2 = top (v2->v3), 3 = left (v3->v0).
struct ExtendedArea {
  Rect a_ext;
  std::array<EdgeExtension, 4> edges;

  friend bool operator==(const ExtendedArea& a, const ExtendedArea& b) {
    return a.a_ext == b.a_ext && a.edges == b.edges;
  }
};

/// Builds A_EXT for `cloak` given the filter of each of its four
/// corners (Rect::Corners() order). For each edge (v_i, v_j):
///  * d_i = MaxDist(v_i, filter_i.region) — for private targets this is
///    the distance to the furthest corner (§5.2.1 step 3);
///  * when filter_i != filter_j (by id and region: twin ids are two
///    filters), the bisector anchor segment runs from
///    the corner of filter_i furthest from the *reverse* vertex v_j to
///    the corner of filter_j furthest from v_i (§5.2.1 step 2), and
///    d_m is the distance from the resulting middle point to either
///    anchor;
///  * max_d = max(d_i, d_j, d_m); if the bisector misses the edge
///    segment, every edge point is nearer to one anchor and
///    max(d_i, d_j) already bounds the required extension.
ExtendedArea ComputeExtendedArea(const Rect& cloak,
                                 const std::array<FilterTarget, 4>& filters);

/// Steps 1 to 3 for a given policy over one store epoch (a
/// TargetStore<Target>::Snapshot). Each filter is the store's
/// MaxDist-nearest record to its probe point whose id is not
/// `exclude`. kOneFilter probes the cloak center and uses that filter
/// at every corner; kFourFilters probes every corner. kTwoFilters
/// probes v0 and v2; which of the two serves v1 and v3 is a free
/// parameter (any assignment yields an inclusive area), so all four
/// assignments are evaluated and the smallest A_EXT wins.
/// InvalidArgument for an empty cloak; NotFound when no record is
/// eligible.
template <typename Snapshot>
Result<ExtendedArea> ComputeExtendedAreaForPolicy(
    const Snapshot& store, const Rect& cloak, FilterPolicy policy,
    std::optional<TargetId> exclude = std::nullopt);

}  // namespace casper::processor

#endif  // CASPER_PROCESSOR_EXTENDED_AREA_H_
