#ifndef CASPER_PROCESSOR_PRIVATE_NN_PRIVATE_H_
#define CASPER_PROCESSOR_PRIVATE_NN_PRIVATE_H_

#include <vector>

#include "src/common/result.h"
#include "src/processor/extended_area.h"
#include "src/processor/target_store.h"

/// \file
/// Private nearest-neighbor queries over *private* data (§5.2): "where
/// is my nearest buddy?" where both the querying user and the targets
/// are cloaked regions. Algorithm 2 runs with the furthest-corner
/// adaptations; the candidate list contains every target region that
/// could host the true nearest buddy (Theorem 3) and is minimal given
/// the filters (Theorem 4).

namespace casper::processor {

struct PrivateCandidateList {
  std::vector<PrivateTarget> candidates;
  ExtendedArea area;
  FilterPolicy policy = FilterPolicy::kFourFilters;

  size_t size() const { return candidates.size(); }

  friend bool operator==(const PrivateCandidateList& a,
                         const PrivateCandidateList& b) {
    return a.candidates == b.candidates && a.area == b.area &&
           a.policy == b.policy;
  }
};

struct PrivateNNOptions {
  FilterPolicy policy = FilterPolicy::kFourFilters;

  /// Candidate admission threshold: a target must have at least this
  /// fraction of its own region inside A_EXT (§5.2.1 step 4's
  /// probabilistic x% policy). 0 = any overlap (the default, which is
  /// the inclusive setting; positive values trade inclusiveness for a
  /// smaller list).
  double min_overlap_fraction = 0.0;

  /// Target id to exclude from the whole computation — filters and
  /// candidates alike. Buddy queries set this to the querying user's
  /// own stored region: with the self region eligible it would win
  /// every filter probe (distance ~0) and shrink A_EXT below any
  /// actual buddy.
  std::optional<TargetId> exclude_id;
};

/// Algorithm 2 with the §5.2.1 modifications against cloaked targets.
Result<PrivateCandidateList> PrivateNearestNeighborOverPrivate(
    const PrivateTargetStore::Snapshot& store, const Rect& cloak,
    const PrivateNNOptions& options = {});

/// Client-side refinement under region uncertainty: ranks candidates by
/// the given metric from the user's true position. With kMaxDist the
/// choice is the certain-best bound (minimax); kMinDist is optimistic.
enum class RefineMetric { kMinDist, kMaxDist };
Result<PrivateTarget> RefineNearestRegion(
    const std::vector<PrivateTarget>& candidates, const Point& user_position,
    RefineMetric metric = RefineMetric::kMaxDist);

}  // namespace casper::processor

#endif  // CASPER_PROCESSOR_PRIVATE_NN_PRIVATE_H_
