#ifndef CASPER_PROCESSOR_PRIVATE_NN_H_
#define CASPER_PROCESSOR_PRIVATE_NN_H_

#include <optional>
#include <vector>

#include "src/common/result.h"
#include "src/processor/extended_area.h"
#include "src/processor/target_store.h"

/// \file
/// Private nearest-neighbor queries (Algorithm 2), asked from behind a
/// cloaked region, over either data kind:
///  * over public data (§5.1): "where is my nearest gas station?". The
///    candidate list provably contains the user's exact nearest target
///    wherever in the cloak she actually is (Theorem 1), and comes from
///    the minimal extended range (Theorem 2);
///  * over private data (§5.2): "where is my nearest buddy?", where the
///    targets are cloaked regions too. The list holds every region that
///    could host the true nearest buddy (Theorem 3) and is minimal
///    given the filters (Theorem 4).
/// A point is its degenerate region, so both run one body: filters
/// ranked by MaxDist → A_EXT → every record that overlaps A_EXT, in
/// canonical order, minus the excluded id. The client refines locally.

namespace casper::processor {

/// Server answer for a private NN query.
template <typename Target>
struct CandidateList {
  std::vector<Target> candidates;
  ExtendedArea area;
  FilterPolicy policy = FilterPolicy::kFourFilters;

  size_t size() const { return candidates.size(); }

  friend bool operator==(const CandidateList& a, const CandidateList& b) {
    return a.candidates == b.candidates && a.area == b.area &&
           a.policy == b.policy;
  }
};

using PublicCandidateList = CandidateList<PublicTarget>;
using PrivateCandidateList = CandidateList<PrivateTarget>;

struct PrivateNNOptions {
  FilterPolicy policy = FilterPolicy::kFourFilters;

  /// Candidate admission threshold: a target must have at least this
  /// fraction of its own region inside A_EXT (§5.2.1 step 4's
  /// probabilistic x% policy). 0 = any overlap (the default, which is
  /// the inclusive setting; positive values trade inclusiveness for a
  /// smaller list).
  double min_overlap_fraction = 0.0;

  /// Target id to exclude from the whole computation — filters and
  /// candidates alike, every record under it. Buddy queries set this
  /// to the querying user's own id: with the self region eligible it
  /// would win every filter probe (distance ~0) and shrink A_EXT below
  /// any actual buddy.
  std::optional<TargetId> exclude_id;
};

/// Algorithm 2 over one epoch of the public store for the cloaked
/// region `cloak`. Fails with NotFound when the store is empty and
/// InvalidArgument for an empty cloak.
Result<PublicCandidateList> PrivateNearestNeighbor(
    const PublicTargetStore::Snapshot& store, const Rect& cloak,
    FilterPolicy policy = FilterPolicy::kFourFilters);

/// Algorithm 2 with the §5.2.1 options over one epoch of the private
/// store. Also NotFound when every stored record is excluded, and
/// InvalidArgument for a threshold outside [0, 1].
Result<PrivateCandidateList> PrivateNearestNeighborOverPrivate(
    const PrivateTargetStore::Snapshot& store, const Rect& cloak,
    const PrivateNNOptions& options = {});

/// Client-side refinement step: the exact nearest candidate to the
/// user's true position. NotFound on an empty candidate list (cannot
/// happen for lists produced by PrivateNearestNeighbor on a non-empty
/// store).
Result<PublicTarget> RefineNearest(const std::vector<PublicTarget>& candidates,
                                   const Point& user_position);

/// Client-side refinement under region uncertainty: ranks candidates by
/// the given metric from the user's true position. With kMaxDist the
/// choice is the certain-best bound (minimax); kMinDist is optimistic.
enum class RefineMetric { kMinDist, kMaxDist };
Result<PrivateTarget> RefineNearestRegion(
    const std::vector<PrivateTarget>& candidates, const Point& user_position,
    RefineMetric metric = RefineMetric::kMaxDist);

}  // namespace casper::processor

#endif  // CASPER_PROCESSOR_PRIVATE_NN_H_
