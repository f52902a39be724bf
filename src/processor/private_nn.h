#ifndef CASPER_PROCESSOR_PRIVATE_NN_H_
#define CASPER_PROCESSOR_PRIVATE_NN_H_

#include <vector>

#include "src/common/result.h"
#include "src/processor/extended_area.h"
#include "src/processor/target_store.h"

/// \file
/// Private nearest-neighbor queries over *public* data (§5.1,
/// Algorithm 2): "where is my nearest gas station?" asked from behind a
/// cloaked region. The server returns a candidate list that provably
/// contains the querying user's exact nearest target no matter where in
/// the cloak she actually is (Theorem 1), computed from the minimal
/// extended range (Theorem 2). The client refines locally.

namespace casper::processor {

/// Server answer for a private NN query over public data.
struct PublicCandidateList {
  std::vector<PublicTarget> candidates;
  ExtendedArea area;
  FilterPolicy policy = FilterPolicy::kFourFilters;

  size_t size() const { return candidates.size(); }

  friend bool operator==(const PublicCandidateList& a,
                         const PublicCandidateList& b) {
    return a.candidates == b.candidates && a.area == b.area &&
           a.policy == b.policy;
  }
};

/// Executes Algorithm 2 against one epoch of the public store for the
/// cloaked region `cloak`. Fails with NotFound when the store is empty
/// and InvalidArgument for an empty cloak.
Result<PublicCandidateList> PrivateNearestNeighbor(
    const PublicTargetStore::Snapshot& store, const Rect& cloak,
    FilterPolicy policy = FilterPolicy::kFourFilters);

/// Client-side refinement step: the exact nearest candidate to the
/// user's true position. NotFound on an empty candidate list (cannot
/// happen for lists produced by PrivateNearestNeighbor on a non-empty
/// store).
Result<PublicTarget> RefineNearest(const std::vector<PublicTarget>& candidates,
                                   const Point& user_position);

}  // namespace casper::processor

#endif  // CASPER_PROCESSOR_PRIVATE_NN_H_
