#ifndef CASPER_PROCESSOR_PUBLIC_NN_PRIVATE_H_
#define CASPER_PROCESSOR_PUBLIC_NN_PRIVATE_H_

#include <vector>

#include "src/common/result.h"
#include "src/processor/target_store.h"

/// \file
/// Public NN queries over *private* data — the second of the paper's
/// novel query types (§5) in its nearest-neighbor form: an
/// administrator with an exactly known point q asks "which user is
/// nearest to q?" while the server stores only cloaked regions. §5
/// treats this as the special case of private-over-private where the
/// query region collapses to a point; this module implements that
/// special case directly with the classic minimax bound:
///
///   B = min over regions of MaxDist(q, region)
///
/// The user owning the minimax region is within B of q wherever she is,
/// so the true nearest user's distance is <= B, and every region with
/// MinDist(q, region) <= B could host the answer. That candidate set is
/// inclusive, and no region outside it can ever be the answer.

namespace casper::processor {

struct PublicNNCandidates {
  /// Regions that could contain the nearest user, with their distance
  /// bounds, ascending by min_dist (ties in canonical order).
  struct Candidate {
    PrivateTarget target;
    double min_dist = 0.0;
    double max_dist = 0.0;

    friend bool operator==(const Candidate& a, const Candidate& b) {
      return a.target == b.target && a.min_dist == b.min_dist &&
             a.max_dist == b.max_dist;
    }
  };
  std::vector<Candidate> candidates;

  /// The minimax bound B: the true NN distance is certainly <= B.
  double minimax_bound = 0.0;

  friend bool operator==(const PublicNNCandidates& a,
                         const PublicNNCandidates& b) {
    return a.candidates == b.candidates && a.minimax_bound == b.minimax_bound;
  }
};

/// Computes the candidate set. NotFound on an empty store.
Result<PublicNNCandidates> PublicNearestNeighborOverPrivate(
    const PrivateTargetStore::Snapshot& store, const Point& query);

}  // namespace casper::processor

#endif  // CASPER_PROCESSOR_PUBLIC_NN_PRIVATE_H_
