#ifndef CASPER_PROCESSOR_PRIVATE_KNN_H_
#define CASPER_PROCESSOR_PRIVATE_KNN_H_

#include <vector>

#include "src/common/result.h"
#include "src/processor/target_store.h"

/// \file
/// k-nearest-neighbor extension of Algorithm 2 (§5 notes extensions to
/// other query types are straightforward; this makes the claim
/// concrete). For each cloak vertex v_i the filter distance becomes
/// d_i = distance to the k-th nearest target — an upper bound on the
/// k-NN radius of any user at v_i. Along an edge (v_i, v_j) of length
/// L, the k-NN radius at p is bounded by
///     min(d_i + |p - v_i|, d_j + |p - v_j|)
/// (triangle inequality: the k targets serving v_i serve p at the
/// extra cost of |p - v_i|). The maximum of this bound over the edge is
///     max(d_i, d_j)                 when |d_i - d_j| >= L,
///     (d_i + d_j + L) / 2           otherwise,
/// which is the per-side extension distance. The candidate list (all
/// targets in the extended area) then provably contains the exact k
/// nearest targets of every possible user position in the cloak.

namespace casper::processor {

struct KnnCandidateList {
  std::vector<PublicTarget> candidates;
  Rect a_ext;
  size_t k = 1;

  size_t size() const { return candidates.size(); }

  friend bool operator==(const KnnCandidateList& a,
                         const KnnCandidateList& b) {
    return a.candidates == b.candidates && a.a_ext == b.a_ext && a.k == b.k;
  }
};

/// Candidate list for a private k-NN query over public data.
/// InvalidArgument for k == 0 or empty cloak; NotFound when the store
/// holds fewer than k targets.
Result<KnnCandidateList> PrivateKNearestNeighbors(
    const PublicTargetStore::Snapshot& store, const Rect& cloak, size_t k);

/// Client-side refinement: the exact k nearest candidates, ascending by
/// distance to `user_position`.
std::vector<PublicTarget> RefineKNearest(
    const std::vector<PublicTarget>& candidates, const Point& user_position,
    size_t k);

}  // namespace casper::processor

#endif  // CASPER_PROCESSOR_PRIVATE_KNN_H_
