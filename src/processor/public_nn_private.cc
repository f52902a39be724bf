#include "src/processor/public_nn_private.h"

#include <algorithm>

namespace casper::processor {

Result<PublicNNCandidates> PublicNearestNeighborOverPrivate(
    const PrivateTargetStore::Snapshot& store, const Point& query) {
  if (store.empty()) return Status::NotFound("no private targets stored");

  // Minimax bound from the MaxDist-nearest region.
  PublicNNCandidates result;
  result.minimax_bound = MaxDist(query, store.KNearest(query, 1)[0].region);

  // Every region intersecting the closed disk around the query of
  // radius B; the bounding-square range query over-approximates the
  // disk, then the exact MinDist test filters.
  const Rect window = Rect::FromPoint(query).Expanded(result.minimax_bound);
  for (const PrivateTarget& t : store.Overlapping(window)) {
    const double min_d = MinDist(query, t.region);
    if (min_d <= result.minimax_bound) {
      result.candidates.push_back(PublicNNCandidates::Candidate{
          t, min_d, MaxDist(query, t.region)});
    }
  }
  // Ascending MinDist, ties in canonical order, so the encoded answer
  // is independent of tree shape.
  std::sort(result.candidates.begin(), result.candidates.end(),
            [](const PublicNNCandidates::Candidate& a,
               const PublicNNCandidates::Candidate& b) {
              if (a.min_dist != b.min_dist) return a.min_dist < b.min_dist;
              return CanonicalLess(a.target, b.target);
            });
  return result;
}

}  // namespace casper::processor
