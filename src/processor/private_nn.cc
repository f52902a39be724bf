#include "src/processor/private_nn.h"

namespace casper::processor {

Result<PublicCandidateList> PrivateNearestNeighbor(
    const PublicTargetStore::Snapshot& store, const Rect& cloak,
    FilterPolicy policy) {
  if (cloak.is_empty()) {
    return Status::InvalidArgument("cloaked area must be non-empty");
  }
  if (store.empty()) return Status::NotFound("no public targets stored");

  // Step 1: filter targets per cloak corner.
  const NearestTargetFn nearest = [&store](const Point& q) {
    return [&]() -> Result<FilterTarget> {
      CASPER_ASSIGN_OR_RETURN(t, store.Nearest(q));
      return FilterTarget{t.id, Rect::FromPoint(t.position)};
    }();
  };
  // Steps 2-3: middle points and the extended area.
  CASPER_ASSIGN_OR_RETURN(area,
                          ComputeExtendedAreaForPolicy(cloak, policy, nearest));
  PublicCandidateList result;
  result.policy = policy;
  result.area = area;

  // Step 4: the candidate list is a range query over A_EXT, in
  // canonical order.
  result.candidates = store.RangeQuery(result.area.a_ext);
  Canonicalize(&result.candidates);
  return result;
}

Result<PublicTarget> RefineNearest(const std::vector<PublicTarget>& candidates,
                                   const Point& user_position) {
  if (candidates.empty()) return Status::NotFound("empty candidate list");
  const PublicTarget* best = &candidates.front();
  double best_d = SquaredDistance(user_position, best->position);
  for (const PublicTarget& t : candidates) {
    const double d = SquaredDistance(user_position, t.position);
    if (d < best_d) {
      best = &t;
      best_d = d;
    }
  }
  return *best;
}

}  // namespace casper::processor
