#include "src/processor/private_nn.h"

namespace casper::processor {

namespace {

template <typename Target>
Result<CandidateList<Target>> Algorithm2(
    const typename TargetStore<Target>::Snapshot& store, const Rect& cloak,
    const PrivateNNOptions& options) {
  if (cloak.is_empty()) {
    return Status::InvalidArgument("cloaked area must be non-empty");
  }
  if (store.empty()) return Status::NotFound("no targets stored");
  const double min_fraction = options.min_overlap_fraction;
  if (min_fraction < 0.0 || min_fraction > 1.0) {
    return Status::InvalidArgument("min_overlap_fraction outside [0, 1]");
  }

  // Steps 1-3: filters ranked by furthest-corner distance (MaxDist), so
  // a filter is a *guaranteed* upper bound on the NN distance from its
  // vertex wherever the target really is inside its region; then the
  // middle points and the extended area.
  CASPER_ASSIGN_OR_RETURN(area,
                          ComputeExtendedAreaForPolicy(store, cloak,
                                                       options.policy,
                                                       options.exclude_id));
  CandidateList<Target> result;
  result.policy = options.policy;
  result.area = area;

  // Step 4: every record that overlaps A_EXT (optionally thresholded by
  // the probabilistic policy), minus the excluded id, in canonical
  // order.
  store.ForEachOverlapping(area.a_ext, [&](const Target& t) {
    if (t.id == options.exclude_id) return;
    if (min_fraction > 0.0 &&
        OverlapFraction(t.box(), area.a_ext) < min_fraction) {
      return;
    }
    result.candidates.push_back(t);
  });
  Canonicalize(&result.candidates);
  return result;
}

}  // namespace

Result<PublicCandidateList> PrivateNearestNeighbor(
    const PublicTargetStore::Snapshot& store, const Rect& cloak,
    FilterPolicy policy) {
  PrivateNNOptions options;
  options.policy = policy;
  return Algorithm2<PublicTarget>(store, cloak, options);
}

Result<PrivateCandidateList> PrivateNearestNeighborOverPrivate(
    const PrivateTargetStore::Snapshot& store, const Rect& cloak,
    const PrivateNNOptions& options) {
  return Algorithm2<PrivateTarget>(store, cloak, options);
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

Result<PrivateTarget> RefineNearestRegion(
    const std::vector<PrivateTarget>& candidates, const Point& user_position,
    RefineMetric metric) {
  if (candidates.empty()) return Status::NotFound("empty candidate list");
  auto rank = [&](const PrivateTarget& t) {
    return metric == RefineMetric::kMinDist
               ? MinDist(user_position, t.region)
               : MaxDist(user_position, t.region);
  };
  const PrivateTarget* best = &candidates.front();
  double best_d = rank(*best);
  for (const PrivateTarget& t : candidates) {
    const double d = rank(t);
    if (d < best_d) {
      best = &t;
      best_d = d;
    }
  }
  return *best;
}

}  // namespace casper::processor
