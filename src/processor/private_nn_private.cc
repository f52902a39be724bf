#include "src/processor/private_nn_private.h"

namespace casper::processor {

Result<PrivateCandidateList> PrivateNearestNeighborOverPrivate(
    const PrivateTargetStore::Snapshot& store, const Rect& cloak,
    const PrivateNNOptions& options) {
  if (cloak.is_empty()) {
    return Status::InvalidArgument("cloaked area must be non-empty");
  }
  if (store.empty()) return Status::NotFound("no private targets stored");
  if (options.min_overlap_fraction < 0.0 ||
      options.min_overlap_fraction > 1.0) {
    return Status::InvalidArgument("min_overlap_fraction outside [0, 1]");
  }

  // Step 1: filters ranked by furthest-corner distance (MaxDist), so a
  // filter is a *guaranteed* upper bound on the NN distance from its
  // vertex regardless of where the target really is inside its region.
  const NearestTargetFn nearest = [&store, &options](const Point& q) {
    return [&]() -> Result<FilterTarget> {
      CASPER_ASSIGN_OR_RETURN(t,
                              store.NearestByMaxDist(q, options.exclude_id));
      return FilterTarget{t.id, t.region};
    }();
  };
  CASPER_ASSIGN_OR_RETURN(
      area, ComputeExtendedAreaForPolicy(cloak, options.policy, nearest));
  PrivateCandidateList result;
  result.policy = options.policy;
  result.area = area;

  // Step 4: every target whose region overlaps A_EXT (optionally
  // thresholded by the probabilistic policy), minus the excluded id.
  result.candidates = store.OverlappingAtLeast(result.area.a_ext,
                                               options.min_overlap_fraction);
  Canonicalize(&result.candidates);
  if (options.exclude_id.has_value()) {
    auto& cands = result.candidates;
    for (size_t i = 0; i < cands.size(); ++i) {
      if (cands[i].id == *options.exclude_id) {
        cands.erase(cands.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }
  return result;
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
