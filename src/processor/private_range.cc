#include "src/processor/private_range.h"

namespace casper::processor {

Result<PublicRangeCandidates> PrivateRangeOverPublic(
    const PublicTargetStore::Snapshot& store, const Rect& cloak,
    double radius) {
  if (cloak.is_empty()) {
    return Status::InvalidArgument("cloaked area must be non-empty");
  }
  if (radius < 0.0) return Status::InvalidArgument("radius must be >= 0");
  PublicRangeCandidates result;
  result.search_window = cloak.Expanded(radius);
  result.candidates = store.Overlapping(result.search_window);
  Canonicalize(&result.candidates);
  return result;
}

std::vector<PublicTarget> RefineRange(
    const std::vector<PublicTarget>& candidates, const Point& user_position,
    double radius) {
  std::vector<PublicTarget> out;
  for (const PublicTarget& t : candidates) {
    if (Distance(user_position, t.position) <= radius) out.push_back(t);
  }
  return out;
}

}  // namespace casper::processor
