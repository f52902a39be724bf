#include "src/processor/public_range.h"

namespace casper::processor {

Result<RangeCountResult> PublicRangeCount(
    const PrivateTargetStore::Snapshot& store, const Rect& query) {
  if (query.is_empty()) {
    return Status::InvalidArgument("query region must be non-empty");
  }
  RangeCountResult result;
  result.overlapping = store.Overlapping(query);
  // Canonical order first: floating-point accumulation follows the
  // list order, so `expected` is a function of the stored set alone.
  Canonicalize(&result.overlapping);
  result.possible = result.overlapping.size();
  for (const PrivateTarget& t : result.overlapping) {
    result.expected += OverlapFraction(t.region, query);
    if (query.Contains(t.region)) ++result.certain;
  }
  return result;
}

}  // namespace casper::processor
