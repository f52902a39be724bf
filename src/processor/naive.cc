#include "src/processor/naive.h"

namespace casper::processor {

Result<PublicTarget> NaiveCenterNearest(
    const PublicTargetStore::Snapshot& store, const Rect& cloak) {
  if (cloak.is_empty()) {
    return Status::InvalidArgument("cloaked area must be non-empty");
  }
  return store.Nearest(cloak.Center());
}

std::vector<PublicTarget> NaiveSendAll(
    const PublicTargetStore::Snapshot& store) {
  // A range query over the whole plane enumerates every entry.
  const Rect everything(-1e300, -1e300, 1e300, 1e300);
  return store.RangeQuery(everything);
}

}  // namespace casper::processor
