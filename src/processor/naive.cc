#include "src/processor/naive.h"

namespace casper::processor {

Result<PublicTarget> NaiveCenterNearest(
    const PublicTargetStore::Snapshot& store, const Rect& cloak) {
  if (cloak.is_empty()) {
    return Status::InvalidArgument("cloaked area must be non-empty");
  }
  const auto nn = store.KNearest(cloak.Center(), 1);
  if (nn.empty()) return Status::NotFound("target store is empty");
  return nn[0];
}

std::vector<PublicTarget> NaiveSendAll(
    const PublicTargetStore::Snapshot& store) {
  // A range query over the whole plane enumerates every entry.
  const Rect everything(-1e300, -1e300, 1e300, 1e300);
  return store.Overlapping(everything);
}

}  // namespace casper::processor
