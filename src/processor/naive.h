#ifndef CASPER_PROCESSOR_NAIVE_H_
#define CASPER_PROCESSOR_NAIVE_H_

#include <vector>

#include "src/common/result.h"
#include "src/processor/target_store.h"

/// \file
/// The two naive baselines of Figure 4 (§5.1) that Casper's candidate
/// list sits between:
///  * center-NN — answer with the single target nearest to the cloak's
///    center: minimal transfer, but frequently *wrong* for users away
///    from the center;
///  * send-all — ship every stored target to the client: always correct
///    but transfers the whole database.

namespace casper::processor {

/// Center-NN baseline (Figure 4b). NotFound on an empty store.
Result<PublicTarget> NaiveCenterNearest(
    const PublicTargetStore::Snapshot& store, const Rect& cloak);

/// Send-all baseline (Figure 4c): the full target table.
std::vector<PublicTarget> NaiveSendAll(
    const PublicTargetStore::Snapshot& store);

}  // namespace casper::processor

#endif  // CASPER_PROCESSOR_NAIVE_H_
