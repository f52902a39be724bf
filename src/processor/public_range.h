#ifndef CASPER_PROCESSOR_PUBLIC_RANGE_H_
#define CASPER_PROCESSOR_PUBLIC_RANGE_H_

#include <vector>

#include "src/common/result.h"
#include "src/processor/target_store.h"

/// \file
/// Public queries over *private* data (§5): "how many cars are in this
/// area?" asked by an administrator with an exactly known query region,
/// evaluated over cloaked user regions. Because the server only stores
/// regions, the count is inherently uncertain; the processor reports
/// the certain/possible bounds and the expected value under the paper's
/// uniformity guarantee (§4.3: a user is uniformly distributed over her
/// cloaked region).

namespace casper::processor {

struct RangeCountResult {
  /// Targets fully inside the query region — definitely counted.
  size_t certain = 0;

  /// Targets overlapping the query region — possibly counted.
  size_t possible = 0;

  /// Expected count: sum over overlapping targets of the fractional
  /// area overlap (exactly `certain` <= expected <= `possible`).
  double expected = 0.0;

  /// The overlapping targets, for callers that need the identities.
  std::vector<PrivateTarget> overlapping;

  friend bool operator==(const RangeCountResult& a, const RangeCountResult& b) {
    return a.certain == b.certain && a.possible == b.possible &&
           a.expected == b.expected && a.overlapping == b.overlapping;
  }
};

/// Evaluates a public range-count query over cloaked regions.
Result<RangeCountResult> PublicRangeCount(
    const PrivateTargetStore::Snapshot& store, const Rect& query);

}  // namespace casper::processor

#endif  // CASPER_PROCESSOR_PUBLIC_RANGE_H_
