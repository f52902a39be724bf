#ifndef CASPER_PROCESSOR_PRIVATE_RANGE_H_
#define CASPER_PROCESSOR_PRIVATE_RANGE_H_

#include <vector>

#include "src/common/result.h"
#include "src/processor/target_store.h"

/// \file
/// Private *range* queries — "every gas station within distance r of
/// me" — behind a cloaked region. The paper notes the extension from NN
/// queries is straightforward (§5): since the user may be anywhere in
/// her cloak A, the inclusive-and-minimal candidate region is A
/// expanded by r on every side (the Minkowski sum with the radius-r
/// ball, conservatively rectangularized); the client filters the exact
/// circular range locally.

namespace casper::processor {

struct PublicRangeCandidates {
  std::vector<PublicTarget> candidates;
  /// The expanded server-side search window.
  Rect search_window;

  friend bool operator==(const PublicRangeCandidates& a,
                         const PublicRangeCandidates& b) {
    return a.candidates == b.candidates && a.search_window == b.search_window;
  }
};

/// Candidates for a private circular range query (radius `r`) over
/// public point data. Inclusive: every target within distance r of any
/// point of `cloak` is returned.
Result<PublicRangeCandidates> PrivateRangeOverPublic(
    const PublicTargetStore::Snapshot& store, const Rect& cloak,
    double radius);

/// Client-side refinement: the candidates truly within `radius` of the
/// user's exact position.
std::vector<PublicTarget> RefineRange(
    const std::vector<PublicTarget>& candidates, const Point& user_position,
    double radius);

}  // namespace casper::processor

#endif  // CASPER_PROCESSOR_PRIVATE_RANGE_H_
