#ifndef CASPERBENCH_GATES_H_
#define CASPERBENCH_GATES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/casper/casper.h"

/// \file
/// Correctness gates. Each check recomputes the right answer by brute
/// force over the benchmark's own ground truth — the targets it
/// generated and the exact positions and profiles of the users it
/// registered — never through the system under test. A check returns
/// an empty string when the served answer is right, and otherwise says
/// what is wrong.

namespace casperbench {

struct Truth {
  std::vector<casper::processor::PublicTarget> targets;
  std::vector<casper::Point> positions;  ///< By user id.
  std::vector<casper::anonymizer::PrivacyProfile> profiles;  ///< By user id.
};

/// The true nearest target is in the candidate list and is the refined
/// answer (Theorem 1 plus client refinement).
std::string CheckNearest(const Truth& truth, const casper::Point& p,
                         const casper::PublicNNResponse& response);

/// The true k nearest targets are all candidates and the refined answer
/// has their distances.
std::string CheckKNearest(const Truth& truth, const casper::Point& p,
                          const casper::PublicKnnResponse& response);

/// Every target within the radius is a candidate, and the refined
/// answer is exactly those targets.
std::string CheckRange(const Truth& truth, const casper::Point& p,
                       double radius,
                       const casper::PublicRangeResponse& response);

/// §4 requirements of the cloak served for `uid`: at least k users'
/// exact positions inside it, and area at least A_min.
std::string CheckCloak(const Truth& truth, uint64_t uid,
                       const casper::Rect& region);

/// The user nearest to `p` (by exact position, `self` excluded) owns
/// one of the candidate regions; `owners` are the candidates' users.
std::string CheckNearestUser(const Truth& truth, const casper::Point& p,
                             const std::vector<uint64_t>& owners,
                             uint64_t self);

/// certain <= true count <= possible for a range count over users.
std::string CheckRangeCount(const Truth& truth, const casper::Rect& region,
                            const casper::processor::RangeCountResult& r);

/// Dispatches one served answer to the checks above (cloak included for
/// the cloaked kinds). Pseudonym handles are resolved through the
/// service's trusted tier.
std::string CheckAnswer(const Truth& truth,
                        const casper::CasperService& service,
                        const casper::QueryRequest& request,
                        const casper::QueryResponse& response);

/// True when two answers agree in everything but their timings.
bool SameAnswer(const casper::QueryResponse& a,
                const casper::QueryResponse& b);

/// Runs the checks on real answers of a small service (they must pass)
/// and on planted bad answers (they must fail). Returns 0 on success.
int RunGateSelfTest();

}  // namespace casperbench

#endif  // CASPERBENCH_GATES_H_
