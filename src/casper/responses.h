#ifndef CASPER_CASPER_RESPONSES_H_
#define CASPER_CASPER_RESPONSES_H_

#include <variant>
#include <vector>

#include "src/anonymizer/cloaking.h"
#include "src/processor/density.h"
#include "src/processor/private_knn.h"
#include "src/processor/private_nn.h"
#include "src/processor/private_range.h"
#include "src/processor/public_nn_private.h"
#include "src/processor/public_range.h"

/// \file
/// Client-visible query responses of the Casper framework, shared by the
/// sequential facade path, the parallel batch engine, the CLI, and the
/// benches. Each response to a *private* (cloaked) query carries the
/// server's candidate list, the client-side refinement, the cloak it was
/// computed from, and the per-query timing breakdown the paper's
/// end-to-end experiment reports (§6.3). This header deliberately stays
/// free of any user-identity or pseudonym-registry dependency so the
/// database-server tier can include it.

namespace casper {

/// Per-query cost decomposition (Figure 17).
struct TimingBreakdown {
  double anonymizer_seconds = 0.0;
  double processor_seconds = 0.0;
  double transmission_seconds = 0.0;

  double Total() const {
    return anonymizer_seconds + processor_seconds + transmission_seconds;
  }
};

/// Response to a private NN query over public data, as seen by the
/// mobile client: candidate list plus the exact answer after local
/// refinement.
struct PublicNNResponse {
  processor::PublicCandidateList server_answer;
  processor::PublicTarget exact;  ///< After client-side refinement.
  anonymizer::CloakingResult cloak;
  TimingBreakdown timing;
  /// Served from a possibly-stale cache during a server outage:
  /// inclusiveness still holds, minimality may not (see
  /// CandidateListMsg::degraded).
  bool degraded = false;
};

/// Response to a private k-NN query over public data.
struct PublicKnnResponse {
  processor::KnnCandidateList server_answer;
  std::vector<processor::PublicTarget> exact;  ///< k refined answers.
  anonymizer::CloakingResult cloak;
  TimingBreakdown timing;
  bool degraded = false;  ///< See PublicNNResponse::degraded.
};

/// Response to a private NN query over private data (buddies).
struct PrivateNNResponse {
  processor::PrivateCandidateList server_answer;
  processor::PrivateTarget best;  ///< Client-side minimax refinement.
  anonymizer::CloakingResult cloak;
  TimingBreakdown timing;
  bool degraded = false;  ///< See PublicNNResponse::degraded.
};

/// Response to a private range query over public data, with the
/// client-side refinement and timing the other response types carry.
struct PublicRangeResponse {
  processor::PublicRangeCandidates server_answer;
  std::vector<processor::PublicTarget> exact;  ///< Truly within radius.
  anonymizer::CloakingResult cloak;
  TimingBreakdown timing;
  bool degraded = false;  ///< See PublicNNResponse::degraded.
};

/// The one response type of the unified query dispatch: every Query*
/// entry point is a thin wrapper that unwraps the matching alternative.
using QueryResponse =
    std::variant<PublicNNResponse, PublicKnnResponse, PublicRangeResponse,
                 PrivateNNResponse, processor::PublicNNCandidates,
                 processor::RangeCountResult, processor::DensityMap>;

/// Timing of the response, or nullptr for the public-over-private
/// alternatives (which the facade has always returned untimed).
inline const TimingBreakdown* TimingOf(const QueryResponse& response) {
  if (const auto* r = std::get_if<PublicNNResponse>(&response))
    return &r->timing;
  if (const auto* r = std::get_if<PublicKnnResponse>(&response))
    return &r->timing;
  if (const auto* r = std::get_if<PublicRangeResponse>(&response))
    return &r->timing;
  if (const auto* r = std::get_if<PrivateNNResponse>(&response))
    return &r->timing;
  return nullptr;
}

/// Whether the response was served degraded (always false for the
/// public-over-private alternatives, which are never cache-served).
inline bool IsDegraded(const QueryResponse& response) {
  if (const auto* r = std::get_if<PublicNNResponse>(&response))
    return r->degraded;
  if (const auto* r = std::get_if<PublicKnnResponse>(&response))
    return r->degraded;
  if (const auto* r = std::get_if<PublicRangeResponse>(&response))
    return r->degraded;
  if (const auto* r = std::get_if<PrivateNNResponse>(&response))
    return r->degraded;
  return false;
}

inline void SetAnonymizerSeconds(QueryResponse& response, double seconds) {
  if (auto* r = std::get_if<PublicNNResponse>(&response))
    r->timing.anonymizer_seconds = seconds;
  else if (auto* r = std::get_if<PublicKnnResponse>(&response))
    r->timing.anonymizer_seconds = seconds;
  else if (auto* r = std::get_if<PublicRangeResponse>(&response))
    r->timing.anonymizer_seconds = seconds;
  else if (auto* r = std::get_if<PrivateNNResponse>(&response))
    r->timing.anonymizer_seconds = seconds;
}

}  // namespace casper

#endif  // CASPER_CASPER_RESPONSES_H_
