#ifndef CASPER_CASPER_CASPER_H_
#define CASPER_CASPER_CASPER_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/anonymizer/adaptive_anonymizer.h"
#include "src/anonymizer/anonymizer_tier.h"
#include "src/anonymizer/basic_anonymizer.h"
#include "src/anonymizer/pseudonyms.h"
#include "src/casper/messages.h"
#include "src/casper/responses.h"
#include "src/casper/transmission.h"
#include "src/obs/casper_metrics.h"
#include "src/processor/density.h"
#include "src/processor/naive.h"
#include "src/processor/private_knn.h"
#include "src/processor/private_nn.h"
#include "src/processor/private_range.h"
#include "src/processor/public_nn_private.h"
#include "src/processor/public_range.h"
#include "src/server/query_server.h"
#include "src/transport/channel.h"
#include "src/transport/resilient_client.h"
#include "src/transport/server_endpoint.h"

/// \file
/// The end-to-end Casper framework (Figure 1): mobile users register
/// with privacy profiles, the location anonymizer blurs their positions
/// into cloaked regions, and the privacy-aware query processor answers
/// queries over those regions with candidate lists that the client
/// refines locally.
///
/// `CasperService` is a thin facade over the two tier objects that now
/// implement the paper's trust domains — `anonymizer::AnonymizerTier`
/// (identities, exact positions, pseudonyms) and `server::QueryServer`
/// (target stores, cloaked regions, query evaluation) — wired together
/// through the wire-message protocol of src/casper/messages.h. The
/// facade preserves the original single-object API and the per-query
/// timing breakdown the paper's end-to-end experiment reports (§6.3):
/// anonymizer time + query-processing time + candidate-list
/// transmission time.

namespace casper {

struct CasperOptions {
  anonymizer::PyramidConfig pyramid;

  /// Which anonymizer variant backs the service (§4.1 vs §4.2).
  bool use_adaptive_anonymizer = true;

  processor::FilterPolicy filter_policy =
      processor::FilterPolicy::kFourFilters;

  /// Server-side idempotency window (see
  /// server::QueryServerOptions::idempotency_window).
  size_t server_idempotency_window = 8192;

  TransmissionModel transmission;

  /// Seed of the pseudonym stream used to strip user identities before
  /// cloaked regions reach the database server (§3 pseudonymity).
  uint64_t pseudonym_seed = 0xCA5;

  /// When true, the anonymizer pushes a fresh cloaked region to the
  /// server on every user event (register / move / profile change), so
  /// private-data queries never require an explicit SyncPrivateData().
  /// Each stored region reflects the pyramid state at its user's last
  /// event — the same snapshot semantics as periodic syncing, at a
  /// finer grain. Off by default (the paper's batch model).
  bool auto_sync_private_data = false;

  /// Instrument bundle shared by both tiers and the facade's query
  /// spans; null resolves to obs::CasperMetrics::Default() (the
  /// registry `casper_cli metrics` scrapes). Tests inject a fresh
  /// bundle to observe a single service in isolation.
  obs::CasperMetrics* metrics = nullptr;

  /// Decorates the anonymizer->server channel, e.g. wrapping the direct
  /// channel in a transport::FaultInjectingChannel for chaos runs.
  /// Receives the in-process DirectChannel (which the service keeps
  /// alive); the returned channel carries all tier traffic. Null leaves
  /// the direct channel in place.
  std::function<std::unique_ptr<transport::Channel>(transport::Channel*)>
      channel_decorator;

  /// Deadlines, retries, circuit breaking, and degradation for the tier
  /// channel (see transport::ResilientClient). The defaults are
  /// invisible on the lossless direct channel — every call succeeds on
  /// the first attempt.
  transport::ResilienceOptions resilience;
};

/// The full framework behind the original one-object API. Mutations are
/// single-threaded by design, mirroring the paper's single middleware
/// process; query *evaluation* is read-only and may be fanned across
/// threads via Evaluate() / the Evaluate* wrappers (see
/// server::BatchQueryEngine).
class CasperService {
 public:
  explicit CasperService(const CasperOptions& options);

  // --- User lifecycle (mobile clients -> anonymizer tier) -------------

  Status RegisterUser(anonymizer::UserId uid,
                      const anonymizer::PrivacyProfile& profile,
                      const Point& position);
  Status UpdateUserLocation(anonymizer::UserId uid, const Point& position);
  Status UpdateUserProfile(anonymizer::UserId uid,
                           const anonymizer::PrivacyProfile& profile);
  Status DeregisterUser(anonymizer::UserId uid);

  // --- Public data (stored directly at the server tier) ---------------

  void AddPublicTarget(const processor::PublicTarget& target);
  void SetPublicTargets(const std::vector<processor::PublicTarget>& targets);

  // --- Private-data snapshot ------------------------------------------
  //
  // The anonymizer tier builds an identity-stripped SnapshotMsg (each
  // user freshly cloaked under a *rotated* pseudonym — §3: the
  // anonymizer "removes any user identity to ensure pseudonymity";
  // rotation makes snapshots unlinkable) and the server tier bulk-loads
  // it. Call after a batch of movement.

  Status SyncPrivateData();

  /// Trusted-side translation of a pseudonym from a query answer back
  /// to the user id (only the anonymizer side can do this; the database
  /// server never can).
  Result<anonymizer::UserId> ResolvePseudonym(
      anonymizer::Pseudonym pseudonym) const {
    return tier_.ResolvePseudonym(pseudonym);
  }

  // --- Unified query dispatch -------------------------------------------
  //
  // One entry point for every query kind: build a QueryRequest (the
  // variant in src/casper/messages.h) and Execute() it. The sequential
  // path, server::BatchQueryEngine, the CLI, and the benches all funnel
  // through this dispatch; the legacy Query*/Evaluate* methods below
  // are thin wrappers that unwrap the matching response alternative.

  /// Cloak (for the private kinds) and answer one request end to end.
  Result<QueryResponse> Execute(const QueryRequest& request);

  /// The read-only half: identity stripping, server evaluation, and
  /// client-side refinement over a pre-computed cloak. Const and safe
  /// to call from many threads concurrently provided no mutating
  /// service call runs during the batch (the cloaking half stays on the
  /// single-threaded anonymizer, as in the paper). `cache`, when
  /// non-null, memoizes kNearestPublic candidate lists by cloak
  /// rectangle (answers identical to the direct evaluation).
  /// `cloak_seconds`, when the caller timed the cloak itself (Execute,
  /// the batch engine's phase 1), lands on the span's cloak phase so
  /// the trace covers all four pipeline phases.
  Result<QueryResponse> Evaluate(const QueryRequest& request,
                                 const anonymizer::CloakingResult& cloak,
                                 processor::ConcurrentQueryCache* cache = nullptr,
                                 double cloak_seconds = 0.0) const;

  // --- Queries (legacy wrappers) ----------------------------------------

  /// Private NN over public data: "my nearest gas station" for `uid`.
  Result<PublicNNResponse> QueryNearestPublic(anonymizer::UserId uid);

  /// Private k-NN over public data: "my k nearest gas stations".
  Result<PublicKnnResponse> QueryKNearestPublic(anonymizer::UserId uid,
                                                size_t k);

  /// Public NN over private data: the administrator's "which user is
  /// nearest to this point?" (requires SyncPrivateData).
  Result<processor::PublicNNCandidates> QueryPublicNearest(const Point& q);

  /// Expected-density map of the cloaked user population over a grid
  /// spanning the whole managed space (requires SyncPrivateData).
  Result<processor::DensityMap> QueryDensity(int cols, int rows);

  /// Private NN over private data: "my nearest buddy" — the stored
  /// cloaked regions of every *other* user (requires SyncPrivateData).
  Result<PrivateNNResponse> QueryNearestPrivate(anonymizer::UserId uid);

  /// Public query over private data: expected/possible user counts in
  /// an exactly-known region (requires SyncPrivateData).
  Result<processor::RangeCountResult> QueryPublicRange(const Rect& region);

  /// Private range query over public data for `uid`.
  Result<processor::PublicRangeCandidates> QueryRangePublic(
      anonymizer::UserId uid, double radius);

  // --- Persistence ------------------------------------------------------

  /// Save the server tier (public targets + stored cloaked
  /// regions) to `sm` and commit. Anonymizer state — the pyramid, user
  /// registrations, pseudonyms — is deliberately not persisted: exact
  /// locations never leave the trusted tier, on disk or off.
  Status SaveServerState(storage::IStorageManager* sm) const {
    return server_.Save(sm);
  }

  /// Replace the server tier's state with the checkpoint on `sm`.
  Status OpenServerState(storage::IStorageManager* sm) {
    return server_.Open(sm);
  }

  // --- Introspection ----------------------------------------------------

  anonymizer::LocationAnonymizer& anonymizer() { return tier_.anonymizer(); }
  const processor::PublicTargetStore& public_store() const {
    return server_.public_store();
  }
  const processor::PrivateTargetStore& private_store() const {
    return server_.private_store();
  }
  const CasperOptions& options() const { return options_; }
  size_t user_count() const { return tier_.user_count(); }

  /// The client's own exact position (known only to the client and the
  /// trusted anonymizer; used for local refinement and quality checks).
  Result<Point> ClientPosition(anonymizer::UserId uid) const {
    return tier_.ClientPosition(uid);
  }

  /// Direct access to the tier objects, for callers that work at the
  /// wire-message level.
  anonymizer::AnonymizerTier& anonymizer_tier() { return tier_; }
  const anonymizer::AnonymizerTier& anonymizer_tier() const { return tier_; }
  server::QueryServer& query_server() { return server_; }
  const server::QueryServer& query_server() const { return server_; }

  /// The resilient client all anonymizer->server traffic flows through
  /// (breaker state, replay depth, Flush() for tests and the CLI).
  transport::ResilientClient& transport_client() { return *client_; }
  const transport::ResilientClient& transport_client() const {
    return *client_;
  }

 private:
  /// Evaluate() body with the span threaded through, structured so the
  /// span is always Finish()ed regardless of which step fails.
  Result<QueryResponse> EvaluateTraced(const QueryRequest& request,
                                       const anonymizer::CloakingResult& cloak,
                                       processor::ConcurrentQueryCache* cache,
                                       obs::QuerySpan* span) const;

  CasperOptions options_;
  obs::CasperMetrics* metrics_;
  server::QueryServer server_;
  // The transport stack between the tiers, bottom-up: the endpoint
  // decodes bytes into server_, the direct channel delivers bytes
  // in-process, an optional decorator (chaos, future remoting) wraps
  // it, and the resilient client — the only thing the facade and the
  // anonymizer's publications ever talk to — adds deadlines, retries,
  // circuit breaking, and degradation on top.
  transport::ServerEndpoint endpoint_;
  transport::DirectChannel direct_channel_;
  std::unique_ptr<transport::Channel> decorated_;
  std::unique_ptr<transport::ResilientClient> client_;
  anonymizer::AnonymizerTier tier_;
  bool private_data_dirty_ = true;
};

}  // namespace casper

#endif  // CASPER_CASPER_CASPER_H_
