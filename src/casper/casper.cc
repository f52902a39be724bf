#include "src/casper/casper.h"

#include "src/common/stopwatch.h"
#include "src/processor/concurrent_query_cache.h"

namespace casper {

// src/obs/ duplicates the kind labels as strings so it can stay on both
// sides of the trust boundary without seeing the protocol headers; this
// is the one place that sees both, so pin the wire order here.
static_assert(obs::kQueryKindCount ==
                  static_cast<size_t>(QueryKind::kDensity) + 1,
              "obs::kQueryKindLabels must cover every QueryKind");
static_assert(static_cast<size_t>(QueryKind::kNearestPublic) == 0 &&
                  static_cast<size_t>(QueryKind::kKNearestPublic) == 1 &&
                  static_cast<size_t>(QueryKind::kRangePublic) == 2 &&
                  static_cast<size_t>(QueryKind::kNearestPrivate) == 3 &&
                  static_cast<size_t>(QueryKind::kPublicNearest) == 4 &&
                  static_cast<size_t>(QueryKind::kPublicRange) == 5 &&
                  static_cast<size_t>(QueryKind::kDensity) == 6,
              "obs::kQueryKindLabels is indexed by QueryKind wire value");

namespace {

server::QueryServerOptions ServerOptionsFrom(const CasperOptions& options,
                                             obs::CasperMetrics* metrics) {
  server::QueryServerOptions server_options;
  server_options.filter_policy = options.filter_policy;
  server_options.density_extent = options.pyramid.space;
  server_options.metrics = metrics;
  server_options.idempotency_window = options.server_idempotency_window;
  return server_options;
}

anonymizer::AnonymizerTierOptions TierOptionsFrom(
    const CasperOptions& options, obs::CasperMetrics* metrics) {
  anonymizer::AnonymizerTierOptions tier_options;
  tier_options.pyramid = options.pyramid;
  tier_options.use_adaptive_anonymizer = options.use_adaptive_anonymizer;
  tier_options.pseudonym_seed = options.pseudonym_seed;
  tier_options.publish_on_event = options.auto_sync_private_data;
  tier_options.metrics = metrics;
  return tier_options;
}

Status StaleSnapshotError() {
  return Status::FailedPrecondition(
      "private data snapshot is stale; call SyncPrivateData() first");
}

}  // namespace

CasperService::CasperService(const CasperOptions& options)
    : options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : obs::CasperMetrics::Default()),
      server_(ServerOptionsFrom(options, metrics_)),
      endpoint_(&server_),
      direct_channel_(&endpoint_),
      tier_(TierOptionsFrom(options, metrics_)) {
  transport::Channel* channel = &direct_channel_;
  if (options_.channel_decorator) {
    decorated_ = options_.channel_decorator(&direct_channel_);
    if (decorated_) channel = decorated_.get();
  }
  transport::ResilienceOptions resilience = options_.resilience;
  if (resilience.metrics == nullptr) resilience.metrics = metrics_;
  client_ = std::make_unique<transport::ResilientClient>(channel, resilience);
  // With auto-sync every mutation maintains the store, so the snapshot
  // is never stale; batch mode starts stale until the first sync.
  private_data_dirty_ = !options_.auto_sync_private_data;
}

Status CasperService::RegisterUser(anonymizer::UserId uid,
                                   const anonymizer::PrivacyProfile& profile,
                                   const Point& position) {
  CASPER_RETURN_IF_ERROR(
      tier_.RegisterUser(uid, profile, position, client_.get()));
  if (!options_.auto_sync_private_data) private_data_dirty_ = true;
  return Status::OK();
}

Status CasperService::UpdateUserLocation(anonymizer::UserId uid,
                                         const Point& position) {
  CASPER_RETURN_IF_ERROR(tier_.UpdateLocation(uid, position, client_.get()));
  if (!options_.auto_sync_private_data) private_data_dirty_ = true;
  return Status::OK();
}

Status CasperService::UpdateUserProfile(
    anonymizer::UserId uid, const anonymizer::PrivacyProfile& profile) {
  CASPER_RETURN_IF_ERROR(tier_.UpdateProfile(uid, profile, client_.get()));
  if (!options_.auto_sync_private_data) private_data_dirty_ = true;
  return Status::OK();
}

Status CasperService::DeregisterUser(anonymizer::UserId uid) {
  CASPER_RETURN_IF_ERROR(tier_.DeregisterUser(uid, client_.get()));
  if (!options_.auto_sync_private_data) private_data_dirty_ = true;
  return Status::OK();
}

void CasperService::AddPublicTarget(const processor::PublicTarget& target) {
  server_.AddPublicTarget(target);
}

void CasperService::SetPublicTargets(
    const std::vector<processor::PublicTarget>& targets) {
  server_.SetPublicTargets(targets);
}

Status CasperService::SyncPrivateData() {
  CASPER_ASSIGN_OR_RETURN(snapshot, tier_.BuildSnapshot());
  CASPER_RETURN_IF_ERROR(client_->Load(snapshot));
  private_data_dirty_ = false;
  return Status::OK();
}

Result<QueryResponse> CasperService::Execute(const QueryRequest& request) {
  const QueryKind kind = KindOf(request);
  if (UsesPrivateData(kind) && private_data_dirty_) {
    return StaleSnapshotError();
  }
  if (!IsCloakedKind(kind)) {
    return Evaluate(request, anonymizer::CloakingResult{});
  }

  // 1. The trusted anonymizer blurs the query location.
  Stopwatch watch;
  CASPER_ASSIGN_OR_RETURN(cloak, tier_.Cloak(UidOf(request)));
  const double anonymizer_seconds = watch.ElapsedSeconds();

  // 2+3. Server-side candidate list + client-side refinement.
  CASPER_ASSIGN_OR_RETURN(
      response, Evaluate(request, cloak, nullptr, anonymizer_seconds));
  SetAnonymizerSeconds(response, anonymizer_seconds);
  return response;
}

Result<QueryResponse> CasperService::Evaluate(
    const QueryRequest& request, const anonymizer::CloakingResult& cloak,
    processor::ConcurrentQueryCache* cache, double cloak_seconds) const {
  if (UsesPrivateData(KindOf(request)) && private_data_dirty_) {
    return StaleSnapshotError();
  }
  obs::QuerySpan span = metrics_->tracer.Start(
      obs::kQueryKindLabels[static_cast<size_t>(KindOf(request))]);
  span.phase_seconds[static_cast<size_t>(obs::Phase::kCloak)] = cloak_seconds;
  Result<QueryResponse> result = EvaluateTraced(request, cloak, cache, &span);
  metrics_->tracer.Finish(span);
  return result;
}

Result<QueryResponse> CasperService::EvaluateTraced(
    const QueryRequest& request, const anonymizer::CloakingResult& cloak,
    processor::ConcurrentQueryCache* cache, obs::QuerySpan* span) const {
  // Anonymizer tier: strip the identity; server tier: evaluate the
  // candidate list; anonymizer/client tier: refine with the exact
  // position. The three steps speak only wire messages.
  Result<CloakedQueryMsg> stripped = [&] {
    obs::ScopedPhase phase(span, obs::Phase::kWireEncode);
    return tier_.StripIdentity(request, cloak);
  }();
  if (!stripped.ok()) return stripped.status();
  Result<CandidateListMsg> answer = [&] {
    obs::ScopedPhase phase(span, obs::Phase::kEvaluate);
    return client_->Execute(stripped.value(), cache);
  }();
  if (!answer.ok()) return answer.status();
  obs::ScopedPhase phase(span, obs::Phase::kRefine);
  return tier_.RefineForClient(request, cloak, std::move(answer).value(),
                               options_.transmission);
}

Result<PublicNNResponse> CasperService::QueryNearestPublic(
    anonymizer::UserId uid) {
  CASPER_ASSIGN_OR_RETURN(response, Execute(QueryRequest(NearestPublicQ{uid})));
  return std::get<PublicNNResponse>(std::move(response));
}

Result<PublicKnnResponse> CasperService::QueryKNearestPublic(
    anonymizer::UserId uid, size_t k) {
  CASPER_ASSIGN_OR_RETURN(response,
                          Execute(QueryRequest(KNearestPublicQ{uid, k})));
  return std::get<PublicKnnResponse>(std::move(response));
}

Result<processor::PublicNNCandidates> CasperService::QueryPublicNearest(
    const Point& q) {
  CASPER_ASSIGN_OR_RETURN(response, Execute(QueryRequest(PublicNearestQ{q})));
  return std::get<processor::PublicNNCandidates>(std::move(response));
}

Result<processor::DensityMap> CasperService::QueryDensity(int cols,
                                                          int rows) {
  CASPER_ASSIGN_OR_RETURN(response,
                          Execute(QueryRequest(DensityQ{cols, rows})));
  return std::get<processor::DensityMap>(std::move(response));
}

Result<PrivateNNResponse> CasperService::QueryNearestPrivate(
    anonymizer::UserId uid) {
  CASPER_ASSIGN_OR_RETURN(response,
                          Execute(QueryRequest(NearestPrivateQ{uid})));
  return std::get<PrivateNNResponse>(std::move(response));
}

Result<processor::RangeCountResult> CasperService::QueryPublicRange(
    const Rect& region) {
  CASPER_ASSIGN_OR_RETURN(response, Execute(QueryRequest(PublicRangeQ{region})));
  return std::get<processor::RangeCountResult>(std::move(response));
}

Result<processor::PublicRangeCandidates> CasperService::QueryRangePublic(
    anonymizer::UserId uid, double radius) {
  CASPER_ASSIGN_OR_RETURN(response,
                          Execute(QueryRequest(RangePublicQ{uid, radius})));
  return std::move(std::get<PublicRangeResponse>(response).server_answer);
}

}  // namespace casper
