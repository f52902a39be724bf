#include "src/anonymizer/anonymizer_tier.h"

#include <utility>
#include <vector>

#include "src/anonymizer/adaptive_anonymizer.h"
#include "src/anonymizer/basic_anonymizer.h"
#include "src/common/stopwatch.h"
#include "src/processor/private_knn.h"
#include "src/processor/private_nn.h"
#include "src/processor/private_range.h"

namespace casper::anonymizer {

AnonymizerTier::AnonymizerTier(const AnonymizerTierOptions& options)
    : options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : obs::CasperMetrics::Default()),
      pseudonyms_(options.pseudonym_seed) {
  if (options_.use_adaptive_anonymizer) {
    anonymizer_ = std::make_unique<AdaptiveAnonymizer>(options_.pyramid);
  } else {
    anonymizer_ = std::make_unique<BasicAnonymizer>(options_.pyramid);
  }
}

void AnonymizerTier::SyncPyramidMetrics() {
  const MaintenanceStats& stats = anonymizer_->stats();
  auto bump = [](obs::Counter* counter, uint64_t current, uint64_t* last) {
    // ResetStats() (bench harnesses) shrinks the source counters; the
    // diff simply re-bases without decrementing the monotonic metric.
    if (current > *last) counter->Increment(current - *last);
    *last = current;
  };
  bump(metrics_->pyramid_splits_total, stats.splits, &last_splits_);
  bump(metrics_->pyramid_merges_total, stats.merges, &last_merges_);
  bump(metrics_->pyramid_counter_updates_total, stats.counter_updates,
       &last_counter_updates_);
}

void AnonymizerTier::SyncGauges() {
  metrics_->users->Set(static_cast<double>(anonymizer_->user_count()));
  metrics_->pending_publications->Set(
      static_cast<double>(pending_publication_.size()));
}

Result<CloakingResult> AnonymizerTier::Cloak(UserId uid) {
  Stopwatch watch;
  Result<CloakingResult> result = anonymizer_->Cloak(uid);
  if (!result.ok()) {
    metrics_->cloak_failures_total->Increment();
    return result;
  }
  metrics_->cloaks_total->Increment();
  metrics_->cloak_seconds->Observe(watch.ElapsedSeconds());
  metrics_->cloak_area->Observe(result->region.Area());
  metrics_->cloak_k_achieved->Observe(
      static_cast<double>(result->users_in_region));
  return result;
}

Status AnonymizerTier::RegisterUser(UserId uid, const PrivacyProfile& profile,
                                    const Point& position,
                                    PrivateStoreSink* sink) {
  CASPER_RETURN_IF_ERROR(anonymizer_->RegisterUser(uid, profile, position));
  metrics_->user_events_total[static_cast<size_t>(obs::UserEvent::kRegister)]
      ->Increment();
  client_positions_[uid] = position;
  Status status = Status::OK();
  if (options_.publish_on_event) {
    status = PublishRegion(uid, sink);
    // A larger population can make previously unsatisfiable profiles
    // publishable.
    if (status.ok()) status = RetryPendingPublications(sink);
  }
  SyncPyramidMetrics();
  SyncGauges();
  return status;
}

Status AnonymizerTier::UpdateLocation(UserId uid, const Point& position,
                                      PrivateStoreSink* sink) {
  CASPER_RETURN_IF_ERROR(anonymizer_->UpdateLocation(uid, position));
  metrics_->user_events_total[static_cast<size_t>(obs::UserEvent::kMove)]
      ->Increment();
  client_positions_[uid] = position;
  Status status = Status::OK();
  if (options_.publish_on_event) {
    status = PublishRegion(uid, sink);
  }
  SyncPyramidMetrics();
  SyncGauges();
  return status;
}

Status AnonymizerTier::UpdateProfile(UserId uid, const PrivacyProfile& profile,
                                     PrivateStoreSink* sink) {
  CASPER_RETURN_IF_ERROR(anonymizer_->UpdateProfile(uid, profile));
  metrics_->user_events_total[static_cast<size_t>(obs::UserEvent::kProfile)]
      ->Increment();
  Status status = Status::OK();
  if (options_.publish_on_event) {
    status = PublishRegion(uid, sink);
  }
  SyncPyramidMetrics();
  SyncGauges();
  return status;
}

Status AnonymizerTier::DeregisterUser(UserId uid, PrivateStoreSink* sink) {
  CASPER_RETURN_IF_ERROR(anonymizer_->DeregisterUser(uid));
  metrics_->user_events_total[static_cast<size_t>(obs::UserEvent::kDeregister)]
      ->Increment();
  client_positions_.erase(uid);
  pending_publication_.erase(uid);
  CASPER_RETURN_IF_ERROR(RetractRegion(uid, sink));
  if (current_pseudonym_.erase(uid) > 0) {
    CASPER_RETURN_IF_ERROR(pseudonyms_.Forget(uid));
  }
  SyncPyramidMetrics();
  SyncGauges();
  return Status::OK();
}

Status AnonymizerTier::RetryPendingPublications(PrivateStoreSink* sink) {
  if (pending_publication_.empty()) return Status::OK();
  const std::vector<UserId> pending(pending_publication_.begin(),
                                    pending_publication_.end());
  for (UserId uid : pending) {
    CASPER_RETURN_IF_ERROR(PublishRegion(uid, sink));
  }
  return Status::OK();
}

Result<Pseudonym> AnonymizerTier::NextPseudonym(UserId uid) {
  if (current_pseudonym_.count(uid) > 0) {
    return pseudonyms_.Rotate(uid);
  }
  return pseudonyms_.PseudonymFor(uid);
}

Status AnonymizerTier::PublishRegion(UserId uid, PrivateStoreSink* sink) {
  CASPER_RETURN_IF_ERROR(RetractRegion(uid, sink));
  auto cloak = Cloak(uid);
  if (cloak.status().code() == StatusCode::kFailedPrecondition) {
    // The profile cannot be satisfied yet (k exceeds the current
    // population). Publishing nothing is the only safe choice; the
    // user is retried once the population grows.
    pending_publication_.insert(uid);
    return Status::OK();
  }
  if (!cloak.ok()) return cloak.status();
  pending_publication_.erase(uid);
  CASPER_ASSIGN_OR_RETURN(pseudonym, NextPseudonym(uid));
  current_pseudonym_[uid] = pseudonym;
  published_.insert(uid);
  RegionUpsertMsg upsert;
  upsert.handle = pseudonym;
  upsert.region = cloak.value().region;
  CASPER_RETURN_IF_ERROR(sink->Apply(upsert));
  metrics_->regions_published_total->Increment();
  return Status::OK();
}

Status AnonymizerTier::RetractRegion(UserId uid, PrivateStoreSink* sink) {
  auto pseudonym = current_pseudonym_.find(uid);
  if (published_.count(uid) == 0 || pseudonym == current_pseudonym_.end()) {
    return Status::OK();  // Nothing stored yet.
  }
  RegionRemoveMsg remove;
  remove.handle = pseudonym->second;
  CASPER_RETURN_IF_ERROR(sink->Apply(remove));
  published_.erase(uid);
  metrics_->regions_retracted_total->Increment();
  return Status::OK();
}

Result<SnapshotMsg> AnonymizerTier::BuildSnapshot() {
  SnapshotMsg snapshot;
  snapshot.regions.reserve(client_positions_.size());
  published_.clear();
  for (const auto& [uid, pos] : client_positions_) {
    (void)pos;
    auto cloak = Cloak(uid);
    if (cloak.status().code() == StatusCode::kFailedPrecondition) {
      // Unsatisfiable profile (k above the population): never publish a
      // weaker region; the user simply stays out of this snapshot.
      pending_publication_.insert(uid);
      continue;
    }
    if (!cloak.ok()) return cloak.status();
    pending_publication_.erase(uid);
    published_.insert(uid);
    // Strip the identity: the server sees a fresh pseudonym per
    // snapshot, so regions cannot be linked across syncs.
    CASPER_ASSIGN_OR_RETURN(pseudonym, NextPseudonym(uid));
    current_pseudonym_[uid] = pseudonym;
    snapshot.regions.push_back(
        processor::PrivateTarget{pseudonym, cloak.value().region});
  }
  metrics_->snapshots_total->Increment();
  metrics_->regions_published_total->Increment(snapshot.regions.size());
  SyncPyramidMetrics();
  SyncGauges();
  return snapshot;
}

Result<CloakedQueryMsg> AnonymizerTier::StripIdentity(
    const QueryRequest& request, const CloakingResult& cloak) const {
  CloakedQueryMsg msg;
  msg.kind = KindOf(request);
  if (IsCloakedKind(msg.kind)) msg.cloak = cloak.region;
  if (const auto* q = std::get_if<KNearestPublicQ>(&request)) {
    msg.k = q->k;
  } else if (const auto* q = std::get_if<RangePublicQ>(&request)) {
    msg.radius = q->radius;
  } else if (const auto* q = std::get_if<NearestPrivateQ>(&request)) {
    // The requester's own region is stored too (under her current
    // pseudonym); the server must exclude it from buddy answers. The
    // handle is opaque outside this tier.
    const auto self = current_pseudonym_.find(q->uid);
    if (self != current_pseudonym_.end()) {
      msg.has_exclude = true;
      msg.exclude_handle = self->second;
    }
  } else if (const auto* q = std::get_if<PublicNearestQ>(&request)) {
    msg.point = q->q;
  } else if (const auto* q = std::get_if<PublicRangeQ>(&request)) {
    msg.region = q->region;
  } else if (const auto* q = std::get_if<DensityQ>(&request)) {
    msg.cols = q->cols;
    msg.rows = q->rows;
  }
  return msg;
}

Result<QueryResponse> AnonymizerTier::RefineForClient(
    const QueryRequest& request, const CloakingResult& cloak,
    CandidateListMsg answer, const TransmissionModel& model) const {
  const uint64_t uid = UidOf(request);
  TimingBreakdown timing;
  timing.processor_seconds = answer.processor_seconds;
  timing.transmission_seconds = model.SecondsFor(RecordCount(answer.payload));

  switch (answer.kind) {
    case QueryKind::kNearestPublic: {
      PublicNNResponse response;
      response.cloak = cloak;
      response.timing = timing;
      response.degraded = answer.degraded;
      response.server_answer =
          std::get<processor::PublicCandidateList>(std::move(answer.payload));
      // The client refines locally with its exact position.
      CASPER_ASSIGN_OR_RETURN(position, ClientPosition(uid));
      CASPER_ASSIGN_OR_RETURN(
          exact, processor::RefineNearest(response.server_answer.candidates,
                                          position));
      response.exact = exact;
      return QueryResponse(std::move(response));
    }
    case QueryKind::kKNearestPublic: {
      PublicKnnResponse response;
      response.cloak = cloak;
      response.timing = timing;
      response.degraded = answer.degraded;
      response.server_answer =
          std::get<processor::KnnCandidateList>(std::move(answer.payload));
      CASPER_ASSIGN_OR_RETURN(position, ClientPosition(uid));
      response.exact =
          processor::RefineKNearest(response.server_answer.candidates,
                                    position, response.server_answer.k);
      return QueryResponse(std::move(response));
    }
    case QueryKind::kRangePublic: {
      PublicRangeResponse response;
      response.cloak = cloak;
      response.timing = timing;
      response.degraded = answer.degraded;
      response.server_answer =
          std::get<processor::PublicRangeCandidates>(std::move(answer.payload));
      const auto* q = std::get_if<RangePublicQ>(&request);
      const double radius = q != nullptr ? q->radius : 0.0;
      CASPER_ASSIGN_OR_RETURN(position, ClientPosition(uid));
      response.exact = processor::RefineRange(
          response.server_answer.candidates, position, radius);
      return QueryResponse(std::move(response));
    }
    case QueryKind::kNearestPrivate: {
      PrivateNNResponse response;
      response.cloak = cloak;
      response.timing = timing;
      response.degraded = answer.degraded;
      response.server_answer =
          std::get<processor::PrivateCandidateList>(std::move(answer.payload));
      if (response.server_answer.candidates.empty()) {
        return Status::NotFound("no other users available as buddies");
      }
      CASPER_ASSIGN_OR_RETURN(position, ClientPosition(uid));
      CASPER_ASSIGN_OR_RETURN(
          best,
          processor::RefineNearestRegion(response.server_answer.candidates,
                                         position));
      response.best = best;
      return QueryResponse(std::move(response));
    }
    // The public-over-private kinds need no client-side refinement (the
    // asker knows her exact parameters); they pass through untimed,
    // matching the facade's historical behavior.
    case QueryKind::kPublicNearest:
      return QueryResponse(
          std::get<processor::PublicNNCandidates>(std::move(answer.payload)));
    case QueryKind::kPublicRange:
      return QueryResponse(
          std::get<processor::RangeCountResult>(std::move(answer.payload)));
    case QueryKind::kDensity:
      return QueryResponse(
          std::get<processor::DensityMap>(std::move(answer.payload)));
  }
  return Status::InvalidArgument("unknown query kind");
}

Result<Point> AnonymizerTier::ClientPosition(UserId uid) const {
  auto it = client_positions_.find(uid);
  if (it == client_positions_.end()) return Status::NotFound("unknown user");
  return it->second;
}

}  // namespace casper::anonymizer
