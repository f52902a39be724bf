#include "src/server/query_server.h"

#include <algorithm>

#include "src/common/codec.h"
#include "src/common/stopwatch.h"
#include "src/processor/density.h"
#include "src/processor/private_knn.h"
#include "src/processor/private_nn.h"
#include "src/processor/private_range.h"
#include "src/processor/public_nn_private.h"
#include "src/processor/public_range.h"

namespace casper::server {

QueryServer::QueryServer(const QueryServerOptions& options)
    : options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : obs::CasperMetrics::Default()) {}

void QueryServer::AddPublicTarget(const processor::PublicTarget& target) {
  public_store_.Insert(target);
  ExportEpochStats();
}

void QueryServer::SetPublicTargets(
    const std::vector<processor::PublicTarget>& targets) {
  public_store_ = processor::PublicTargetStore(targets);
  ExportEpochStats();
}

void QueryServer::ExportEpochStats() const {
  const spatial::EpochIndex::Stats stats[obs::kStoreCount] = {
      public_store_.epoch_stats(), private_store_.epoch_stats()};
  for (size_t s = 0; s < obs::kStoreCount; ++s) {
    metrics_->store_epoch[s]->Set(static_cast<double>(stats[s].published));
    metrics_->store_snapshots_reclaimed[s]->Set(
        static_cast<double>(stats[s].reclaimed));
    metrics_->store_rebuilds[s]->Set(static_cast<double>(stats[s].rebuilds));
    metrics_->store_delta_entries[s]->Set(
        static_cast<double>(stats[s].delta_entries));
    metrics_->store_tombstones[s]->Set(
        static_cast<double>(stats[s].tombstones));
  }
}

const Status* QueryServer::ReplayOutcome(uint64_t request_id) const {
  if (request_id == 0) return nullptr;
  auto it = applied_.find(request_id);
  return it != applied_.end() ? &it->second : nullptr;
}

void QueryServer::RecordOutcome(uint64_t request_id, const Status& outcome) {
  if (request_id == 0 || options_.idempotency_window == 0) return;
  if (applied_.emplace(request_id, outcome).second) {
    applied_order_.push_back(request_id);
    if (applied_order_.size() > options_.idempotency_window) {
      applied_.erase(applied_order_.front());
      applied_order_.pop_front();
    }
  }
}

void QueryServer::ForgetOutcomes() {
  applied_.clear();
  applied_order_.clear();
  retired_.clear();
  retired_order_.clear();
}

void QueryServer::MarkRetired(uint64_t handle) {
  if (retired_.insert(handle).second) {
    retired_order_.push_back(handle);
    // At least as deep as the outcome window: a replay old enough to
    // have lost its outcome entry must still find the retirement mark.
    const size_t bound = std::max<size_t>(options_.idempotency_window, 64);
    if (retired_order_.size() > bound) {
      retired_.erase(retired_order_.front());
      retired_order_.pop_front();
    }
  }
}

void QueryServer::RetireHandle(uint64_t handle) {
  auto it = stored_regions_.find(handle);
  if (it != stored_regions_.end()) {
    private_store_.Remove(processor::PrivateTarget{handle, it->second});
    stored_regions_.erase(it);
  }
  MarkRetired(handle);
}

Status QueryServer::Apply(const RegionUpsertMsg& msg) {
  if (const Status* replay = ReplayOutcome(msg.request_id)) return *replay;
  const Status outcome = ApplyUpsert(msg);
  RecordOutcome(msg.request_id, outcome);
  ExportEpochStats();
  return outcome;
}

Status QueryServer::ApplyUpsert(const RegionUpsertMsg& msg) {
  if (!spatial::Storable(msg.region)) {
    return Status::InvalidArgument("upsert region is empty or NaN");
  }
  if (retired_.count(msg.handle) > 0) {
    // A replay old enough to have fallen out of the outcome window,
    // arriving after its handle was already replaced or removed:
    // re-inserting would resurrect obsolete state next to its
    // successor, so the stale upsert converges to a no-op.
    return Status::OK();
  }
  if (msg.has_replaces) RetireHandle(msg.replaces);
  auto it = stored_regions_.find(msg.handle);
  if (it != stored_regions_.end()) {
    // Re-execution (beyond the window, or against a restarted peer):
    // converge on the message's region instead of double-inserting.
    private_store_.Remove(processor::PrivateTarget{msg.handle, it->second});
    it->second = msg.region;
  } else {
    stored_regions_[msg.handle] = msg.region;
  }
  private_store_.Insert(processor::PrivateTarget{msg.handle, msg.region});
  return Status::OK();
}

Status QueryServer::Apply(const RegionRemoveMsg& msg) {
  if (const Status* replay = ReplayOutcome(msg.request_id)) return *replay;
  const Status outcome = ApplyRemove(msg);
  RecordOutcome(msg.request_id, outcome);
  ExportEpochStats();
  return outcome;
}

Status QueryServer::ApplyRemove(const RegionRemoveMsg& msg) {
  auto it = stored_regions_.find(msg.handle);
  if (it == stored_regions_.end()) {
    // Removal is naturally idempotent: an unknown handle is a replay
    // beyond the window (or a remove that raced a snapshot). Converge
    // on "absent" and retire the handle so its upsert cannot return.
    MarkRetired(msg.handle);
    return Status::OK();
  }
  if (!private_store_.Remove(
          processor::PrivateTarget{msg.handle, it->second})) {
    return Status::Internal("stored region missing from private store");
  }
  stored_regions_.erase(it);
  MarkRetired(msg.handle);
  return Status::OK();
}

Status QueryServer::Load(const SnapshotView& snapshot) {
  const std::vector<processor::PrivateTarget> regions =
      snapshot.regions.Materialize();
  for (const processor::PrivateTarget& target : regions) {
    if (!spatial::Storable(target.region)) {
      return Status::InvalidArgument("snapshot region is empty or NaN");
    }
  }
  stored_regions_.clear();
  stored_regions_.reserve(regions.size());
  for (const processor::PrivateTarget& target : regions) {
    stored_regions_[target.id] = target.region;
  }
  private_store_ = processor::PrivateTargetStore(regions);
  // A snapshot replaces the whole store, so outcomes recorded for the
  // incremental stream no longer describe current state; retries of
  // pre-snapshot maintenance must re-apply against the new store.
  ForgetOutcomes();
  ExportEpochStats();
  return Status::OK();
}

namespace {

// "SRV1": rejects a page that is not a server-tier manifest.
constexpr uint32_t kManifestMagic = 0x31565253u;

}  // namespace

Status QueryServer::Save(storage::IStorageManager* sm) const {
  CASPER_ASSIGN_OR_RETURN(public_root, public_store_.SaveTo(sm));
  CASPER_ASSIGN_OR_RETURN(private_root, private_store_.SaveTo(sm));

  // The handle -> region map, in the snapshot's record layout.
  std::vector<processor::PrivateTarget> regions;
  regions.reserve(stored_regions_.size());
  for (const auto& [handle, region] : stored_regions_) {
    regions.push_back({handle, region});
  }
  wire::Writer rw;
  WriteList(rw, regions);
  const std::string regions_page = rw.Take();
  CASPER_ASSIGN_OR_RETURN(regions_id,
                          sm->Store(storage::kNoPage, regions_page));

  wire::Writer w;
  w.U32(kManifestMagic);
  w.U64(public_root);
  w.U64(private_root);
  w.U64(regions_id);
  const std::string manifest = w.Take();
  CASPER_ASSIGN_OR_RETURN(manifest_id, sm->Store(storage::kNoPage, manifest));
  CASPER_RETURN_IF_ERROR(sm->SetRoot(kManifestRootSlot, manifest_id));
  return sm->Flush();
}

Status QueryServer::Open(storage::IStorageManager* sm) {
  CASPER_ASSIGN_OR_RETURN(manifest_id, sm->Root(kManifestRootSlot));
  if (manifest_id == storage::kNoPage) {
    return Status::NotFound("no server checkpoint in storage");
  }
  std::string bytes;
  CASPER_RETURN_IF_ERROR(sm->Load(manifest_id, &bytes));
  wire::Reader r(bytes);
  if (r.U32() != kManifestMagic || r.failed()) {
    return Status::InvalidArgument("not a server manifest page");
  }
  const storage::PageId public_root = r.U64();
  const storage::PageId private_root = r.U64();
  const storage::PageId regions_id = r.U64();
  CASPER_RETURN_IF_ERROR(r.Finish("server manifest page"));

  CASPER_ASSIGN_OR_RETURN(
      public_store, processor::PublicTargetStore::LoadFrom(sm, public_root));
  CASPER_ASSIGN_OR_RETURN(
      private_store,
      processor::PrivateTargetStore::LoadFrom(sm, private_root));

  std::string region_bytes;
  CASPER_RETURN_IF_ERROR(sm->Load(regions_id, &region_bytes));
  wire::Reader rr(region_bytes);
  const WireSpan<processor::PrivateTarget> records =
      ReadList<processor::PrivateTarget>(rr);
  CASPER_RETURN_IF_ERROR(rr.Finish("server regions page"));
  std::unordered_map<uint64_t, Rect> regions;
  regions.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const processor::PrivateTarget record = records[i];
    regions[record.id] = record.region;
  }

  // Only swap state in once every piece loaded: a failed Open leaves
  // the server untouched.
  public_store_ = std::move(public_store);
  private_store_ = std::move(private_store);
  stored_regions_ = std::move(regions);
  // A reopen is a new process lifetime; recorded maintenance outcomes
  // do not survive it (same contract as a bulk snapshot Load).
  ForgetOutcomes();
  ExportEpochStats();
  return Status::OK();
}

Result<CandidateListMsg> QueryServer::Execute(
    const CloakedQueryMsg& query,
    processor::ConcurrentQueryCache* cache) const {
  Result<CandidateListMsg> result = ExecuteImpl(query, cache);
  const auto kind = static_cast<size_t>(query.kind);
  if (kind < obs::kQueryKindCount) {
    if (!result.ok()) {
      metrics_->query_errors_total[kind]->Increment();
    } else {
      metrics_->queries_total[kind]->Increment();
      metrics_->query_seconds[kind]->Observe(result->processor_seconds);
      metrics_->candidates[kind]->Observe(
          static_cast<double>(RecordCount(result->payload)));
    }
  }
  return result;
}

Result<CandidateListMsg> QueryServer::ExecuteImpl(
    const CloakedQueryMsg& query,
    processor::ConcurrentQueryCache* cache) const {
  CandidateListMsg response;
  response.kind = query.kind;
  Stopwatch watch;
  switch (query.kind) {
    case QueryKind::kNearestPublic: {
      Result<processor::PublicCandidateList> answer =
          cache != nullptr
              ? cache->Query(query.cloak)
              : processor::PrivateNearestNeighbor(public_store_, query.cloak,
                                                  options_.filter_policy);
      if (!answer.ok()) return answer.status();
      response.processor_seconds = watch.ElapsedSeconds();
      response.payload = std::move(answer).value();
      return response;
    }
    case QueryKind::kKNearestPublic: {
      CASPER_ASSIGN_OR_RETURN(
          answer, processor::PrivateKNearestNeighbors(
                      public_store_, query.cloak, query.k));
      response.processor_seconds = watch.ElapsedSeconds();
      response.payload = std::move(answer);
      return response;
    }
    case QueryKind::kRangePublic: {
      CASPER_ASSIGN_OR_RETURN(
          answer, processor::PrivateRangeOverPublic(public_store_, query.cloak,
                                                    query.radius));
      response.processor_seconds = watch.ElapsedSeconds();
      response.payload = std::move(answer);
      return response;
    }
    case QueryKind::kNearestPrivate: {
      processor::PrivateNNOptions nn_options;
      nn_options.policy = options_.filter_policy;
      // The requester's own stored region rides along as an opaque
      // handle; left eligible it would win every filter probe and
      // starve the actual buddies.
      if (query.has_exclude) nn_options.exclude_id = query.exclude_handle;
      CASPER_ASSIGN_OR_RETURN(answer,
                              processor::PrivateNearestNeighborOverPrivate(
                                  private_store_, query.cloak, nn_options));
      response.processor_seconds = watch.ElapsedSeconds();
      response.payload = std::move(answer);
      return response;
    }
    case QueryKind::kPublicNearest: {
      CASPER_ASSIGN_OR_RETURN(answer,
                              processor::PublicNearestNeighborOverPrivate(
                                  private_store_, query.point));
      response.processor_seconds = watch.ElapsedSeconds();
      response.payload = std::move(answer);
      return response;
    }
    case QueryKind::kPublicRange: {
      CASPER_ASSIGN_OR_RETURN(
          answer, processor::PublicRangeCount(private_store_, query.region));
      response.processor_seconds = watch.ElapsedSeconds();
      response.payload = std::move(answer);
      return response;
    }
    case QueryKind::kDensity: {
      CASPER_ASSIGN_OR_RETURN(
          answer, processor::ExpectedDensity(private_store_,
                                             options_.density_extent,
                                             query.cols, query.rows));
      response.processor_seconds = watch.ElapsedSeconds();
      response.payload = std::move(answer);
      return response;
    }
  }
  return Status::InvalidArgument("unknown query kind");
}

}  // namespace casper::server
