#include "src/server/query_server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

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

namespace {

/// The handle -> region map of a private record list: every region
/// Storable and one region per handle, or the handle map and the store
/// would disagree. `what` names the list in the error.
Result<std::unordered_map<uint64_t, Rect>> IndexHandles(
    const std::vector<processor::PrivateTarget>& records,
    const std::string& what) {
  std::unordered_map<uint64_t, Rect> regions;
  regions.reserve(records.size());
  for (const processor::PrivateTarget& target : records) {
    if (!spatial::Storable(target.region)) {
      return Status::InvalidArgument(what + " region is empty or NaN");
    }
    if (!regions.emplace(target.id, target.region).second) {
      return Status::InvalidArgument(what + " repeats a handle");
    }
  }
  return regions;
}

/// Every record of `store`, in canonical order: a function of the
/// stored multiset alone, whatever the tree's shape.
template <typename Target>
std::vector<Target> CanonicalRecords(
    const typename processor::TargetStore<Target>::Snapshot& store) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Target> records;
  records.reserve(store.size());
  store.ForEachOverlapping(
      Rect(-kInf, -kInf, kInf, kInf),
      [&records](const Target& t) { records.push_back(t); });
  processor::Canonicalize(&records);
  return records;
}

// "SRV2": the server checkpoint page. "SRV1" named the stores' own tree
// pages, a format that no longer exists.
constexpr uint32_t kPageMagic = 0x32565253u;
constexpr uint32_t kPageMagicV1 = 0x31565253u;

}  // namespace

Status QueryServer::Load(const SnapshotMsg& snapshot) {
  CASPER_ASSIGN_OR_RETURN(regions, IndexHandles(snapshot.regions, "snapshot"));
  LoadRegions(snapshot.regions, std::move(regions));
  return Status::OK();
}

void QueryServer::LoadRegions(
    const std::vector<processor::PrivateTarget>& records,
    std::unordered_map<uint64_t, Rect> regions) {
  stored_regions_ = std::move(regions);
  private_store_ = processor::PrivateTargetStore(records);
  // The private store was replaced wholesale, so outcomes recorded for
  // the incremental stream no longer describe current state; retries
  // of earlier maintenance must re-apply against the new store.
  ForgetOutcomes();
  ExportEpochStats();
}

Status QueryServer::Save(storage::IStorageManager* sm) const {
  wire::Writer w;
  w.U32(kPageMagic);
  WriteList(w, CanonicalRecords<processor::PublicTarget>(public_store_));
  WriteList(w, CanonicalRecords<processor::PrivateTarget>(private_store_));
  const std::string page = w.Take();
  CASPER_ASSIGN_OR_RETURN(page_id, sm->Store(storage::kNoPage, page));
  CASPER_RETURN_IF_ERROR(sm->SetRoot(kRootSlot, page_id));
  return sm->Flush();
}

Status QueryServer::Open(storage::IStorageManager* sm) {
  CASPER_ASSIGN_OR_RETURN(page_id, sm->Root(kRootSlot));
  if (page_id == storage::kNoPage) {
    return Status::NotFound("no server checkpoint in storage");
  }
  std::string bytes;
  CASPER_RETURN_IF_ERROR(sm->Load(page_id, &bytes));
  wire::Reader r(bytes);
  const uint32_t magic = r.U32();
  if (!r.failed() && magic == kPageMagicV1) {
    return Status::InvalidArgument(
        "unsupported server checkpoint version 1 (want 2)");
  }
  if (r.failed() || magic != kPageMagic) {
    return Status::InvalidArgument("not a server checkpoint page");
  }
  std::vector<processor::PublicTarget> targets =
      ReadList<processor::PublicTarget>(r);
  std::vector<processor::PrivateTarget> records =
      ReadList<processor::PrivateTarget>(r);
  CASPER_RETURN_IF_ERROR(r.Finish("server checkpoint page"));
  for (const processor::PublicTarget& target : targets) {
    if (!spatial::Storable(target.box())) {
      return Status::InvalidArgument("checkpoint target is NaN");
    }
  }
  CASPER_ASSIGN_OR_RETURN(regions, IndexHandles(records, "checkpoint"));

  // Everything validated: a failed Open has left the server untouched.
  // A reopen is a new process lifetime, so recorded maintenance
  // outcomes do not survive it (same contract as a bulk snapshot Load).
  public_store_ = processor::PublicTargetStore(targets);
  LoadRegions(records, std::move(regions));
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

namespace {

bool Finite(const Point& p) {
  return std::isfinite(p.x) && std::isfinite(p.y);
}
bool Finite(const Rect& r) { return Finite(r.min) && Finite(r.max); }

/// Whether every coordinate the query carries is finite. A NaN defeats
/// the index walks' comparisons and distance keys, and an infinity
/// turns the filter bounds into NaN. Kinds that do not read a field get
/// it zeroed or default-constructed, so checking all of them turns away
/// only a malformed frame.
bool FiniteGeometry(const CloakedQueryMsg& query) {
  return Finite(query.cloak) && std::isfinite(query.radius) &&
         Finite(query.point) && Finite(query.region);
}

}  // namespace

Result<CandidateListMsg> QueryServer::ExecuteImpl(
    const CloakedQueryMsg& query,
    processor::ConcurrentQueryCache* cache) const {
  if (!FiniteGeometry(query)) {
    return Status::InvalidArgument("query geometry is NaN or infinite");
  }
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
