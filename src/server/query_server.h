#ifndef CASPER_SERVER_QUERY_SERVER_H_
#define CASPER_SERVER_QUERY_SERVER_H_

#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/casper/messages.h"
#include "src/obs/casper_metrics.h"
#include "src/processor/concurrent_query_cache.h"
#include "src/processor/target_store.h"
#include "src/storage/storage_manager.h"

/// \file
/// The privacy-aware database server tier (Figure 1, right box). It
/// stores the public targets and the cloaked user regions, and answers
/// every query kind of the framework — but it speaks only the wire
/// protocol of src/casper/messages.h: cloaked queries in, candidate
/// lists out, region maintenance through opaque pseudonym handles. By
/// construction (and enforced by tests/tier_boundary_test.cc) nothing
/// in this tier can name a user id or the pseudonym registry; the §3
/// pseudonymity claim holds at compile time, not by convention.

namespace casper::server {

struct QueryServerOptions {
  processor::FilterPolicy filter_policy =
      processor::FilterPolicy::kFourFilters;

  /// Extent of density maps (the managed space; public configuration,
  /// not user data).
  Rect density_extent = Rect(0.0, 0.0, 1.0, 1.0);

  /// Instrument bundle; null resolves to obs::CasperMetrics::Default().
  /// The server tier records only aggregate latencies, counts, and
  /// candidate-list sizes — nothing identity-shaped crosses into it.
  obs::CasperMetrics* metrics = nullptr;

  /// Bound of the idempotency window (FIFO eviction): maintenance
  /// request ids whose outcome is remembered for replay, and retired
  /// handles remembered so a replay arriving *after* eviction
  /// re-executes safely instead of resurrecting replaced state. Size it
  /// so a client retrying within any sane backoff horizon hits the
  /// window; memory stays O(window). 0 disables replay memory entirely
  /// (re-execution is still safe, just not answer-stable).
  size_t idempotency_window = 8192;
};

/// The server tier. Mutations (target edits, region maintenance,
/// snapshot loads) are single-threaded by design; Execute() is const
/// and reads each store through one snapshot per query, so it may be
/// fanned across threads provided no mutation runs concurrently.
class QueryServer : public PrivateStoreSink {
 public:
  explicit QueryServer(const QueryServerOptions& options);

  // --- Public data (stored exactly) -----------------------------------

  void AddPublicTarget(const processor::PublicTarget& target);
  void SetPublicTargets(const std::vector<processor::PublicTarget>& targets);

  // --- Private data (cloaked regions under pseudonym handles) ---------

  /// Incremental maintenance stream from the anonymizer. Messages that
  /// carry a non-zero request_id are idempotent: a duplicated delivery
  /// (an at-least-once transport retrying a request whose response was
  /// lost) replays the originally recorded outcome instead of
  /// double-applying the mutation. An upsert whose region is empty or
  /// NaN (not spatial::Storable) fails kInvalidArgument unapplied.
  Status Apply(const RegionUpsertMsg& msg) override;
  Status Apply(const RegionRemoveMsg& msg) override;

  /// Bulk snapshot replacing the whole private store (the batch
  /// SyncPrivateData model): the decoded (handle, region) records are
  /// STR bulk-loaded. A snapshot holding an empty or NaN region, or
  /// two regions under one handle, fails kInvalidArgument and leaves
  /// the store as it was.
  Status Load(const SnapshotMsg& snapshot);

  // --- Query evaluation -----------------------------------------------

  /// Answers one identity-stripped query: runs the privacy-aware
  /// processor for the message's kind and returns the candidate list
  /// plus the server-side processing cost (Figure 17's processor
  /// share). `cache`, when non-null, memoizes kNearestPublic candidate
  /// lists by cloak rectangle (answers identical to the direct path).
  Result<CandidateListMsg> Execute(
      const CloakedQueryMsg& query,
      processor::ConcurrentQueryCache* cache = nullptr) const;

  // --- Persistence ------------------------------------------------------

  /// Checkpoint the whole server tier — both target stores and the
  /// handle -> region map — to `sm`, record the manifest in root slot
  /// kManifestRootSlot, and Flush() (the durable commit point on a
  /// disk-backed manager).
  Status Save(storage::IStorageManager* sm) const;

  /// Replace this server's state with the last committed checkpoint on
  /// `sm`. The idempotency window resets: a reopen is a new process
  /// lifetime, the same contract as a bulk snapshot Load. A checkpoint
  /// whose handle -> region page does not hold exactly the private
  /// store's entries, one per handle, fails kInvalidArgument; a failed
  /// Open leaves the server as it was.
  Status Open(storage::IStorageManager* sm);

  /// Root slot holding the server manifest page.
  static constexpr size_t kManifestRootSlot = 0;

  // --- Introspection ----------------------------------------------------

  const processor::PublicTargetStore& public_store() const {
    return public_store_;
  }
  const processor::PrivateTargetStore& private_store() const {
    return private_store_;
  }
  const QueryServerOptions& options() const { return options_; }

  /// Maintenance request ids whose outcome is remembered for replay.
  size_t applied_request_count() const { return applied_.size(); }

 private:
  Result<CandidateListMsg> ExecuteImpl(
      const CloakedQueryMsg& query,
      processor::ConcurrentQueryCache* cache) const;

  Status ApplyUpsert(const RegionUpsertMsg& msg);
  Status ApplyRemove(const RegionRemoveMsg& msg);

  /// Mirror both stores' epoch/reclamation counters into the obs
  /// gauges. Called after every mutation (the read path never touches
  /// metrics state, keeping Execute() lock-free end to end).
  void ExportEpochStats() const;

  /// Outcome previously recorded for `request_id`, or nullptr when the
  /// id is unkeyed (0) or unseen.
  const Status* ReplayOutcome(uint64_t request_id) const;
  void RecordOutcome(uint64_t request_id, const Status& outcome);
  /// Drop the idempotency window and retirement marks (the private
  /// store was replaced wholesale).
  void ForgetOutcomes();

  /// Drop `handle` from the stores if present and remember it as
  /// retired, so a stale upsert replayed after window eviction cannot
  /// resurrect it.
  void RetireHandle(uint64_t handle);
  void MarkRetired(uint64_t handle);

  QueryServerOptions options_;
  obs::CasperMetrics* metrics_;
  processor::PublicTargetStore public_store_;
  processor::PrivateTargetStore private_store_;
  /// handle -> stored region, so maintenance messages can address
  /// regions by pseudonym handle alone.
  std::unordered_map<uint64_t, Rect> stored_regions_;
  /// request_id -> recorded outcome, FIFO-bounded by the configured
  /// idempotency window.
  std::unordered_map<uint64_t, Status> applied_;
  std::deque<uint64_t> applied_order_;
  /// Handles replaced or removed, FIFO-bounded like `applied_`: the
  /// safety net for replays that outlive their window entry.
  std::unordered_set<uint64_t> retired_;
  std::deque<uint64_t> retired_order_;
};

}  // namespace casper::server

#endif  // CASPER_SERVER_QUERY_SERVER_H_
