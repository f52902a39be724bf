#include "src/processor/target_store.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace casper::processor {

namespace {

std::vector<spatial::Entry> ToEntries(
    const std::vector<PublicTarget>& targets) {
  std::vector<spatial::Entry> entries;
  entries.reserve(targets.size());
  for (const PublicTarget& t : targets) {
    entries.push_back({Rect::FromPoint(t.position), t.id});
  }
  return entries;
}

std::vector<spatial::Entry> ToEntries(
    const std::vector<PrivateTarget>& targets) {
  std::vector<spatial::Entry> entries;
  entries.reserve(targets.size());
  for (const PrivateTarget& t : targets) {
    entries.push_back({t.region, t.id});
  }
  return entries;
}

// PlanCanonicalSort's costs, in units of one std::sort compare on a
// list that fits in L1, fitted on micro_core (x86-64, gcc 12, -O3).
// Larger lists make compares dearer, so the model leans to std::sort
// there.
constexpr double kScatter = 5.0;  // Per record, per pass.
constexpr double kBucket = 0.5;   // Per bucket, per pass.
constexpr int kMaxDigitBits = 11;

}  // namespace

RadixPlan PlanCanonicalSort(size_t n, int span_bits) {
  RadixPlan best;
  // One id is a single CanonicalLess run; offsets are 32-bit.
  if (span_bits == 0 || n < kMinRadixRecords || n > UINT32_MAX) return best;
  double best_cost =
      static_cast<double>(n) * std::log2(static_cast<double>(n));
  // Extra passes shrink the buckets but rescan every record; the
  // search stops at three more than the span needs.
  const int min_passes = (span_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  for (int passes = min_passes;
       passes <= std::min(span_bits, min_passes + 3); ++passes) {
    const int digit_bits = (span_bits + passes - 1) / passes;
    if ((passes - 1) * digit_bits >= span_bits) continue;  // A dead pass.
    const double cost =
        passes * (kScatter * static_cast<double>(n) +
                  kBucket * static_cast<double>(size_t{1} << digit_bits));
    if (cost < best_cost) {
      best_cost = cost;
      best = {passes, digit_bits};
    }
  }
  return best;
}

int MaxRadixSpanBits(size_t n) {
  if (n < kMinRadixRecords) return 0;
  // Every pass scatters all n records, so the radix beats n log2 n
  // compares only with fewer than log2(n) / kScatter passes.
  const double passes =
      std::ceil(std::log2(static_cast<double>(n)) / kScatter) - 1;
  return std::clamp(static_cast<int>(passes) * kMaxDigitBits, 0, 64);
}

PublicTargetStore::PublicTargetStore(const std::vector<PublicTarget>& targets)
    : index_(spatial::EpochIndex::BulkLoad(ToEntries(targets))) {}

void PublicTargetStore::Insert(const PublicTarget& target) {
  index_.Insert(Rect::FromPoint(target.position), target.id);
}

bool PublicTargetStore::Remove(const PublicTarget& target) {
  return index_.Remove(Rect::FromPoint(target.position), target.id);
}

PublicTargetStore::Snapshot::Snapshot(const PublicTargetStore& store)
    : index_(store.index_.Acquire()) {}

Result<PublicTarget> PublicTargetStore::Snapshot::Nearest(
    const Point& q) const {
  const auto nn = index_->KNearest(q, 1, spatial::Metric::kMinDist);
  if (nn.empty()) return Status::NotFound("target store is empty");
  return PublicTarget{nn[0].id, nn[0].box.min};
}

std::vector<PublicTarget> PublicTargetStore::Snapshot::KNearest(
    const Point& q, size_t k) const {
  std::vector<PublicTarget> out;
  for (const auto& n : index_->KNearest(q, k, spatial::Metric::kMinDist)) {
    out.push_back(PublicTarget{n.id, n.box.min});
  }
  return out;
}

std::vector<PublicTarget> PublicTargetStore::Snapshot::RangeQuery(
    const Rect& window) const {
  std::vector<PublicTarget> out;
  index_->RangeQuery(window, [&out](const spatial::Entry& e) {
    out.push_back(PublicTarget{e.id, e.box.min});
    return true;
  });
  return out;
}

PrivateTargetStore::PrivateTargetStore(
    const std::vector<PrivateTarget>& targets)
    : index_(spatial::EpochIndex::BulkLoad(ToEntries(targets))) {}

void PrivateTargetStore::Insert(const PrivateTarget& target) {
  index_.Insert(target.region, target.id);
}

bool PrivateTargetStore::Remove(const PrivateTarget& target) {
  return index_.Remove(target.region, target.id);
}

PrivateTargetStore::Snapshot::Snapshot(const PrivateTargetStore& store)
    : index_(store.index_.Acquire()) {}

Result<PrivateTarget> PrivateTargetStore::Snapshot::NearestByMaxDist(
    const Point& q, std::optional<TargetId> exclude) const {
  const size_t want = exclude.has_value() ? 2 : 1;
  for (const auto& n : index_->KNearest(q, want, spatial::Metric::kMaxDist)) {
    if (exclude.has_value() && n.id == *exclude) continue;
    return PrivateTarget{n.id, n.box};
  }
  return Status::NotFound("no eligible target in store");
}

std::vector<PrivateTarget> PrivateTargetStore::Snapshot::Overlapping(
    const Rect& window) const {
  std::vector<PrivateTarget> out;
  ForEachOverlapping(window,
                     [&out](const PrivateTarget& t) { out.push_back(t); });
  return out;
}

std::vector<PrivateTarget> PrivateTargetStore::Snapshot::OverlappingAtLeast(
    const Rect& window, double min_overlap_fraction) const {
  CASPER_DCHECK(min_overlap_fraction >= 0.0 && min_overlap_fraction <= 1.0);
  std::vector<PrivateTarget> out;
  ForEachOverlapping(window, [&](const PrivateTarget& t) {
    const double area = t.region.Area();
    const double overlap = t.region.IntersectionArea(window);
    // Degenerate (zero-area) regions count as fully overlapped.
    const double fraction = area > 0.0 ? overlap / area : 1.0;
    if (fraction >= min_overlap_fraction) out.push_back(t);
  });
  return out;
}

Result<PublicTargetStore> PublicTargetStore::LoadFrom(
    storage::IStorageManager* sm, storage::PageId root) {
  PublicTargetStore store;
  CASPER_ASSIGN_OR_RETURN(index, spatial::EpochIndex::Restore(sm, root));
  store.index_ = std::move(index);
  return store;
}

Result<PrivateTargetStore> PrivateTargetStore::LoadFrom(
    storage::IStorageManager* sm, storage::PageId root) {
  PrivateTargetStore store;
  CASPER_ASSIGN_OR_RETURN(index, spatial::EpochIndex::Restore(sm, root));
  store.index_ = std::move(index);
  return store;
}

}  // namespace casper::processor
