#include "src/processor/target_store.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace casper::processor {

namespace {

template <typename Target>
std::vector<spatial::Entry> ToEntries(const std::vector<Target>& targets) {
  std::vector<spatial::Entry> entries;
  entries.reserve(targets.size());
  for (const Target& t : targets) entries.push_back({t.box(), t.id});
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

template <typename Target>
TargetStore<Target>::TargetStore(const std::vector<Target>& targets)
    : index_(spatial::EpochIndex::BulkLoad(ToEntries(targets))) {}

template <typename Target>
std::vector<Target> TargetStore<Target>::Snapshot::KNearest(
    const Point& q, size_t k, std::optional<TargetId> exclude) const {
  if (k == 0) return {};
  // Records under `exclude` hold places among the walk's best, so the
  // walk widens until k others are in or the whole store is ranked.
  for (size_t want = std::min(k, size()) + exclude.has_value();;
       want *= 2) {
    const std::vector<spatial::Neighbor> nn = index_->KNearest(q, want);
    std::vector<Target> out;
    for (const spatial::Neighbor& n : nn) {
      if (n.id == exclude) continue;
      out.push_back(Target::FromEntry({n.box, n.id}));
      if (out.size() == k) return out;
    }
    if (nn.size() < want || want >= size()) return out;
  }
}

template <typename Target>
Result<TargetStore<Target>> TargetStore<Target>::LoadFrom(
    storage::IStorageManager* sm, storage::PageId root) {
  TargetStore store;
  CASPER_ASSIGN_OR_RETURN(index, spatial::EpochIndex::Restore(sm, root));
  store.index_ = std::move(index);
  return store;
}

template class TargetStore<PublicTarget>;
template class TargetStore<PrivateTarget>;

}  // namespace casper::processor
