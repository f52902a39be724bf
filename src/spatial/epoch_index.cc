#include "src/spatial/epoch_index.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/common/status.h"

namespace casper::spatial {

namespace {

/// Source of every snapshot's epoch, shared by all indexes in the
/// process, so a stamp is never reused — not even by a new index that
/// replaces an old one in place (bulk load).
std::atomic<uint64_t> next_epoch{1};

/// Tombstone the first base copy of (box, id), in FindExact order,
/// whose row `dead` does not hold yet, keeping `dead` sorted. Returns
/// false when every copy is dead already.
bool HideRow(const FlatRTree* base, const Rect& box, uint64_t id,
             std::vector<uint32_t>* dead) {
  if (base == nullptr) return false;
  std::vector<size_t> rows;
  base->FindExact(box, id, &rows);
  for (const size_t r : rows) {
    const auto row = static_cast<uint32_t>(r);
    const auto at = std::lower_bound(dead->begin(), dead->end(), row);
    if (at == dead->end() || *at != row) {
      dead->insert(at, row);
      return true;
    }
  }
  return false;
}

}  // namespace

// --- Snapshot ---------------------------------------------------------

EpochIndex::Snapshot::~Snapshot() {
  if (reclaimed_) reclaimed_->fetch_add(1, std::memory_order_relaxed);
}

std::vector<EpochIndex::Neighbor> EpochIndex::Snapshot::KNearest(
    const Point& q, size_t k) const {
  static const FlatRTree kNoBase;
  return (base_ ? *base_ : kNoBase).KNearest(q, k, dead_, delta_);
}

// --- EpochIndex -------------------------------------------------------

EpochIndex::EpochIndex(int max_entries, size_t rebuild_threshold)
    : max_entries_(max_entries),
      rebuild_threshold_(std::max<size_t>(rebuild_threshold, 1)),
      reclaimed_(std::make_shared<std::atomic<uint64_t>>(0)) {
  Publish();
}

EpochIndex EpochIndex::BulkLoad(std::vector<Entry> entries, int max_entries,
                                size_t rebuild_threshold) {
  EpochIndex index(max_entries, rebuild_threshold);
  index.size_ = entries.size();
  index.base_ = std::make_shared<const FlatRTree>(
      FlatRTree::Build(std::move(entries), max_entries));
  ++index.rebuilds_;
  index.Publish();
  return index;
}

EpochIndex::EpochIndex(EpochIndex&& other) noexcept
    : max_entries_(other.max_entries_),
      rebuild_threshold_(other.rebuild_threshold_),
      base_(std::move(other.base_)),
      delta_(std::move(other.delta_)),
      dead_(std::move(other.dead_)),
      size_(other.size_),
      published_(other.published_.Load()),
      reclaimed_(std::move(other.reclaimed_)),
      published_count_(other.published_count_),
      rebuilds_(other.rebuilds_) {}

EpochIndex& EpochIndex::operator=(EpochIndex&& other) noexcept {
  if (this != &other) {
    max_entries_ = other.max_entries_;
    rebuild_threshold_ = other.rebuild_threshold_;
    base_ = std::move(other.base_);
    delta_ = std::move(other.delta_);
    dead_ = std::move(other.dead_);
    size_ = other.size_;
    published_.Store(other.published_.Load());
    reclaimed_ = std::move(other.reclaimed_);
    published_count_ = other.published_count_;
    rebuilds_ = other.rebuilds_;
  }
  return *this;
}

void EpochIndex::Insert(const Rect& box, uint64_t id) {
  CASPER_DCHECK(Storable(box));
  delta_.push_back(Entry{box, id});
  ++size_;
  if (delta_.size() + dead_.size() >= rebuild_threshold_) RebuildBase();
  Publish();
}

bool EpochIndex::Remove(const Rect& box, uint64_t id) {
  // Prefer cancelling a pending delta insert; only entries already in
  // the packed base need a tombstone, and only while the base still
  // holds a copy whose row is not dead.
  auto it = std::find_if(delta_.rbegin(), delta_.rend(), [&](const Entry& e) {
    return e.id == id && e.box == box;
  });
  if (it != delta_.rend()) {
    delta_.erase(std::next(it).base());
  } else if (!HideRow(base_.get(), box, id, &dead_)) {
    return false;
  }
  --size_;
  if (delta_.size() + dead_.size() >= rebuild_threshold_) RebuildBase();
  Publish();
  return true;
}

void EpochIndex::RebuildBase() {
  base_ = std::make_shared<const FlatRTree>(
      base_ ? base_->Repack(dead_, delta_)
            : FlatRTree::Build(delta_, max_entries_));
  delta_.clear();
  dead_.clear();
  ++rebuilds_;
}

void EpochIndex::Publish() {
  auto snapshot = std::shared_ptr<Snapshot>(new Snapshot());
  snapshot->base_ = base_;
  snapshot->delta_ = delta_;
  snapshot->dead_ = dead_;
  snapshot->size_ = size_;
  snapshot->epoch_ = next_epoch.fetch_add(1);
  ++published_count_;
  snapshot->reclaimed_ = reclaimed_;
  published_.Store(std::shared_ptr<const Snapshot>(std::move(snapshot)));
}

std::shared_ptr<const EpochIndex::Snapshot> EpochIndex::Acquire() const {
  return published_.Load();
}

EpochIndex::Stats EpochIndex::stats() const {
  Stats s;
  s.published = published_count_;
  s.reclaimed = reclaimed_->load(std::memory_order_relaxed);
  s.rebuilds = rebuilds_;
  s.delta_entries = delta_.size();
  s.tombstones = dead_.size();
  return s;
}

}  // namespace casper::spatial
