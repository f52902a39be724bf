#include "src/spatial/epoch_index.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/common/codec.h"
#include "src/common/status.h"

namespace casper::spatial {

namespace {

/// Source of every snapshot's epoch, shared by all indexes in the
/// process, so a stamp is never reused — not even by a new index that
/// replaces an old one in place (bulk load, restore).
std::atomic<uint64_t> next_epoch{1};

// "EPX1": rejects a page that is not an epoch-index checkpoint root.
constexpr uint32_t kCheckpointMagic = 0x31585045u;

constexpr size_t kEntryBytes = 4 * 8 + 8;  // Rect + id.

void PutEntries(wire::Writer& w, const std::vector<Entry>& entries) {
  w.Count(entries.size());
  for (const Entry& e : entries) {
    w.R(e.box);
    w.U64(e.id);
  }
}

std::vector<Entry> GetEntries(wire::Reader& r) {
  const size_t n = r.Count(kEntryBytes);
  std::vector<Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Entry e;
    e.box = r.R();
    e.id = r.U64();
    entries.push_back(e);
  }
  return entries;
}

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

Result<storage::PageId> EpochIndex::Checkpoint(
    storage::IStorageManager* sm) const {
  storage::PageId base_root = storage::kNoPage;
  if (base_) {
    CASPER_ASSIGN_OR_RETURN(saved, base_->SaveTo(sm));
    base_root = saved;
  }
  wire::Writer w;
  w.U32(kCheckpointMagic);
  w.I32(max_entries_);
  w.U64(rebuild_threshold_);
  w.U64(base_root);
  PutEntries(w, delta_);
  // Tombstones go out as the (box, id) values of their rows, so the
  // page does not depend on the base's row order.
  std::vector<Entry> dead;
  dead.reserve(dead_.size());
  for (const uint32_t row : dead_) dead.push_back(base_->entry(row));
  PutEntries(w, dead);
  const std::string page = w.Take();
  return sm->Store(storage::kNoPage, page);
}

Result<EpochIndex> EpochIndex::Restore(storage::IStorageManager* sm,
                                       storage::PageId root) {
  std::string bytes;
  CASPER_RETURN_IF_ERROR(sm->Load(root, &bytes));
  wire::Reader r(bytes);
  if (r.U32() != kCheckpointMagic || r.failed()) {
    return Status::InvalidArgument("not an epoch-index checkpoint page");
  }
  const int32_t max_entries = r.I32();
  const uint64_t rebuild_threshold = r.U64();
  const storage::PageId base_root = r.U64();
  std::vector<Entry> delta = GetEntries(r);
  std::vector<Entry> dead = GetEntries(r);
  CASPER_RETURN_IF_ERROR(r.Finish("epoch-index checkpoint page"));
  const auto storable = [](const Entry& e) { return Storable(e.box); };
  if (max_entries < 4 || !std::all_of(delta.begin(), delta.end(), storable)) {
    return Status::InvalidArgument("malformed epoch-index checkpoint");
  }

  EpochIndex index(max_entries,
                   static_cast<size_t>(std::max<uint64_t>(
                       rebuild_threshold, 1)));
  if (base_root != storage::kNoPage) {
    CASPER_ASSIGN_OR_RETURN(base, FlatRTree::LoadFrom(sm, base_root));
    index.base_ = std::make_shared<const FlatRTree>(std::move(base));
  }
  for (const Entry& d : dead) {
    if (!HideRow(index.base_.get(), d.box, d.id, &index.dead_)) {
      return Status::InvalidArgument(
          "epoch-index checkpoint tombstone has no base entry");
    }
  }
  index.size_ = (index.base_ ? index.base_->size() : 0) - dead.size() +
                delta.size();
  index.delta_ = std::move(delta);
  if (index.base_) ++index.rebuilds_;
  index.Publish();
  return index;
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
