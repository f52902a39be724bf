#include "src/spatial/flat_rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>

#include "src/common/codec.h"
#include "src/common/status.h"

namespace casper::spatial {

namespace {

/// One node of the in-flight STR hierarchy before flattening: an MBR
/// plus a contiguous [begin, end) run — of entry rows for leaves, of the
/// next-lower temp level for internal nodes. Runs are contiguous because
/// each level is sorted in place *before* its parents are cut.
struct Temp {
  Rect mbr;
  int32_t begin = 0;
  int32_t end = 0;
};

double CenterX(const Rect& r) { return (r.min.x + r.max.x) / 2.0; }
double CenterY(const Rect& r) { return (r.min.y + r.max.y) / 2.0; }

/// STR slab count for `n` entries at fan-out `fanout`: ceil(sqrt(leaves)).
size_t StrSlabs(size_t n, size_t fanout) {
  const size_t leaves = (n + fanout - 1) / fanout;
  return static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(leaves))));
}

/// The first i in [lo, hi) for which `before(i)` is false, by
/// bisection; `before` must hold on a prefix of the range and nowhere
/// after it. Without that, the result is still some i in [lo, hi].
template <typename Before>
size_t Bisect(size_t lo, size_t hi, Before before) {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (before(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

FlatRTree FlatRTree::Build(std::vector<Entry> entries, int max_entries) {
  FlatRTree tree;
  tree.max_entries_ = std::clamp(max_entries, 4, kMaxFanout);
  for (const Entry& e : entries) CASPER_DCHECK(Storable(e.box));
  if (entries.empty()) return tree;
  const size_t fanout = static_cast<size_t>(tree.max_entries_);
  const size_t n = entries.size();
  const size_t num_slabs = StrSlabs(n, fanout);
  const size_t slab_size = (n + num_slabs - 1) / num_slabs;

  // Leaf order: sort by center x, cut into sqrt(leaves) slabs, sort
  // each slab by center y.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return CenterX(a.box) < CenterX(b.box);
            });
  std::vector<size_t> slab_begin;
  for (size_t s = 0; s < n; s += slab_size) {
    const size_t end = std::min(s + slab_size, n);
    std::sort(entries.begin() + static_cast<ptrdiff_t>(s),
              entries.begin() + static_cast<ptrdiff_t>(end),
              [](const Entry& a, const Entry& b) {
                return CenterY(a.box) < CenterY(b.box);
              });
    slab_begin.push_back(s);
  }
  tree.ReserveEntries(n);
  for (const Entry& e : entries) tree.AppendRow(e);
  tree.PackLevels(slab_begin);
  return tree;
}

FlatRTree FlatRTree::Repack(std::span<const uint32_t> dead,
                            std::span<const Entry> added) const {
  for (const Entry& e : added) CASPER_DCHECK(Storable(e.box));
  const size_t old_n = size();
  const size_t n = old_n - dead.size() + added.size();
  const auto fall_back = [&] {
    std::vector<Entry> live;
    live.reserve(n);
    auto d = dead.begin();
    for (size_t row = 0; row < old_n; ++row) {
      if (d != dead.end() && *d == row) {
        ++d;
      } else {
        live.push_back(entry(row));
      }
    }
    live.insert(live.end(), added.begin(), added.end());
    return Build(std::move(live), max_entries_);
  };
  const auto center_x = [this](size_t row) {
    return (entry_xlo_[row] + entry_xhi_[row]) / 2.0;
  };
  const auto center_y = [this](size_t row) {
    return (entry_ylo_[row] + entry_yhi_[row]) / 2.0;
  };

  // The slabs: maximal runs of rows whose center y does not decrease.
  // Fewer than half the STR slab count would also fall back, but then
  // some slab always holds more than the size cap below allows.
  std::vector<size_t> slabs;
  for (size_t row = 0; row < old_n; ++row) {
    if (row == 0 || center_y(row) < center_y(row - 1)) slabs.push_back(row);
  }
  const size_t num_slabs = slabs.size();
  const size_t want = StrSlabs(n, static_cast<size_t>(max_entries_));
  if (num_slabs == 0 || num_slabs > 2 * want) return fall_back();
  const auto slab_end = [&](size_t s) {
    return s + 1 < num_slabs ? slabs[s + 1] : old_n;
  };

  // Route each added entry to the last slab whose lowest center x is <=
  // its own (the first slab when none is). Keys from rows in any order
  // still route every entry to some slab.
  std::vector<double> slab_key(num_slabs);
  for (size_t s = 0; s < num_slabs; ++s) {
    double key = center_x(slabs[s]);
    for (size_t row = slabs[s] + 1; row < slab_end(s); ++row) {
      key = std::min(key, center_x(row));
    }
    slab_key[s] = key;
  }
  struct Routed {
    size_t slab;
    double y;
    uint32_t index;
  };
  std::vector<Routed> routed(added.size());
  for (size_t i = 0; i < added.size(); ++i) {
    const double x = CenterX(added[i].box);
    const size_t above =
        Bisect(0, num_slabs, [&](size_t s) { return slab_key[s] <= x; });
    routed[i] = {above == 0 ? 0 : above - 1, CenterY(added[i].box),
                 static_cast<uint32_t>(i)};
  }
  std::sort(routed.begin(), routed.end(), [](const Routed& a, const Routed& b) {
    return std::tie(a.slab, a.y, a.index) < std::tie(b.slab, b.y, b.index);
  });

  // No slab may grow past twice the STR slab size for the new size.
  const size_t cap = 2 * ((n + want - 1) / want);
  auto d = dead.begin();
  auto r = routed.begin();
  for (size_t s = 0; s < num_slabs; ++s) {
    size_t rows = slab_end(s) - slabs[s];
    for (; d != dead.end() && *d < slab_end(s); ++d) --rows;
    for (; r != routed.end() && r->slab == s; ++r) ++rows;
    if (rows > cap) return fall_back();
  }

  // Merge each slab's live rows with its added entries in center-y
  // order. Live rows move in runs between dead rows and insertion points.
  FlatRTree tree;
  tree.max_entries_ = max_entries_;
  tree.ReserveEntries(n);
  d = dead.begin();
  const auto copy_live = [&](size_t from, size_t to) {
    while (from < to) {
      const size_t stop = d != dead.end() && *d < to ? *d : to;
      tree.AppendRows(*this, from, stop);
      from = stop;
      if (stop < to) {
        ++from;
        ++d;
      }
    }
  };
  std::vector<size_t> slab_begin;
  r = routed.begin();
  for (size_t s = 0; s < num_slabs; ++s) {
    const size_t start = tree.size();
    size_t row = slabs[s];
    for (; r != routed.end() && r->slab == s; ++r) {
      // Insert after every row whose center y is <= the entry's.
      const size_t at = Bisect(row, slab_end(s),
                               [&](size_t i) { return center_y(i) <= r->y; });
      copy_live(row, at);
      tree.AppendRow(added[r->index]);
      row = at;
    }
    copy_live(row, slab_end(s));
    if (tree.size() > start) slab_begin.push_back(start);
  }
  CASPER_DCHECK(tree.size() == n);
  tree.PackLevels(slab_begin);
  return tree;
}

void FlatRTree::ReserveEntries(size_t n) {
  entry_xlo_.reserve(n);
  entry_ylo_.reserve(n);
  entry_xhi_.reserve(n);
  entry_yhi_.reserve(n);
  entry_ids_.reserve(n);
}

void FlatRTree::AppendRow(const Entry& e) {
  entry_xlo_.push_back(e.box.min.x);
  entry_ylo_.push_back(e.box.min.y);
  entry_xhi_.push_back(e.box.max.x);
  entry_yhi_.push_back(e.box.max.y);
  entry_ids_.push_back(e.id);
}

void FlatRTree::AppendRows(const FlatRTree& from, size_t begin, size_t end) {
  const auto append = [&](const auto& in, auto& out) {
    out.insert(out.end(), in.begin() + static_cast<ptrdiff_t>(begin),
               in.begin() + static_cast<ptrdiff_t>(end));
  };
  append(from.entry_xlo_, entry_xlo_);
  append(from.entry_ylo_, entry_ylo_);
  append(from.entry_xhi_, entry_xhi_);
  append(from.entry_yhi_, entry_yhi_);
  append(from.entry_ids_, entry_ids_);
}

void FlatRTree::PackLevels(const std::vector<size_t>& slab_begin) {
  CASPER_DCHECK(!slab_begin.empty() && slab_begin.front() == 0);
  const size_t fanout = static_cast<size_t>(max_entries_);
  const size_t n = entry_ids_.size();
  std::vector<std::vector<Temp>> levels(1);
  for (size_t s = 0; s < slab_begin.size(); ++s) {
    const size_t end = s + 1 < slab_begin.size() ? slab_begin[s + 1] : n;
    for (size_t i = slab_begin[s]; i < end; i += fanout) {
      const size_t chunk_end = std::min(i + fanout, end);
      Temp leaf;
      leaf.begin = static_cast<int32_t>(i);
      leaf.end = static_cast<int32_t>(chunk_end);
      for (int32_t j = leaf.begin; j < leaf.end; ++j) {
        leaf.mbr = leaf.mbr.Union(EntryBox(j));
      }
      levels[0].push_back(leaf);
    }
  }

  // Pack upper levels until a single root remains. Sorting a level here
  // moves whole subtrees (its Temp nodes carry value ranges, not
  // pointers), so the runs recorded by the new parents stay valid.
  while (levels.back().size() > 1) {
    std::vector<Temp>& below = levels.back();
    std::sort(below.begin(), below.end(), [](const Temp& a, const Temp& b) {
      return CenterX(a.mbr) < CenterX(b.mbr);
    });
    const size_t m = below.size();
    const size_t parent_slabs = StrSlabs(m, fanout);
    const size_t pslab = (m + parent_slabs - 1) / parent_slabs;

    std::vector<Temp> parents;
    for (size_t s = 0; s < m; s += pslab) {
      const size_t end = std::min(s + pslab, m);
      std::sort(below.begin() + static_cast<ptrdiff_t>(s),
                below.begin() + static_cast<ptrdiff_t>(end),
                [](const Temp& a, const Temp& b) {
                  return CenterY(a.mbr) < CenterY(b.mbr);
                });
      for (size_t i = s; i < end; i += fanout) {
        const size_t chunk_end = std::min(i + fanout, end);
        Temp parent;
        parent.begin = static_cast<int32_t>(i);
        parent.end = static_cast<int32_t>(chunk_end);
        for (size_t j = i; j < chunk_end; ++j)
          parent.mbr = parent.mbr.Union(below[j].mbr);
        parents.push_back(parent);
      }
    }
    levels.push_back(std::move(parents));
  }
  height_ = static_cast<int>(levels.size());

  // Flatten breadth-first, root at index 0. Children are appended as a
  // block the moment their parent is visited, which is exactly what
  // makes every child run contiguous in the packed arrays.
  size_t total = 0;
  for (const auto& level : levels) total += level.size();
  nodes_.resize(total);
  node_xlo_.resize(total);
  node_ylo_.resize(total);
  node_xhi_.resize(total);
  node_yhi_.resize(total);

  // order[i] = (level, position) of the temp node assigned flat index i.
  std::vector<std::pair<int, int32_t>> order;
  order.reserve(total);
  order.emplace_back(static_cast<int>(levels.size()) - 1, 0);
  for (size_t i = 0; i < order.size(); ++i) {
    const auto [lvl, pos] = order[i];
    const Temp& temp = levels[static_cast<size_t>(lvl)][static_cast<size_t>(pos)];
    Node& node = nodes_[i];
    node.level = lvl;
    node.count = temp.end - temp.begin;
    node_xlo_[i] = temp.mbr.min.x;
    node_ylo_[i] = temp.mbr.min.y;
    node_xhi_[i] = temp.mbr.max.x;
    node_yhi_[i] = temp.mbr.max.y;
    if (lvl == 0) {
      node.first = temp.begin;  // Row range in the entry arrays.
    } else {
      node.first = static_cast<int32_t>(order.size());
      for (int32_t c = temp.begin; c < temp.end; ++c)
        order.emplace_back(lvl - 1, c);
    }
  }
}

size_t FlatRTree::FindExact(const Rect& box, uint64_t id,
                            std::vector<size_t>* rows) const {
  if (nodes_.empty()) return 0;
  size_t count = 0;
  std::vector<int32_t> stack{0};
  while (!stack.empty()) {
    const int32_t i = stack.back();
    stack.pop_back();
    if (!NodeBox(i).Contains(box)) continue;
    const Node& node = nodes_[i];
    const int32_t end = node.first + node.count;
    if (node.level == 0) {
      for (int32_t j = node.first; j < end; ++j) {
        if (entry_ids_[j] == id && EntryBox(j) == box) {
          ++count;
          if (rows != nullptr) rows->push_back(static_cast<size_t>(j));
        }
      }
    } else {
      for (int32_t j = node.first; j < end; ++j) stack.push_back(j);
    }
  }
  return count;
}

std::vector<FlatRTree::Neighbor> FlatRTree::KNearest(
    const Point& q, size_t k, std::span<const uint32_t> skip,
    std::span<const Entry> extra) const {
  // The k best so far, a max-heap under NeighborLess: the front is the
  // one a better neighbor evicts. Once it holds k, `bound` is the k-th
  // distance, and nothing farther can enter.
  std::vector<Neighbor> best;
  if (k == 0) return best;
  best.reserve(std::min(k, size() + extra.size()));
  double bound = std::numeric_limits<double>::infinity();
  const auto enters = [&](const Neighbor& n) {
    return best.size() < k || NeighborLess(n, best.front());
  };
  const auto admit = [&](const Neighbor& n) {
    if (best.size() == k) {
      std::pop_heap(best.begin(), best.end(), NeighborLess);
      best.pop_back();
    }
    best.push_back(n);
    std::push_heap(best.begin(), best.end(), NeighborLess);
    if (best.size() == k) bound = best.front().distance;
  };

  for (const Entry& e : extra) {
    const Neighbor n{e.box, e.id, MaxDist(q, e.box)};
    if (enters(n)) admit(n);
  }
  // Best-first over nodes only, keyed by MinDist to the MBR, which
  // lower-bounds MaxDist for every entry below it. A node keyed
  // above `bound` holds nothing that can enter; one keyed at it may
  // hold a tie that wins on id and box, so it is still expanded.
  using Item = std::pair<double, int32_t>;
  const auto later = [](const Item& a, const Item& b) {
    return a.first > b.first;
  };
  std::vector<Item> heap;
  if (!nodes_.empty()) heap.emplace_back(MinDist(q, NodeBox(0)), 0);
  std::vector<double> dist(static_cast<size_t>(max_entries_));
  while (!heap.empty() && heap.front().first <= bound) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Node& node = nodes_[heap.back().second];
    heap.pop_back();
    const size_t count = static_cast<size_t>(node.count);
    if (node.level > 0) {
      BatchedMinDist(q, NodeBoxes(node.first), count, dist.data());
      for (size_t j = 0; j < count; ++j) {
        if (dist[j] > bound) continue;
        heap.emplace_back(dist[j], node.first + static_cast<int32_t>(j));
        std::push_heap(heap.begin(), heap.end(), later);
      }
      continue;
    }
    BatchedMaxDist(q, EntryBoxes(node.first), count, dist.data());
    for (size_t j = 0; j < count; ++j) {
      if (dist[j] > bound) continue;
      const int32_t row = node.first + static_cast<int32_t>(j);
      const Neighbor n{EntryBox(row), entry_ids_[row], dist[j]};
      if (enters(n) && !Skipped(skip, row)) admit(n);
    }
  }
  std::sort_heap(best.begin(), best.end(), NeighborLess);
  return best;
}

Rect FlatRTree::bounds() const {
  if (nodes_.empty()) return Rect();
  return NodeBox(0);
}

FlatRTree::Entry FlatRTree::entry(size_t i) const {
  CASPER_DCHECK(i < entry_ids_.size());
  const int32_t row = static_cast<int32_t>(i);
  return Entry{EntryBox(row), entry_ids_[row]};
}

bool FlatRTree::CheckInvariants() const {
  if (nodes_.empty()) return entry_ids_.empty() && height_ == 0;
  bool ok = true;
  std::vector<bool> entry_seen(entry_ids_.size(), false);
  std::vector<bool> node_seen(nodes_.size(), false);
  std::vector<int32_t> stack{0};
  node_seen[0] = true;
  if (nodes_[0].level != height_ - 1) ok = false;
  while (!stack.empty() && ok) {
    const int32_t i = stack.back();
    stack.pop_back();
    const Node& node = nodes_[i];
    if (node.count < 1 || node.count > max_entries_) ok = false;
    Rect expect;
    if (node.level == 0) {
      if (node.first < 0 ||
          node.first + node.count > static_cast<int32_t>(entry_ids_.size())) {
        ok = false;
        break;
      }
      for (int32_t j = node.first; j < node.first + node.count; ++j) {
        if (entry_seen[static_cast<size_t>(j)] || !Storable(EntryBox(j))) {
          ok = false;
        }
        entry_seen[static_cast<size_t>(j)] = true;
        expect = expect.Union(EntryBox(j));
      }
    } else {
      if (node.first < 0 ||
          node.first + node.count > static_cast<int32_t>(nodes_.size())) {
        ok = false;
        break;
      }
      for (int32_t j = node.first; j < node.first + node.count; ++j) {
        if (node_seen[static_cast<size_t>(j)]) ok = false;
        node_seen[static_cast<size_t>(j)] = true;
        if (nodes_[j].level != node.level - 1) ok = false;
        expect = expect.Union(NodeBox(j));
        stack.push_back(j);
      }
    }
    if (!(expect == NodeBox(i))) ok = false;
  }
  if (ok) {
    for (bool seen : entry_seen) ok = ok && seen;
  }
  return ok;
}

// --- Persistence -----------------------------------------------------------

namespace {

// "FRT1": rejects a page that is not a flat-rtree root.
constexpr uint32_t kTreeMagic = 0x31545246u;

// Rows per page, sized so a page lands near the disk backend's 4 KB
// slot: a node row is 12 bytes of offsets + 32 bytes of MBR, an entry
// row 8 bytes of id + 32 bytes of box. A million-entry tree therefore
// spans ~10k entry pages.
constexpr size_t kNodeRowBytes = 3 * 4 + 4 * 8;
constexpr size_t kEntryRowBytes = 8 + 4 * 8;
constexpr size_t kNodesPerPage = 92;
constexpr size_t kEntriesPerPage = 100;

}  // namespace

Result<storage::PageId> FlatRTree::SaveTo(storage::IStorageManager* sm) const {
  std::vector<storage::PageId> node_pages;
  std::vector<storage::PageId> entry_pages;
  for (size_t begin = 0; begin < nodes_.size(); begin += kNodesPerPage) {
    const size_t end = std::min(begin + kNodesPerPage, nodes_.size());
    wire::Writer w;
    w.Count(end - begin);
    for (size_t i = begin; i < end; ++i) {
      w.I32(nodes_[i].first);
      w.I32(nodes_[i].count);
      w.I32(nodes_[i].level);
      w.F64(node_xlo_[i]);
      w.F64(node_ylo_[i]);
      w.F64(node_xhi_[i]);
      w.F64(node_yhi_[i]);
    }
    const std::string page = w.Take();
    CASPER_ASSIGN_OR_RETURN(id, sm->Store(storage::kNoPage, page));
    node_pages.push_back(id);
  }
  for (size_t begin = 0; begin < entry_ids_.size();
       begin += kEntriesPerPage) {
    const size_t end = std::min(begin + kEntriesPerPage, entry_ids_.size());
    wire::Writer w;
    w.Count(end - begin);
    for (size_t i = begin; i < end; ++i) {
      w.U64(entry_ids_[i]);
      w.F64(entry_xlo_[i]);
      w.F64(entry_ylo_[i]);
      w.F64(entry_xhi_[i]);
      w.F64(entry_yhi_[i]);
    }
    const std::string page = w.Take();
    CASPER_ASSIGN_OR_RETURN(id, sm->Store(storage::kNoPage, page));
    entry_pages.push_back(id);
  }

  wire::Writer w;
  w.U32(kTreeMagic);
  w.I32(max_entries_);
  w.I32(height_);
  w.U64(nodes_.size());
  w.U64(entry_ids_.size());
  w.Count(node_pages.size());
  for (const storage::PageId id : node_pages) w.U64(id);
  w.Count(entry_pages.size());
  for (const storage::PageId id : entry_pages) w.U64(id);
  const std::string page = w.Take();
  return sm->Store(storage::kNoPage, page);
}

Result<FlatRTree> FlatRTree::LoadFrom(storage::IStorageManager* sm,
                                      storage::PageId root) {
  std::string bytes;
  CASPER_RETURN_IF_ERROR(sm->Load(root, &bytes));
  wire::Reader r(bytes);
  if (r.U32() != kTreeMagic || r.failed()) {
    return Status::InvalidArgument("not a flat-rtree root page");
  }
  FlatRTree tree;
  tree.max_entries_ = r.I32();
  tree.height_ = r.I32();
  const uint64_t node_count = r.U64();
  const uint64_t entry_count = r.U64();
  const size_t n_node_pages = r.Count(8);
  std::vector<storage::PageId> node_pages(n_node_pages);
  for (storage::PageId& id : node_pages) id = r.U64();
  const size_t n_entry_pages = r.Count(8);
  std::vector<storage::PageId> entry_pages(n_entry_pages);
  for (storage::PageId& id : entry_pages) id = r.U64();
  CASPER_RETURN_IF_ERROR(r.Finish("flat-rtree root page"));

  constexpr uint64_t kMaxRows = 0x7fffffffull;  // int32 offsets.
  if (node_count > kMaxRows || entry_count > kMaxRows ||
      tree.max_entries_ < 4 || tree.max_entries_ > kMaxFanout ||
      tree.height_ < 0) {
    return Status::InvalidArgument("malformed flat-rtree root page");
  }
  // The arrays grow with the rows actually read, never from the root
  // page's counts, which are checked against them afterwards.
  for (const storage::PageId id : node_pages) {
    std::string page;
    CASPER_RETURN_IF_ERROR(sm->Load(id, &page));
    wire::Reader pr(page);
    const size_t n = pr.Count(kNodeRowBytes);
    for (size_t i = 0; i < n; ++i) {
      Node node;
      node.first = pr.I32();
      node.count = pr.I32();
      node.level = pr.I32();
      tree.nodes_.push_back(node);
      tree.node_xlo_.push_back(pr.F64());
      tree.node_ylo_.push_back(pr.F64());
      tree.node_xhi_.push_back(pr.F64());
      tree.node_yhi_.push_back(pr.F64());
    }
    CASPER_RETURN_IF_ERROR(pr.Finish("flat-rtree node page"));
  }
  for (const storage::PageId id : entry_pages) {
    std::string page;
    CASPER_RETURN_IF_ERROR(sm->Load(id, &page));
    wire::Reader pr(page);
    const size_t n = pr.Count(kEntryRowBytes);
    for (size_t i = 0; i < n; ++i) {
      tree.entry_ids_.push_back(pr.U64());
      tree.entry_xlo_.push_back(pr.F64());
      tree.entry_ylo_.push_back(pr.F64());
      tree.entry_xhi_.push_back(pr.F64());
      tree.entry_yhi_.push_back(pr.F64());
    }
    CASPER_RETURN_IF_ERROR(pr.Finish("flat-rtree entry page"));
  }
  if (tree.nodes_.size() != node_count ||
      tree.entry_ids_.size() != entry_count) {
    return Status::InvalidArgument(
        "flat-rtree page rows disagree with root counts");
  }
  // Child runs must stay in bounds, or queries would index out of the
  // packed arrays.
  for (const Node& node : tree.nodes_) {
    const auto limit = static_cast<int64_t>(
        node.level == 0 ? tree.entry_ids_.size() : tree.nodes_.size());
    if (node.first < 0 || node.count < 0 ||
        int64_t{node.first} + node.count > limit) {
      return Status::InvalidArgument("flat-rtree node run out of bounds");
    }
  }
  // Fan-out within max_entries (the k-NN scratch is sized by it), and
  // child runs that form a tree, or walks would overrun or never end.
  if (!tree.CheckInvariants()) {
    return Status::InvalidArgument("flat-rtree pages do not form a tree");
  }
  return tree;
}

}  // namespace casper::spatial
