#include "src/processor/density.h"

#include <algorithm>

namespace casper::processor {

namespace {

// Each cell sums its shares as integers in units of 2^-100. A share is
// in [0, 1], so a term is at most 2^100, and a cell of at most
// kMaxTerms terms stays below 2^128: no overflow. The integer sum is
// exact, so it does not depend on the order the terms arrive in.
using Fixed = unsigned __int128;
constexpr Fixed kFixedOne = Fixed{1} << 100;
// A region adds at most one term to a cell.
constexpr size_t kMaxTerms = size_t{1} << 27;

// `share` in [0, 1] in units of 2^-100, truncated. The scaling by a
// power of two is exact.
Fixed ToFixed(double share) { return static_cast<Fixed>(share * 0x1p100); }

// The cell of `n` along one axis that holds coordinate `v`, clamped to
// the grid. The clamp is taken in double, so a coordinate far outside
// the extent converts safely.
int CellIndex(double v, double lo, double cell, int n) {
  const double i = (v - lo) / cell;
  if (!(i > 0.0)) return 0;
  return i >= n - 1 ? n - 1 : static_cast<int>(i);
}

// The fraction of [a0, a1] (a0 < a1) inside cell `i` of the axis that
// starts at `lo`. The cell bounds are computed as in CellRect.
double AxisShare(double a0, double a1, double lo, double cell, int i) {
  const double c0 = lo + i * cell;
  const double overlap = std::min(a1, c0 + cell) - std::max(a0, c0);
  return overlap > 0.0 ? overlap / (a1 - a0) : 0.0;
}

}  // namespace

DensityMap::DensityMap(const Rect& extent, int cols, int rows)
    : extent_(extent), cols_(cols), rows_(rows) {
  CASPER_DCHECK(cols >= 1 && rows >= 1);
  cells_.assign(static_cast<size_t>(cols) * static_cast<size_t>(rows), 0.0);
}

Result<DensityMap> DensityMap::FromCells(const Rect& extent, int cols,
                                         int rows, std::vector<double> cells) {
  if (cols < 1 || rows < 1) {
    return Status::InvalidArgument("grid must be at least 1x1");
  }
  if (cells.size() != static_cast<size_t>(cols) * static_cast<size_t>(rows)) {
    return Status::InvalidArgument("cell count does not match grid");
  }
  DensityMap map(extent, cols, rows);
  map.cells_ = std::move(cells);
  return map;
}

double DensityMap::Total() const {
  double total = 0.0;
  for (double c : cells_) total += c;
  return total;
}

Rect DensityMap::CellRect(int col, int row) const {
  const double w = extent_.width() / cols_;
  const double h = extent_.height() / rows_;
  const double x0 = extent_.min.x + col * w;
  const double y0 = extent_.min.y + row * h;
  return Rect(x0, y0, x0 + w, y0 + h);
}

Result<DensityMap> ExpectedDensity(const PrivateTargetStore::Snapshot& store,
                                   const Rect& extent, int cols, int rows) {
  if (!(extent.width() > 0.0 && extent.height() > 0.0)) {
    return Status::InvalidArgument("extent must have positive area");
  }
  if (cols < 1 || rows < 1) {
    return Status::InvalidArgument("grid must be at least 1x1");
  }
  if (int64_t{cols} * rows > kMaxDensityCells) {
    return Status::InvalidArgument("grid has more than 65536 cells");
  }
  if (store.size() > kMaxTerms) {
    return Status::FailedPrecondition(
        "store too large for exact density sums");
  }
  const double cell_w = extent.width() / cols;
  const double cell_h = extent.height() / rows;
  std::vector<Fixed> sums(static_cast<size_t>(cols) * rows);
  std::vector<double> ox(cols);  // The current region's x shares.

  // Each region distributes one user over the cells it overlaps, in
  // proportion to area: a cell's share is the product of the region's
  // overlap fractions along x and along y. A degenerate region counts
  // fully into the cell containing its min corner.
  store.ForEachOverlapping(extent, [&](const PrivateTarget& t) {
    const Rect& r = t.region;
    const int col_lo = CellIndex(r.min.x, extent.min.x, cell_w, cols);
    const int row_lo = CellIndex(r.min.y, extent.min.y, cell_h, rows);
    // Most cloaks lie inside one cell, where both shares are exactly 1:
    // AxisShare's overlap is the region's own width and height.
    const double x0 = extent.min.x + col_lo * cell_w;
    const double y0 = extent.min.y + row_lo * cell_h;
    const bool in_one_cell = r.min.x >= x0 && r.max.x <= x0 + cell_w &&
                             r.min.y >= y0 && r.max.y <= y0 + cell_h;
    if (in_one_cell || r.Area() <= 0.0) {
      sums[static_cast<size_t>(row_lo) * cols + col_lo] += kFixedOne;
      return;
    }
    const int col_hi = CellIndex(r.max.x, extent.min.x, cell_w, cols);
    const int row_hi = CellIndex(r.max.y, extent.min.y, cell_h, rows);
    for (int col = col_lo; col <= col_hi; ++col) {
      ox[col] = AxisShare(r.min.x, r.max.x, extent.min.x, cell_w, col);
    }
    for (int row = row_lo; row <= row_hi; ++row) {
      const double oy =
          AxisShare(r.min.y, r.max.y, extent.min.y, cell_h, row);
      Fixed* line = sums.data() + static_cast<size_t>(row) * cols;
      for (int col = col_lo; col <= col_hi; ++col) {
        line[col] += ToFixed(ox[col] * oy);
      }
    }
  });

  DensityMap map(extent, cols, rows);
  for (size_t i = 0; i < sums.size(); ++i) {
    map.cells_[i] = static_cast<double>(sums[i]) * 0x1p-100;
  }
  return map;
}

}  // namespace casper::processor
