#include "src/processor/density.h"

#include <algorithm>

namespace casper::processor {

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
  if (extent.is_empty()) {
    return Status::InvalidArgument("extent must be non-empty");
  }
  if (cols < 1 || rows < 1) {
    return Status::InvalidArgument("grid must be at least 1x1");
  }
  // Canonical order first: floating-point accumulation follows the
  // list order, so the map is a function of the stored set alone.
  std::vector<PrivateTarget> targets = store.Overlapping(extent);
  Canonicalize(&targets);

  DensityMap map(extent, cols, rows);
  const double cell_w = extent.width() / cols;
  const double cell_h = extent.height() / rows;

  // Each region distributes probability mass area-proportionally over
  // the grid cells it overlaps (degenerate regions count fully into the
  // cell containing them).
  for (const PrivateTarget& t : targets) {
    const double area = t.region.Area();
    if (area <= 0.0) {
      const int col = std::clamp(
          static_cast<int>((t.region.min.x - extent.min.x) / cell_w), 0,
          cols - 1);
      const int row = std::clamp(
          static_cast<int>((t.region.min.y - extent.min.y) / cell_h), 0,
          rows - 1);
      map.cells_[static_cast<size_t>(row) * cols + col] += 1.0;
      continue;
    }
    const int col_lo = std::clamp(
        static_cast<int>((t.region.min.x - extent.min.x) / cell_w), 0,
        cols - 1);
    const int col_hi = std::clamp(
        static_cast<int>((t.region.max.x - extent.min.x) / cell_w), 0,
        cols - 1);
    const int row_lo = std::clamp(
        static_cast<int>((t.region.min.y - extent.min.y) / cell_h), 0,
        rows - 1);
    const int row_hi = std::clamp(
        static_cast<int>((t.region.max.y - extent.min.y) / cell_h), 0,
        rows - 1);
    for (int row = row_lo; row <= row_hi; ++row) {
      for (int col = col_lo; col <= col_hi; ++col) {
        const double overlap =
            t.region.IntersectionArea(map.CellRect(col, row));
        if (overlap > 0.0) {
          map.cells_[static_cast<size_t>(row) * cols + col] +=
              overlap / area;
        }
      }
    }
  }
  return map;
}

}  // namespace casper::processor
