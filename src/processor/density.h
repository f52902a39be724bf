#ifndef CASPER_PROCESSOR_DENSITY_H_
#define CASPER_PROCESSOR_DENSITY_H_

#include <vector>

#include "src/common/result.h"
#include "src/processor/target_store.h"

/// \file
/// Aggregate public queries over private data (§5 notes aggregates as a
/// straightforward extension; the paper's introduction motivates them
/// with traffic monitoring): an expected-density map over a uniform
/// grid, computed from cloaked regions under the §4.3 uniformity
/// guarantee — each user contributes to a grid cell in proportion to
/// the fraction of her cloaked region overlapping that cell.

namespace casper::processor {

/// An `rows x cols` grid of expected counts over `extent`.
class DensityMap {
 public:
  DensityMap(const Rect& extent, int cols, int rows);

  /// Rebuild a map from its serialized parts (wire-message decode).
  /// InvalidArgument when the grid is non-positive or `cells` has the
  /// wrong length.
  static Result<DensityMap> FromCells(const Rect& extent, int cols, int rows,
                                      std::vector<double> cells);

  double At(int col, int row) const {
    CASPER_DCHECK(col >= 0 && col < cols_ && row >= 0 && row < rows_);
    return cells_[static_cast<size_t>(row) * cols_ + col];
  }

  int cols() const { return cols_; }
  int rows() const { return rows_; }
  /// Row-major, rows * cols entries.
  const std::vector<double>& cells() const { return cells_; }
  const Rect& extent() const { return extent_; }

  /// Sum of all cells — equals the expected number of users inside the
  /// extent.
  double Total() const;

  /// The rectangle covered by a cell.
  Rect CellRect(int col, int row) const;

  friend bool operator==(const DensityMap& a, const DensityMap& b) {
    return a.extent_ == b.extent_ && a.cols_ == b.cols_ && a.rows_ == b.rows_ &&
           a.cells_ == b.cells_;
  }

 private:
  friend Result<DensityMap> ExpectedDensity(
      const PrivateTargetStore::Snapshot&, const Rect&, int, int);

  Rect extent_;
  int cols_;
  int rows_;
  std::vector<double> cells_;
};

/// Builds the expected-density map of `store` over `extent`.
/// InvalidArgument on a degenerate extent or non-positive grid.
Result<DensityMap> ExpectedDensity(const PrivateTargetStore::Snapshot& store,
                                   const Rect& extent, int cols, int rows);

}  // namespace casper::processor

#endif  // CASPER_PROCESSOR_DENSITY_H_
