#ifndef CASPER_PROCESSOR_DENSITY_H_
#define CASPER_PROCESSOR_DENSITY_H_

#include <cstdint>
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

/// Most cells one map may have: 256 x 256, a 512 KiB answer that fits a
/// transport frame (4 MiB) with room to spare. ExpectedDensity rejects
/// a larger grid before it allocates anything, since its cols and rows
/// arrive from the wire.
inline constexpr int64_t kMaxDensityCells = int64_t{1} << 16;

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
/// InvalidArgument on a degenerate extent, a non-positive grid or one
/// of more than kMaxDensityCells cells; FailedPrecondition on a store
/// of more than 2^27 regions, whose sums could overflow. Each cell is
/// the exact sum of its per-region shares, each share truncated to a
/// multiple of 2^-100, rounded to a double once; so the map is a
/// function of the stored multiset alone, whatever the tree's shape or
/// walk order.
Result<DensityMap> ExpectedDensity(const PrivateTargetStore::Snapshot& store,
                                   const Rect& extent, int cols, int rows);

}  // namespace casper::processor

#endif  // CASPER_PROCESSOR_DENSITY_H_
