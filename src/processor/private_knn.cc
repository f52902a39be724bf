#include "src/processor/private_knn.h"

#include <algorithm>

namespace casper::processor {
namespace {

/// Maximum over an edge of length `length` of the per-point k-NN radius
/// bound min(d_i + |p - v_i|, d_j + |p - v_j|) — the per-side extension
/// distance of the filter step (see the header's file comment).
double KnnEdgeExtension(double d_i, double d_j, double length) {
  if (std::abs(d_i - d_j) >= length) return std::max(d_i, d_j);
  return (d_i + d_j + length) / 2.0;
}

}  // namespace

Result<KnnCandidateList> PrivateKNearestNeighbors(
    const PublicTargetStore::Snapshot& store, const Rect& cloak, size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be at least 1");
  if (cloak.is_empty()) {
    return Status::InvalidArgument("cloaked area must be non-empty");
  }
  if (store.size() < k) {
    return Status::NotFound("store holds fewer than k targets");
  }

  // Filter step: the k-th NN distance at each vertex.
  const auto corners = cloak.Corners();
  std::array<double, 4> d;
  for (size_t i = 0; i < 4; ++i) {
    const auto knn = store.KNearest(corners[i], k);
    CASPER_DCHECK(knn.size() == k);
    d[i] = Distance(corners[i], knn.back().position);
  }

  // Extension step: per-edge bound (edges in Rect::Corners() order).
  const double w = cloak.width();
  const double h = cloak.height();
  const double bottom = KnnEdgeExtension(d[0], d[1], w);
  const double right = KnnEdgeExtension(d[1], d[2], h);
  const double top = KnnEdgeExtension(d[2], d[3], w);
  const double left = KnnEdgeExtension(d[3], d[0], h);

  KnnCandidateList result;
  result.k = k;
  result.a_ext = cloak.ExpandedPerSide(left, bottom, right, top);
  result.candidates = store.Overlapping(result.a_ext);
  Canonicalize(&result.candidates);
  return result;
}

std::vector<PublicTarget> RefineKNearest(
    const std::vector<PublicTarget>& candidates, const Point& user_position,
    size_t k) {
  std::vector<PublicTarget> sorted = candidates;
  const size_t take = std::min(k, sorted.size());
  std::partial_sort(sorted.begin(),
                    sorted.begin() + static_cast<ptrdiff_t>(take),
                    sorted.end(),
                    [&](const PublicTarget& a, const PublicTarget& b) {
                      return SquaredDistance(user_position, a.position) <
                             SquaredDistance(user_position, b.position);
                    });
  sorted.resize(take);
  return sorted;
}

}  // namespace casper::processor
