#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/processor/target_store.h"

/// Canonicalize picks a radix or a comparison sort by cost; whichever it
/// picks, the order must be std::sort under CanonicalLess, the
/// reference kept here.

namespace casper::processor {
namespace {

template <typename Target>
std::vector<Target> Reference(std::vector<Target> targets) {
  std::sort(targets.begin(), targets.end(),
            [](const Target& a, const Target& b) {
              return CanonicalLess(a, b);
            });
  return targets;
}

struct IdShape {
  const char* name;
  std::function<TargetId(Rng&, size_t n)> next;
};

const IdShape kShapes[] = {
    {"dense", [](Rng& rng, size_t) { return rng.Next() % 1000000; }},
    {"full64", [](Rng& rng, size_t) { return rng.Next(); }},
    {"all_equal", [](Rng&, size_t) { return TargetId{42}; }},
    {"twin_heavy",
     [](Rng& rng, size_t n) { return rng.Next() % (n / 4 + 1); }},
    // Every id shares its low 11 bits, so a radix pass moves nothing.
    {"constant_low_digit",
     [](Rng& rng, size_t) { return (rng.Next() % 2048) << 11 | 5; }},
};

const size_t kSizes[] = {0, 1, 2, 17, 255, 256, 1000, 5000};

// Coordinates from a small grid, so twin ids also get twin positions
// and whole records repeat.
double GridCoord(Rng& rng) { return static_cast<double>(rng.Next() % 8) / 8; }

TEST(CanonicalOrderTest, PublicMatchesComparisonSort) {
  Rng rng(101);
  for (const IdShape& shape : kShapes) {
    for (const size_t n : kSizes) {
      std::vector<PublicTarget> list;
      for (size_t i = 0; i < n; ++i) {
        list.push_back({shape.next(rng, n), {GridCoord(rng), GridCoord(rng)}});
      }
      const std::vector<PublicTarget> want = Reference(list);
      Canonicalize(&list);
      EXPECT_EQ(list, want) << shape.name << " n=" << n;
    }
  }
}

TEST(CanonicalOrderTest, PrivateMatchesComparisonSort) {
  Rng rng(102);
  for (const IdShape& shape : kShapes) {
    for (const size_t n : kSizes) {
      std::vector<PrivateTarget> list;
      for (size_t i = 0; i < n; ++i) {
        const double x = GridCoord(rng);
        const double y = GridCoord(rng);
        list.push_back({shape.next(rng, n),
                        Rect(x, y, x + GridCoord(rng), y + GridCoord(rng))});
      }
      const std::vector<PrivateTarget> want = Reference(list);
      Canonicalize(&list);
      EXPECT_EQ(list, want) << shape.name << " n=" << n;
    }
  }
}

/// Every radix plan that covers a list's span gives the reference
/// order, including the 64-bit spans the cost model leaves to std::sort
/// at these sizes.
TEST(CanonicalOrderTest, EveryRadixPlanMatchesComparisonSort) {
  Rng rng(103);
  for (const IdShape& shape : kShapes) {
    for (const size_t n : kSizes) {
      if (n < 2) continue;
      std::vector<PublicTarget> list;
      for (size_t i = 0; i < n; ++i) {
        list.push_back({shape.next(rng, n), {GridCoord(rng), GridCoord(rng)}});
      }
      const std::vector<PublicTarget> want = Reference(list);
      const auto [lo, hi] = std::minmax_element(
          list.begin(), list.end(),
          [](const PublicTarget& a, const PublicTarget& b) {
            return a.id < b.id;
          });
      const TargetId min_id = lo->id;
      const int span = static_cast<int>(std::bit_width(hi->id - min_id));
      for (int passes = std::max(1, (span + 10) / 11);
           passes <= std::max(1, span); ++passes) {
        const RadixPlan plan{passes, std::max(1, (span + passes - 1) / passes)};
        // Skip plans wider than 11-bit digits or with a pass past the span.
        if (plan.digit_bits > 11 || (passes - 1) * plan.digit_bits >= span) {
          continue;
        }
        std::vector<PublicTarget> sorted = list;
        RadixCanonicalize(&sorted, min_id, plan);
        EXPECT_EQ(sorted, want) << shape.name << " n=" << n << " passes="
                                << passes << " digit_bits=" << plan.digit_bits;
      }
    }
  }
}

/// The radix serves big_lists answers (thousands of dense 20-bit ids);
/// the comparison sort serves short lists, 64-bit pseudonym handles up
/// to thousands of records, and one repeated id.
TEST(CanonicalOrderTest, PlanPicksRadixOnlyWhereItPays) {
  EXPECT_EQ(PlanCanonicalSort(5000, 0).passes, 0);
  EXPECT_EQ(PlanCanonicalSort(kMinRadixRecords - 1, 1).passes, 0);
  EXPECT_EQ(PlanCanonicalSort(kMinRadixRecords, 1).passes, 1);
  EXPECT_EQ(PlanCanonicalSort(180, 64).passes, 0);
  EXPECT_EQ(PlanCanonicalSort(1000, 64).passes, 0);
  EXPECT_EQ(PlanCanonicalSort(1000, 20).passes, 0);
  EXPECT_EQ(PlanCanonicalSort(2000, 20).passes, 2);
  EXPECT_EQ(PlanCanonicalSort(4000, 20).passes, 2);
  for (const size_t n :
       {size_t{100}, size_t{256}, size_t{1000}, size_t{5000}, size_t{1} << 40}) {
    for (int span = 1; span <= 64; ++span) {
      const RadixPlan plan = PlanCanonicalSort(n, span);
      if (plan.passes == 0) continue;
      // Canonicalize's early stop never skips a span the plan would sort
      // by radix.
      EXPECT_LE(span, MaxRadixSpanBits(n)) << "n=" << n;
      EXPECT_LE(plan.digit_bits, 11);
      EXPECT_GE(plan.passes * plan.digit_bits, span);
      EXPECT_LT((plan.passes - 1) * plan.digit_bits, span);
    }
  }
}

}  // namespace
}  // namespace casper::processor
