// Figure 16 (§6.2.2): effect of the privacy profile of the *target*
// objects — private target regions grow from 4 to 256 lowest-level
// cells — on candidate list size and query time (10K private targets,
// paper-default query cloaks).

#include "bench/bench_common.h"
#include "src/processor/private_nn.h"

int main() {
  using namespace casper::bench;
  using casper::processor::FilterPolicy;

  const size_t users = Scaled(10000);
  SimulatedCity city(users, 43);
  casper::anonymizer::PyramidConfig config;
  config.space = city.bounds();
  config.height = 9;
  casper::workload::ProfileDistribution dist;
  auto anon = BuildAnonymizer(true, config, city, users, dist, 43);

  std::vector<casper::anonymizer::CloakingResult> cloaks;
  MeanCloakMicros(anon.get(), Scaled(500), 47, &cloaks);

  const size_t target_count = Scaled(10000);
  const std::vector<int> sides = {2, 4, 8, 16};  // 4..256 cells.
  const FilterPolicy policies[] = {FilterPolicy::kOneFilter,
                                   FilterPolicy::kTwoFilters,
                                   FilterPolicy::kFourFilters};

  std::printf("Figure 16 reproduction: %zu private targets, %zu queries per "
              "point (scale %.2f)\n",
              target_count, cloaks.size(), Scale());

  struct Row {
    int cells;
    double candidates[3];
    double micros[3];
  };
  std::vector<Row> rows;
  casper::Rng rng(53);
  const double cell_w = config.space.width() / (1u << config.height);
  const double cell_h = config.space.height() / (1u << config.height);
  for (int side : sides) {
    // Fixed-size square target regions of side*side cells.
    std::vector<casper::processor::PrivateTarget> targets;
    for (size_t i = 0; i < target_count; ++i) {
      const double w = side * cell_w;
      const double h = side * cell_h;
      const casper::Point c = rng.PointIn(
          casper::Rect(config.space.min.x, config.space.min.y,
                       config.space.max.x - w, config.space.max.y - h));
      targets.push_back({i, casper::Rect(c.x, c.y, c.x + w, c.y + h)});
    }
    casper::processor::PrivateTargetStore store(targets);

    Row row{side * side, {0, 0, 0}, {0, 0, 0}};
    for (int p = 0; p < 3; ++p) {
      casper::processor::PrivateNNOptions options;
      options.policy = policies[p];
      casper::SummaryStats size_stats;
      casper::Stopwatch watch;
      for (const auto& cloak : cloaks) {
        auto result = casper::processor::PrivateNearestNeighborOverPrivate(
            store, cloak.region, options);
        CASPER_DCHECK(result.ok());
        size_stats.Add(static_cast<double>(result->size()));
      }
      row.micros[p] = watch.ElapsedMicros() / cloaks.size();
      row.candidates[p] = size_stats.mean();
    }
    rows.push_back(row);
  }

  PrintTitle("Fig 16a: candidate list size vs target region size (cells)");
  std::printf("%-10s %12s %12s %12s\n", "cells", "1 filter", "2 filters",
              "4 filters");
  for (const auto& r : rows) {
    std::printf("%-10d %12.1f %12.1f %12.1f\n", r.cells, r.candidates[0],
                r.candidates[1], r.candidates[2]);
  }
  PrintTitle("Fig 16b: query processing time (us) vs target region (cells)");
  std::printf("%-10s %12s %12s %12s\n", "cells", "1 filter", "2 filters",
              "4 filters");
  for (const auto& r : rows) {
    std::printf("%-10d %12.2f %12.2f %12.2f\n", r.cells, r.micros[0],
                r.micros[1], r.micros[2]);
  }
  return 0;
}
