// Figure 14 (§6.2.1): scalability of the privacy-aware query processor
// with the number of *private* (cloaked-region) targets, 1K -> 10K.
// Target regions span 1-64 lowest-level cells (paper default).
//   14a — candidate list size
//   14b — query processing time (more filters cost more server time on
//          private data, but the smaller candidate list wins end-to-end)

#include "bench/bench_common.h"
#include "src/processor/private_nn.h"

int main() {
  using namespace casper::bench;
  using casper::processor::FilterPolicy;

  const size_t users = Scaled(10000);
  SimulatedCity city(users, 29);
  casper::anonymizer::PyramidConfig config;
  config.space = city.bounds();
  config.height = 9;
  casper::workload::ProfileDistribution dist;
  auto anon = BuildAnonymizer(true, config, city, users, dist, 29);

  std::vector<casper::anonymizer::CloakingResult> cloaks;
  MeanCloakMicros(anon.get(), Scaled(500), 31, &cloaks);

  const std::vector<size_t> target_counts = {
      Scaled(1000), Scaled(2000), Scaled(4000), Scaled(6000),
      Scaled(8000), Scaled(10000)};
  const FilterPolicy policies[] = {FilterPolicy::kOneFilter,
                                   FilterPolicy::kTwoFilters,
                                   FilterPolicy::kFourFilters};

  std::printf("Figure 14 reproduction: %zu query cloaks, private targets "
              "%zu..%zu, regions 1-64 cells (scale %.2f)\n",
              cloaks.size(), target_counts.front(), target_counts.back(),
              Scale());

  struct Row {
    size_t targets;
    double candidates[3];
    double micros[3];
  };
  std::vector<Row> rows;
  casper::Rng rng(37);
  for (size_t count : target_counts) {
    casper::processor::PrivateTargetStore store(
        casper::workload::RandomPrivateTargets(count, config, 8, &rng));
    Row row{count, {0, 0, 0}, {0, 0, 0}};
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

  PrintTitle("Fig 14a: candidate list size vs private targets");
  std::printf("%-10s %12s %12s %12s\n", "targets", "1 filter", "2 filters",
              "4 filters");
  for (const auto& r : rows) {
    std::printf("%-10zu %12.1f %12.1f %12.1f\n", r.targets, r.candidates[0],
                r.candidates[1], r.candidates[2]);
  }
  PrintTitle("Fig 14b: query processing time (us) vs private targets");
  std::printf("%-10s %12s %12s %12s\n", "targets", "1 filter", "2 filters",
              "4 filters");
  for (const auto& r : rows) {
    std::printf("%-10zu %12.2f %12.2f %12.2f\n", r.targets, r.micros[0],
                r.micros[1], r.micros[2]);
  }
  return 0;
}
