// Figure 12 (§6.1.3): effect of the k-anonymity requirement on the
// basic vs adaptive anonymizers (50K users, height 9). The k range
// sweeps from the most relaxed [1-10] to the most restrictive [150-200]
// group; A_min stays at the paper default.
//   12a — average cloaking time per request
//   12b — counter updates per location update
// A second table repeats the sweep over A_min groups (the experiment
// the paper describes but omits for space).

#include "bench/bench_common.h"

int main() {
  using namespace casper::bench;
  const size_t users = Scaled(50000);
  std::printf("Figure 12 reproduction: %zu users (scale %.2f)\n", users,
              Scale());
  SimulatedCity city(users, 11);
  const auto& ticks = city.Ticks(3);

  casper::anonymizer::PyramidConfig config;
  config.space = city.bounds();
  config.height = 9;

  const std::vector<std::pair<uint32_t, uint32_t>> k_groups = {
      {1, 10}, {10, 50}, {50, 100}, {100, 150}, {150, 200}};

  struct Row {
    std::string label;
    double cloak_us[2];
    double updates[2];
  };
  std::vector<Row> rows;
  for (const auto& g : k_groups) {
    casper::workload::ProfileDistribution dist;
    dist.k_min = g.first;
    dist.k_max = g.second;
    Row row;
    row.label.append("[").append(std::to_string(g.first)).append("-");
    row.label.append(std::to_string(g.second)).append("]");
    for (int adaptive = 0; adaptive <= 1; ++adaptive) {
      auto anon =
          BuildAnonymizer(adaptive == 1, config, city, users, dist, 13);
      row.cloak_us[adaptive] = MeanCloakMicros(anon.get(), Scaled(2000), 5);
      row.updates[adaptive] = UpdateCostPerLocationUpdate(anon.get(), ticks);
    }
    rows.push_back(row);
  }

  PrintTitle("Fig 12a: cloaking time (us) vs k range");
  std::printf("%-12s %12s %12s\n", "k range", "basic", "adaptive");
  for (const auto& r : rows) {
    std::printf("%-12s %12.2f %12.2f\n", r.label.c_str(), r.cloak_us[0],
                r.cloak_us[1]);
  }
  PrintTitle("Fig 12b: counter updates per location update vs k range");
  std::printf("%-12s %12s %12s\n", "k range", "basic", "adaptive");
  for (const auto& r : rows) {
    std::printf("%-12s %12.2f %12.2f\n", r.label.c_str(), r.updates[0],
                r.updates[1]);
  }

  // The A_min variant (§6.1.3 closing remark).
  const std::vector<std::pair<double, double>> a_groups = {
      {0.00005, 0.0001}, {0.0005, 0.001}, {0.002, 0.005}, {0.01, 0.02}};
  rows.clear();
  for (const auto& g : a_groups) {
    casper::workload::ProfileDistribution dist;
    dist.area_fraction_min = g.first;
    dist.area_fraction_max = g.second;
    Row row;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "[%.3f-%.3f%%]", g.first * 100,
                  g.second * 100);
    row.label = buf;
    for (int adaptive = 0; adaptive <= 1; ++adaptive) {
      auto anon =
          BuildAnonymizer(adaptive == 1, config, city, users, dist, 17);
      row.cloak_us[adaptive] = MeanCloakMicros(anon.get(), Scaled(2000), 5);
      row.updates[adaptive] = UpdateCostPerLocationUpdate(anon.get(), ticks);
    }
    rows.push_back(row);
  }
  PrintTitle("Fig 12 (A_min variant): cloaking time (us) vs A_min range");
  std::printf("%-16s %12s %12s\n", "A_min range", "basic", "adaptive");
  for (const auto& r : rows) {
    std::printf("%-16s %12.2f %12.2f\n", r.label.c_str(), r.cloak_us[0],
                r.cloak_us[1]);
  }
  PrintTitle("Fig 12 (A_min variant): updates per location update");
  std::printf("%-16s %12s %12s\n", "A_min range", "basic", "adaptive");
  for (const auto& r : rows) {
    std::printf("%-16s %12.2f %12.2f\n", r.label.c_str(), r.updates[0],
                r.updates[1]);
  }
  return 0;
}
