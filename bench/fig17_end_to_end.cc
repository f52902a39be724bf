// Figure 17 (§6.3): end-to-end time of a private NN query through the
// whole Casper stack, decomposed into location-anonymizer time,
// privacy-aware query-processor time, and candidate-list transmission
// time (64-byte records over 100 Mbps). Adaptive anonymizer, four
// filters, 10K users, 10K targets; target regions of 1-64 cells for the
// private-data case.
//   17a — k groups [1-10] .. [40-50]
//   17b — k groups up to [150-200]

#include "bench/bench_common.h"
#include "src/casper/transmission.h"
#include "src/processor/private_nn.h"

namespace casper::bench {
namespace {

struct Breakdown {
  double anonymizer_us = 0.0;
  double processor_us = 0.0;
  double transmission_us = 0.0;
  double total() const {
    return anonymizer_us + processor_us + transmission_us;
  }
};

void RunGroups(const std::vector<std::pair<uint32_t, uint32_t>>& groups,
               const char* title) {
  const size_t users = Scaled(10000);
  const size_t target_count = Scaled(10000);
  SimulatedCity city(users, 59);
  anonymizer::PyramidConfig config;
  config.space = city.bounds();
  config.height = 9;

  Rng rng(61);
  processor::PublicTargetStore public_store(
      workload::UniformPublicTargets(target_count, config.space, &rng));
  processor::PrivateTargetStore private_store(
      workload::RandomPrivateTargets(target_count, config, 8, &rng));
  TransmissionModel channel;

  PrintTitle(std::string(title) +
             ": end-to-end time breakdown (us) per k group");
  std::printf("%-12s | %10s %10s %10s %10s | %10s %10s %10s %10s\n",
              "k range", "pub:anon", "pub:query", "pub:xmit", "pub:total",
              "prv:anon", "prv:query", "prv:xmit", "prv:total");

  for (const auto& g : groups) {
    workload::ProfileDistribution dist;
    dist.k_min = g.first;
    dist.k_max = g.second;
    auto anon = BuildAnonymizer(true, config, city, users, dist, 67);

    Breakdown pub, prv;
    const size_t queries = Scaled(400);
    Rng pick(71);
    for (size_t q = 0; q < queries; ++q) {
      const anonymizer::UserId uid = pick.UniformInt(0, users - 1);
      Stopwatch watch;
      auto cloak = anon->Cloak(uid);
      const double cloak_us = watch.ElapsedMicros();
      CASPER_DCHECK(cloak.ok());

      watch.Reset();
      auto pub_answer = processor::PrivateNearestNeighbor(
          public_store, cloak->region, processor::FilterPolicy::kFourFilters);
      const double pub_us = watch.ElapsedMicros();
      CASPER_DCHECK(pub_answer.ok());

      watch.Reset();
      processor::PrivateNNOptions options;
      auto prv_answer = processor::PrivateNearestNeighborOverPrivate(
          private_store, cloak->region, options);
      const double prv_us = watch.ElapsedMicros();
      CASPER_DCHECK(prv_answer.ok());

      pub.anonymizer_us += cloak_us;
      pub.processor_us += pub_us;
      pub.transmission_us += channel.SecondsFor(pub_answer->size()) * 1e6;
      prv.anonymizer_us += cloak_us;
      prv.processor_us += prv_us;
      prv.transmission_us += channel.SecondsFor(prv_answer->size()) * 1e6;
    }
    const double n = static_cast<double>(queries);
    std::printf("[%3u-%3u]    | %10.1f %10.1f %10.1f %10.1f | %10.1f %10.1f "
                "%10.1f %10.1f\n",
                g.first, g.second, pub.anonymizer_us / n, pub.processor_us / n,
                pub.transmission_us / n, pub.total() / n, prv.anonymizer_us / n,
                prv.processor_us / n, prv.transmission_us / n,
                prv.total() / n);
  }
}

}  // namespace
}  // namespace casper::bench

int main() {
  using namespace casper::bench;
  std::printf("Figure 17 reproduction (scale %.2f)\n", Scale());
  RunGroups({{1, 10}, {10, 20}, {20, 30}, {30, 40}, {40, 50}}, "Fig 17a");
  RunGroups({{1, 10}, {40, 50}, {90, 100}, {140, 150}, {150, 200}},
            "Fig 17b");
  return 0;
}
