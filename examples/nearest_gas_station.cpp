// Private queries over public data (§5.1), on a realistic mobile
// workload: users drive along a synthetic road network (the Brinkhoff
// generator substitute), continuously updating the anonymizer, while
// asking for their nearest gas station.
//
// The example contrasts Casper's candidate list against the two naive
// extremes of Figure 4:
//   * center-NN  — tiny transfer, frequently wrong;
//   * send-all   — always right, transfers the whole table;
//   * Casper     — always right, transfers a small candidate list.
//
// Run: ./build/examples/example_nearest_gas_station

#include <cstdio>

#include "src/casper/casper.h"
#include "src/casper/workload.h"
#include "src/network/network_generator.h"

int main() {
  using namespace casper;

  // Road network and moving users.
  network::NetworkGeneratorOptions net_opt;
  net_opt.rows = 20;
  net_opt.cols = 20;
  auto net = network::NetworkGenerator(net_opt).Generate(7);
  if (!net.ok()) {
    std::fprintf(stderr, "network: %s\n", net.status().ToString().c_str());
    return 1;
  }
  network::SimulatorOptions sim_opt;
  sim_opt.object_count = 2000;
  sim_opt.tick_seconds = 1.0;
  network::MovingObjectSimulator sim(&*net, sim_opt, 11);

  // Casper service over the same space.
  CasperOptions options;
  options.pyramid.space = net->bounds();
  options.pyramid.height = 8;
  CasperService service(options);

  Rng rng(13);
  workload::ProfileDistribution dist;  // Paper defaults: k in [1,50].
  if (auto st = workload::RegisterSimulatedUsers(sim, 2000, dist,
                                                 &service.anonymizer(), &rng);
      !st.ok()) {
    std::fprintf(stderr, "register: %s\n", st.ToString().c_str());
    return 1;
  }
  // Mirror the exact positions into the client-side map by re-driving
  // the facade (RegisterSimulatedUsers talks to the anonymizer only).
  // For the example we simply register targets and use the anonymizer
  // through the facade for queries below.
  service.SetPublicTargets(workload::UniformPublicTargets(
      1000, options.pyramid.space, &rng));

  std::printf("road network: %zu nodes, %zu edges; %zu drivers; "
              "1000 gas stations\n\n",
              net->node_count(), net->edge_count(), sim.object_count());

  TransmissionModel channel;  // 64-byte records at 100 Mbps.
  size_t center_wrong = 0;
  size_t casper_records = 0;
  size_t queries = 0;

  // Drive a few simulation ticks; a sample of users query each tick.
  for (int tick = 0; tick < 5; ++tick) {
    for (const auto& update : sim.Tick()) {
      const Point p = ClampToRect(update.position, options.pyramid.space);
      if (!service.anonymizer().UpdateLocation(update.uid, p).ok()) return 1;
    }
    for (anonymizer::UserId uid = tick; uid < 2000; uid += 97) {
      auto cloak = service.anonymizer().Cloak(uid);
      if (!cloak.ok()) continue;  // k larger than population never happens here.
      const Point user = ClampToRect(sim.PositionOf(uid),
                                     options.pyramid.space);

      // Casper candidate list + local refinement.
      auto answer = processor::PrivateNearestNeighbor(
          service.public_store(), cloak->region,
          processor::FilterPolicy::kFourFilters);
      if (!answer.ok()) return 1;
      auto refined = processor::RefineNearest(answer->candidates, user);
      const processor::PublicTargetStore::Snapshot targets(
          service.public_store());
      const auto truth = targets.KNearest(user, 1);
      if (!refined.ok() || truth.empty() || refined->id != truth[0].id) {
        std::fprintf(stderr, "BUG: inclusive property violated\n");
        return 1;
      }
      casper_records += answer->size();

      // Center-NN baseline.
      auto naive = processor::NaiveCenterNearest(service.public_store(),
                                                 cloak->region);
      if (naive.ok() && naive->id != truth[0].id) ++center_wrong;
      ++queries;
    }
  }

  const double casper_avg = static_cast<double>(casper_records) / queries;
  std::printf("%zu private NN queries over 5 ticks\n", queries);
  std::printf("  center-NN baseline : wrong answer on %zu/%zu queries "
              "(%.1f%%)\n",
              center_wrong, queries, 100.0 * center_wrong / queries);
  std::printf("  send-all baseline  : 1000 records = %zu bytes/query "
              "(%.1f us on channel)\n",
              channel.BytesFor(1000), channel.SecondsFor(1000) * 1e6);
  std::printf("  casper             : exact answers, avg %.1f records = "
              "%.0f bytes/query (%.1f us)\n",
              casper_avg, casper_avg * channel.record_bytes(),
              channel.SecondsFor(static_cast<size_t>(casper_avg)) * 1e6);
  return 0;
}
