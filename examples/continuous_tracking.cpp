// Continuous private NN queries: a driver keeps a standing "nearest gas
// station" subscription while moving along the road network. The
// incremental manager reuses or patches answers when it can prove the
// stored candidate list is still inclusive, and recomputes otherwise —
// the integration hook §5 defers to incremental query processors.
//
// Run: ./build/examples/example_continuous_tracking

#include <cstdio>

#include "src/anonymizer/adaptive_anonymizer.h"
#include "src/casper/workload.h"
#include "src/network/network_generator.h"
#include "src/processor/continuous.h"

int main() {
  using namespace casper;

  network::NetworkGeneratorOptions net_opt;
  net_opt.rows = 16;
  net_opt.cols = 16;
  auto net = network::NetworkGenerator(net_opt).Generate(21);
  if (!net.ok()) return 1;
  network::SimulatorOptions sim_opt;
  sim_opt.object_count = 800;
  network::MovingObjectSimulator sim(&*net, sim_opt, 23);

  anonymizer::PyramidConfig config;
  config.space = net->bounds();
  config.height = 8;
  anonymizer::AdaptiveAnonymizer anon(config);

  Rng rng(29);
  workload::ProfileDistribution dist;
  dist.k_min = 10;
  dist.k_max = 30;
  if (!workload::RegisterSimulatedUsers(sim, 800, dist, &anon, &rng).ok()) {
    return 1;
  }

  processor::PublicTargetStore store(
      workload::UniformPublicTargets(500, config.space, &rng));
  processor::ContinuousQueryManager manager(&store);

  // Every 40th driver keeps a standing query.
  std::vector<std::pair<anonymizer::UserId, processor::QueryId>> queries;
  for (anonymizer::UserId uid = 0; uid < 800; uid += 40) {
    auto cloak = anon.Cloak(uid);
    if (!cloak.ok()) return 1;
    auto qid = manager.Register(cloak->region);
    if (!qid.ok()) return 1;
    queries.emplace_back(uid, *qid);
  }
  std::printf("%zu standing queries over 500 stations, 800 drivers\n\n",
              queries.size());

  for (int tick = 0; tick < 30; ++tick) {
    for (const auto& update : sim.Tick()) {
      const Point p = ClampToRect(update.position, config.space);
      if (!anon.UpdateLocation(update.uid, p).ok()) return 1;
    }
    for (const auto& [uid, qid] : queries) {
      auto cloak = anon.Cloak(uid);
      if (!cloak.ok()) return 1;
      auto answer = manager.OnCloakChanged(qid, cloak->region);
      if (!answer.ok()) return 1;

      // The client refines locally; verify inclusiveness on the fly.
      const Point user = ClampToRect(sim.PositionOf(uid), config.space);
      auto refined = processor::RefineNearest(answer->candidates, user);
      const auto truth =
          processor::PublicTargetStore::Snapshot(store).KNearest(user, 1);
      if (!refined.ok() || truth.empty() || refined->id != truth[0].id) {
        std::fprintf(stderr, "BUG: stale continuous answer at tick %d\n",
                     tick);
        return 1;
      }
    }
  }

  const auto& stats = manager.stats();
  const uint64_t events = stats.evaluations + stats.reuses;
  std::printf("after 30 ticks x %zu queries:\n", queries.size());
  std::printf("  full evaluations : %llu\n",
              static_cast<unsigned long long>(stats.evaluations));
  std::printf("  reused answers   : %llu (%.1f%% of cloak events)\n",
              static_cast<unsigned long long>(stats.reuses),
              100.0 * stats.reuses / events);
  std::printf("every answer stayed provably inclusive; reuse happens when "
              "the new cloak is contained in the previous one.\n");
  return 0;
}
