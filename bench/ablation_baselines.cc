// Ablation (Figure 4, §5.1): the two naive extremes vs Casper's
// candidate list, across cloak sizes. Reports answer quality (fraction
// of queries where the user ends up with her true nearest target) and
// downlink bytes per query.

#include "bench/bench_common.h"
#include "src/casper/transmission.h"
#include "src/processor/naive.h"
#include "src/processor/private_nn.h"

int main() {
  using namespace casper::bench;

  casper::anonymizer::PyramidConfig config;
  config.height = 9;
  casper::Rng rng(73);
  const size_t target_count = Scaled(10000);
  casper::processor::PublicTargetStore store(
      casper::workload::UniformPublicTargets(target_count, config.space,
                                             &rng));
  casper::TransmissionModel channel;

  std::printf("Figure 4 baselines: %zu public targets (scale %.2f)\n",
              target_count, Scale());
  PrintTitle("answer quality and bytes shipped per query vs cloak size");
  std::printf("%-10s %18s %18s %18s\n", "cells", "center-NN", "send-all",
              "casper(4 filters)");
  std::printf("%-10s %10s %7s %10s %7s %10s %7s\n", "", "correct%", "bytes",
              "correct%", "bytes", "correct%", "bytes");

  for (int side : {2, 4, 8, 16, 32}) {
    const size_t queries = Scaled(500);
    size_t center_right = 0, casper_right = 0;
    double casper_bytes = 0.0;
    for (size_t q = 0; q < queries; ++q) {
      const casper::Rect cloak =
          casper::workload::RandomCellAlignedRegion(config, side, side, &rng);
      const casper::Point user = rng.PointIn(cloak);
      const auto truth =
          casper::processor::PublicTargetStore::Snapshot(store)
              .KNearest(user, 1)
              .front();

      auto naive = casper::processor::NaiveCenterNearest(store, cloak);
      CASPER_DCHECK(naive.ok());
      if (naive->id == truth.id) ++center_right;

      auto answer = casper::processor::PrivateNearestNeighbor(store, cloak);
      CASPER_DCHECK(answer.ok());
      auto refined =
          casper::processor::RefineNearest(answer->candidates, user);
      CASPER_DCHECK(refined.ok());
      if (refined->id == truth.id) ++casper_right;
      casper_bytes += static_cast<double>(channel.BytesFor(answer->size()));
    }
    std::printf("%-10d %10.1f %7zu %10.1f %7zu %10.1f %7.0f\n", side * side,
                100.0 * center_right / queries, channel.BytesFor(1),
                100.0, channel.BytesFor(target_count),
                100.0 * casper_right / queries, casper_bytes / queries);
  }
  std::printf("\ncenter-NN ships one record but guesses; send-all ships the "
              "whole table; casper ships a small list and is always "
              "right.\n");
  return 0;
}
