// google-benchmark microbenchmarks for the hot paths underneath every
// experiment: packed R-tree and epoch-index operations, pyramid maintenance, cloaking, the
// Algorithm 2 geometry, the wire codec, and the moving-object simulator.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "src/anonymizer/adaptive_anonymizer.h"
#include "src/anonymizer/basic_anonymizer.h"
#include "src/casper/messages.h"
#include "src/casper/workload.h"
#include "src/common/rng.h"
#include "src/network/network_generator.h"
#include "src/processor/density.h"
#include "src/processor/private_knn.h"
#include "src/processor/private_nn.h"
#include "src/processor/public_nn_private.h"
#include "src/processor/query_cache.h"
#include "src/spatial/epoch_index.h"
#include "src/spatial/flat_rtree.h"
#include "src/storage/memory_storage.h"
#include "tests/spatial_oracle.h"

namespace casper {
namespace {

std::vector<spatial::Entry> RandomEntries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<spatial::Entry> entries;
  for (uint64_t i = 0; i < n; ++i) {
    entries.push_back({Rect::FromPoint(rng.PointIn(Rect(0, 0, 1, 1))), i});
  }
  return entries;
}

/// Bench loops cycle through this many inputs, so the branch predictor
/// cannot learn one input's sort or walk.
constexpr size_t kInputs = 64;

void BM_FlatBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::vector<spatial::Entry>> inputs;
  for (size_t i = 0; i < kInputs; ++i) {
    inputs.push_back(RandomEntries(n, 1 + i));
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spatial::FlatRTree::Build(inputs[next]));
    next = (next + 1) % kInputs;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FlatBuild)->Arg(1000)->Arg(10000);

/// Scalar MinDist over an array of rectangles — the per-box cost of a
/// node visit without the batched kernel.
void BM_MinDistScalar(benchmark::State& state) {
  const auto entries = RandomEntries(static_cast<size_t>(state.range(0)), 23);
  Rng rng(24);
  std::vector<double> out(entries.size());
  for (auto _ : state) {
    const Point q = rng.PointIn(Rect(0, 0, 1, 1));
    for (size_t i = 0; i < entries.size(); ++i) {
      out[i] = MinDist(q, entries[i].box);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(entries.size()));
}
BENCHMARK(BM_MinDistScalar)->Arg(16)->Arg(256)->Arg(4096);

/// The SoA batched kernel the flat tree uses: same distances, computed
/// over four parallel coordinate arrays so the compiler can vectorize.
void BM_MinDistBatched(benchmark::State& state) {
  const auto entries = RandomEntries(static_cast<size_t>(state.range(0)), 23);
  std::vector<double> xlo, ylo, xhi, yhi;
  for (const auto& e : entries) {
    xlo.push_back(e.box.min.x);
    ylo.push_back(e.box.min.y);
    xhi.push_back(e.box.max.x);
    yhi.push_back(e.box.max.y);
  }
  const RectSoA soa{xlo.data(), ylo.data(), xhi.data(), yhi.data()};
  Rng rng(24);
  std::vector<double> out(entries.size());
  for (auto _ : state) {
    const Point q = rng.PointIn(Rect(0, 0, 1, 1));
    BatchedMinDist(q, soa, entries.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(entries.size()));
}
BENCHMARK(BM_MinDistBatched)->Arg(16)->Arg(256)->Arg(4096);

void BM_FlatKnn(benchmark::State& state) {
  const spatial::FlatRTree tree = spatial::FlatRTree::Build(
      RandomEntries(static_cast<size_t>(state.range(0)), 25));
  Rng rng(26);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.KNearest(rng.PointIn(Rect(0, 0, 1, 1)), 8));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatKnn)->Arg(10000)->Arg(100000);

/// The shape of the private-data filter probe (§5.2.1): MaxDist k-NN
/// at a cloak vertex, which lies on the pyramid grid, over 10K
/// pyramid-cell regions that about eight users share each, so
/// distances tie everywhere. Arg = k: 1, or 2 when a buddy query
/// excludes the user's own region.
void BM_FlatKnnMaxDistCells(benchmark::State& state) {
  Rng rng(27);
  const spatial::FlatRTree tree =
      spatial::FlatRTree::Build(spatial::oracle::PyramidCells(10000, &rng));
  std::vector<Point> vertices;
  for (size_t i = 0; i < kInputs; ++i) {
    vertices.push_back(spatial::oracle::GridPoint(&rng));
  }
  const auto k = static_cast<size_t>(state.range(0));
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.KNearest(vertices[next], k));
    next = (next + 1) % kInputs;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatKnnMaxDistCells)->Arg(1)->Arg(2);

/// A 1%-area window collected into a vector. Arg = entries; at 1M the
/// tree (~40 MB) exceeds the last-level cache, as in big_lists.
void BM_FlatRange1Pct(benchmark::State& state) {
  const spatial::FlatRTree tree = spatial::FlatRTree::Build(
      RandomEntries(static_cast<size_t>(state.range(0)), 5));
  Rng rng(6);
  std::vector<Rect> windows;
  for (size_t i = 0; i < kInputs; ++i) {
    const Point c = rng.PointIn(Rect(0, 0, 0.9, 0.9));
    windows.emplace_back(c.x, c.y, c.x + 0.1, c.y + 0.1);
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spatial::oracle::RangeHits(tree, windows[next]));
    next = (next + 1) % kInputs;
  }
}
BENCHMARK(BM_FlatRange1Pct)->Arg(10000)->Arg(100000)->Arg(1000000);

/// One moving-object upsert on the epoch index (Remove the old point,
/// Insert the new one, each publishing a snapshot), amortizing the
/// periodic base repack. Arg = entries.
void BM_EpochIndexMove(benchmark::State& state) {
  std::vector<spatial::Entry> entries =
      RandomEntries(static_cast<size_t>(state.range(0)), 27);
  spatial::EpochIndex index = spatial::EpochIndex::BulkLoad(entries);
  Rng rng(28);
  size_t next = 0;
  for (auto _ : state) {
    spatial::Entry& e = entries[next];
    next = (next + 1) % entries.size();
    const Rect moved = Rect::FromPoint(rng.PointIn(Rect(0, 0, 1, 1)));
    benchmark::DoNotOptimize(index.Remove(e.box, e.id));
    index.Insert(moved, e.id);
    e.box = moved;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EpochIndexMove)->Arg(10000)->Arg(100000);

/// One base repack as the epoch index runs it: merge 64 added regions
/// into a freshly built base and drop 64 dead rows. Arg = base entries.
void BM_EpochIndexRepack(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const spatial::FlatRTree base =
      spatial::FlatRTree::Build(RandomEntries(n, 29));
  Rng rng(30);
  std::vector<uint32_t> dead;
  while (dead.size() < 64) {
    const auto row = static_cast<uint32_t>(rng.UniformInt(0, n - 1));
    if (std::find(dead.begin(), dead.end(), row) == dead.end()) {
      dead.push_back(row);
    }
  }
  std::sort(dead.begin(), dead.end());
  std::vector<spatial::Entry> added;
  for (uint64_t i = 0; i < 64; ++i) {
    const Point c = rng.PointIn(Rect(0, 0, 0.99, 0.99));
    added.push_back({Rect(c.x, c.y, c.x + 0.01, c.y + 0.01), n + i});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.Repack(dead, added));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EpochIndexRepack)->Arg(10000)->Arg(100000);

template <typename Anonymizer>
std::unique_ptr<Anonymizer> BuildAnon(size_t users, int height,
                                      uint64_t seed) {
  anonymizer::PyramidConfig config;
  config.height = height;
  auto anon = std::make_unique<Anonymizer>(config);
  Rng rng(seed);
  for (anonymizer::UserId uid = 0; uid < users; ++uid) {
    anonymizer::PrivacyProfile profile;
    profile.k = static_cast<uint32_t>(rng.UniformInt(1, 50));
    profile.a_min = rng.Uniform(0.00005, 0.0001);
    CASPER_DCHECK(
        anon->RegisterUser(uid, profile, rng.PointIn(config.space)).ok());
  }
  return anon;
}

void BM_BasicUpdate(benchmark::State& state) {
  auto anon = BuildAnon<anonymizer::BasicAnonymizer>(10000, 9, 8);
  Rng rng(9);
  for (auto _ : state) {
    const anonymizer::UserId uid = rng.UniformInt(0, 9999);
    CASPER_DCHECK(
        anon->UpdateLocation(uid, rng.PointIn(Rect(0, 0, 1, 1))).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BasicUpdate);

void BM_AdaptiveUpdate(benchmark::State& state) {
  auto anon = BuildAnon<anonymizer::AdaptiveAnonymizer>(10000, 9, 10);
  Rng rng(11);
  for (auto _ : state) {
    const anonymizer::UserId uid = rng.UniformInt(0, 9999);
    CASPER_DCHECK(
        anon->UpdateLocation(uid, rng.PointIn(Rect(0, 0, 1, 1))).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptiveUpdate);

void BM_BasicCloak(benchmark::State& state) {
  auto anon = BuildAnon<anonymizer::BasicAnonymizer>(10000, 9, 12);
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(anon->Cloak(rng.UniformInt(0, 9999)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BasicCloak);

void BM_AdaptiveCloak(benchmark::State& state) {
  auto anon = BuildAnon<anonymizer::AdaptiveAnonymizer>(10000, 9, 14);
  Rng rng(15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(anon->Cloak(rng.UniformInt(0, 9999)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptiveCloak);

void BM_PrivateNNQuery(benchmark::State& state) {
  Rng rng(16);
  anonymizer::PyramidConfig config;
  config.height = 9;
  processor::PublicTargetStore store(workload::UniformPublicTargets(
      static_cast<size_t>(state.range(0)), config.space, &rng));
  for (auto _ : state) {
    const Rect cloak =
        workload::RandomCellAlignedRegion(config, 8, 8, &rng);
    benchmark::DoNotOptimize(processor::PrivateNearestNeighbor(store, cloak));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrivateNNQuery)->Arg(1000)->Arg(10000);

void BM_PrivateKnnQuery(benchmark::State& state) {
  Rng rng(19);
  anonymizer::PyramidConfig config;
  config.height = 9;
  processor::PublicTargetStore store(
      workload::UniformPublicTargets(10000, config.space, &rng));
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    const Rect cloak = workload::RandomCellAlignedRegion(config, 8, 8, &rng);
    benchmark::DoNotOptimize(
        processor::PrivateKNearestNeighbors(store, cloak, k));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrivateKnnQuery)->Arg(1)->Arg(8)->Arg(32);

void BM_PublicNNOverPrivate(benchmark::State& state) {
  Rng rng(20);
  anonymizer::PyramidConfig config;
  config.height = 9;
  processor::PrivateTargetStore store(
      workload::RandomPrivateTargets(10000, config, 8, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(processor::PublicNearestNeighborOverPrivate(
        store, rng.PointIn(config.space)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PublicNNOverPrivate);

void BM_ExpectedDensity(benchmark::State& state) {
  Rng rng(21);
  anonymizer::PyramidConfig config;
  config.height = 9;
  processor::PrivateTargetStore store(
      workload::RandomPrivateTargets(10000, config, 8, &rng));
  const int grid = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        processor::ExpectedDensity(store, config.space, grid, grid));
  }
}
BENCHMARK(BM_ExpectedDensity)->Arg(8)->Arg(16)->Arg(32);

void BM_CachedQueryHit(benchmark::State& state) {
  Rng rng(22);
  anonymizer::PyramidConfig config;
  config.height = 9;
  processor::PublicTargetStore store(
      workload::UniformPublicTargets(10000, config.space, &rng));
  processor::CachingQueryProcessor cache(&store, 64);
  const Rect cloak = workload::RandomCellAlignedRegion(config, 8, 8, &rng);
  CASPER_DCHECK(cache.Query(cloak).ok());  // Warm the entry.
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Query(cloak));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedQueryHit);

// --- Canonical order ---------------------------------------------------------

/// The canonical sort every candidate list pays before it is encoded,
/// over state.range(0) public targets with ids drawn by `next_id` in
/// walk order. Each iteration also copies the unsorted list back (~1%
/// of the time).
template <typename NextId>
void CanonicalizeBench(benchmark::State& state, NextId next_id) {
  Rng rng(37);
  std::vector<processor::PublicTarget> walk;
  for (int64_t i = 0; i < state.range(0); ++i) {
    walk.push_back({next_id(rng), rng.PointIn(Rect(0, 0, 1, 1))});
  }
  std::vector<processor::PublicTarget> list;
  for (auto _ : state) {
    list = walk;
    processor::Canonicalize(&list);
    benchmark::DoNotOptimize(list.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// Random 64-bit ids: the private store's pseudonym handles.
void BM_Canonicalize(benchmark::State& state) {
  CanonicalizeBench(state, [](Rng& rng) { return rng.Next(); });
}
BENCHMARK(BM_Canonicalize)->Arg(100)->Arg(1000)->Arg(4000);

/// Ids in [0, 1M): a big_lists answer over dense public ids.
void BM_CanonicalizeDense(benchmark::State& state) {
  CanonicalizeBench(state, [](Rng& rng) { return rng.Next() % 1000000; });
}
BENCHMARK(BM_CanonicalizeDense)->Arg(100)->Arg(1000)->Arg(4000);

// --- Wire codec --------------------------------------------------------------
//
// A private-NN answer (the big_lists shape) with state.range(0) candidate
// records. items_per_second counts records, so ns/record = 1e9 / it.

CandidateListMsg NearestPublicAnswer(size_t records) {
  Rng rng(31);
  processor::PublicCandidateList list;
  list.candidates = workload::UniformPublicTargets(records, Rect(0, 0, 1, 1),
                                                   &rng);
  list.area.a_ext = Rect(0.25, 0.25, 0.75, 0.75);
  CandidateListMsg msg;
  msg.kind = QueryKind::kNearestPublic;
  msg.request_id = 7;
  msg.payload = std::move(list);
  return msg;
}

/// Encode + seal, as the server endpoint does per answer.
void BM_WireEncode(benchmark::State& state) {
  const CandidateListMsg msg =
      NearestPublicAnswer(static_cast<size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(Encode(msg));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireEncode)->Arg(10)->Arg(100)->Arg(1000)->Arg(4000);

/// Unseal, validate and copy the records out (DecodeCandidateList):
/// what the resilient client pays per response.
void BM_WireDecode(benchmark::State& state) {
  const std::string frame =
      Encode(NearestPublicAnswer(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeCandidateList(frame));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireDecode)->Arg(10)->Arg(100)->Arg(1000)->Arg(4000);

/// The frame seal alone over state.range(0) bytes: one 24-byte record
/// and a 4,096-record (96 KB) answer. bytes_per_second is the seal's
/// bandwidth.
void BM_Checksum(benchmark::State& state) {
  const std::string bytes(static_cast<size_t>(state.range(0)), '\x5a');
  for (auto _ : state) benchmark::DoNotOptimize(wire::Checksum64(bytes));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Checksum)->Arg(24)->Arg(98304);

void BM_SimulatorTick(benchmark::State& state) {
  network::NetworkGeneratorOptions opt;
  opt.rows = 20;
  opt.cols = 20;
  auto net = network::NetworkGenerator(opt).Generate(17);
  CASPER_DCHECK(net.ok());
  network::SimulatorOptions sopt;
  sopt.object_count = static_cast<size_t>(state.range(0));
  network::MovingObjectSimulator sim(&*net, sopt, 18);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Tick());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorTick)->Arg(1000)->Arg(10000);

// --- Storage tier: page codec ------------------------------------------------

spatial::FlatRTree BuildFlatTree(size_t n, uint64_t seed) {
  return spatial::FlatRTree::Build(RandomEntries(n, seed));
}

void BM_FlatTreeSerialize(benchmark::State& state) {
  const auto tree = BuildFlatTree(static_cast<size_t>(state.range(0)), 23);
  for (auto _ : state) {
    storage::MemoryStorageManager sm;
    auto root = tree.SaveTo(&sm);
    CASPER_DCHECK(root.ok());
    benchmark::DoNotOptimize(*root);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlatTreeSerialize)->Arg(10000)->Arg(100000);

void BM_FlatTreeDeserialize(benchmark::State& state) {
  const auto tree = BuildFlatTree(static_cast<size_t>(state.range(0)), 23);
  storage::MemoryStorageManager sm;
  const auto root = tree.SaveTo(&sm);
  CASPER_DCHECK(root.ok());
  for (auto _ : state) {
    auto loaded = spatial::FlatRTree::LoadFrom(&sm, *root);
    CASPER_DCHECK(loaded.ok());
    benchmark::DoNotOptimize(loaded->size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlatTreeDeserialize)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace casper
