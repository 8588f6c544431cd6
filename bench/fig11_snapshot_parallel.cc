// Figure 11: snapshot retrieval time vs snapshot size for varying parallel
// fetch factor c ∈ {1,2,4,8,16,32}; m=4, r=1, ps=500 (Dataset 1 analogue).
//
// Paper shape: retrieval time grows ~linearly with the retrieved snapshot
// size; adding fetch clients gives near-linear speedup at low c and
// saturates once the m*server_threads service capacity is reached.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace {

hgs::bench::TGIBundle* g_bundle = nullptr;
std::vector<hgs::Timestamp> g_probes;

void BM_Snapshot(benchmark::State& state) {
  size_t c = static_cast<size_t>(state.range(0));
  hgs::Timestamp t = g_probes[static_cast<size_t>(state.range(1))];
  g_bundle->qm->set_fetch_parallelism(c);
  size_t nodes = 0;
  hgs::FetchStats agg;
  for (auto _ : state) {
    hgs::FetchStats stats;
    auto snap = g_bundle->qm->GetSnapshot(t, &stats);
    if (!snap.ok()) {
      state.SkipWithError(snap.status().ToString().c_str());
      return;
    }
    nodes = snap->NumNodes();
    agg.Merge(stats);
  }
  auto iters = static_cast<double>(state.iterations());
  state.counters["snapshot_nodes"] = static_cast<double>(nodes);
  state.counters["micro_deltas"] =
      static_cast<double>(agg.micro_deltas) / iters;
  state.counters["MB_fetched"] =
      static_cast<double>(agg.bytes) / iters / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  hgs::bench::PrintPreamble(
      "Fig 11: snapshot retrieval vs size, c in {1..32}; m=4 r=1 ps=500",
      "time ~ linear in snapshot size; near-linear speedup in c, "
      "saturating at the cluster's service capacity");

  auto events = hgs::bench::Dataset1();
  hgs::TGIOptions topts = hgs::bench::DefaultTGIOptions();
  auto bundle = hgs::bench::BuildBundle(
      std::move(events), topts, hgs::bench::MakeClusterOptions(4, 1));
  g_bundle = &bundle;
  for (double frac : {0.25, 0.5, 0.75, 1.0}) {
    g_probes.push_back(static_cast<hgs::Timestamp>(
        static_cast<double>(bundle.end) * frac));
  }

  for (int64_t c : {1, 2, 4, 8, 16, 32}) {
    for (int64_t p = 0; p < static_cast<int64_t>(g_probes.size()); ++p) {
      std::string name = "snapshot/c:" + std::to_string(c) + "/t_pct:" +
                         std::to_string((p + 1) * 25);
      benchmark::RegisterBenchmark(name.c_str(), BM_Snapshot)
          ->Args({c, p})
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime()
          ->MinTime(0.6);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
