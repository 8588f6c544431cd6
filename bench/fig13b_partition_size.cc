// Figure 13b: effect of the micro-delta partition size ps on snapshot
// retrieval; m=4, c=8. Paper sweeps ps ∈ {1000, 2000, 4000}; we sweep the
// same values scaled to the dataset.
//
// Paper shape: partition size affects snapshot retrieval only to a small
// degree — all micro-partitions of a delta are stored contiguously, so a
// snapshot scan pays one seek per (delta, storage partition) regardless of
// how finely the delta is chopped.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace {

std::vector<std::pair<size_t, hgs::bench::TGIBundle>>* g_bundles = nullptr;
std::vector<hgs::Timestamp> g_probes;

void BM_Snapshot(benchmark::State& state) {
  auto& [ps, bundle] = (*g_bundles)[static_cast<size_t>(state.range(0))];
  hgs::Timestamp t = g_probes[static_cast<size_t>(state.range(1))];
  bundle.qm->set_fetch_parallelism(8);
  hgs::FetchStats agg;
  for (auto _ : state) {
    hgs::FetchStats stats;
    auto snap = bundle.qm->GetSnapshot(t, &stats);
    if (!snap.ok()) {
      state.SkipWithError(snap.status().ToString().c_str());
      return;
    }
    agg.Merge(stats);
  }
  state.counters["micro_deltas"] =
      static_cast<double>(agg.micro_deltas) /
      static_cast<double>(state.iterations());
}

}  // namespace

int main(int argc, char** argv) {
  hgs::bench::PrintPreamble(
      "Fig 13b: snapshot retrieval vs micro-delta partition size; m=4 c=8",
      "only a small effect of ps on snapshot latency (contiguous "
      "micro-partitions cost one seek per delta scan)");

  auto events = hgs::bench::Dataset1();
  std::vector<std::pair<size_t, hgs::bench::TGIBundle>> bundles;
  for (size_t ps : {1'000u, 2'000u, 4'000u}) {
    hgs::TGIOptions topts = hgs::bench::DefaultTGIOptions();
    topts.micro_delta_size = ps;
    bundles.emplace_back(ps,
                         hgs::bench::BuildBundle(
                             events, topts,
                             hgs::bench::MakeClusterOptions(4, 1)));
  }
  g_bundles = &bundles;
  for (double frac : {0.25, 0.5, 0.75, 1.0}) {
    g_probes.push_back(static_cast<hgs::Timestamp>(
        static_cast<double>(bundles[0].second.end) * frac));
  }

  for (int64_t b = 0; b < static_cast<int64_t>(bundles.size()); ++b) {
    for (int64_t p = 0; p < static_cast<int64_t>(g_probes.size()); ++p) {
      std::string name =
          "snapshot/ps:" +
          std::to_string(bundles[static_cast<size_t>(b)].first) +
          "/t_pct:" + std::to_string((p + 1) * 25);
      benchmark::RegisterBenchmark(name.c_str(), BM_Snapshot)
          ->Args({b, p})
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
