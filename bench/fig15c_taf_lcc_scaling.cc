// Figure 15c: TAF computation times for local clustering coefficient over
// snapshots of growing size (the paper's N ∈ {77k, 134k, 202k} nodes), with
// the worker-cluster size swept 1..5.
//
// Paper shape: compute time grows with graph size and falls with added
// workers, with better speedups on larger graphs. NOTE: worker scaling is
// real thread parallelism — on a host with fewer cores than workers, the
// curve flattens at the core count (recorded in EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "taf/context.h"

namespace {

hgs::bench::TGIBundle* g_bundle = nullptr;
// Pre-fetched SoNs per probe point (fetch excluded from the measured time,
// as in the paper's Fig 15c which reports computation time).
std::vector<std::pair<size_t, hgs::taf::SoN>>* g_sons = nullptr;

void BM_Lcc(benchmark::State& state) {
  auto& [n_nodes, son] = (*g_sons)[static_cast<size_t>(state.range(0))];
  size_t workers = static_cast<size_t>(state.range(1));
  // Re-bind the SoN to an engine with the requested worker count.
  hgs::taf::TAFContext ctx(g_bundle->qm.get(), workers);
  hgs::taf::SoN bound(ctx.engine(), son.nodes(), son.GetStartTime(),
                      son.GetEndTime());
  hgs::Timestamp t = son.GetEndTime();
  hgs::Graph snapshot = bound.GetGraphAt(t);
  std::function<double(const hgs::taf::NodeT&)> lcc =
      [&snapshot](const hgs::taf::NodeT& node) {
        return hgs::algo::LocalClusteringCoefficient(snapshot, node.id());
      };
  for (auto _ : state) {
    auto values = bound.NodeCompute(lcc);
    benchmark::DoNotOptimize(values.data());
  }
  state.counters["graph_nodes"] = static_cast<double>(n_nodes);
  state.counters["workers"] = static_cast<double>(workers);
}

}  // namespace

int main(int argc, char** argv) {
  hgs::bench::PrintPreamble(
      "Fig 15c: TAF LCC computation vs worker count on growing graphs",
      "time falls with workers (up to the host's core count) and grows "
      "with graph size");

  auto bundle = hgs::bench::BuildBundle(hgs::bench::Dataset1(),
                                        hgs::bench::DefaultTGIOptions(),
                                        hgs::bench::MakeClusterOptions(4, 1),
                                        /*fetch_parallelism=*/8);
  g_bundle = &bundle;

  // Three growing snapshot populations (the paper's three N series). Each
  // SoN extraction is one GetNodeHistoriesWhere plan (every partition
  // rebuilt at the window start once, histories fetched set-at-a-time);
  // the fetch-efficiency lines show the logical-vs-physical gap that
  // batching and eventlist dedup open up.
  hgs::taf::TAFContext fetch_ctx(bundle.qm.get(), 4);
  std::vector<std::pair<size_t, hgs::taf::SoN>> sons;
  for (double frac : {0.4, 0.7, 1.0}) {
    auto t = static_cast<hgs::Timestamp>(static_cast<double>(bundle.end) * frac);
    hgs::FetchStats fetch_stats;
    auto son = fetch_ctx.Nodes().TimeRange(t, t).Fetch(&fetch_stats);
    if (!son.ok()) {
      std::fprintf(stderr, "fetch failed: %s\n",
                   son.status().ToString().c_str());
      return 1;
    }
    std::string label = "son_fetch/N:" + std::to_string(son->size());
    hgs::bench::PrintFetchEfficiency(label.c_str(), fetch_stats);
    hgs::bench::PrintBulkEfficiency(label.c_str(), fetch_stats);
    sons.emplace_back(son->size(), std::move(*son));
  }
  g_sons = &sons;

  for (int64_t s = 0; s < static_cast<int64_t>(sons.size()); ++s) {
    for (int64_t workers = 1; workers <= 5; ++workers) {
      std::string name =
          "lcc/N:" + std::to_string(sons[static_cast<size_t>(s)].first) +
          "/workers:" + std::to_string(workers);
      benchmark::RegisterBenchmark(name.c_str(), BM_Lcc)
          ->Args({s, workers})
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime()
          ->MinTime(0.2);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
