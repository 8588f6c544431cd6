// Figure 15a: 1-hop neighborhood retrieval under three partitioning and
// replication regimes — Random, Maxflow (locality min-cut), and
// Maxflow+Replication — averaged over random nodes (the paper uses 250; we
// sample proportionally to scale).
//
// Paper shape: locality partitioning clearly beats random (fewer
// micro-partitions touched per ego-net), and 1-hop replication beats both
// (a single partition plus its auxiliary rows answers the query).

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace {

struct Regime {
  const char* label;
  hgs::bench::TGIBundle bundle;
};

std::vector<Regime>* g_regimes = nullptr;
std::vector<hgs::NodeId>* g_sample = nullptr;

void BM_OneHop(benchmark::State& state) {
  Regime& regime = (*g_regimes)[static_cast<size_t>(state.range(0))];
  const auto& sample = *g_sample;
  // Requests per query over one untimed pass of the whole sample: with both
  // caches off (DefaultTGIOptions) the count depends on the index alone, not
  // on how many iterations the timed loop runs.
  hgs::FetchStats agg;
  for (hgs::NodeId id : sample) {
    auto hood = regime.bundle.qm->GetKHopNeighborhood(id, regime.bundle.end,
                                                      1, &agg);
    if (!hood.ok()) {
      state.SkipWithError(hood.status().ToString().c_str());
      return;
    }
  }
  size_t cursor = 0;
  for (auto _ : state) {
    auto hood = regime.bundle.qm->GetKHopNeighborhood(
        sample[cursor], regime.bundle.end, 1, nullptr);
    cursor = (cursor + 1) % sample.size();
    if (!hood.ok()) {
      state.SkipWithError(hood.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(hood->NumNodes());
  }
  state.counters["kv_requests_per_query"] =
      static_cast<double>(agg.kv_requests) /
      static_cast<double>(sample.size());
}

}  // namespace

int main(int argc, char** argv) {
  hgs::bench::PrintPreamble(
      "Fig 15a: 1-hop retrieval — Random vs Maxflow vs Maxflow+Replication",
      "locality (min-cut) partitioning < random; +replication lowest "
      "(single partition + aux rows per query)");

  auto events = hgs::bench::Dataset4();  // community structure matters here
  std::vector<Regime> regimes;
  {
    hgs::TGIOptions topts = hgs::bench::DefaultTGIOptions();
    topts.partition_strategy = hgs::PartitionStrategy::kRandom;
    regimes.push_back({"random", hgs::bench::BuildBundle(
                                     events, topts,
                                     hgs::bench::MakeClusterOptions(4, 1))});
  }
  {
    hgs::TGIOptions topts = hgs::bench::DefaultTGIOptions();
    topts.partition_strategy = hgs::PartitionStrategy::kLocality;
    regimes.push_back({"maxflow", hgs::bench::BuildBundle(
                                      events, topts,
                                      hgs::bench::MakeClusterOptions(4, 1))});
  }
  {
    hgs::TGIOptions topts = hgs::bench::DefaultTGIOptions();
    topts.partition_strategy = hgs::PartitionStrategy::kLocality;
    topts.replicate_one_hop = true;
    regimes.push_back(
        {"maxflow_repl", hgs::bench::BuildBundle(
                             events, topts,
                             hgs::bench::MakeClusterOptions(4, 1))});
  }
  g_regimes = &regimes;
  auto sample = hgs::bench::SampleNodes(
      regimes[0].bundle.events, regimes[0].bundle.end,
      hgs::bench::Scaled(100), /*seed=*/77, /*min_degree=*/1);
  g_sample = &sample;

  for (int64_t r = 0; r < static_cast<int64_t>(regimes.size()); ++r) {
    std::string name =
        std::string("one_hop/") + regimes[static_cast<size_t>(r)].label;
    benchmark::RegisterBenchmark(name.c_str(), BM_OneHop)
        ->Arg(r)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime()
        ->MinTime(0.3);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
