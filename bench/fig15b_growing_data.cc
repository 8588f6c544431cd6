// Figure 15b: snapshot retrieval as the indexed history grows — Datasets 1,
// 2 and 3 (the base citation trace plus increasing synthetic churn).
//
// Paper shape: only a marginal difference in snapshot retrieval latency as
// the index grows — cost follows the *retrieved* snapshot size, not the
// total history volume.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace {

struct DatasetRun {
  const char* label;
  hgs::bench::TGIBundle bundle;
  std::vector<hgs::Timestamp> probes;  // equal snapshot sizes across runs
};

std::vector<DatasetRun>* g_runs = nullptr;

void BM_Snapshot(benchmark::State& state) {
  DatasetRun& run = (*g_runs)[static_cast<size_t>(state.range(0))];
  hgs::Timestamp t = run.probes[static_cast<size_t>(state.range(1))];
  run.bundle.qm->set_fetch_parallelism(4);
  size_t nodes = 0;
  for (auto _ : state) {
    auto snap = run.bundle.qm->GetSnapshot(t);
    if (!snap.ok()) {
      state.SkipWithError(snap.status().ToString().c_str());
      return;
    }
    nodes = snap->NumNodes();
  }
  state.counters["snapshot_nodes"] = static_cast<double>(nodes);
  state.counters["indexed_events"] =
      static_cast<double>(run.bundle.events.size());
}

}  // namespace

int main(int argc, char** argv) {
  hgs::bench::PrintPreamble(
      "Fig 15b: snapshot retrieval for growing dataset sizes (D1/D2/D3)",
      "near-identical latency at equal snapshot sizes despite the index "
      "holding up to ~2.3x more events");

  std::vector<DatasetRun> runs;
  auto add = [&](const char* label, std::vector<hgs::Event> events) {
    runs.push_back(
        {label,
         hgs::bench::BuildBundle(std::move(events),
                                 hgs::bench::DefaultTGIOptions(),
                                 hgs::bench::MakeClusterOptions(4, 1)),
         {}});
  };
  add("dataset1", hgs::bench::Dataset1());
  add("dataset2", hgs::bench::Dataset2());
  add("dataset3", hgs::bench::Dataset3());

  // Probe every run at the *same* absolute times (those of dataset 1's
  // quarters) so the retrieved snapshots are comparable in size.
  hgs::Timestamp d1_end = runs[0].bundle.end;
  for (auto& run : runs) {
    for (double frac : {0.25, 0.5, 0.75, 1.0}) {
      run.probes.push_back(static_cast<hgs::Timestamp>(
          static_cast<double>(d1_end) * frac));
    }
  }
  g_runs = &runs;

  for (int64_t r = 0; r < static_cast<int64_t>(runs.size()); ++r) {
    for (int64_t p = 0; p < 4; ++p) {
      std::string name = std::string("snapshot/") +
                         runs[static_cast<size_t>(r)].label +
                         "/t_pct:" + std::to_string((p + 1) * 25);
      benchmark::RegisterBenchmark(name.c_str(), BM_Snapshot)
          ->Args({r, p})
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
