// Figure 12 (a-c): snapshot retrieval across storage-machine count m and
// replication factor r — (m=1,r=1), (m=2,r=1), (m=2,r=2) — with the parallel
// fetch factor c swept per panel.
//
// Paper shape: the three configurations perform similarly overall; m=2 has a
// slight edge over m=1 at higher c, and (m=2, r=2) sustains higher c than
// (m=1, r=1) before saturating.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace {

struct Panel {
  const char* label;
  hgs::bench::TGIBundle bundle;
};

std::vector<Panel>* g_panels = nullptr;
hgs::Timestamp g_probe = 0;

void BM_Snapshot(benchmark::State& state) {
  Panel& panel = (*g_panels)[static_cast<size_t>(state.range(0))];
  size_t c = static_cast<size_t>(state.range(1));
  panel.bundle.qm->set_fetch_parallelism(c);
  for (auto _ : state) {
    auto snap = panel.bundle.qm->GetSnapshot(g_probe);
    if (!snap.ok()) {
      state.SkipWithError(snap.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(snap->NumNodes());
  }
}

}  // namespace

int main(int argc, char** argv) {
  hgs::bench::PrintPreamble(
      "Fig 12: snapshot retrieval across (m, r) panels, c swept",
      "similar latency across panels; m=2 slightly ahead of m=1 for c>1; "
      "r=2 sustains higher c before saturation");

  auto events = hgs::bench::Dataset1();
  hgs::TGIOptions topts = hgs::bench::DefaultTGIOptions();

  std::vector<Panel> panels;
  panels.push_back(
      {"m1_r1", hgs::bench::BuildBundle(
                    events, topts, hgs::bench::MakeClusterOptions(1, 1))});
  panels.push_back(
      {"m2_r1", hgs::bench::BuildBundle(
                    events, topts, hgs::bench::MakeClusterOptions(2, 1))});
  panels.push_back(
      {"m2_r2", hgs::bench::BuildBundle(
                    events, topts, hgs::bench::MakeClusterOptions(2, 2))});
  g_panels = &panels;
  g_probe = panels[0].bundle.end;

  const int64_t c_values[3][4] = {{1, 2, 4, 8}, {1, 2, 4, 8}, {1, 4, 8, 16}};
  for (int64_t p = 0; p < 3; ++p) {
    for (int64_t c : c_values[p]) {
      std::string name = std::string("snapshot/") +
                         panels[static_cast<size_t>(p)].label + "/c:" +
                         std::to_string(c);
      benchmark::RegisterBenchmark(name.c_str(), BM_Snapshot)
          ->Args({p, c})
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
