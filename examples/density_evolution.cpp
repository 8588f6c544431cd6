// Density evolution (the paper's Fig 7c scenario): track the density of a
// node subset ("id < 5000") over ten sampled timepoints, with a custom
// minimal timepoint selector (Fig 9a) and temporal aggregation — peaks,
// saturation point, time-weighted mean.
//
//   ./build/examples/density_evolution

#include <iostream>

#include "graph/algorithms.h"
#include "kvstore/cluster.h"
#include "taf/context.h"
#include "taf/metrics.h"
#include "taf/operators.h"
#include "tgi/tgi.h"
#include "workload/generators.h"

using namespace hgs;

int main() {
  ClusterOptions copts;
  copts.num_nodes = 2;
  copts.latency.enabled = false;
  Cluster cluster(copts);

  auto events =
      workload::GenerateWikiGrowth({.num_events = 12'000, .seed = 21});
  events = workload::AugmentWithChurn(std::move(events),
                                      {.num_events = 8'000, .seed = 22});
  Timestamp end = workload::EndTime(events);

  TGIOptions topts;
  topts.events_per_timespan = 5'000;
  topts.eventlist_size = 250;
  topts.micro_delta_size = 200;
  TGI tgi(&cluster, topts);
  if (Status s = tgi.BuildFrom(events); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  auto qm = tgi.OpenQueryManager(4).value();
  taf::TAFContext ctx(qm.get(), 2);

  // The paper's snippet:
  //   son  = SON(tgiH).Select("id < 5000").Timeslice("t >= ...").fetch()
  //   evol = son.GetGraph().Evolution(gm.density, 10)
  auto son = ctx.Nodes()
                 .TimeRange(end / 4, end)
                 .WhereId([](NodeId id) { return id < 5000; })
                 .Fetch()
                 .value();
  std::cout << "SoN: " << son.size() << " temporal nodes over [t="
            << son.GetStartTime() << ", t=" << son.GetEndTime() << "]\n\n";

  taf::Series evol = son.Evolution(taf::metrics::Density, 10);
  std::cout << "graph density over 10 points:\n";
  for (const auto& [t, v] : evol) {
    std::cout << "  t=" << t << "  density=" << v << "\n";
  }

  // Fig 9a: a minimal selector — start, middle, end only.
  taf::Series coarse = son.EvolutionAt(
      taf::metrics::Density,
      {son.GetStartTime(), (son.GetStartTime() + son.GetEndTime()) / 2,
       son.GetEndTime()});
  std::cout << "\ndensity over 3 points (custom selector):\n";
  for (const auto& [t, v] : coarse) {
    std::cout << "  t=" << t << "  density=" << v << "\n";
  }

  // Temporal aggregation over the evolution series.
  std::cout << "\naggregates:\n";
  std::cout << "  mean density          = " << taf::agg::Mean(evol) << "\n";
  std::cout << "  time-weighted mean    = " << taf::agg::TimeWeightedMean(evol)
            << "\n";
  if (auto mx = taf::agg::Max(evol)) {
    std::cout << "  max density           = " << mx->second << " at t="
              << mx->first << "\n";
  }
  auto peaks = taf::agg::Peak(evol);
  std::cout << "  density peaks at      : ";
  for (Timestamp t : peaks) std::cout << t << " ";
  std::cout << (peaks.empty() ? "(none)" : "") << "\n";
  if (auto sat = taf::agg::Saturate(evol, 0.1)) {
    std::cout << "  saturates (±10%) at t = " << *sat << "\n";
  }
  return 0;
}
