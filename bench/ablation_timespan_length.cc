// Ablation (Section 4.5, last paragraph): choosing the timespan length.
//
// Short timespans keep the locality partitioning fresh on an evolving graph
// (lower 1-hop cost, the paper's f(T) term) but make interval queries cross
// more spans (higher version-retrieval cost, the g(T) term). The right
// length sits at the maxima of g(T) - f(T); this bench exposes both curves.

#include <cinttypes>
#include <cstdio>

#include "bench_common.h"

namespace {
using namespace hgs;
}  // namespace

int main() {
  hgs::bench::PrintPreamble(
      "Ablation: timespan length (Section 4.5's g(T) - f(T) trade-off)",
      "short spans -> cheaper 1-hop (fresh partitioning); long spans -> "
      "cheaper long-range version queries (fewer span crossings)");

  // Community graph with churn so the partitioning actually drifts.
  auto events = workload::GenerateFriendster(
      {.num_nodes = hgs::bench::Scaled(8'000),
       .num_edges = hgs::bench::Scaled(24'000),
       .community_size = 100,
       .seed = 51});
  events = workload::AugmentWithChurn(
      std::move(events),
      {.num_events = hgs::bench::Scaled(24'000), .delete_prob = 0.35,
       .seed = 52});
  Timestamp end = workload::EndTime(events);
  auto probe_nodes = hgs::bench::NodesByVersionCount(events, {30});
  auto hop_sample =
      hgs::bench::SampleNodes(events, end, 40, 61, /*min_degree=*/1);

  std::printf("\n%-14s %8s %14s %14s %16s\n", "span_events", "spans",
              "one_hop_ms", "long_versions_ms", "version_reqs");
  for (size_t span_len : {5'000u, 10'000u, 20'000u, 60'000u}) {
    TGIOptions topts = hgs::bench::DefaultTGIOptions();
    topts.events_per_timespan = span_len;
    topts.partition_strategy = PartitionStrategy::kLocality;
    topts.replicate_one_hop = true;
    auto bundle = hgs::bench::BuildBundle(
        events, topts, hgs::bench::MakeClusterOptions(4, 1), 1);

    // f(T): average 1-hop fetch at the *end* of the history, where a long
    // span's partitioning (computed over the whole span) is most stale.
    FetchStats hop_stats;
    for (NodeId id : hop_sample) {
      auto hood = bundle.qm->GetKHopNeighborhood(id, end, 1, &hop_stats);
      if (!hood.ok()) {
        std::fprintf(stderr, "%s\n", hood.status().ToString().c_str());
        return 1;
      }
    }

    // g(T): a whole-history version query for a busy node — it must visit
    // every span the node changed in.
    FetchStats ver_stats;
    for (int rep = 0; rep < 5; ++rep) {
      auto hist =
          bundle.qm->GetNodeHistory(probe_nodes[0].first, 0, end, &ver_stats);
      if (!hist.ok()) {
        std::fprintf(stderr, "%s\n", hist.status().ToString().c_str());
        return 1;
      }
    }

    std::printf("%-14zu %8u %14.2f %14.2f %16.1f\n", span_len,
                bundle.tgi->builder()->timespans_built(),
                hop_stats.wall_seconds * 1e3 /
                    static_cast<double>(hop_sample.size()),
                ver_stats.wall_seconds * 1e3 / 5.0,
                static_cast<double>(ver_stats.kv_requests) / 5.0);
  }
  return 0;
}
