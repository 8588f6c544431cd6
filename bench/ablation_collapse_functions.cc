// Ablation (Section 4.5): the temporal collapse functions Ω — Median,
// Union-Max, Union-Mean — combined with the node-weight choices, evaluated
// by the edge-cut quality of the resulting per-timespan partitioning and by
// the realized 1-hop fetch cost.
//
// Expectation: union-style collapses beat Median on churny spans (Median is
// blind to edges that exist only in the other half of the span); the
// paper's default (Union-Max + uniform node weights) is a solid choice.

#include <cstdio>

#include "bench_common.h"
#include "partition/dynamic_partitioner.h"

namespace {

using namespace hgs;

const char* CollapseName(CollapseFn fn) {
  switch (fn) {
    case CollapseFn::kMedian:
      return "median";
    case CollapseFn::kUnionMax:
      return "union-max";
    case CollapseFn::kUnionMean:
      return "union-mean";
  }
  return "?";
}

const char* WeightName(NodeWeightFn fn) {
  switch (fn) {
    case NodeWeightFn::kUniform:
      return "uniform";
    case NodeWeightFn::kDegree:
      return "degree";
    case NodeWeightFn::kAvgDegree:
      return "avg-degree";
  }
  return "?";
}

}  // namespace

int main() {
  hgs::bench::PrintPreamble(
      "Ablation: collapse functions for dynamic partitioning (Section 4.5)",
      "union-style collapse <= median edge-cut on churny spans; node-weight "
      "choice is secondary");

  // A churny community graph span: Friendster-analogue structure plus
  // add/delete churn, so the collapse functions actually disagree.
  auto events = workload::GenerateFriendster(
      {.num_nodes = hgs::bench::Scaled(4'000),
       .num_edges = hgs::bench::Scaled(16'000),
       .community_size = 100,
       .seed = 31});
  events = workload::AugmentWithChurn(
      std::move(events),
      {.num_events = hgs::bench::Scaled(12'000), .delete_prob = 0.5,
       .seed = 32});
  Timestamp end = workload::EndTime(events);
  TimeInterval span{1, end + 1};
  Graph empty_start;

  // The reference graph to judge cuts on: the union graph over the span
  // (every edge weighted by its lifetime fraction).
  CollapseOptions ref_opts;
  ref_opts.edge_fn = CollapseFn::kUnionMean;
  WeightedGraph reference =
      CollapseTemporalGraph(empty_start, events, span, ref_opts);

  std::printf("\n%-12s %-12s %14s %14s\n", "collapse", "node-weight",
              "edge-cut", "cut-fraction");
  for (CollapseFn edge_fn :
       {CollapseFn::kMedian, CollapseFn::kUnionMax, CollapseFn::kUnionMean}) {
    for (NodeWeightFn node_fn :
         {NodeWeightFn::kUniform, NodeWeightFn::kDegree}) {
      DynamicPartitionOptions opts;
      opts.strategy = PartitionStrategy::kLocality;
      opts.num_partitions = 16;
      opts.collapse.edge_fn = edge_fn;
      opts.collapse.node_fn = node_fn;
      Partitioning p = PartitionTimespan(empty_start, events, span, opts);
      double cut = p.EdgeCut(reference);
      double total = 0;
      for (const auto& [key, w] : reference.edge_weights) {
        (void)key;
        total += w;
      }
      std::printf("%-12s %-12s %14.1f %13.1f%%\n", CollapseName(edge_fn),
                  WeightName(node_fn), cut,
                  total > 0 ? 100.0 * cut / total : 0.0);
    }
  }

  // Random baseline for context.
  Partitioning random = Partitioning::Random(16);
  double cut = random.EdgeCut(reference);
  double total = 0;
  for (const auto& [key, w] : reference.edge_weights) {
    (void)key;
    total += w;
  }
  std::printf("%-12s %-12s %14.1f %13.1f%%\n", "random", "-", cut,
              total > 0 ? 100.0 * cut / total : 0.0);
  return 0;
}
