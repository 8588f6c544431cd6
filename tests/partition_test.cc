// Tests for graph partitioning: balance constraints, locality vs random
// edge-cut quality, temporal collapse functions Ω, and the per-timespan
// dynamic partitioner.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "partition/dynamic_partitioner.h"
#include "partition/static_partitioner.h"
#include "partition/temporal_collapse.h"
#include "workload/generators.h"

namespace hgs {
namespace {

// Two dense cliques joined by a single bridge edge: the canonical case where
// locality partitioning must beat random.
WeightedGraph TwoCliques(size_t clique_size) {
  WeightedGraph g;
  for (NodeId c = 0; c < 2; ++c) {
    NodeId base = c * clique_size;
    for (NodeId i = 0; i < clique_size; ++i) {
      for (NodeId j = i + 1; j < clique_size; ++j) {
        g.AddEdge(base + i, base + j, 1.0);
      }
    }
  }
  g.AddEdge(0, clique_size, 1.0);  // bridge
  return g;
}

TEST(PartitioningTest, RandomCoversAllPartitions) {
  Partitioning p = RandomPartition(4);
  std::vector<size_t> counts(4, 0);
  for (NodeId id = 0; id < 10'000; ++id) ++counts[p.Of(id)];
  for (size_t c : counts) {
    EXPECT_GT(c, 2'000u);
    EXPECT_LT(c, 3'000u);
  }
}

TEST(PartitioningTest, FallbackIsDeterministic) {
  Partitioning p = RandomPartition(8);
  for (NodeId id = 0; id < 100; ++id) EXPECT_EQ(p.Of(id), p.Of(id));
}

TEST(LocalityPartitionTest, SeparatesCliques) {
  WeightedGraph g = TwoCliques(20);
  LocalityPartitionOptions opts;
  opts.k = 2;
  Partitioning p = LocalityPartition(g, opts);
  // All of clique 0 in one partition, all of clique 1 in the other.
  EXPECT_LE(p.EdgeCut(g), 1.0);  // only the bridge may be cut
  auto sizes = p.PartitionSizes(g);
  EXPECT_EQ(sizes[0], 20u);
  EXPECT_EQ(sizes[1], 20u);
}

TEST(LocalityPartitionTest, RespectsBalanceBounds) {
  WeightedGraph g = TwoCliques(25);  // 50 nodes
  for (uint32_t k : {2u, 3u, 4u, 7u}) {
    LocalityPartitionOptions opts;
    opts.k = k;
    Partitioning p = LocalityPartition(g, opts);
    auto sizes = p.PartitionSizes(g);
    size_t n = g.NumNodes();
    for (size_t s : sizes) {
      EXPECT_LE(s, (n + k - 1) / k) << "k=" << k;
    }
  }
}

TEST(LocalityPartitionTest, BeatsRandomOnCommunityGraph) {
  auto events = workload::GenerateFriendster(
      {.num_nodes = 2'000, .num_edges = 8'000, .community_size = 100});
  Graph g = workload::ReplayToGraph(events, kMaxTimestamp);
  WeightedGraph wg;
  g.ForEachNode([&](NodeId id, const NodeRecord&) { wg.AddNode(id); });
  g.ForEachEdge([&](const EdgeKey& key, const EdgeRecord&) {
    wg.AddEdge(key.u, key.v, 1.0);
  });
  LocalityPartitionOptions opts;
  opts.k = 8;
  Partitioning local = LocalityPartition(wg, opts);
  Partitioning random = RandomPartition(8);
  EXPECT_LT(local.EdgeCut(wg), 0.6 * random.EdgeCut(wg));
}

TEST(LocalityPartitionTest, EmptyAndTinyGraphs) {
  WeightedGraph empty;
  Partitioning p = LocalityPartition(empty, {.k = 4});
  EXPECT_EQ(p.k(), 4u);
  WeightedGraph one;
  one.AddNode(7);
  Partitioning p1 = LocalityPartition(one, {.k = 4});
  EXPECT_LT(p1.Of(7), 4u);
}

TEST(LocalityPartitionTest, DeterministicForSeed) {
  WeightedGraph g = TwoCliques(15);
  LocalityPartitionOptions opts;
  opts.k = 3;
  opts.seed = 11;
  Partitioning a = LocalityPartition(g, opts);
  Partitioning b = LocalityPartition(g, opts);
  for (const auto& [id, pid] : a.assignment()) {
    EXPECT_EQ(pid, b.Of(id));
  }
}

TEST(CollapseTest, UnionMaxIncludesEverEdge) {
  Graph start;
  start.AddNode(1);
  start.AddNode(2);
  start.AddEdge(1, 2);
  std::vector<Event> events = {
      Event::RemoveEdge(10, 1, 2),   // edge gone early
      Event::AddNode(11, 3),
      Event::AddEdge(12, 2, 3),      // new edge later
  };
  CollapseOptions opts;
  opts.edge_fn = CollapseFn::kUnionMax;
  WeightedGraph g =
      CollapseTemporalGraph(start, events, TimeInterval{0, 20}, opts);
  // Both edges existed at least once.
  EXPECT_GT(g.EdgeWeight(1, 2), 0.0);
  EXPECT_GT(g.EdgeWeight(2, 3), 0.0);
  // All three nodes existed at least once (Ω constraint).
  EXPECT_EQ(g.NumNodes(), 3u);
}

TEST(CollapseTest, UnionMeanWeighsByDuration) {
  Graph start;
  start.AddNode(1);
  start.AddNode(2);
  start.AddNode(3);
  std::vector<Event> events = {
      Event::AddEdge(0, 1, 2),    // exists for whole span [0,100)
      Event::AddEdge(90, 2, 3),   // exists for 10% of the span
  };
  CollapseOptions opts;
  opts.edge_fn = CollapseFn::kUnionMean;
  WeightedGraph g =
      CollapseTemporalGraph(start, events, TimeInterval{0, 100}, opts);
  EXPECT_GT(g.EdgeWeight(1, 2), 5.0 * g.EdgeWeight(2, 3));
}

TEST(CollapseTest, MedianTakesMidpointState) {
  Graph start;
  start.AddNode(1);
  start.AddNode(2);
  std::vector<Event> events = {
      Event::AddEdge(10, 1, 2),
      Event::RemoveEdge(80, 1, 2),  // after the median of [0,100)
  };
  CollapseOptions opts;
  opts.edge_fn = CollapseFn::kMedian;
  WeightedGraph g =
      CollapseTemporalGraph(start, events, TimeInterval{0, 100}, opts);
  EXPECT_GT(g.EdgeWeight(1, 2), 0.0);  // present at t=50
  std::vector<Event> events2 = {
      Event::AddEdge(60, 1, 2),  // only after the median
  };
  WeightedGraph g2 =
      CollapseTemporalGraph(start, events2, TimeInterval{0, 100}, opts);
  EXPECT_EQ(g2.EdgeWeight(1, 2), 0.0);
}

TEST(CollapseTest, NodeWeightOptions) {
  Graph start;
  start.AddEdge(1, 2);
  start.AddEdge(1, 3);
  CollapseOptions opts;
  opts.edge_fn = CollapseFn::kUnionMax;
  opts.node_fn = NodeWeightFn::kDegree;
  WeightedGraph g =
      CollapseTemporalGraph(start, {}, TimeInterval{0, 10}, opts);
  EXPECT_DOUBLE_EQ(g.node_weights.at(1), 2.0);
  EXPECT_DOUBLE_EQ(g.node_weights.at(2), 1.0);
  opts.node_fn = NodeWeightFn::kUniform;
  WeightedGraph gu =
      CollapseTemporalGraph(start, {}, TimeInterval{0, 10}, opts);
  EXPECT_DOUBLE_EQ(gu.node_weights.at(1), 1.0);
}

TEST(CollapseTest, WeightAttributeRespected) {
  Graph start;
  start.AddNode(1);
  start.AddNode(2);
  std::vector<Event> events = {
      Event::AddEdge(5, 1, 2, false, Attributes{{"weight", "4.0"}}),
  };
  CollapseOptions opts;
  opts.edge_fn = CollapseFn::kUnionMax;
  WeightedGraph g =
      CollapseTemporalGraph(start, events, TimeInterval{0, 10}, opts);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 2), 4.0);
}

TEST(DynamicPartitionerTest, RandomStrategyHasNoExplicitMap) {
  Graph start;
  Partitioning p = PartitionTimespan(
      start, {}, TimeInterval{0, 10},
      {.strategy = PartitionStrategy::kRandom,
       .num_partitions = 4,
       .collapse = {},
       .locality = {}});
  EXPECT_TRUE(p.assignment().empty());
  EXPECT_EQ(p.k(), 4u);
}

TEST(DynamicPartitionerTest, LocalityStrategyAssignsExistingNodes) {
  auto events = workload::GenerateFriendster(
      {.num_nodes = 500, .num_edges = 2'000, .community_size = 50});
  Graph start;
  DynamicPartitionOptions opts;
  opts.strategy = PartitionStrategy::kLocality;
  opts.num_partitions = 5;
  Partitioning p = PartitionTimespan(
      start, events, TimeInterval{0, workload::EndTime(events) + 1}, opts);
  EXPECT_EQ(p.k(), 5u);
  // Every node that ever existed gets an explicit assignment.
  Graph final_state = workload::ReplayToGraph(events, kMaxTimestamp);
  size_t assigned = 0;
  final_state.ForEachNode([&](NodeId id, const NodeRecord&) {
    if (p.HasExplicitAssignment(id)) ++assigned;
  });
  EXPECT_EQ(assigned, final_state.NumNodes());
}

}  // namespace
}  // namespace hgs
