// Tests for the extension features beyond the minimal paper core:
// multipoint snapshot retrieval, the attribute-dimension Filter operator,
// incremental triangle counting (the paper's pattern-matching example),
// closeness centrality, and GetEventsInRange.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "graph/algorithms.h"
#include "kvstore/cluster.h"
#include "taf/context.h"
#include "taf/metrics.h"
#include "tgi/tgi.h"
#include "workload/generators.h"

namespace hgs {
namespace {

ClusterOptions FastCluster() {
  ClusterOptions opts;
  opts.num_nodes = 2;
  opts.latency.enabled = false;
  return opts;
}

TGIOptions SmallOptions() {
  TGIOptions opts;
  opts.events_per_timespan = 2'000;
  opts.eventlist_size = 100;
  opts.checkpoint_interval = 400;
  opts.micro_delta_size = 64;
  opts.num_horizontal_partitions = 2;
  return opts;
}

std::vector<Event> History(uint64_t seed, uint64_t n = 5'000) {
  workload::WikiGrowthOptions w;
  w.num_events = n / 2;
  w.seed = seed;
  auto events = workload::GenerateWikiGrowth(w);
  return workload::AugmentWithChurn(std::move(events),
                                    {.num_events = n / 2, .seed = seed + 3});
}

TEST(MultipointSnapshotTest, MatchesIndividualSnapshots) {
  auto events = History(201);
  Timestamp end = workload::EndTime(events);
  // Mixed points: clustered within one checkpoint window, spread across
  // spans and checkpoints, out of order, and one before the history starts.
  std::vector<Timestamp> times = {end / 2,       end / 2 + 17, end / 2 + 39,
                                  end / 4,       end,          end / 2 + 5,
                                  end * 3 / 4};
  const Timestamp before = events.front().time - 1;
  times.insert(times.end(), {end / 10, end / 10 + 3, end / 3, before});
  for (ClusteringOrder order :
       {ClusteringOrder::kDeltaMajor, ClusteringOrder::kPartitionMajor}) {
    for (size_t decoded_cache_bytes : {size_t{0}, size_t{32} << 20}) {
      SCOPED_TRACE(::testing::Message()
                   << "order=" << static_cast<int>(order)
                   << " decoded_cache_bytes=" << decoded_cache_bytes);
      Cluster cluster(FastCluster());
      TGIOptions opts = SmallOptions();
      opts.clustering_order = order;
      opts.decoded_cache_bytes = decoded_cache_bytes;
      TGI tgi(&cluster, opts);
      ASSERT_TRUE(tgi.BuildFrom(events).ok());
      // Four workers, so independent chains of points run concurrently.
      auto qm = tgi.OpenQueryManager(4).value();

      auto multi = qm->GetMultipointSnapshots(times);
      ASSERT_TRUE(multi.ok());
      ASSERT_EQ(multi->size(), times.size());
      for (size_t i = 0; i < times.size(); ++i) {
        Graph expected = workload::ReplayToGraph(events, times[i]);
        EXPECT_TRUE((*multi)[i] == expected) << "t=" << times[i];
      }
    }
  }
}

TEST(MultipointSnapshotTest, RollForwardIsCheaperThanIndependentFetches) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = History(203);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();
  Timestamp base = workload::EndTime(events) / 2;
  std::vector<Timestamp> times;
  for (int i = 0; i < 8; ++i) times.push_back(base + i * 5);

  FetchStats multi_stats;
  ASSERT_TRUE(qm->GetMultipointSnapshots(times, &multi_stats).ok());
  FetchStats single_stats;
  for (Timestamp t : times) {
    ASSERT_TRUE(qm->GetSnapshot(t, &single_stats).ok());
  }
  EXPECT_LT(multi_stats.kv_requests, single_stats.kv_requests);
}

TEST(MultipointSnapshotTest, DuplicateTimestampsShareMaterialization) {
  // Order restoration moves each materialized graph into its last output
  // slot and copies only for duplicate timestamps — every slot, duplicate
  // or not, must still hold the full correct snapshot.
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = History(209, 3'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();

  Timestamp end = workload::EndTime(events);
  std::vector<Timestamp> times = {end / 2, end,     end / 2, end / 4,
                                  end,     end / 2, end / 4};
  auto multi = qm->GetMultipointSnapshots(times);
  ASSERT_TRUE(multi.ok());
  ASSERT_EQ(multi->size(), times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    Graph expected = workload::ReplayToGraph(events, times[i]);
    EXPECT_TRUE((*multi)[i] == expected) << "slot " << i << " t=" << times[i];
  }
}

TEST(MultipointSnapshotTest, EmptyAndSingleInput) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = History(205, 2'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager().value();
  auto empty = qm->GetMultipointSnapshots({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  auto one = qm->GetMultipointSnapshots({workload::EndTime(events)});
  ASSERT_TRUE(one.ok());
  EXPECT_TRUE((*one)[0] ==
              workload::ReplayToGraph(events, workload::EndTime(events)));
}

TEST(EventsInRangeTest, MatchesLogSlice) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = History(207);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();
  Timestamp from = events[events.size() / 3].time;
  Timestamp to = events[events.size() * 2 / 3].time;
  auto got = qm->GetEventsInRange(from, to);
  ASSERT_TRUE(got.ok());
  std::vector<Event> expected;
  for (const Event& e : events) {
    if (e.time > from && e.time <= to) expected.push_back(e);
  }
  ASSERT_EQ(got->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*got)[i], expected[i]) << "index " << i;
  }
}

TEST(EventsInRangeTest, SharedTimestampsKeepOneCopyOfEachEdgeEvent) {
  // An edge event is stored in both endpoints' micro-partition rows. With
  // 40-50 events per timestamp, a sort by time alone can leave the two
  // copies apart, where unique cannot drop one of them.
  Rng rng(211);
  Timestamp t = 1;
  uint64_t in_tick = 0;
  uint64_t tick_size = 40 + rng.Uniform(11);
  auto next_time = [&] {
    if (in_tick == tick_size) {
      ++t;
      in_tick = 0;
      tick_size = 40 + rng.Uniform(11);
    }
    ++in_tick;
    return t;
  };
  constexpr NodeId kNodes = 2'000;
  std::vector<Event> events;
  for (NodeId n = 0; n < kNodes; ++n) {
    events.push_back(Event::AddNode(next_time(), n));
  }
  // Each node links to a random other node: nearly all of these edges
  // cross micro-partitions.
  for (NodeId u = 0; u < kNodes; ++u) {
    const NodeId v = (u + 1 + rng.Uniform(kNodes - 1)) % kNodes;
    events.push_back(Event::AddEdge(next_time(), u, v));
  }

  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();
  auto got = qm->GetEventsInRange(0, workload::EndTime(events));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), events.size());
  EXPECT_TRUE(std::is_sorted(
      got->begin(), got->end(),
      [](const Event& a, const Event& b) { return a.time < b.time; }));
  std::vector<Event> expected = events;
  std::sort(expected.begin(), expected.end(), EventTotalOrder);
  std::vector<Event> sorted_got = *got;
  std::sort(sorted_got.begin(), sorted_got.end(), EventTotalOrder);
  EXPECT_TRUE(sorted_got == expected);
}

TEST(FilterAttributesTest, ProjectsAttributeDimension) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = History(211);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();
  taf::TAFContext ctx(qm.get(), 2);
  Timestamp end = workload::EndTime(events);
  auto son = ctx.Nodes().TimeRange(0, end).Fetch().value();

  // The wiki generator sets "kind" on every node and churns "views".
  taf::SoN filtered = son.FilterAttributes({"kind"});
  ASSERT_EQ(filtered.size(), son.size());
  for (const taf::NodeT& n : filtered.nodes()) {
    taf::StaticNodeView v = n.GetStateAt(end);
    if (!v.exists) continue;
    EXPECT_FALSE(v.attrs.Has("views")) << "node " << n.id();
    // Structure is untouched.
    EXPECT_EQ(v.Degree(), son.nodes()[&n - filtered.nodes().data()]
                              .GetStateAt(end)
                              .Degree());
  }
  // Events on projected-away keys are dropped.
  size_t views_events = 0;
  for (const taf::NodeT& n : filtered.nodes()) {
    for (const Event& e : n.history().events.events()) {
      if (e.type == EventType::kSetNodeAttr && e.key == "views") {
        ++views_events;
      }
    }
  }
  EXPECT_EQ(views_events, 0u);
}

TEST(IncrementalTriangleTest, DeltaEqualsFreshOnSubgraphVersions) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = History(213);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();
  taf::TAFContext ctx(qm.get(), 2);
  Timestamp end = workload::EndTime(events);

  Graph final_state = workload::ReplayToGraph(events, end);
  std::vector<NodeId> seeds;
  for (NodeId id : final_state.NodeIds()) {
    if (final_state.Neighbors(id).size() >= 4) seeds.push_back(id);
    if (seeds.size() == 6) break;
  }
  ASSERT_FALSE(seeds.empty());
  auto sots =
      ctx.Subgraphs(1).TimeRange(end / 2, end).WithSeeds(seeds).Fetch()
          .value();

  std::function<double(const Graph&)> fresh = taf::metrics::TriangleCount;
  std::function<double(const Graph&, const double&, const Event&)> inc =
      taf::metrics::TriangleCountDelta;
  auto fresh_series = sots.NodeComputeTemporal(fresh);
  auto inc_series = sots.NodeComputeDelta(fresh, inc);
  ASSERT_EQ(fresh_series.size(), inc_series.size());
  for (size_t i = 0; i < fresh_series.size(); ++i) {
    ASSERT_EQ(fresh_series[i].size(), inc_series[i].size());
    for (size_t j = 0; j < fresh_series[i].size(); ++j) {
      EXPECT_DOUBLE_EQ(fresh_series[i][j].second, inc_series[i][j].second)
          << "subgraph " << i << " version " << j;
    }
  }
}

TEST(ClosenessCentralityTest, StarCenterIsMostCentral) {
  Graph star;
  for (NodeId i = 2; i <= 6; ++i) star.AddEdge(1, i);
  double center = algo::ClosenessCentrality(star, 1);
  double leaf = algo::ClosenessCentrality(star, 2);
  EXPECT_GT(center, leaf);
  EXPECT_DOUBLE_EQ(center, 1.0);  // distance 1 to everyone
}

TEST(ClosenessCentralityTest, DisconnectedAndDegenerate) {
  Graph g;
  g.AddEdge(1, 2);
  g.AddNode(3);  // isolated
  EXPECT_DOUBLE_EQ(algo::ClosenessCentrality(g, 3), 0.0);
  EXPECT_DOUBLE_EQ(algo::ClosenessCentrality(g, 99), 0.0);
  // Connected pair in a 3-node graph: reachable fraction penalizes.
  double c = algo::ClosenessCentrality(g, 1);
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 1.0);
}

TEST(ClosenessCentralityTest, PathEndpointsLessCentralThanMiddle) {
  Graph path;
  for (NodeId i = 1; i < 5; ++i) path.AddEdge(i, i + 1);
  EXPECT_GT(algo::ClosenessCentrality(path, 3),
            algo::ClosenessCentrality(path, 1));
}

}  // namespace
}  // namespace hgs
