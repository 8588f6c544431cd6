// Tests for the Temporal Graph Analysis Framework: NodeT/SubgraphT
// semantics, the NodeT iterator's in-place view against an event-replay
// oracle, SoN/SoTS operators against brute-force references, the
// incremental-vs-fresh computation equivalence (Fig 8), Compare/Evolution
// (Fig 7), temporal aggregation, and worker-count invariance.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>

#include "common/rng.h"
#include "graph/algorithms.h"
#include "kvstore/cluster.h"
#include "taf/context.h"
#include "taf/metrics.h"
#include "taf/operators.h"
#include "tgi/tgi.h"
#include "workload/generators.h"

namespace hgs::taf {
namespace {

ClusterOptions FastCluster() {
  ClusterOptions opts;
  opts.num_nodes = 2;
  opts.latency.enabled = false;
  return opts;
}

TGIOptions SmallTGI() {
  TGIOptions opts;
  opts.events_per_timespan = 2'000;
  opts.eventlist_size = 100;
  opts.checkpoint_interval = 400;
  opts.micro_delta_size = 64;
  opts.num_horizontal_partitions = 2;
  return opts;
}

// Shared fixture: one built index over a generated history.
class TafFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_ = new Cluster(FastCluster());
    events_ = new std::vector<Event>(MakeHistory());
    tgi_ = new TGI(cluster_, SmallTGI());
    ASSERT_TRUE(tgi_->BuildFrom(*events_).ok());
    auto qm = tgi_->OpenQueryManager(4);
    ASSERT_TRUE(qm.ok());
    qm_ = qm->release();
  }
  static void TearDownTestSuite() {
    delete qm_;
    delete tgi_;
    delete events_;
    delete cluster_;
    qm_ = nullptr;
    tgi_ = nullptr;
    events_ = nullptr;
    cluster_ = nullptr;
  }

  static std::vector<Event> MakeHistory() {
    workload::WikiGrowthOptions w;
    w.num_events = 2'500;
    w.seed = 101;
    auto events = workload::GenerateWikiGrowth(w);
    return workload::AugmentWithChurn(std::move(events),
                                      {.num_events = 2'500, .seed = 102});
  }

  static Cluster* cluster_;
  static std::vector<Event>* events_;
  static TGI* tgi_;
  static TGIQueryManager* qm_;
};

Cluster* TafFixture::cluster_ = nullptr;
std::vector<Event>* TafFixture::events_ = nullptr;
TGI* TafFixture::tgi_ = nullptr;
TGIQueryManager* TafFixture::qm_ = nullptr;

TEST_F(TafFixture, FetchAllNodesMatchesReplayPopulation) {
  TAFContext ctx(qm_, 4);
  Timestamp to = workload::EndTime(*events_);
  auto son = ctx.Nodes().TimeRange(0, to).Fetch();
  ASSERT_TRUE(son.ok());
  // Every node that ever existed is a temporal node.
  std::unordered_set<NodeId> ever;
  for (const Event& e : *events_) {
    if (e.type == EventType::kAddNode) ever.insert(e.u);
  }
  EXPECT_EQ(son->size(), ever.size());
}

TEST_F(TafFixture, NodeTStateMatchesReplayAtProbes) {
  TAFContext ctx(qm_, 4);
  Timestamp to = workload::EndTime(*events_);
  auto son = ctx.Nodes().TimeRange(0, to).Fetch();
  ASSERT_TRUE(son.ok());
  Rng rng(1);
  for (Timestamp t : {to / 3, to / 2, to}) {
    Graph expected = workload::ReplayToGraph(*events_, t);
    for (int trial = 0; trial < 10; ++trial) {
      const NodeT& n = son->nodes()[rng.Uniform(son->size())];
      StaticNodeView v = n.GetStateAt(t);
      EXPECT_EQ(v.exists, expected.HasNode(n.id()));
      if (v.exists) {
        EXPECT_EQ(v.Degree(), expected.Neighbors(n.id()).size());
        EXPECT_EQ(v.attrs, expected.GetNode(n.id())->attrs);
      }
    }
  }
}

TEST_F(TafFixture, VersionIteratorAgreesWithGetVersions) {
  TAFContext ctx(qm_, 2);
  Timestamp to = workload::EndTime(*events_);
  auto son = ctx.Nodes().TimeRange(0, to).Fetch();
  ASSERT_TRUE(son.ok());
  // Find a node with a few versions.
  const NodeT* busy = nullptr;
  for (const NodeT& n : son->nodes()) {
    if (n.VersionCount() >= 3) {
      busy = &n;
      break;
    }
  }
  ASSERT_NE(busy, nullptr);
  auto versions = busy->GetVersions();
  auto it = busy->GetIterator();
  size_t idx = 1;
  while (it.HasNextEvent()) {
    const StaticNodeView& v = it.GetNextVersion();
    ASSERT_LT(idx, versions.size());
    EXPECT_EQ(v.Degree(), versions[idx].second.Degree());
    EXPECT_EQ(v.attrs, versions[idx].second.attrs);
    EXPECT_EQ(v.neighbors, versions[idx].second.neighbors);
    EXPECT_EQ(v.edges, versions[idx].second.edges);
    ++idx;
  }
  EXPECT_EQ(idx, versions.size());
}

TEST_F(TafFixture, TimesliceProducesStaticStates) {
  TAFContext ctx(qm_, 2);
  Timestamp to = workload::EndTime(*events_);
  auto son = ctx.Nodes().TimeRange(0, to).Fetch();
  ASSERT_TRUE(son.ok());
  Timestamp t = to / 2;
  SoN sliced = son->Timeslice(t);
  Graph expected = workload::ReplayToGraph(*events_, t);
  for (const NodeT& n : sliced.nodes()) {
    EXPECT_EQ(n.VersionCount(), 0u);
    StaticNodeView v = n.GetStateAt(t);
    EXPECT_EQ(v.exists, expected.HasNode(n.id()));
  }
}

TEST_F(TafFixture, GetGraphAtMatchesReplaySubgraph) {
  TAFContext ctx(qm_, 2);
  Timestamp to = workload::EndTime(*events_);
  auto son = ctx.Nodes().TimeRange(0, to).Fetch();
  ASSERT_TRUE(son.ok());
  Timestamp t = to * 2 / 3;
  Graph got = son->GetGraphAt(t);
  Graph expected = workload::ReplayToGraph(*events_, t);
  EXPECT_EQ(got.NumNodes(), expected.NumNodes());
  EXPECT_EQ(got.NumEdges(), expected.NumEdges());
}

TEST_F(TafFixture, SelectByIdPredicate) {
  TAFContext ctx(qm_, 2);
  Timestamp to = workload::EndTime(*events_);
  auto son = ctx.Nodes().TimeRange(0, to).WhereId([](NodeId id) {
    return id < 50;
  }).Fetch();
  ASSERT_TRUE(son.ok());
  for (const NodeT& n : son->nodes()) EXPECT_LT(n.id(), 50u);
  EXPECT_GT(son->size(), 0u);
}

TEST_F(TafFixture, NodeComputeDegreeMatchesBruteForce) {
  TAFContext ctx(qm_, 3);
  Timestamp to = workload::EndTime(*events_);
  auto son = ctx.Nodes().TimeRange(0, to).Fetch();
  ASSERT_TRUE(son.ok());
  Graph final_state = workload::ReplayToGraph(*events_, to);
  std::function<double(const NodeT&)> final_degree =
      [to](const NodeT& n) {
        return static_cast<double>(n.GetStateAt(to).Degree());
      };
  auto degrees = son->NodeCompute(final_degree);
  for (size_t i = 0; i < son->size(); ++i) {
    NodeId id = son->nodes()[i].id();
    double expected =
        final_state.HasNode(id)
            ? static_cast<double>(final_state.Neighbors(id).size())
            : 0.0;
    EXPECT_DOUBLE_EQ(degrees[i], expected) << "node " << id;
  }
}

TEST_F(TafFixture, WorkerCountDoesNotChangeResults) {
  Timestamp to = workload::EndTime(*events_);
  std::function<double(const NodeT&)> f = [](const NodeT& n) {
    return static_cast<double>(n.VersionCount());
  };
  std::vector<double> results_1, results_4;
  {
    TAFContext ctx(qm_, 1);
    auto son = ctx.Nodes().TimeRange(0, to).Fetch();
    ASSERT_TRUE(son.ok());
    results_1 = son->NodeCompute(f);
  }
  {
    TAFContext ctx(qm_, 4);
    auto son = ctx.Nodes().TimeRange(0, to).Fetch();
    ASSERT_TRUE(son.ok());
    results_4 = son->NodeCompute(f);
  }
  EXPECT_EQ(results_1, results_4);
}

TEST_F(TafFixture, NodeComputeTemporalVisitsEveryChangePoint) {
  TAFContext ctx(qm_, 2);
  Timestamp to = workload::EndTime(*events_);
  auto son = ctx.Nodes().TimeRange(0, to).Fetch();
  ASSERT_TRUE(son.ok());
  std::function<double(const StaticNodeView&)> degree =
      [](const StaticNodeView& v) { return static_cast<double>(v.Degree()); };
  auto series = son->NodeComputeTemporal(degree);
  for (size_t i = 0; i < son->size(); ++i) {
    EXPECT_EQ(series[i].size(), son->nodes()[i].VersionCount() + 1);
  }
}

TEST_F(TafFixture, CustomTimepointSelector) {
  TAFContext ctx(qm_, 2);
  Timestamp to = workload::EndTime(*events_);
  auto son = ctx.Nodes().TimeRange(0, to).Fetch();
  ASSERT_TRUE(son.ok());
  // Fig 9a: start, middle, end.
  std::function<std::vector<Timestamp>(const NodeT&)> three_points =
      [](const NodeT& n) {
        return std::vector<Timestamp>{
            n.GetStartTime(), (n.GetStartTime() + n.GetEndTime()) / 2,
            n.GetEndTime()};
      };
  std::function<double(const StaticNodeView&)> degree =
      [](const StaticNodeView& v) { return static_cast<double>(v.Degree()); };
  auto series = son->NodeComputeTemporal(degree, three_points);
  for (const auto& s : series) EXPECT_EQ(s.size(), 3u);
}

TEST_F(TafFixture, EvolutionOfDensityIsComputable) {
  TAFContext ctx(qm_, 2);
  Timestamp to = workload::EndTime(*events_);
  auto son = ctx.Nodes().TimeRange(0, to).Fetch();
  ASSERT_TRUE(son.ok());
  Series evol = son->Evolution(metrics::Density, 10);
  ASSERT_EQ(evol.size(), 10u);
  EXPECT_EQ(evol.front().first, son->GetStartTime());
  EXPECT_EQ(evol.back().first, son->GetEndTime());
  for (const auto& [t, v] : evol) EXPECT_GE(v, 0.0);
}

TEST_F(TafFixture, IncrementalEqualsFreshLabelCount) {
  // Fig 8's central property: NodeComputeDelta computes exactly what
  // NodeComputeTemporal computes.
  TAFContext ctx(qm_, 2);
  Timestamp to = workload::EndTime(*events_);
  Graph final_state = workload::ReplayToGraph(*events_, to);
  // Take a few well-connected seeds.
  std::vector<NodeId> seeds;
  for (NodeId id : final_state.NodeIds()) {
    if (final_state.Neighbors(id).size() >= 3) seeds.push_back(id);
    if (seeds.size() == 5) break;
  }
  ASSERT_FALSE(seeds.empty());
  auto sots =
      ctx.Subgraphs(1).TimeRange(to / 2, to).WithSeeds(seeds).Fetch();
  ASSERT_TRUE(sots.ok());

  std::function<double(const Graph&)> fresh = [](const Graph& g) {
    return metrics::CountLabel(g, "kind", "article");
  };
  std::function<double(const Graph&, const double&, const Event&)> inc =
      [](const Graph& before, const double& prev, const Event& e) {
        return metrics::CountLabelDelta(before, prev, e, "kind", "article");
      };
  auto fresh_series = sots->NodeComputeTemporal(fresh);
  auto inc_series = sots->NodeComputeDelta(fresh, inc);
  ASSERT_EQ(fresh_series.size(), inc_series.size());
  for (size_t i = 0; i < fresh_series.size(); ++i) {
    ASSERT_EQ(fresh_series[i].size(), inc_series[i].size()) << "subgraph " << i;
    for (size_t j = 0; j < fresh_series[i].size(); ++j) {
      EXPECT_EQ(fresh_series[i][j].first, inc_series[i][j].first);
      EXPECT_DOUBLE_EQ(fresh_series[i][j].second, inc_series[i][j].second)
          << "subgraph " << i << " version " << j;
    }
  }
}

TEST_F(TafFixture, ComparePerNodeDegrees) {
  TAFContext ctx(qm_, 2);
  Timestamp to = workload::EndTime(*events_);
  auto son = ctx.Nodes().TimeRange(0, to).Fetch();
  ASSERT_TRUE(son.ok());
  Timestamp t1 = to / 2;
  SoN early = son->Timeslice(t1);
  SoN late = son->Timeslice(to);
  std::function<double(const NodeT&)> deg = [](const NodeT& n) {
    return static_cast<double>(n.GetStateAt(n.GetStartTime()).Degree());
  };
  auto diffs = ComparePerNode(late, early, deg);
  // Growth-only nodes can only gain or keep degree... but churn deletes
  // edges too, so just verify the bookkeeping: same id set, finite values.
  EXPECT_EQ(diffs.size(), son->size());
  Graph g_early = workload::ReplayToGraph(*events_, t1);
  Graph g_late = workload::ReplayToGraph(*events_, to);
  for (const auto& [id, diff] : diffs) {
    double want = 0;
    if (g_late.HasNode(id)) {
      want += static_cast<double>(g_late.Neighbors(id).size());
    }
    if (g_early.HasNode(id)) {
      want -= static_cast<double>(g_early.Neighbors(id).size());
    }
    EXPECT_DOUBLE_EQ(diff, want) << "node " << id;
  }
}

TEST_F(TafFixture, CompareSeriesCommunities) {
  // Fig 7b shape: compare two attribute-defined subsets over time.
  TAFContext ctx(qm_, 2);
  Timestamp to = workload::EndTime(*events_);
  auto son = ctx.Nodes().TimeRange(0, to).Fetch();
  ASSERT_TRUE(son.ok());
  SoN even = son->Select([](const NodeT& n) { return n.id() % 2 == 0; });
  SoN odd = son->Select([](const NodeT& n) { return n.id() % 2 == 1; });
  auto result = CompareSeries(even, odd, CountExisting);
  ASSERT_FALSE(result.a.empty());
  ASSERT_EQ(result.a.size(), result.b.size());
  // Counts never exceed the subset sizes.
  for (const auto& [t, v] : result.a) EXPECT_LE(v, even.size());
  for (const auto& [t, v] : result.b) EXPECT_LE(v, odd.size());
}

TEST_F(TafFixture, WithIdsDeduplicatesExplicitIds) {
  // WithIds({x, x, y}) must produce one temporal node per distinct id.
  TAFContext ctx(qm_, 2);
  Timestamp to = workload::EndTime(*events_);
  NodeId a = kInvalidNodeId;
  NodeId b = kInvalidNodeId;
  for (const Event& e : *events_) {
    if (e.type != EventType::kAddNode) continue;
    if (a == kInvalidNodeId) {
      a = e.u;
    } else if (e.u != a) {
      b = e.u;
      break;
    }
  }
  ASSERT_NE(b, kInvalidNodeId);
  auto son = ctx.Nodes().TimeRange(0, to).WithIds({a, a, b, a}).Fetch();
  ASSERT_TRUE(son.ok());
  ASSERT_EQ(son->size(), 2u);
  std::unordered_set<NodeId> got;
  for (const NodeT& n : son->nodes()) got.insert(n.id());
  EXPECT_TRUE(got.contains(a));
  EXPECT_TRUE(got.contains(b));
}

TEST_F(TafFixture, FetchReportsBulkRetrievalStats) {
  TAFContext ctx(qm_, 4);
  Timestamp to = workload::EndTime(*events_);
  FetchStats stats;
  auto son = ctx.Nodes().TimeRange(0, to).Fetch(&stats);
  ASSERT_TRUE(son.ok());
  // Every temporal node was a logical history request served through the
  // bulk primitive: refs are deduplicated, scans bounded by requests. On a
  // warm manager (the suite shares one) the merged version chains can be
  // served entirely from the decoded tier — zero scans, decode hits
  // instead.
  EXPECT_EQ(stats.node_requests, son->size());
  EXPECT_LE(stats.version_scans, stats.node_requests);
  if (stats.version_scans == 0) EXPECT_GT(stats.decode_hits, 0u);
  EXPECT_LE(stats.eventlist_fetches, stats.eventlist_refs);
}

TEST(TafDedupTest, SameTimestampInternalEventsAppliedOnce) {
  // Regression: SubgraphSetSpec::Fetch used to sort member events by time
  // only before std::unique. Internal edge events arrive once per endpoint
  // history; with several distinct events sharing one timestamp the two
  // copies can be non-adjacent after the sort, survive dedup, and be
  // double-applied during replay. The triangle below interleaves the
  // copies for every member iteration order.
  Cluster cluster(FastCluster());
  TGIOptions opts = SmallTGI();
  TGI tgi(&cluster, opts);
  std::vector<Event> events = {
      Event::AddNode(1, 1),
      Event::AddNode(1, 2),
      Event::AddNode(1, 3),
      Event::AddEdge(2, 1, 2),
      Event::AddEdge(2, 1, 3),
      Event::AddEdge(2, 2, 3),
      // Three distinct events at one timestamp: two internal edge events
      // plus a node-attr event.
      Event::SetEdgeAttr(10, 1, 2, "w", "a"),
      Event::SetNodeAttr(10, 3, "c", "d"),
      Event::SetEdgeAttr(10, 1, 3, "w", "b"),
  };
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager().value();

  TAFContext ctx(qm.get(), 2);
  auto sots = ctx.Subgraphs(1).TimeRange(5, 20).WithSeeds({1}).Fetch();
  ASSERT_TRUE(sots.ok());
  ASSERT_EQ(sots->size(), 1u);
  const SubgraphT& sg = sots->subgraphs()[0];
  ASSERT_EQ(sg.members().size(), 3u);
  // Exactly the three distinct t=10 events — no surviving duplicates.
  EXPECT_EQ(sg.VersionCount(), 3u);
  for (Timestamp t : sg.ChangePoints()) EXPECT_EQ(t, 10);
  // Replay applies each once: final attribute values are correct.
  Graph final_state = sg.GetVersionAt(20);
  const EdgeRecord* e12 = final_state.GetEdge(1, 2);
  ASSERT_NE(e12, nullptr);
  EXPECT_EQ(e12->attrs.Get("w").value_or(""), "a");
  const EdgeRecord* e13 = final_state.GetEdge(1, 3);
  ASSERT_NE(e13, nullptr);
  EXPECT_EQ(e13->attrs.Get("w").value_or(""), "b");
  const NodeRecord* n3 = final_state.GetNode(3);
  ASSERT_NE(n3, nullptr);
  EXPECT_EQ(n3->attrs.Get("c").value_or(""), "d");
}

// ---------------------------------------------------------------------------
// Node-set fetches over windows that start mid-history, where initial states
// are not empty, across the index configurations tgi_test's TGIConfigTest
// sweeps: partitioner x clustering order x replicate_one_hop.
// ---------------------------------------------------------------------------

using FetchConfig = std::tuple<PartitionStrategy, ClusteringOrder, bool>;

// A growth-plus-churn history whose "views" attribute takes three values,
// so an attribute filter keeps some nodes and drops others.
std::vector<Event> AttributedHistory(uint64_t seed) {
  workload::WikiGrowthOptions w;
  w.num_events = 2'000;
  w.attr_event_prob = 0.2;
  w.seed = seed;
  auto events = workload::AugmentWithChurn(
      workload::GenerateWikiGrowth(w), {.num_events = 2'000, .seed = seed + 1});
  for (Event& e : events) {
    if (e.type == EventType::kSetNodeAttr) {
      e.value = std::to_string(std::stoull(e.value) % 3);
    }
  }
  return events;
}

// One node-set plan: the filters a NodeSetSpec is given.
struct NodeSetCase {
  const char* name;
  std::function<bool(NodeId)> where_id;  // null: no id predicate
  std::optional<std::pair<std::string, std::string>> where_attr;
  bool arrivals = true;
  std::optional<std::vector<NodeId>> with_ids;
};

// The ids a fetch must return: the nodes present at `from` plus those a
// kAddNode in (from, to] adds, then filtered; or the explicit ids, filtered.
std::vector<NodeId> ExpectedIds(const std::vector<Event>& events,
                                const Graph& at_from, const NodeSetCase& c,
                                Timestamp from, Timestamp to) {
  auto id_ok = [&](NodeId id) { return !c.where_id || c.where_id(id); };
  auto attr_ok = [&](NodeId id) {
    if (!c.where_attr.has_value()) return true;
    const NodeRecord* rec = at_from.GetNode(id);
    if (rec == nullptr) return false;
    auto v = rec->attrs.Get(c.where_attr->first);
    return v.has_value() && *v == c.where_attr->second;
  };
  std::set<NodeId> out;
  if (c.with_ids.has_value()) {
    for (NodeId id : *c.with_ids) {
      if (id_ok(id) && attr_ok(id)) out.insert(id);
    }
    return {out.begin(), out.end()};
  }
  for (NodeId id : at_from.NodeIds()) {
    if (id_ok(id) && attr_ok(id)) out.insert(id);
  }
  if (c.arrivals) {
    for (const Event& e : events) {
      if (e.type == EventType::kAddNode && e.time > from && e.time <= to &&
          !at_from.HasNode(e.u) && id_ok(e.u)) {
        out.insert(e.u);
      }
    }
  }
  return {out.begin(), out.end()};
}

class NodeSetFetchTest : public ::testing::TestWithParam<FetchConfig> {};

TEST_P(NodeSetFetchTest, MidWindowFetchMatchesReplayAndNodeHistories) {
  Cluster cluster(FastCluster());
  TGIOptions opts = SmallTGI();
  opts.partition_strategy = std::get<0>(GetParam());
  opts.clustering_order = std::get<1>(GetParam());
  opts.replicate_one_hop = std::get<2>(GetParam());
  TGI tgi(&cluster, opts);
  const std::vector<Event> events = AttributedHistory(131);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm_or = tgi.OpenQueryManager(3);
  ASSERT_TRUE(qm_or.ok());
  TGIQueryManager* qm = qm_or->get();
  TAFContext ctx(qm, 3);

  const Timestamp end = workload::EndTime(events);
  const Graph mid = workload::ReplayToGraph(events, end / 2);
  std::vector<NodeId> explicit_ids;
  for (NodeId id : mid.NodeIds()) {
    if (id % 5 == 0) explicit_ids.push_back(id);
  }
  explicit_ids.push_back(explicit_ids.front());  // duplicate
  explicit_ids.push_back(1'000'000'000);         // never existed
  auto one_in_three = [](NodeId id) { return id % 3 == 1; };
  const NodeSetCase cases[] = {
      {"all", nullptr, std::nullopt, true, std::nullopt},
      {"where-id", one_in_three, std::nullopt, true, std::nullopt},
      {"where-attr", nullptr, std::make_pair("views", "1"), true,
       std::nullopt},
      {"no-arrivals", nullptr, std::nullopt, false, std::nullopt},
      {"combined", one_in_three, std::make_pair("views", "2"), false,
       std::nullopt},
      {"with-ids", nullptr, std::nullopt, true, explicit_ids},
      {"with-ids-where-id", one_in_three, std::nullopt, true, explicit_ids},
  };
  // Windows that span a timespan boundary, a point window, one that starts
  // before history and one that lies wholly before it.
  const std::pair<Timestamp, Timestamp> windows[] = {
      {end / 3, end * 2 / 3},
      {end / 2 + 7, end - 5},
      {end * 3 / 5, end * 3 / 5},
      {-40, end / 4},
      {-40, -10},
  };
  size_t mid_initial_edges = 0;
  size_t arrivals = 0;
  for (const auto& [w_from, w_to] : windows) {
    // The window as Fetch clamps it to the history.
    const Timestamp from = std::max(w_from, qm->HistoryStart() - 1);
    const Timestamp to = std::min(w_to, qm->HistoryEnd());
    const Graph at_from = workload::ReplayToGraph(events, from);
    std::map<NodeId, NodeHistory> reference;  // GetNodeHistory, per id
    for (const NodeSetCase& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " over (" + std::to_string(from) +
                   ", " + std::to_string(to) + "]");
      NodeSetSpec spec = w_from == w_to ? ctx.Nodes().AtTime(w_from)
                                        : ctx.Nodes().TimeRange(w_from, w_to);
      if (c.where_id) spec.WhereId(c.where_id);
      if (c.where_attr.has_value()) {
        spec.WhereAttr(c.where_attr->first, c.where_attr->second);
      }
      spec.IncludeArrivals(c.arrivals);
      if (c.with_ids.has_value()) spec.WithIds(*c.with_ids);
      FetchStats stats;
      auto son = spec.Fetch(&stats);
      ASSERT_TRUE(son.ok()) << son.status().ToString();
      ASSERT_EQ(son->GetStartTime(), from);
      ASSERT_EQ(son->GetEndTime(), to);

      std::vector<NodeId> got;
      for (const NodeT& n : son->nodes()) got.push_back(n.id());
      EXPECT_EQ(got, ExpectedIds(events, at_from, c, from, to));
      EXPECT_EQ(stats.node_requests, son->size());

      for (const NodeT& n : son->nodes()) {
        auto it = reference.find(n.id());
        if (it == reference.end()) {
          auto single = qm->GetNodeHistory(n.id(), from, to);
          ASSERT_TRUE(single.ok());
          it = reference.emplace(n.id(), std::move(*single)).first;
        }
        EXPECT_TRUE(n.history().initial == it->second.initial)
            << "node " << n.id();
        EXPECT_TRUE(n.history().events == it->second.events)
            << "node " << n.id();
        const StaticNodeView v = n.GetStateAt(from);
        EXPECT_EQ(v.exists, at_from.HasNode(n.id())) << "node " << n.id();
        if (!v.exists) {
          if (from < to) ++arrivals;
          continue;
        }
        EXPECT_EQ(v.attrs, at_from.GetNode(n.id())->attrs)
            << "node " << n.id();
        std::vector<NodeId> want = at_from.Neighbors(n.id());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(v.neighbors, want) << "node " << n.id();
        mid_initial_edges += v.Degree();
      }
    }
  }
  // The windows exercise non-empty initial states and arrivals.
  EXPECT_GT(mid_initial_edges, 0u);
  EXPECT_GT(arrivals, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, NodeSetFetchTest,
    ::testing::Combine(::testing::Values(PartitionStrategy::kRandom,
                                         PartitionStrategy::kLocality),
                       ::testing::Values(ClusteringOrder::kDeltaMajor,
                                         ClusteringOrder::kPartitionMajor),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// Subgraph fetches against the replay, over the same configurations. With
// replicate_one_hop the k-hop read at the window start may lack edges
// between last-ring nodes (query.h); a subgraph's initial state must not.
// ---------------------------------------------------------------------------

class SubgraphFetchTest : public ::testing::TestWithParam<FetchConfig> {};

TEST_P(SubgraphFetchTest, MembersStatesAndEventsMatchReplay) {
  Cluster cluster(FastCluster());
  TGIOptions opts = SmallTGI();
  opts.partition_strategy = std::get<0>(GetParam());
  opts.clustering_order = std::get<1>(GetParam());
  opts.replicate_one_hop = std::get<2>(GetParam());
  TGI tgi(&cluster, opts);
  const std::vector<Event> events = AttributedHistory(137);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm_or = tgi.OpenQueryManager(3);
  ASSERT_TRUE(qm_or.ok());
  TGIQueryManager* qm = qm_or->get();
  TAFContext ctx(qm, 3);

  // The member-induced edge count, computed fresh per version or kept per
  // event from the change the event makes to the graph before it.
  auto edge_count = [](const Graph& g) {
    return static_cast<double>(g.NumEdges());
  };
  auto edge_delta = [](const Graph& before, const double& v, const Event& e) {
    switch (e.type) {
      case EventType::kAddEdge: {
        const bool added = e.u != e.v && before.HasNode(e.u) &&
                           before.HasNode(e.v) && !before.HasEdge(e.u, e.v);
        return added ? v + 1 : v;
      }
      case EventType::kRemoveEdge:
        return before.HasEdge(e.u, e.v) ? v - 1 : v;
      case EventType::kRemoveNode:
        return v - static_cast<double>(before.Neighbors(e.u).size());
      default:
        return v;
    }
  };

  const Timestamp end = workload::EndTime(events);
  // A mid-history window, a point window and one starting before history.
  const std::pair<Timestamp, Timestamp> windows[] = {
      {end / 3, end * 2 / 3},
      {end * 2 / 5, end * 2 / 5},
      {-40, end / 4},
  };
  size_t member_edges = 0;
  size_t window_events = 0;
  for (const auto& [w_from, w_to] : windows) {
    const Timestamp from = std::max(w_from, qm->HistoryStart() - 1);
    const Timestamp to = std::min(w_to, qm->HistoryEnd());
    const Graph at_from = workload::ReplayToGraph(events, from);
    const Graph at_to = workload::ReplayToGraph(events, to);
    // Seeds: the highest-degree node at `from` and a sample of the others
    // present there, plus the first node to arrive after `from`.
    std::vector<NodeId> seeds;
    if (at_from.NumNodes() > 0) {
      seeds.push_back(algo::HighestDegreeNode(at_from));
      std::vector<NodeId> ids = at_from.NodeIds();
      Rng rng(static_cast<uint64_t>(from) + 1);
      for (int i = 0; i < 5; ++i) {
        seeds.push_back(ids[rng.Uniform(ids.size())]);
      }
    }
    NodeId arrival = kInvalidNodeId;
    for (const Event& e : events) {
      if (e.type == EventType::kAddNode && e.time > from) {
        arrival = e.u;
        break;
      }
    }
    ASSERT_NE(arrival, kInvalidNodeId);
    seeds.push_back(arrival);

    for (int k : {1, 2}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " over (" +
                   std::to_string(from) + ", " + std::to_string(to) + "]");
      auto sots =
          ctx.Subgraphs(k).TimeRange(w_from, w_to).WithSeeds(seeds).Fetch();
      ASSERT_TRUE(sots.ok()) << sots.status().ToString();
      ASSERT_EQ(sots->size(), seeds.size());
      for (size_t i = 0; i < seeds.size(); ++i) {
        const SubgraphT& sg = sots->subgraphs()[i];
        const NodeId seed = seeds[i];
        ASSERT_EQ(sg.seed(), seed);
        // Members: the replay's k-hop ball at `from`, plus the seed.
        std::unordered_set<NodeId> want_members{seed};
        if (at_from.HasNode(seed)) {
          for (const auto& [n, d] : algo::BfsDistances(at_from, seed, k)) {
            want_members.insert(n);
          }
        }
        ASSERT_EQ(sg.members(), want_members) << "seed " << seed;
        auto induced = [&](const Graph& g) {
          return Delta::FromGraph(g).FilterByNodes(want_members).ToGraph();
        };
        // The states at both ends, compared as whole graphs.
        const Graph start = induced(at_from);
        const Graph got = sg.GetVersionAt(from);
        EXPECT_TRUE(got == start)
            << "seed " << seed << ": " << got.NumEdges()
            << " edges at the window start, replay " << start.NumEdges();
        EXPECT_TRUE(sg.GetVersionAt(to) == induced(at_to)) << "seed " << seed;
        // Events: the replay's member-touching events in (from, to], each
        // once, in (time, EventTotalOrder) order.
        std::vector<Event> want_events;
        for (const Event& e : events) {
          if (e.time > from && e.time <= to &&
              (want_members.contains(e.u) ||
               (e.IsEdgeEvent() && want_members.contains(e.v)))) {
            want_events.push_back(e);
          }
        }
        std::sort(want_events.begin(), want_events.end(), EventTotalOrder);
        want_events.erase(std::unique(want_events.begin(), want_events.end()),
                          want_events.end());
        EXPECT_TRUE(sg.events().events() == want_events)
            << "seed " << seed << ": " << sg.VersionCount()
            << " events, replay " << want_events.size();
        member_edges += start.NumEdges();
        window_events += want_events.size();
      }
      EXPECT_EQ(sots->NodeComputeDelta<double>(edge_count, edge_delta),
                sots->NodeComputeTemporal<double>(edge_count));
    }
  }
  // The windows exercise member-to-member edges at the window start and
  // events inside the window.
  EXPECT_GT(member_edges, 0u);
  EXPECT_GT(window_events, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SubgraphFetchTest,
    ::testing::Combine(::testing::Values(PartitionStrategy::kRandom,
                                         PartitionStrategy::kLocality),
                       ::testing::Values(ClusteringOrder::kDeltaMajor,
                                         ClusteringOrder::kPartitionMajor),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// One-hop histories (Algorithm 5) over the same configurations. The
// neighbors are fetched as one set-at-a-time plan over the union of their
// windows and cut to each window, so each neighbor's history must equal
// GetNodeHistory over that neighbor's own window.
// ---------------------------------------------------------------------------

// The present entries of a node state: its record, if any, and its live
// edges. Tombstones are left out: a state replayed forward from an earlier
// window start keeps a tombstone where the state rebuilt at the window
// start may have no entry at all, and both mean "absent".
struct PresentState {
  std::map<NodeId, NodeRecord> nodes;
  std::map<EdgeKey, EdgeRecord> edges;
  bool operator==(const PresentState&) const = default;
};

PresentState Present(const Delta& d) {
  PresentState out;
  d.ForEachNodeEntry([&](NodeId id, const std::optional<NodeRecord>& rec) {
    if (rec.has_value()) out.nodes.emplace(id, *rec);
  });
  d.ForEachEdgeEntry(
      [&](const EdgeKey& key, const std::optional<EdgeRecord>& rec) {
        if (rec.has_value()) out.edges.emplace(key, *rec);
      });
  return out;
}

// Algorithm 5's neighbor windows from the replay: a neighbor at `from` is
// active over (from, to]; an edge added later opens (add time, to], a
// removal ends the window at its time, and a re-add extends it to `to`.
std::map<NodeId, std::pair<Timestamp, Timestamp>> NeighborWindows(
    const std::vector<Event>& events, NodeId center, Timestamp from,
    Timestamp to) {
  std::map<NodeId, std::pair<Timestamp, Timestamp>> out;
  const Graph at_from = workload::ReplayToGraph(events, from);
  for (NodeId n : at_from.Neighbors(center)) out[n] = {from, to};
  for (const Event& e : events) {
    if (e.time <= from || e.time > to || !e.IsEdgeEvent() || e.u == e.v ||
        (e.u != center && e.v != center)) {
      continue;
    }
    const NodeId nbr = e.u == center ? e.v : e.u;
    auto it = out.find(nbr);
    if (e.type == EventType::kAddEdge) {
      if (it == out.end()) {
        out[nbr] = {e.time, to};
      } else {
        it->second.second = to;
      }
    } else if (e.type == EventType::kRemoveEdge && it != out.end()) {
      it->second.second = e.time;
    }
  }
  return out;
}

class OneHopHistoryTest : public ::testing::TestWithParam<FetchConfig> {};

TEST_P(OneHopHistoryTest, NeighborHistoriesMatchTheirOwnWindows) {
  Cluster cluster(FastCluster());
  TGIOptions opts = SmallTGI();
  opts.partition_strategy = std::get<0>(GetParam());
  opts.clustering_order = std::get<1>(GetParam());
  opts.replicate_one_hop = std::get<2>(GetParam());
  TGI tgi(&cluster, opts);
  const std::vector<Event> events = AttributedHistory(139);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm_or = tgi.OpenQueryManager(3);
  ASSERT_TRUE(qm_or.ok());
  TGIQueryManager* qm = qm_or->get();

  const Timestamp end = workload::EndTime(events);
  // The second span's first event: a window starting just before it
  // starts before a span, the others start inside one (or before history).
  const Timestamp span2 = events[opts.events_per_timespan].time;
  const std::pair<Timestamp, Timestamp> windows[] = {
      {-40, end / 3},
      {span2 - 1, end},
      {end / 3, end * 2 / 3},
      {end / 2 + 7, end - 5},
  };
  size_t initial_edges = 0;
  size_t late_windows = 0;
  for (const auto& [from, to] : windows) {
    const Graph at_to = workload::ReplayToGraph(events, to);
    // Centers: the hub at `to` and three leaves (degree 1) there.
    std::vector<NodeId> centers{algo::HighestDegreeNode(at_to)};
    for (NodeId id : at_to.NodeIds()) {
      if (centers.size() < 4 && at_to.Neighbors(id).size() == 1) {
        centers.push_back(id);
      }
    }
    for (NodeId center : centers) {
      SCOPED_TRACE("center " + std::to_string(center) + " over (" +
                   std::to_string(from) + ", " + std::to_string(to) + "]");
      auto hop = qm->GetOneHopHistory(center, from, to);
      ASSERT_TRUE(hop.ok()) << hop.status().ToString();
      auto alone = qm->GetNodeHistory(center, from, to);
      ASSERT_TRUE(alone.ok());
      EXPECT_TRUE(hop->center.initial == alone->initial);
      EXPECT_TRUE(hop->center.events == alone->events);

      const auto want = NeighborWindows(events, center, from, to);
      std::vector<NodeId> got_ids;
      for (const NodeHistory& h : hop->neighbors) got_ids.push_back(h.node);
      std::vector<NodeId> want_ids;
      for (const auto& [id, window] : want) want_ids.push_back(id);
      ASSERT_EQ(got_ids, want_ids);
      for (const NodeHistory& h : hop->neighbors) {
        const auto& [w_from, w_to] = want.at(h.node);
        EXPECT_EQ(h.from, w_from) << "neighbor " << h.node;
        EXPECT_EQ(h.to, w_to) << "neighbor " << h.node;
        auto ref = qm->GetNodeHistory(h.node, w_from, w_to);
        ASSERT_TRUE(ref.ok());
        EXPECT_TRUE(h.events == ref->events) << "neighbor " << h.node;
        EXPECT_TRUE(Present(h.initial) == Present(ref->initial))
            << "neighbor " << h.node;
        initial_edges += Present(h.initial).edges.size();
        if (w_from > from) ++late_windows;
      }
    }
  }
  // Initial states with edges, and neighbors whose window starts after
  // the call's, so their initial states were replayed forward.
  EXPECT_GT(initial_edges, 0u);
  EXPECT_GT(late_windows, 0u);

  // Every neighbor rides one plan: on a manager without caches, a hub's
  // call costs a bounded number of node requests, whatever its degree.
  TGIQueryManager uncached(&cluster, 3);
  ASSERT_TRUE(uncached.Open().ok());
  const Graph at_end = workload::ReplayToGraph(events, end);
  const NodeId hub = algo::HighestDegreeNode(at_end);
  FetchStats stats;
  auto hop = uncached.GetOneHopHistory(hub, end / 4, end, &stats);
  ASSERT_TRUE(hop.ok());
  // Two plans (the center, then every neighbor), each at most four
  // executor batches, each at most one MultiGet and one MultiScan, each
  // at most one request per storage node.
  const uint64_t bound = 2 * 4 * 2 * cluster.num_nodes();
  EXPECT_LE(stats.kv_batches, bound);
  EXPECT_GT(hop->neighbors.size(), bound) << "the hub is too small to show it";
}

INSTANTIATE_TEST_SUITE_P(
    Configs, OneHopHistoryTest,
    ::testing::Combine(::testing::Values(PartitionStrategy::kRandom,
                                         PartitionStrategy::kLocality),
                       ::testing::Values(ClusteringOrder::kDeltaMajor,
                                         ClusteringOrder::kPartitionMajor),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// The maintained view. NodeT::Iterator updates one StaticNodeView in place
// per event; after every event it must equal a replay of the history
// through Delta::ApplyEvent followed by a view built from scratch.
// ---------------------------------------------------------------------------

// The view of node `id` in `d`, built from scratch: every present incident
// edge entry is collected, then neighbors and edges are sorted separately.
// This is the oracle; it does not assume the neighbors[i]/edges[i] pairing
// the maintained view keeps.
StaticNodeView ReplayView(NodeId id, const Delta& d) {
  StaticNodeView view;
  view.id = id;
  const auto* rec = d.FindNode(id);
  view.exists = rec != nullptr && rec->has_value();
  if (view.exists) view.attrs = (*rec)->attrs;
  d.ForEachEdgeEntry(
      [&](const EdgeKey& key, const std::optional<EdgeRecord>& e) {
        if (!e.has_value() || (key.u != id && key.v != id)) return;
        view.neighbors.push_back(key.u == id ? key.v : key.u);
        view.edges.push_back(*e);
      });
  std::sort(view.neighbors.begin(), view.neighbors.end());
  std::sort(view.edges.begin(), view.edges.end(),
            [](const EdgeRecord& a, const EdgeRecord& b) {
              return EdgeKey(a.src, a.dst) < EdgeKey(b.src, b.dst);
            });
  return view;
}

// Empty when the views are equal, else the first field that differs.
std::string ViewDiff(const StaticNodeView& want, const StaticNodeView& got) {
  if (got.id != want.id) return "id";
  if (got.exists != want.exists) return "exists";
  if (got.attrs != want.attrs) return "attrs";
  if (got.neighbors != want.neighbors) {
    return "neighbors (" + std::to_string(got.neighbors.size()) + " vs " +
           std::to_string(want.neighbors.size()) + ")";
  }
  if (got.edges.size() != want.edges.size()) return "edge count";
  for (size_t i = 0; i < want.edges.size(); ++i) {
    const EdgeRecord& g = got.edges[i];
    const EdgeRecord& w = want.edges[i];
    const std::string at = " of edges[" + std::to_string(i) + "]";
    if (g.src != w.src) return "src" + at;
    if (g.dst != w.dst) return "dst" + at;
    if (g.directed != w.directed) return "directed" + at;
    if (g.attrs != w.attrs) return "attrs" + at;
  }
  return "";
}

std::string Describe(const Event& e) {
  return std::string(EventTypeToString(e.type)) + "(" + std::to_string(e.u) +
         ", " + std::to_string(e.v) + ") at " + std::to_string(e.time);
}

// One node's history shape: neighbors come from ids [0, pool), which holds
// the node itself (self-loops) and ids on both sides of it (both canonical
// key orientations).
struct HistoryShape {
  NodeId pool;
  size_t initial_events;  ///< replayed into the initial state
  size_t events;
  double self_removal;  ///< chance that an event removes the node itself
};

// A random event around node `self`: edge churn on incident edges given as
// (self, w) or (w, self) with a random directed flag, attribute sets and
// deletes on the node and its edges whether present or not, re-adds without
// a remove, removals of the node and of its neighbors, and events that do
// not touch the node. `linked` collects every id ever linked to `self`, so
// removals often hit a present edge.
Event RandomEventAround(Rng* rng, Timestamp t, NodeId self, NodeId pool,
                        double self_removal, std::vector<NodeId>* linked) {
  auto any = [&] { return static_cast<NodeId>(rng->Uniform(pool)); };
  auto known = [&] {
    return linked->empty() || rng->Bernoulli(0.2)
               ? any()
               : (*linked)[rng->Uniform(linked->size())];
  };
  auto other = [&] {  // an id other than self
    NodeId w = any();
    return w == self ? (self + 1) % pool : w;
  };
  auto key = [&] {
    return std::string(1, static_cast<char>('a' + rng->Uniform(3)));
  };
  auto value = [&] { return std::to_string(rng->Uniform(10)); };
  auto oriented = [&](Event e) {
    if (rng->Bernoulli(0.5)) std::swap(e.u, e.v);
    e.directed = rng->Bernoulli(0.5);
    return e;
  };
  if (rng->Bernoulli(self_removal)) return Event::RemoveNode(t, self);
  const uint64_t pick = rng->Uniform(100);
  if (pick < 30) {
    const NodeId w = any();
    linked->push_back(w);
    Attributes attrs;
    if (rng->Bernoulli(0.5)) attrs.Set(key(), value());
    return oriented(Event::AddEdge(t, self, w, false, std::move(attrs)));
  }
  if (pick < 42) return oriented(Event::RemoveEdge(t, self, known()));
  if (pick < 52) {
    return oriented(Event::SetEdgeAttr(t, self, known(), key(), value()));
  }
  if (pick < 58) return oriented(Event::DelEdgeAttr(t, self, known(), key()));
  if (pick < 62) {
    return Event::AddNode(t, self, Attributes{{key(), value()}});
  }
  if (pick < 68) return Event::SetNodeAttr(t, self, key(), value());
  if (pick < 72) return Event::DelNodeAttr(t, self, key());
  if (pick < 80) {
    const NodeId w = known();
    return Event::RemoveNode(t, w == self ? other() : w);
  }
  // Events that do not touch the node.
  switch (rng->Uniform(6)) {
    case 0:
      return oriented(Event::AddEdge(t, other(), other()));
    case 1:
      return Event::RemoveEdge(t, other(), other());
    case 2:
      return oriented(Event::SetEdgeAttr(t, other(), other(), key(), value()));
    case 3:
      return Event::AddNode(t, other());
    case 4:
      return Event::SetNodeAttr(t, other(), key(), value());
    default:
      return Event::DelNodeAttr(t, other(), key());
  }
}

NodeHistory RandomHistory(Rng* rng, NodeId self, const HistoryShape& shape) {
  NodeHistory h;
  h.node = self;
  h.from = 1'000;
  std::vector<NodeId> linked;
  for (size_t i = 0; i < shape.initial_events; ++i) {
    h.initial.ApplyEvent(RandomEventAround(rng, static_cast<Timestamp>(i),
                                           self, shape.pool,
                                           shape.self_removal, &linked));
  }
  // Runs of events share a timestamp; successive times are 2 apart, so
  // t + 1 lies strictly between two change times.
  Timestamp t = h.from + 2;
  for (size_t i = 0; i < shape.events; ++i) {
    if (rng->Bernoulli(0.6)) t += 2;
    h.events.Append(RandomEventAround(rng, t, self, shape.pool,
                                      shape.self_removal, &linked));
  }
  h.to = t + 2;
  h.events.SetScope(h.from, h.to);
  return h;
}

class MaintainedViewTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaintainedViewTest, MatchesReplayAfterEveryEvent) {
  Rng rng(GetParam() * 6151 + 17);
  const auto engine = std::make_shared<const TAFEngine>(nullptr, 2);
  // A hub whose degree climbs into the hundreds, a small pool where every
  // edge is re-added, flipped and removed many times, and a node that
  // starts absent from an empty initial state.
  const HistoryShape shapes[] = {
      {.pool = 600, .initial_events = 900, .events = 700, .self_removal = 0},
      {.pool = 12, .initial_events = 30, .events = 600, .self_removal = 0.05},
      {.pool = 60, .initial_events = 0, .events = 400, .self_removal = 0.01},
  };
  // Coverage of the cases the update must get right, summed over shapes.
  size_t max_degree = 0, self_loops = 0, flips = 0, self_removals = 0;
  size_t re_adds = 0, adds_after_removal = 0, neighbor_removals = 0;
  size_t absent_attr_sets = 0, absent_attr_dels = 0, untouched = 0;
  for (const HistoryShape& shape : shapes) {
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + ", pool " +
                 std::to_string(shape.pool));
    const NodeId self = shape.pool / 2;
    const NodeT node(RandomHistory(&rng, self, shape));
    const std::vector<Event>& events = node.history().events.events();

    // want[k]: the replayed view after the first k events.
    std::vector<StaticNodeView> want;
    Delta state = node.history().initial;
    want.push_back(ReplayView(self, state));
    bool removed = false;
    for (const Event& e : events) {
      const StaticNodeView& before = want.back();
      const NodeId other = e.u == self ? e.v : e.u;
      auto at = std::lower_bound(before.neighbors.begin(),
                                 before.neighbors.end(), other);
      const bool linked = at != before.neighbors.end() && *at == other;
      const bool absent = e.IsNodeEvent() ? !before.exists : !linked;
      if (!e.Touches(self)) {
        ++untouched;
        if (e.type == EventType::kRemoveNode && linked) ++neighbor_removals;
      } else if (e.type == EventType::kRemoveNode) {
        if (before.Degree() > 0) ++self_removals;
        removed = true;
      } else if (e.type == EventType::kAddNode) {
        if (before.exists) ++re_adds;
        if (absent && removed) ++adds_after_removal;
      } else if (e.type == EventType::kSetNodeAttr ||
                 e.type == EventType::kSetEdgeAttr) {
        if (absent) ++absent_attr_sets;
      } else if (e.type == EventType::kDelNodeAttr ||
                 e.type == EventType::kDelEdgeAttr) {
        if (absent) ++absent_attr_dels;
      } else if (e.type == EventType::kAddEdge && linked) {
        const EdgeRecord& old = before.edges[at - before.neighbors.begin()];
        if (old.src != e.u || old.directed != e.directed) ++flips;
      }
      state.ApplyEvent(e);
      want.push_back(ReplayView(self, state));
      max_degree = std::max(max_degree, want.back().Degree());
      if (std::binary_search(want.back().neighbors.begin(),
                             want.back().neighbors.end(), self)) {
        ++self_loops;
      }
    }

    // The iterator, advanced both ways.
    auto it = node.GetIterator();
    ASSERT_EQ(ViewDiff(want[0], it.CurrentVersion()), "") << "initial view";
    for (size_t k = 0; k < events.size(); ++k) {
      ASSERT_TRUE(it.HasNextEvent());
      const StaticNodeView* v = nullptr;
      if (k % 2 == 0) {
        v = &it.GetNextVersion();
      } else {
        EXPECT_EQ(&it.GetNextEvent(), &events[k]);
        v = &it.CurrentVersion();
      }
      ASSERT_EQ(it.CurrentTime(), events[k].time);
      ASSERT_EQ(ViewDiff(want[k + 1], *v), "")
          << "after event " << k << ": " << Describe(events[k]);
    }
    EXPECT_FALSE(it.HasNextEvent());

    const auto versions = node.GetVersions();
    ASSERT_EQ(versions.size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(versions[k].first,
                k == 0 ? node.GetStartTime() : events[k - 1].time);
      ASSERT_EQ(ViewDiff(want[k], versions[k].second), "") << "version " << k;
    }

    // GetStateAt before the first event, then at and just after every
    // change time: each sees every event up to and including its time.
    for (Timestamp t : {node.GetStartTime() - 1, node.GetStartTime()}) {
      ASSERT_EQ(ViewDiff(want[0], node.GetStateAt(t)), "") << "at " << t;
    }
    for (size_t k = 0; k < events.size(); ++k) {
      if (k + 1 < events.size() && events[k + 1].time == events[k].time) {
        continue;  // not the last event of its timestamp
      }
      for (Timestamp t : {events[k].time, events[k].time + 1}) {
        ASSERT_EQ(ViewDiff(want[k + 1], node.GetStateAt(t)), "") << "at " << t;
      }
    }

    // The operators: NodeComputeTemporal sees every version, and
    // NodeComputeDelta hands fdelta the view from before each event.
    const SoN son(engine, {node}, node.GetStartTime(), node.GetEndTime());
    const std::function<StaticNodeView(const StaticNodeView&)> copy =
        [](const StaticNodeView& v) { return v; };
    const std::function<StaticNodeView(const StaticNodeView&,
                                       const StaticNodeView&, const Event&)>
        copy_before = [](const StaticNodeView& before, const StaticNodeView&,
                         const Event&) { return before; };
    const auto temporal = son.NodeComputeTemporal(copy);
    const auto delta = son.NodeComputeDelta(copy, copy_before);
    ASSERT_EQ(temporal.size(), 1u);
    ASSERT_EQ(delta.size(), 1u);
    ASSERT_EQ(temporal[0].size(), want.size());
    ASSERT_EQ(delta[0].size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(ViewDiff(want[k], temporal[0][k].second), "")
          << "temporal version " << k;
      // delta[0][k + 1] is fdelta's value for event k: the view before it.
      ASSERT_EQ(ViewDiff(want[k == 0 ? 0 : k - 1], delta[0][k].second), "")
          << "pre-event view " << k;
    }
  }
  EXPECT_GE(max_degree, 200u);
  EXPECT_GT(self_loops, 0u);
  EXPECT_GT(flips, 0u);
  EXPECT_GT(self_removals, 0u);
  EXPECT_GT(re_adds, 0u);
  EXPECT_GT(adds_after_removal, 0u);
  EXPECT_GT(neighbor_removals, 0u);
  EXPECT_GT(absent_attr_sets, 0u);
  EXPECT_GT(absent_attr_dels, 0u);
  EXPECT_GT(untouched, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintainedViewTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(TempAggregationTest, MaxMinMean) {
  Series s = {{0, 1.0}, {10, 5.0}, {20, 3.0}};
  EXPECT_DOUBLE_EQ(agg::Max(s)->second, 5.0);
  EXPECT_EQ(agg::Max(s)->first, 10);
  EXPECT_DOUBLE_EQ(agg::Min(s)->second, 1.0);
  EXPECT_DOUBLE_EQ(agg::Mean(s), 3.0);
  EXPECT_FALSE(agg::Max({}).has_value());
}

TEST(TempAggregationTest, TimeWeightedMean) {
  // Value 1 for 10 ticks, then 3 for 10 ticks -> weighted mean 2.
  Series s = {{0, 1.0}, {10, 3.0}, {20, 3.0}};
  EXPECT_NEAR(agg::TimeWeightedMean(s), 2.0, 1e-9);
}

TEST(TempAggregationTest, PeakFindsLocalMaxima) {
  Series s = {{0, 1}, {1, 5}, {2, 2}, {3, 7}, {4, 3}, {5, 4}};
  auto peaks = agg::Peak(s);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0], 1);
  EXPECT_EQ(peaks[1], 3);
}

TEST(TempAggregationTest, SaturateFindsSettlePoint) {
  Series s = {{0, 0.0}, {1, 5.0}, {2, 9.0}, {3, 9.8}, {4, 10.0}, {5, 10.0}};
  auto sat = agg::Saturate(s, 0.05);
  ASSERT_TRUE(sat.has_value());
  EXPECT_EQ(*sat, 3);  // within 5% of 10.0 from t=3 onwards
}

TEST(TempAggregationTest, SaturateEmptyAndConstant) {
  EXPECT_FALSE(agg::Saturate({}).has_value());
  Series flat = {{0, 2.0}, {5, 2.0}};
  auto sat = agg::Saturate(flat);
  ASSERT_TRUE(sat.has_value());
  EXPECT_EQ(*sat, 0);
}

}  // namespace
}  // namespace hgs::taf
