// Integration and property tests for the Temporal Graph Index.
//
// The central invariant: every retrieval primitive must agree with a direct
// replay of the event log. Parameterized suites sweep the index's tuning
// space (eventlist size, partition size, strategy, clustering order,
// replication) to assert the invariant holds across configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/columnar.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "kvstore/cluster.h"
#include "tgi/layout.h"
#include "tgi/tgi.h"
#include "workload/generators.h"

namespace hgs {
namespace {

ClusterOptions FastCluster(size_t nodes = 2) {
  ClusterOptions opts;
  opts.num_nodes = nodes;
  opts.latency.enabled = false;
  return opts;
}

std::vector<Event> SmallHistory(uint64_t seed = 1, uint64_t n = 6'000) {
  workload::WikiGrowthOptions w;
  w.num_events = n / 2;
  w.seed = seed;
  auto events = workload::GenerateWikiGrowth(w);
  return workload::AugmentWithChurn(std::move(events),
                                    {.num_events = n / 2, .seed = seed + 7});
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

// ---------------------------------------------------------------------------
// Layout unit tests.
// ---------------------------------------------------------------------------

TEST(LayoutTest, DeltaRowKeyRoundTrip) {
  for (ClusteringOrder order :
       {ClusteringOrder::kDeltaMajor, ClusteringOrder::kPartitionMajor}) {
    std::string key = tgi::DeltaRowKey(order, 12345, 678, true);
    DeltaId did;
    MicroPartitionId pid;
    bool aux;
    ASSERT_TRUE(tgi::ParseDeltaRowKey(order, key, &did, &pid, &aux));
    EXPECT_EQ(did, 12345u);
    EXPECT_EQ(pid, 678u);
    EXPECT_TRUE(aux);
  }
}

TEST(LayoutTest, DeltaMajorClustersMicroPartitionsOfOneDelta) {
  // All pids of one did share the DeltaScanPrefix; aux rows do not.
  std::string prefix = tgi::DeltaScanPrefix(42);
  for (MicroPartitionId pid : {0u, 1u, 99u}) {
    std::string key =
        tgi::DeltaRowKey(ClusteringOrder::kDeltaMajor, 42, pid, false);
    EXPECT_EQ(key.compare(0, prefix.size(), prefix), 0);
    std::string aux_key =
        tgi::DeltaRowKey(ClusteringOrder::kDeltaMajor, 42, pid, true);
    EXPECT_NE(aux_key.compare(0, prefix.size(), prefix), 0);
  }
}

TEST(LayoutTest, EventlistDidNamespaceDisjointFromTree) {
  EXPECT_GE(tgi::EventlistDid(0), tgi::kEventlistDidBase);
  EXPECT_LT(DeltaId{1000}, tgi::kEventlistDidBase);
}

TEST(MetadataTest, TimespanMetaRoundTrip) {
  tgi::TimespanMeta m;
  m.tsid = 3;
  m.start = 100;
  m.end = 200;
  m.event_count = 50;
  m.eventlist_size = 10;
  m.checkpoint_interval = 20;
  m.num_micro_partitions = 4;
  m.strategy = 1;
  m.checkpoints = {99, 120, 140};
  m.eventlist_bounds = {{100, 109}, {110, 119}};
  m.tree = {{-1, -1}, {0, 0}, {0, 1}};
  auto back = tgi::TimespanMeta::Deserialize(m.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, m);
}

TEST(MetadataTest, PathToCheckpointClimbsToRoot) {
  tgi::TimespanMeta m;
  // Root 0 with children 1 (internal) and 4 (leaf cp2); 1 has leaves 2,3.
  m.tree = {{-1, -1}, {0, -1}, {1, 0}, {1, 1}, {0, 2}};
  auto path = m.PathToCheckpoint(1);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 0u);
  EXPECT_EQ(path[1], 1u);
  EXPECT_EQ(path[2], 3u);
  auto path2 = m.PathToCheckpoint(2);
  ASSERT_EQ(path2.size(), 2u);
  EXPECT_EQ(path2[1], 4u);
}

TEST(MetadataTest, VersionChainSegmentRoundTrip) {
  tgi::VersionChainSegment seg;
  seg.node = 77;
  seg.tsid = 2;
  seg.pid = 5;
  seg.entries = {{2, 0, 5, 10, 20, 3}, {2, 4, 5, 90, 95, 2}};
  auto back = tgi::VersionChainSegment::Deserialize(seg.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, seg);
}

TEST(MetadataTest, GraphMetaRoundTrip) {
  tgi::GraphMeta m;
  m.start = 1;
  m.end = 999;
  m.event_count = 12345;
  m.timespan_count = 7;
  m.num_horizontal_partitions = 4;
  m.clustering_order = 1;
  m.replicate_one_hop = true;
  m.micropartition_buckets = 32;
  auto back = tgi::GraphMeta::Deserialize(m.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, m);
}

// A checksummed metadata payload: the given leading varint fields, then an
// element count of 2^62 and no elements. Decoders must fail on the missing
// bytes instead of reserving the claimed count.
std::string SealedWithHostileCount(const std::vector<uint64_t>& fields) {
  BinaryWriter w;
  for (uint64_t f : fields) w.PutVarint64(f);
  w.PutVarint64(uint64_t{1} << 62);
  return w.FinishWithChecksum();
}

TEST(MetadataTest, TimespanMetaHostileCountIsCorruption) {
  // tsid, start, end, event_count, l, interval, k_parts, strategy, then
  // the checkpoint count.
  std::string data = SealedWithHostileCount({3, 0, 0, 0, 10, 20, 4, 1});
  ASSERT_EQ(data.size(), 25u);
  auto back = tgi::TimespanMeta::Deserialize(data);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

TEST(MetadataTest, VersionChainHostileCountIsCorruption) {
  std::string data = SealedWithHostileCount({77, 2, 5});  // node, tsid, pid
  ASSERT_EQ(data.size(), 20u);
  auto back = tgi::VersionChainSegment::Deserialize(data);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

TEST(MetadataTest, VersionChainTsidAbove32BitsIsCorruption) {
  // node, tsid, pid, entry count: a legacy body and the columnar head.
  BinaryWriter fields;
  for (uint64_t f : {uint64_t{7}, uint64_t{UINT32_MAX} + 1, uint64_t{0},
                     uint64_t{0}}) {
    fields.PutVarint64(f);
  }
  std::string head = fields.Finish();
  BinaryWriter legacy;
  legacy.PutRaw(head);
  ColumnarBlockWriter columnar(ValueSchema::kVersionChain);
  columnar.AddColumn(head);
  for (int i = 0; i < 5; ++i) columnar.AddColumn("");  // no entries
  for (const std::string& data :
       {legacy.FinishWithChecksum(), columnar.Finish()}) {
    auto back = tgi::VersionChainSegment::Deserialize(data);
    ASSERT_FALSE(back.ok());
    EXPECT_TRUE(back.status().IsCorruption());
  }
}

// Sealed TimespanMeta payloads whose tree breaks the builder's breadth-first
// numbering. PathToCheckpoint climbs parent links from a leaf and indexes
// the tree with them, so Deserialize must reject each: a self-parent would
// climb forever, and a parent or checkpoint index past the end would read
// out of range.
TEST(MetadataTest, TimespanMetaTreeIndexOutOfRangeIsCorruption) {
  tgi::TimespanMeta m;
  m.eventlist_size = 10;
  m.checkpoint_interval = 20;
  m.checkpoints = {100, 120};
  const std::pair<const char*, std::vector<tgi::TreeNode>> hostile[] = {
      {"self-parent", {{-1, -1}, {1, 0}, {0, 1}}},
      {"parent past the end", {{-1, -1}, {0, 0}, {7, 1}}},
      {"checkpoint index past the end", {{-1, -1}, {0, 0}, {0, 2}}},
  };
  for (const auto& [what, tree] : hostile) {
    m.tree = tree;
    auto back = tgi::TimespanMeta::Deserialize(m.Serialize());
    ASSERT_FALSE(back.ok()) << what;
    EXPECT_TRUE(back.status().IsCorruption()) << what;
  }
}

// DidPath divides by the stored eventlist size, so a sealed payload that
// stores 0 there must be rejected rather than decoded.
TEST(MetadataTest, TimespanMetaZeroEventlistSizeIsCorruption) {
  tgi::TimespanMeta m;
  m.checkpoint_interval = 20;
  m.checkpoints = {100};
  m.tree = {{-1, 0}};
  auto back = tgi::TimespanMeta::Deserialize(m.Serialize());
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
  m.eventlist_size = 10;  // the same payload with a valid size decodes
  EXPECT_TRUE(tgi::TimespanMeta::Deserialize(m.Serialize()).ok());
}

TEST(MetadataTest, MicropartBucketHostileCountIsCorruption) {
  std::string data = SealedWithHostileCount({});
  ASSERT_EQ(data.size(), 17u);
  auto back = tgi::DeserializeMicropartBucket(data);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

// ---------------------------------------------------------------------------
// Builder validation.
// ---------------------------------------------------------------------------

TEST(BuilderTest, RejectsDecreasingTimestamps) {
  Cluster cluster(FastCluster());
  TGIBuilder builder(&cluster, SmallOptions());
  std::vector<Event> bad = {Event::AddNode(5, 1), Event::AddNode(4, 2)};
  EXPECT_EQ(builder.Ingest(bad).code(), StatusCode::kInvalidArgument);
}

TEST(BuilderTest, AcceptsAndServesSameTimestampEvents) {
  // Simultaneous events are legal; snapshots at and around the shared
  // timestamp must match a direct replay.
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  std::vector<Event> events = {
      Event::AddNode(1, 1), Event::AddNode(1, 2),  Event::AddNode(2, 3),
      Event::AddEdge(3, 1, 2), Event::AddEdge(3, 2, 3),
      Event::SetNodeAttr(3, 1, "k", "v"), Event::RemoveEdge(4, 1, 2)};
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager().value();
  for (Timestamp t : {1, 2, 3, 4}) {
    auto snap = qm->GetSnapshot(t);
    ASSERT_TRUE(snap.ok());
    EXPECT_TRUE(*snap == workload::ReplayToGraph(events, t)) << "t=" << t;
  }
  auto hist = qm->GetNodeHistory(1, 0, 4);
  ASSERT_TRUE(hist.ok());
  ASSERT_EQ(hist->events.size(), 4u);  // add, edge, attr, remove-edge
}

TEST(BuilderTest, EmptyHistoryFinishes) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  ASSERT_TRUE(tgi.BuildFrom({}).ok());
  auto qm = tgi.OpenQueryManager();
  ASSERT_TRUE(qm.ok());
  auto snap = (*qm)->GetSnapshot(100);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->NumNodes(), 0u);
}

TEST(BuilderTest, TracksCurrentState) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(3, 4'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  Graph expected = workload::ReplayToGraph(events, kMaxTimestamp);
  EXPECT_TRUE(tgi.builder()->current_state() == expected);
}

// ---------------------------------------------------------------------------
// The core invariant, swept across configurations.
// Params: (strategy, clustering order, replicate, horizontal partitions).
// ---------------------------------------------------------------------------

using ConfigParam = std::tuple<PartitionStrategy, ClusteringOrder, bool, int>;

class TGIConfigTest : public ::testing::TestWithParam<ConfigParam> {
 protected:
  TGIOptions OptionsFromParam() {
    TGIOptions opts = SmallOptions();
    opts.partition_strategy = std::get<0>(GetParam());
    opts.clustering_order = std::get<1>(GetParam());
    opts.replicate_one_hop = std::get<2>(GetParam());
    opts.num_horizontal_partitions =
        static_cast<size_t>(std::get<3>(GetParam()));
    return opts;
  }
};

TEST_P(TGIConfigTest, SnapshotsMatchReplayEverywhere) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, OptionsFromParam());
  auto events = SmallHistory(11, 5'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm_or = tgi.OpenQueryManager(/*fetch_parallelism=*/4);
  ASSERT_TRUE(qm_or.ok());
  auto& qm = *qm_or;

  // Probe before history, at several interior points (including span and
  // checkpoint boundaries), and beyond the end.
  std::vector<Timestamp> probes = {-5, 0};
  for (size_t frac = 1; frac <= 10; ++frac) {
    probes.push_back(events[events.size() * frac / 10 - 1].time);
  }
  probes.push_back(workload::EndTime(events) + 50);
  for (Timestamp t : probes) {
    auto snap = qm->GetSnapshot(t);
    ASSERT_TRUE(snap.ok()) << "t=" << t << ": " << snap.status().ToString();
    Graph expected = workload::ReplayToGraph(events, t);
    EXPECT_TRUE(*snap == expected)
        << "snapshot mismatch at t=" << t << " (got " << snap->NumNodes()
        << "/" << snap->NumEdges() << " nodes/edges, want "
        << expected.NumNodes() << "/" << expected.NumEdges() << ")";
  }
}

TEST_P(TGIConfigTest, NodeStatesMatchReplay) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, OptionsFromParam());
  auto events = SmallHistory(13, 4'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm_or = tgi.OpenQueryManager();
  ASSERT_TRUE(qm_or.ok());
  auto& qm = *qm_or;

  Rng rng(5);
  Timestamp t = events[events.size() * 3 / 4].time;
  Graph expected = workload::ReplayToGraph(events, t);
  auto ids = expected.NodeIds();
  ASSERT_FALSE(ids.empty());
  for (int trial = 0; trial < 25; ++trial) {
    NodeId id = ids[rng.Uniform(ids.size())];
    auto state = qm->GetNodeStateDelta(id, t);
    ASSERT_TRUE(state.ok());
    const auto* rec = state->FindNode(id);
    ASSERT_NE(rec, nullptr) << "node " << id << " missing at t=" << t;
    ASSERT_TRUE(rec->has_value());
    EXPECT_EQ((*rec)->attrs, expected.GetNode(id)->attrs);
    // Incident edges must match the replayed adjacency.
    size_t edge_count = 0;
    state->ForEachEdgeEntry(
        [&](const EdgeKey& key, const std::optional<EdgeRecord>& e) {
          if (e.has_value() && (key.u == id || key.v == id)) ++edge_count;
        });
    EXPECT_EQ(edge_count, expected.Neighbors(id).size()) << "node " << id;
  }
}

TEST_P(TGIConfigTest, NodeHistoryMatchesLogFilter) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, OptionsFromParam());
  auto events = SmallHistory(17, 4'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm_or = tgi.OpenQueryManager();
  ASSERT_TRUE(qm_or.ok());
  auto& qm = *qm_or;

  Timestamp from = events[events.size() / 4].time;
  Timestamp to = events[events.size() * 3 / 4].time;
  Rng rng(6);
  Graph at_from = workload::ReplayToGraph(events, from);
  auto ids = at_from.NodeIds();
  for (int trial = 0; trial < 20; ++trial) {
    NodeId id = ids[rng.Uniform(ids.size())];
    auto hist = qm->GetNodeHistory(id, from, to);
    ASSERT_TRUE(hist.ok());
    // Expected: all events touching the node in (from, to].
    std::vector<Event> expected;
    for (const Event& e : events) {
      if (e.time > from && e.time <= to && e.Touches(id)) {
        expected.push_back(e);
      }
    }
    ASSERT_EQ(hist->events.size(), expected.size()) << "node " << id;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(hist->events.events()[i], expected[i]);
    }
    // Initial state matches replay at `from`.
    const auto* rec = hist->initial.FindNode(id);
    bool existed = at_from.HasNode(id);
    EXPECT_EQ(rec != nullptr && rec->has_value(), existed);
  }
}

// GetKHopNeighborhood's contract (query.h), checked on the whole graph:
// the nodes are the BFS ball of radius k around the center with exact
// records, and every edge is an edge of the snapshot induced on that ball
// with its exact record. Without replication every induced edge is present,
// so the result equals the induced subgraph. With it, an induced edge may be
// missing only when both endpoints lie on the last ring.
void ExpectKHopContract(const Graph& hood, const Graph& snapshot,
                          NodeId center, int k, bool replicated) {
  std::unordered_map<NodeId, int> dist =
      algo::BfsDistances(snapshot, center, k);
  std::unordered_set<NodeId> ball;
  for (const auto& [n, d] : dist) ball.insert(n);
  Graph induced = Delta::FromGraph(snapshot).FilterByNodes(ball).ToGraph();
  if (!replicated) {
    EXPECT_TRUE(hood == induced)
        << "center " << center << " k=" << k << ": got " << hood.NumNodes()
        << "/" << hood.NumEdges() << " nodes/edges, want "
        << induced.NumNodes() << "/" << induced.NumEdges();
    return;
  }
  EXPECT_EQ(hood.NumNodes(), induced.NumNodes()) << "center " << center;
  induced.ForEachNode([&](NodeId n, const NodeRecord& rec) {
    const NodeRecord* got = hood.GetNode(n);
    ASSERT_NE(got, nullptr) << "center " << center << " missing node " << n;
    EXPECT_EQ(got->attrs, rec.attrs) << "node " << n;
  });
  hood.ForEachEdge([&](const EdgeKey& key, const EdgeRecord& rec) {
    const EdgeRecord* want = induced.GetEdge(key.u, key.v);
    ASSERT_NE(want, nullptr) << "center " << center << " extra edge "
                             << key.u << "-" << key.v;
    EXPECT_TRUE(*want == rec) << "edge " << key.u << "-" << key.v;
  });
  induced.ForEachEdge([&](const EdgeKey& key, const EdgeRecord&) {
    if (hood.HasEdge(key.u, key.v)) return;
    EXPECT_TRUE(dist.at(key.u) == k && dist.at(key.v) == k)
        << "center " << center << " k=" << k << " lacks edge " << key.u
        << "-" << key.v << " off the last ring";
  });
}

// Centers for the k-hop tests: the highest-degree node at t plus a seeded
// sample.
std::vector<NodeId> KHopCenters(const Graph& snapshot, uint64_t seed,
                                size_t sampled) {
  auto ids = snapshot.NodeIds();
  NodeId hub = ids[0];
  for (NodeId id : ids) {
    if (snapshot.Neighbors(id).size() > snapshot.Neighbors(hub).size()) {
      hub = id;
    }
  }
  std::vector<NodeId> centers{hub};
  Rng rng(seed);
  for (size_t i = 0; i < sampled; ++i) {
    centers.push_back(ids[rng.Uniform(ids.size())]);
  }
  return centers;
}

TEST_P(TGIConfigTest, OneHopNeighborhoodMatchesReplay) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, OptionsFromParam());
  auto events = SmallHistory(19, 4'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm_or = tgi.OpenQueryManager();
  ASSERT_TRUE(qm_or.ok());
  auto& qm = *qm_or;

  Timestamp t = events[events.size() / 2].time;
  Graph expected = workload::ReplayToGraph(events, t);
  for (NodeId id : KHopCenters(expected, 7, 15)) {
    auto hood = qm->GetKHopNeighborhood(id, t, 1);
    ASSERT_TRUE(hood.ok());
    ExpectKHopContract(*hood, expected, id, 1, std::get<2>(GetParam()));
  }
}

TEST_P(TGIConfigTest, MultiHopNeighborhoodMatchesReplay) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, OptionsFromParam());
  auto events = SmallHistory(23, 3'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm_or = tgi.OpenQueryManager();
  ASSERT_TRUE(qm_or.ok());
  auto& qm = *qm_or;

  const bool replicated = std::get<2>(GetParam());
  for (Timestamp t : {events[events.size() / 3].time,
                      workload::EndTime(events)}) {
    Graph expected = workload::ReplayToGraph(events, t);
    for (int k : {2, 3}) {
      for (NodeId id : KHopCenters(expected, 8 + k, 8)) {
        auto hood = qm->GetKHopNeighborhood(id, t, k);
        ASSERT_TRUE(hood.ok());
        ExpectKHopContract(*hood, expected, id, k, replicated);
      }
    }
  }
}

// GetNodeHistories must agree byte-for-byte with per-node GetNodeHistory
// across every index configuration, including missing and duplicated ids
// and id sets spanning many partitions.
TEST_P(TGIConfigTest, BulkNodeHistoriesMatchPerNode) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, OptionsFromParam());
  auto events = SmallHistory(67, 4'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm_or = tgi.OpenQueryManager(/*fetch_parallelism=*/3);
  ASSERT_TRUE(qm_or.ok());
  auto& qm = *qm_or;

  Timestamp from = events[events.size() / 4].time;
  Timestamp to = events[events.size() * 3 / 4].time;
  Graph at_from = workload::ReplayToGraph(events, from);
  auto pool = at_from.NodeIds();
  ASSERT_GE(pool.size(), 12u);
  std::vector<NodeId> ids(pool.begin(), pool.begin() + 12);
  ids.push_back(ids[0]);             // duplicate
  ids.push_back(1'000'000'000);      // never existed
  ids.push_back(987'654'321);        // never existed

  auto bulk = qm->GetNodeHistories(ids, from, to);
  ASSERT_TRUE(bulk.ok());
  ASSERT_EQ(bulk->size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto single = qm->GetNodeHistory(ids[i], from, to);
    ASSERT_TRUE(single.ok());
    const NodeHistory& b = (*bulk)[i];
    EXPECT_EQ(b.node, single->node) << "i=" << i;
    EXPECT_EQ(b.from, single->from);
    EXPECT_EQ(b.to, single->to);
    EXPECT_TRUE(b.initial == single->initial) << "node " << ids[i];
    EXPECT_TRUE(b.events == single->events) << "node " << ids[i];
  }
  // Missing ids produce empty histories.
  EXPECT_TRUE(bulk->back().events.empty());
  EXPECT_TRUE(bulk->back().initial == Delta());
}

TEST(TGITest, BulkHistoriesDeduplicateSharedEventlists) {
  // One giant micro-partition co-locates every node, so busy nodes share
  // micro-eventlists: the bulk fetch must retrieve each shared eventlist
  // once and issue strictly fewer round trips than per-node retrievals.
  Cluster cluster(FastCluster());
  TGIOptions opts = SmallOptions();
  opts.micro_delta_size = 1'000'000;  // k_parts == 1: all nodes co-partitioned
  TGI tgi(&cluster, opts);
  auto events = SmallHistory(71, 4'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());

  // Uncached managers: kv_batches then counts physical fetches only.
  TGIQueryManager bulk_qm(&cluster, 2, /*read_cache_bytes=*/0);
  ASSERT_TRUE(bulk_qm.Open().ok());
  TGIQueryManager single_qm(&cluster, 2, /*read_cache_bytes=*/0);
  ASSERT_TRUE(single_qm.Open().ok());

  // The busiest nodes: guaranteed to share eventlists with each other.
  std::unordered_map<NodeId, int> touches;
  for (const Event& e : events) {
    ++touches[e.u];
    if (e.IsEdgeEvent()) ++touches[e.v];
  }
  std::vector<std::pair<int, NodeId>> ranked;
  for (auto [id, cnt] : touches) ranked.emplace_back(cnt, id);
  std::sort(ranked.rbegin(), ranked.rend());
  std::vector<NodeId> ids;
  for (size_t i = 0; i < 8 && i < ranked.size(); ++i) {
    ids.push_back(ranked[i].second);
  }
  Timestamp to = workload::EndTime(events);

  FetchStats bulk_stats;
  auto bulk = bulk_qm.GetNodeHistories(ids, 0, to, &bulk_stats);
  ASSERT_TRUE(bulk.ok());

  FetchStats single_stats;
  std::vector<NodeHistory> singles;
  for (NodeId id : ids) {
    auto h = single_qm.GetNodeHistory(id, 0, to, &single_stats);
    ASSERT_TRUE(h.ok());
    singles.push_back(std::move(*h));
  }

  // Identical results...
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE((*bulk)[i].initial == singles[i].initial) << "node " << ids[i];
    EXPECT_TRUE((*bulk)[i].events == singles[i].events) << "node " << ids[i];
  }
  // ...at a fraction of the physical cost. Logical accounting first:
  EXPECT_EQ(bulk_stats.node_requests, ids.size());
  EXPECT_EQ(single_stats.node_requests, ids.size());
  EXPECT_EQ(bulk_stats.version_scans, ids.size());  // one per touched part.
  EXPECT_EQ(bulk_stats.eventlist_refs, single_stats.eventlist_refs);
  // Shared eventlists are fetched once in the bulk path.
  EXPECT_LT(bulk_stats.eventlist_fetches, bulk_stats.eventlist_refs);
  EXPECT_LT(bulk_stats.eventlist_fetches, single_stats.eventlist_fetches);
  // Strictly fewer physical round trips than N per-node retrievals.
  EXPECT_LT(bulk_stats.kv_batches, single_stats.kv_batches);
}

TEST(TGITest, BulkHistoriesDuplicateIdsFetchOnce) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(73, 3'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  TGIQueryManager qm(&cluster, 1, /*read_cache_bytes=*/0);
  ASSERT_TRUE(qm.Open().ok());
  Timestamp to = workload::EndTime(events);
  NodeId busy = events.front().u;

  FetchStats stats;
  auto hists = qm.GetNodeHistories({busy, busy, busy}, 0, to, &stats);
  ASSERT_TRUE(hists.ok());
  ASSERT_EQ(hists->size(), 3u);
  EXPECT_TRUE((*hists)[0].events == (*hists)[1].events);
  EXPECT_TRUE((*hists)[1].events == (*hists)[2].events);
  // Three logical requests, one physical retrieval.
  EXPECT_EQ(stats.node_requests, 3u);
  EXPECT_EQ(stats.version_scans, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TGIConfigTest,
    ::testing::Values(
        ConfigParam{PartitionStrategy::kRandom, ClusteringOrder::kDeltaMajor,
                    false, 2},
        ConfigParam{PartitionStrategy::kRandom,
                    ClusteringOrder::kPartitionMajor, false, 2},
        ConfigParam{PartitionStrategy::kLocality, ClusteringOrder::kDeltaMajor,
                    false, 2},
        ConfigParam{PartitionStrategy::kRandom, ClusteringOrder::kDeltaMajor,
                    true, 2},
        ConfigParam{PartitionStrategy::kLocality,
                    ClusteringOrder::kDeltaMajor, true, 3},
        ConfigParam{PartitionStrategy::kRandom, ClusteringOrder::kDeltaMajor,
                    false, 1}));

// ---------------------------------------------------------------------------
// Targeted behaviors beyond the core invariant.
// ---------------------------------------------------------------------------

TEST(TGITest, NodeVersionsReplayChronologically) {
  Cluster cluster(FastCluster());
  TGIOptions opts = SmallOptions();
  Cluster c2(FastCluster());
  TGI tgi(&c2, opts);
  auto events = SmallHistory(29, 4'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager().value();

  // Find a node with several changes.
  std::unordered_map<NodeId, int> touch_count;
  for (const Event& e : events) {
    ++touch_count[e.u];
    if (e.IsEdgeEvent()) ++touch_count[e.v];
  }
  NodeId busy = 0;
  int best = 0;
  for (auto [id, cnt] : touch_count) {
    if (cnt > best) {
      best = cnt;
      busy = id;
    }
  }
  ASSERT_GT(best, 3);
  Timestamp from = 0;
  Timestamp to = workload::EndTime(events);
  auto versions = qm->GetNodeVersions(busy, from, to);
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(versions->size(), static_cast<size_t>(best) + 1);
  for (size_t i = 1; i < versions->size(); ++i) {
    EXPECT_GT((*versions)[i].first, (*versions)[i - 1].first);
  }
  // Final version equals the node's final state.
  Graph final_state = workload::ReplayToGraph(events, to);
  const auto* rec = versions->back().second.FindNode(busy);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->has_value(), final_state.HasNode(busy));
}

TEST(TGITest, OneHopHistoryCoversNeighborEvents) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(31, 3'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager().value();

  Timestamp to = workload::EndTime(events);
  Graph final_state = workload::ReplayToGraph(events, to);
  // Pick the highest-degree node as the center.
  NodeId center = algo::HighestDegreeNode(final_state);
  auto hist = qm->GetOneHopHistory(center, 0, to);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->center.node, center);
  // Every final neighbor appears among the returned neighbor histories.
  std::unordered_set<NodeId> returned;
  for (const auto& nh : hist->neighbors) returned.insert(nh.node);
  for (NodeId n : final_state.Neighbors(center)) {
    EXPECT_TRUE(returned.contains(n)) << "neighbor " << n;
  }
}

TEST(TGITest, BatchUpdateAppendsNewTimespans) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(37, 6'000);
  size_t half = events.size() / 2;
  std::vector<Event> first(events.begin(), events.begin() + half);
  std::vector<Event> second(events.begin() + half, events.end());

  ASSERT_TRUE(tgi.BuildFrom(first).ok());
  ASSERT_TRUE(tgi.AppendBatch(second).ok());

  auto qm = tgi.OpenQueryManager().value();
  for (double frac : {0.3, 0.6, 1.0}) {
    Timestamp t = events[static_cast<size_t>(events.size() * frac) - 1].time;
    auto snap = qm->GetSnapshot(t);
    ASSERT_TRUE(snap.ok());
    EXPECT_TRUE(*snap == workload::ReplayToGraph(events, t)) << "t=" << t;
  }
}

TEST(TGITest, SurvivesReplicaFailureWithReplication) {
  ClusterOptions copts = FastCluster(3);
  copts.replication = 2;
  Cluster cluster(copts);
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(41, 4'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  cluster.SetNodeDown(1, true);
  auto qm = tgi.OpenQueryManager(2).value();
  Timestamp t = workload::EndTime(events);
  auto snap = qm->GetSnapshot(t);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE(*snap == workload::ReplayToGraph(events, t));
}

TEST(TGITest, FailsCleanlyWithoutReplicationWhenNodeDown) {
  Cluster cluster(FastCluster(2));
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(43, 4'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  cluster.SetNodeDown(0, true);
  TGIQueryManager qm(&cluster);
  // Either Open or the snapshot fails with IOError — never a crash or a
  // wrong answer.
  Status open_status = qm.Open();
  if (open_status.ok()) {
    auto snap = qm.GetSnapshot(workload::EndTime(events));
    EXPECT_FALSE(snap.ok());
    EXPECT_TRUE(snap.status().IsIOError());
  } else {
    EXPECT_TRUE(open_status.IsIOError());
  }
}

TEST(TGITest, FetchStatsAreAccounted) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(47, 4'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager().value();
  FetchStats snap_stats;
  ASSERT_TRUE(qm->GetSnapshot(workload::EndTime(events), &snap_stats).ok());
  EXPECT_GT(snap_stats.kv_requests, 0u);
  EXPECT_GT(snap_stats.micro_deltas, 0u);
  EXPECT_GT(snap_stats.bytes, 0u);

  // A node-state fetch must touch far less data than a snapshot.
  FetchStats node_stats;
  Graph final_state = workload::ReplayToGraph(events, kMaxTimestamp);
  NodeId some = final_state.NodeIds().front();
  ASSERT_TRUE(
      qm->GetNodeStateDelta(some, workload::EndTime(events), &node_stats)
          .ok());
  EXPECT_LT(node_stats.bytes, snap_stats.bytes / 4);
}

TEST(TGITest, ParallelFetchStatsKeepResilienceCounters) {
  // Every read of a node-history batch lands on a replica set whose node 0
  // always fails transiently, so the cluster client retries and fails over
  // inside parallel scans and decodes. The query's stats must account for
  // every one of them: they match the cluster's lifetime counter deltas.
  ClusterOptions copts = FastCluster(2);
  copts.replication = 2;
  Cluster cluster(copts);
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(101, 4'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  TGIQueryManager qm(&cluster, /*fetch_parallelism=*/2,
                     /*read_cache_bytes=*/0, /*decoded_cache_bytes=*/0);
  ASSERT_TRUE(qm.Open().ok());
  FaultProfile always_failing;
  always_failing.transient_error_prob = 1.0;
  cluster.SetFaultProfile(0, always_failing);

  std::vector<NodeId> ids;
  for (const Event& e : events) {
    if (ids.size() == 16) break;
    if (e.type == EventType::kAddNode) ids.push_back(e.u);
  }
  ASSERT_EQ(ids.size(), 16u);
  const ClusterResilienceStats& res = cluster.resilience();
  const uint64_t failovers_before = res.failovers.load();
  const uint64_t retries_before = res.retries.load();
  FetchStats stats;
  auto hists = qm.GetNodeHistories(ids, 0, workload::EndTime(events), &stats);
  ASSERT_TRUE(hists.ok()) << hists.status().ToString();
  EXPECT_GT(stats.failovers, 0u);
  EXPECT_EQ(stats.failovers, res.failovers.load() - failovers_before);
  EXPECT_EQ(stats.retries, res.retries.load() - retries_before);
}

TEST(TGITest, SnapshotWallSecondsCoversTheWholeCall) {
  // wall_seconds times the whole public call, graph materialization
  // included: the best of three warm snapshots reports at least 90% of
  // the span measured around the call.
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(103, 6'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();
  Timestamp t = workload::EndTime(events);
  ASSERT_TRUE(qm->GetSnapshot(t).ok());  // warm both cache tiers

  double best = 0.0;
  for (int i = 0; i < 3; ++i) {
    FetchStats stats;
    auto start = std::chrono::steady_clock::now();
    auto snap = qm->GetSnapshot(t, &stats);
    double external = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    ASSERT_TRUE(snap.ok());
    best = std::max(best, stats.wall_seconds / external);
  }
  EXPECT_GE(best, 0.9);
}

TEST(TGITest, QueryBeforeOpenFails) {
  Cluster cluster(FastCluster());
  TGIQueryManager qm(&cluster);
  EXPECT_EQ(qm.GetSnapshot(10).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TGITest, CachedSnapshotIdenticalToColdAndHitsAccounted) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(53, 6'000);
  size_t half = events.size() / 2;
  std::vector<Event> first(events.begin(), events.begin() + half);
  std::vector<Event> second(events.begin() + half, events.end());
  ASSERT_TRUE(tgi.BuildFrom(first).ok());

  // Cached manager (TGIOptions default budget) vs an uncached control.
  auto qm = tgi.OpenQueryManager(2).value();
  TGIQueryManager uncached(&cluster, 2, /*read_cache_bytes=*/0);
  ASSERT_TRUE(uncached.Open().ok());

  Timestamp t1 = first[first.size() / 2].time;
  FetchStats cold;
  auto snap_cold = qm->GetSnapshot(t1, &cold);
  ASSERT_TRUE(snap_cold.ok());
  EXPECT_GT(cold.cache_misses, 0u);
  EXPECT_EQ(cold.cache_hits, 0u);

  FetchStats warm;
  auto snap_warm = qm->GetSnapshot(t1, &warm);
  ASSERT_TRUE(snap_warm.ok());
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(warm.kv_batches, 0u);  // fully served from cache
  EXPECT_TRUE(*snap_warm == *snap_cold);
  // Logical counters are identical hot or cold.
  EXPECT_EQ(warm.kv_requests, cold.kv_requests);
  EXPECT_EQ(warm.bytes, cold.bytes);

  auto snap_uncached = uncached.GetSnapshot(t1);
  ASSERT_TRUE(snap_uncached.ok());
  EXPECT_TRUE(*snap_uncached == *snap_warm);

  // AppendBatch re-publishes metadata: the open manager must invalidate
  // its cache and serve the post-append history correctly.
  ASSERT_TRUE(tgi.AppendBatch(second).ok());
  Timestamp t2 = workload::EndTime(events);
  FetchStats post;
  auto snap_post = qm->GetSnapshot(t2, &post);
  ASSERT_TRUE(snap_post.ok());
  EXPECT_EQ(post.cache_hits, 0u);  // cache was dropped on invalidation
  EXPECT_GT(post.cache_misses, 0u);
  EXPECT_TRUE(*snap_post == workload::ReplayToGraph(events, t2));
  // The pre-append timepoint still answers correctly after the refresh.
  auto snap_old = qm->GetSnapshot(t1);
  ASSERT_TRUE(snap_old.ok());
  EXPECT_TRUE(*snap_old == *snap_cold);
}

// ---------------------------------------------------------------------------
// Decoded-object cache tests: warm retrievals must perform zero Deserialize
// calls, invalidation must track AppendBatch, and the byte budget must
// evict under pressure without affecting results.
// ---------------------------------------------------------------------------

TEST(TGITest, WarmDecodedCacheSkipsAllDeserialization) {
  for (ClusteringOrder order :
       {ClusteringOrder::kDeltaMajor, ClusteringOrder::kPartitionMajor}) {
    Cluster cluster(FastCluster());
    TGIOptions opts = SmallOptions();
    opts.clustering_order = order;
    TGI tgi(&cluster, opts);
    auto events = SmallHistory(71, 6'000);
    ASSERT_TRUE(tgi.BuildFrom(events).ok());
    auto qm = tgi.OpenQueryManager(2).value();

    Timestamp t = workload::EndTime(events);
    FetchStats cold;
    auto snap_cold = qm->GetSnapshot(t, &cold);
    ASSERT_TRUE(snap_cold.ok());
    EXPECT_GT(cold.decodes, 0u);
    EXPECT_GT(cold.decoded_bytes, 0u);

    FetchStats warm;
    auto snap_warm = qm->GetSnapshot(t, &warm);
    ASSERT_TRUE(snap_warm.ok());
    EXPECT_EQ(warm.decodes, 0u);  // every value arrives ready-to-apply
    EXPECT_EQ(warm.decoded_bytes, 0u);
    EXPECT_GT(warm.decode_hits, 0u);
    EXPECT_TRUE(*snap_warm == *snap_cold);
    // Logical consumption counters are identical hot or cold.
    EXPECT_EQ(warm.micro_deltas, cold.micro_deltas);
    EXPECT_EQ(warm.bytes, cold.bytes);

    // Bulk node histories: version segments, eventlists and initial-state
    // micro-deltas are all decoded-cached too.
    std::vector<NodeId> ids;
    for (const Event& e : events) {
      if (ids.size() >= 8) break;
      if (e.type == EventType::kAddNode) ids.push_back(e.u);
    }
    FetchStats hist_cold;
    auto hists_cold = qm->GetNodeHistories(ids, 0, t, &hist_cold);
    ASSERT_TRUE(hists_cold.ok());
    FetchStats hist_warm;
    auto hists_warm = qm->GetNodeHistories(ids, 0, t, &hist_warm);
    ASSERT_TRUE(hists_warm.ok());
    EXPECT_EQ(hist_warm.decodes, 0u);
    EXPECT_GT(hist_warm.decode_hits, 0u);
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_TRUE((*hists_warm)[i].initial == (*hists_cold)[i].initial);
      EXPECT_TRUE((*hists_warm)[i].events == (*hists_cold)[i].events);
    }
  }
}

TEST(TGITest, DecodedTierWorksWithoutByteCache) {
  // The tiers are independent: with the partition-delta (byte) cache
  // disabled, repeats of point-read-shaped fetches are still served
  // decoded — and skip the cluster round trips entirely.
  Cluster cluster(FastCluster());
  TGIOptions opts = SmallOptions();
  opts.clustering_order = ClusteringOrder::kPartitionMajor;
  TGI tgi(&cluster, opts);
  auto events = SmallHistory(72, 5'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  TGIQueryManager qm(&cluster, 2, /*read_cache_bytes=*/0,
                     /*decoded_cache_bytes=*/16u << 20);
  ASSERT_TRUE(qm.Open().ok());

  Timestamp t = workload::EndTime(events);
  FetchStats cold;
  auto snap_cold = qm.GetSnapshot(t, &cold);
  ASSERT_TRUE(snap_cold.ok());
  EXPECT_GT(cold.kv_batches, 0u);
  EXPECT_GT(cold.decodes, 0u);

  FetchStats warm;
  auto snap_warm = qm.GetSnapshot(t, &warm);
  ASSERT_TRUE(snap_warm.ok());
  EXPECT_EQ(warm.decodes, 0u);
  EXPECT_EQ(warm.kv_batches, 0u);  // decoded hits never touch the cluster
  EXPECT_TRUE(*snap_warm == *snap_cold);
}

TEST(TGITest, DecodedCacheInvalidatedByAppendBatch) {
  // Stale decoded objects must not survive a re-publish: every key carries
  // its scope's sub-epoch, and the refresh sweeps re-published scopes.
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(73, 6'000);
  size_t half = events.size() / 2;
  std::vector<Event> first(events.begin(), events.begin() + half);
  std::vector<Event> second(events.begin() + half, events.end());
  ASSERT_TRUE(tgi.BuildFrom(first).ok());
  auto qm = tgi.OpenQueryManager(2).value();

  Timestamp t1 = first[first.size() / 2].time;
  ASSERT_TRUE(qm->GetSnapshot(t1).ok());  // warm the decoded tier
  FetchStats warm;
  ASSERT_TRUE(qm->GetSnapshot(t1, &warm).ok());
  EXPECT_EQ(warm.decodes, 0u);

  ASSERT_TRUE(tgi.AppendBatch(second).ok());
  Timestamp t2 = workload::EndTime(events);
  FetchStats post;
  auto snap_post = qm->GetSnapshot(t2, &post);
  ASSERT_TRUE(snap_post.ok());
  EXPECT_GT(post.decodes, 0u);  // the new span's rows are necessarily cold
  EXPECT_TRUE(*snap_post == workload::ReplayToGraph(events, t2));
  auto snap_old = qm->GetSnapshot(t1);
  ASSERT_TRUE(snap_old.ok());
  EXPECT_TRUE(*snap_old == workload::ReplayToGraph(events, t1));
}

TEST(TGITest, DecodedCacheEvictsUnderByteBudgetPressure) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(74, 6'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  // A budget far below the working set: entries must be admitted and
  // evicted continuously, with results unaffected. Each of the 16 shards
  // holds 4 KiB, enough to admit a row.
  TGIQueryManager qm(&cluster, 2, /*read_cache_bytes=*/0,
                     /*decoded_cache_bytes=*/64u << 10);
  ASSERT_TRUE(qm.Open().ok());
  Timestamp t = workload::EndTime(events);
  auto first = qm.GetSnapshot(t);
  ASSERT_TRUE(first.ok());
  auto second = qm.GetSnapshot(t);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(*first == *second);
  EXPECT_TRUE(*first == workload::ReplayToGraph(events, t));
  LruCacheCounters counters = qm.DecodedCacheCounters();
  EXPECT_GT(counters.insertions, 0u);
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_LE(counters.bytes_used, 64u << 10);
}

TEST(TGITest, NodeHistoryCacheInvalidatedByAppendBatch) {
  // A node's version-chain scan is cached; AppendBatch adds new segments
  // under the same scan prefix, so a stale cache would lose events.
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(59, 6'000);
  size_t half = events.size() / 2;
  ASSERT_TRUE(
      tgi.BuildFrom({events.begin(), events.begin() + half}).ok());
  auto qm = tgi.OpenQueryManager().value();

  // A node touched in both halves, so stale cached scans would show.
  std::unordered_map<NodeId, int> touches;
  for (size_t i = 0; i < events.size(); ++i) {
    int weight = i < half ? 1 : 1'000'000;
    touches[events[i].u] += weight;
    if (events[i].IsEdgeEvent()) touches[events[i].v] += weight;
  }
  NodeId busy = events.front().u;
  int best = 0;
  for (auto [id, cnt] : touches) {
    if (cnt > best && cnt > 1'000'000) {
      best = cnt;
      busy = id;
    }
  }
  Timestamp end_first = events[half - 1].time;
  ASSERT_TRUE(qm->GetNodeHistory(busy, 0, end_first).ok());

  ASSERT_TRUE(tgi.AppendBatch({events.begin() + half, events.end()}).ok());
  Timestamp end = workload::EndTime(events);
  auto hist = qm->GetNodeHistory(busy, 0, end);
  ASSERT_TRUE(hist.ok());
  std::vector<Event> expected;
  for (const Event& e : events) {
    if (e.time > 0 && e.time <= end && e.Touches(busy)) expected.push_back(e);
  }
  ASSERT_EQ(hist->events.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(hist->events.events()[i], expected[i]);
  }
}

TEST(TGITest, MultiGetBatchingReducesRoundTripsUnderLatency) {
  // Partition-major clustering issues point reads for every (delta, pid)
  // unit: the batched path must collapse them into per-node round trips.
  ClusterOptions copts = FastCluster(2);
  copts.latency.enabled = true;
  copts.latency.seek_micros = 200;
  copts.latency.per_key_micros = 1;
  Cluster cluster(copts);
  TGIOptions opts = SmallOptions();
  opts.clustering_order = ClusteringOrder::kPartitionMajor;
  TGI tgi(&cluster, opts);
  auto events = SmallHistory(61, 4'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();

  Timestamp t = workload::EndTime(events);
  FetchStats cold;
  auto snap = qm->GetSnapshot(t, &cold);
  ASSERT_TRUE(snap.ok());
  // Many logical point reads, a handful of physical round trips.
  EXPECT_GT(cold.kv_requests, 2u * cluster.num_nodes());
  EXPECT_LT(cold.kv_batches, cold.kv_requests / 2);
  EXPECT_TRUE(*snap == workload::ReplayToGraph(events, t));

  // Repeating the snapshot is served from the decoded tier: no round
  // trips, and not a single value re-deserialized — point reads skip the
  // byte cache entirely and return ready-to-apply objects.
  FetchStats warm;
  auto again = qm->GetSnapshot(t, &warm);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(warm.kv_batches, 0u);
  EXPECT_EQ(warm.decodes, 0u);
  EXPECT_GT(warm.decode_hits, 0u);
  EXPECT_TRUE(*again == *snap);
}

// ---------------------------------------------------------------------------
// Zero-copy data plane: warm reads move no value bytes, warm delta-major
// scans cost one decoded probe per prefix, and hub-node version chains are
// served as one merged decoded object.
// ---------------------------------------------------------------------------

TEST(TGITest, WarmReadsPerformZeroValueCopies) {
  // With LZ compression every cold fetch of a compressed block pays the one
  // materialization the codec requires; warm reads are shared views end to
  // end and move nothing.
  ClusterOptions copts = FastCluster();
  copts.compression = CompressionKind::kLz;
  Cluster cluster(copts);
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(81, 6'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();
  Timestamp t = workload::EndTime(events);

  FetchStats cold;
  auto snap_cold = qm->GetSnapshot(t, &cold);
  ASSERT_TRUE(snap_cold.ok());
  EXPECT_GT(cold.value_copies, 0u);  // LZ blocks materialize once each
  EXPECT_LE(cold.value_copies, cold.micro_deltas);

  FetchStats warm;
  auto snap_warm = qm->GetSnapshot(t, &warm);
  ASSERT_TRUE(snap_warm.ok());
  EXPECT_EQ(warm.value_copies, 0u);
  EXPECT_TRUE(*snap_warm == *snap_cold);

  std::vector<NodeId> ids;
  for (const Event& e : events) {
    if (ids.size() >= 8) break;
    if (e.type == EventType::kAddNode) ids.push_back(e.u);
  }
  FetchStats hist_cold;
  ASSERT_TRUE(qm->GetNodeHistories(ids, 0, t, &hist_cold).ok());
  FetchStats hist_warm;
  ASSERT_TRUE(qm->GetNodeHistories(ids, 0, t, &hist_warm).ok());
  EXPECT_EQ(hist_warm.value_copies, 0u);

  // An uncompressed cluster never copies, cold or warm: every value is a
  // window into storage-node memory.
  Cluster plain(FastCluster());
  TGI plain_tgi(&plain, SmallOptions());
  ASSERT_TRUE(plain_tgi.BuildFrom(events).ok());
  auto plain_qm = plain_tgi.OpenQueryManager(2).value();
  FetchStats plain_cold;
  ASSERT_TRUE(plain_qm->GetSnapshot(t, &plain_cold).ok());
  EXPECT_EQ(plain_cold.value_copies, 0u);
}

TEST(TGITest, ColumnarRowsAreZeroCopyColdAndWarm) {
  // kColumnar compresses the row families without giving up the zero-copy
  // read path: a columnar block decompresses to a window into the stored
  // buffer and decodes by slicing column views, so even COLD reads move no
  // value bytes — the property LZ cannot offer (cf. the test above).
  TGIOptions topts = SmallOptions();
  topts.row_compression = CompressionKind::kColumnar;
  topts.eventlist_compression = CompressionKind::kColumnar;
  topts.versions_compression = CompressionKind::kColumnar;
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, topts);
  auto events = SmallHistory(84, 6'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();
  Timestamp t = workload::EndTime(events);

  FetchStats cold;
  auto snap_cold = qm->GetSnapshot(t, &cold);
  ASSERT_TRUE(snap_cold.ok());
  EXPECT_EQ(cold.value_copies, 0u);
  EXPECT_TRUE(*snap_cold == workload::ReplayToGraph(events, t));

  FetchStats warm;
  auto snap_warm = qm->GetSnapshot(t, &warm);
  ASSERT_TRUE(snap_warm.ok());
  EXPECT_EQ(warm.value_copies, 0u);
  EXPECT_TRUE(*snap_warm == *snap_cold);

  // Node histories exercise the eventlist and version-chain codecs.
  std::vector<NodeId> ids;
  for (const Event& e : events) {
    if (ids.size() >= 8) break;
    if (e.type == EventType::kAddNode) ids.push_back(e.u);
  }
  FetchStats hist_cold;
  auto hist = qm->GetNodeHistories(ids, 0, t, &hist_cold);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist_cold.value_copies, 0u);
  FetchStats hist_warm;
  ASSERT_TRUE(qm->GetNodeHistories(ids, 0, t, &hist_warm).ok());
  EXPECT_EQ(hist_warm.value_copies, 0u);

  // And the columnar index is byte-smaller than its uncompressed twin.
  Cluster plain(FastCluster());
  TGI plain_tgi(&plain, SmallOptions());
  ASSERT_TRUE(plain_tgi.BuildFrom(events).ok());
  EXPECT_LT(cluster.TotalStoredBytes(), plain.TotalStoredBytes());
}

TEST(TGITest, WarmDeltaMajorScanCostsOneDecodedProbePerPrefix) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());  // delta-major clustering by default
  auto events = SmallHistory(82, 6'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(1).value();
  Timestamp t = workload::EndTime(events);

  FetchStats cold;
  ASSERT_TRUE(qm->GetSnapshotDelta(t, &cold).ok());

  LruCacheCounters decoded_before = qm->DecodedCacheCounters();
  LruCacheCounters bytes_before = qm->ReadCacheCounters();
  FetchStats warm;
  ASSERT_TRUE(qm->GetSnapshotDelta(t, &warm).ok());
  LruCacheCounters decoded_after = qm->DecodedCacheCounters();
  LruCacheCounters bytes_after = qm->ReadCacheCounters();

  // Exactly one decoded-tier probe per (delta, partition) scan prefix —
  // warm.kv_requests counts those scans — and nothing else: no per-row
  // probes, no byte-cache traffic, no decodes, no copies.
  EXPECT_GT(warm.kv_requests, 0u);
  EXPECT_EQ(decoded_after.hits - decoded_before.hits, warm.kv_requests);
  EXPECT_EQ(decoded_after.misses, decoded_before.misses);
  EXPECT_EQ(bytes_after.hits, bytes_before.hits);
  EXPECT_EQ(bytes_after.misses, bytes_before.misses);
  EXPECT_EQ(warm.kv_batches, 0u);
  EXPECT_EQ(warm.decodes, 0u);
  EXPECT_EQ(warm.value_copies, 0u);
  // Logical accounting identical to the cold run.
  EXPECT_EQ(warm.kv_requests, cold.kv_requests);
  EXPECT_EQ(warm.micro_deltas, cold.micro_deltas);
  EXPECT_EQ(warm.bytes, cold.bytes);
}

TEST(TGITest, HubNodeVersionChainServedAsOneMergedObject) {
  // 6000 events over 2000-event timespans give a busy node several
  // VersionChainSegments; warm retrievals serve them as one merged decoded
  // chain — no versions-table scan, no per-segment decode — and the chain
  // is shared across different time windows.
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(83, 6'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();

  std::unordered_map<NodeId, int> touches;
  for (const Event& e : events) {
    ++touches[e.u];
    if (e.IsEdgeEvent()) ++touches[e.v];
  }
  NodeId busy = events.front().u;
  int best = 0;
  for (auto [id, cnt] : touches) {
    if (cnt > best) {
      best = cnt;
      busy = id;
    }
  }
  Timestamp end = workload::EndTime(events);

  FetchStats cold;
  auto h_cold = qm->GetNodeHistory(busy, 0, end, &cold);
  ASSERT_TRUE(h_cold.ok());
  EXPECT_GT(cold.version_scans, 0u);

  FetchStats warm;
  auto h_warm = qm->GetNodeHistory(busy, 0, end, &warm);
  ASSERT_TRUE(h_warm.ok());
  EXPECT_EQ(warm.version_scans, 0u);  // merged chain replaced the scan
  EXPECT_EQ(warm.decodes, 0u);
  EXPECT_EQ(warm.value_copies, 0u);
  EXPECT_TRUE(h_warm->initial == h_cold->initial);
  EXPECT_TRUE(h_warm->events == h_cold->events);

  // The chain is cached unfiltered: a narrower window reuses it (still no
  // scan) and agrees with the event log.
  Timestamp mid = end / 2;
  FetchStats windowed;
  auto h_mid = qm->GetNodeHistory(busy, 0, mid, &windowed);
  ASSERT_TRUE(h_mid.ok());
  EXPECT_EQ(windowed.version_scans, 0u);
  size_t expected = 0;
  for (const Event& e : events) {
    if (e.time > 0 && e.time <= mid && e.Touches(busy)) ++expected;
  }
  EXPECT_EQ(h_mid->events.size(), expected);
}

TEST(TGITest, ReplicationReducesOneHopFetches) {
  auto events = workload::GenerateFriendster(
      {.num_nodes = 1'500, .num_edges = 6'000, .community_size = 100});

  auto run = [&](bool replicate) {
    auto cluster = std::make_unique<Cluster>(FastCluster());
    TGIOptions opts = SmallOptions();
    opts.partition_strategy = PartitionStrategy::kLocality;
    opts.replicate_one_hop = replicate;
    TGI tgi(cluster.get(), opts);
    EXPECT_TRUE(tgi.BuildFrom(events).ok());
    auto qm = tgi.OpenQueryManager().value();
    Timestamp t = workload::EndTime(events);
    Graph final_state = workload::ReplayToGraph(events, t);
    Rng rng(9);
    auto ids = final_state.NodeIds();
    FetchStats stats;
    for (int i = 0; i < 30; ++i) {
      NodeId id = ids[rng.Uniform(ids.size())];
      EXPECT_TRUE(qm->GetKHopNeighborhood(id, t, 1, &stats).ok());
    }
    return stats.kv_requests;
  };

  uint64_t with_replication = run(true);
  uint64_t without_replication = run(false);
  EXPECT_LT(with_replication, without_replication);
}

}  // namespace
}  // namespace hgs
