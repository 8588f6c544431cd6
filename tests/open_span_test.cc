// The newest timespan stays open across appends. These tests check that
// every read API agrees with the replay oracle while a span is open and
// after it closes, across the index configurations and the three codecs;
// that an append never rewrites a stored deltas row other than the open
// span's partial last eventlist; that BulkLoad leaves a trailing partial
// span open exactly as BuildFrom does; that an append of whole eventlists
// keeps the open span's rows cached; and that a query never sees events a
// build has written but not yet published.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "graph/algorithms.h"
#include "kvstore/cluster.h"
#include "taf/context.h"
#include "tgi/layout.h"
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

// A growth-plus-churn history with attribute events.
std::vector<Event> History(uint64_t seed, uint64_t n) {
  workload::WikiGrowthOptions w;
  w.num_events = n / 2;
  w.attr_event_prob = 0.2;
  w.seed = seed;
  return workload::AugmentWithChurn(workload::GenerateWikiGrowth(w),
                                    {.num_events = n / 2, .seed = seed + 1});
}

// Spans of 300 events, eventlists of 20, a checkpoint every 60 events.
TGIOptions SpanOptions() {
  TGIOptions opts;
  opts.events_per_timespan = 300;
  opts.eventlist_size = 20;
  opts.checkpoint_interval = 60;
  opts.micro_delta_size = 32;
  opts.num_horizontal_partitions = 2;
  return opts;
}

void SetCodec(TGIOptions* opts, CompressionKind codec) {
  opts->row_compression = codec;
  opts->eventlist_compression = codec;
  opts->versions_compression = codec;
}

// After a span-aligned prefix of 600 events, the append sizes: one event
// (opens a span), part of an eventlist, exactly one eventlist, more than a
// span (closes the open span and opens the next), then the same again, and
// finally the rest of the open span, which closes it.
constexpr size_t kPrefix = 600;
constexpr size_t kAppends[] = {1, 7, 20, 350, 1, 13, 20, 400, 88};

// The state of `id` as read (record and incident edges) against the
// replay's.
void ExpectNodeState(const Delta& got, const Graph& want, NodeId id) {
  const auto* rec = got.FindNode(id);
  const bool present = rec != nullptr && rec->has_value();
  ASSERT_EQ(present, want.HasNode(id)) << "node " << id;
  if (!present) return;
  EXPECT_EQ((*rec)->attrs, want.GetNode(id)->attrs) << "node " << id;
  std::map<NodeId, EdgeRecord> edges;
  got.ForEachEdgeEntry(
      [&](const EdgeKey& key, const std::optional<EdgeRecord>& e) {
        if (e.has_value() && (key.u == id || key.v == id)) {
          edges.emplace(key.u == id ? key.v : key.u, *e);
        }
      });
  ASSERT_EQ(edges.size(), want.Neighbors(id).size()) << "node " << id;
  for (const auto& [n, e] : edges) {
    const EdgeRecord* w = want.GetEdge(id, n);
    ASSERT_NE(w, nullptr) << "edge " << id << "-" << n;
    EXPECT_TRUE(*w == e) << "edge " << id << "-" << n;
  }
}

// GetKHopNeighborhood's contract (query.h): the BFS ball with exact
// records; every edge is an induced edge with its record; with 1-hop
// replication an induced edge may be missing only between last-ring nodes.
void ExpectKHopContract(const Graph& hood, const Graph& snapshot,
                        NodeId center, int k, bool replicated) {
  std::unordered_map<NodeId, int> dist =
      algo::BfsDistances(snapshot, center, k);
  std::unordered_set<NodeId> ball;
  for (const auto& [n, d] : dist) ball.insert(n);
  Graph induced = Delta::FromGraph(snapshot).FilterByNodes(ball).ToGraph();
  if (!replicated) {
    EXPECT_TRUE(hood == induced) << "center " << center << " k=" << k;
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
    ASSERT_NE(want, nullptr) << "extra edge " << key.u << "-" << key.v;
    EXPECT_TRUE(*want == rec) << "edge " << key.u << "-" << key.v;
  });
  induced.ForEachEdge([&](const EdgeKey& key, const EdgeRecord&) {
    if (hood.HasEdge(key.u, key.v)) return;
    EXPECT_TRUE(dist.at(key.u) == k && dist.at(key.v) == k)
        << "center " << center << " lacks edge " << key.u << "-" << key.v;
  });
}

// The log's events touching `id` in (from, to], in log order.
std::vector<Event> TouchingEvents(const std::vector<Event>& log, NodeId id,
                                  Timestamp from, Timestamp to) {
  std::vector<Event> out;
  for (const Event& e : log) {
    if (e.time > from && e.time <= to && e.Touches(id)) out.push_back(e);
  }
  return out;
}

// The highest-degree node of `g` and `n` more sampled from it.
std::vector<NodeId> Sample(const Graph& g, size_t n, uint64_t seed) {
  std::vector<NodeId> ids = g.NodeIds();
  if (ids.empty()) return ids;
  std::vector<NodeId> out{algo::HighestDegreeNode(g)};
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) out.push_back(ids[rng.Uniform(ids.size())]);
  return out;
}

void ExpectHistory(const NodeHistory& got, const std::vector<Event>& log,
                   NodeId id) {
  const Graph at_from = workload::ReplayToGraph(log, got.from);
  ExpectNodeState(got.initial, at_from, id);
  EXPECT_EQ(got.events.events(), TouchingEvents(log, id, got.from, got.to))
      << "node " << id << " over (" << got.from << ", " << got.to << "]";
}

// Every read API at `probes` and over windows between them, against the
// replay of `log` (everything appended so far).
void ExpectReadsMatchReplay(TGIQueryManager* qm, const std::vector<Event>& log,
                            std::vector<Timestamp> probes, bool replicated) {
  std::sort(probes.begin(), probes.end());
  std::vector<Graph> want;
  for (Timestamp t : probes) want.push_back(workload::ReplayToGraph(log, t));

  auto multi = qm->GetMultipointSnapshots(probes);
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  for (size_t i = 0; i < probes.size(); ++i) {
    SCOPED_TRACE("t=" + std::to_string(probes[i]));
    auto snap = qm->GetSnapshot(probes[i]);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    EXPECT_TRUE(*snap == want[i]);
    EXPECT_TRUE((*multi)[i] == want[i]);
    for (NodeId id : Sample(want[i], 3, static_cast<uint64_t>(probes[i]))) {
      auto state = qm->GetNodeStateDelta(id, probes[i]);
      ASSERT_TRUE(state.ok());
      ExpectNodeState(*state, want[i], id);
      auto hood = qm->GetKHopNeighborhood(id, probes[i], 2);
      ASSERT_TRUE(hood.ok());
      ExpectKHopContract(*hood, want[i], id, 2, replicated);
    }
  }

  taf::TAFContext ctx(qm, 2);
  for (size_t w = 0; w + 1 < probes.size(); ++w) {
    const Timestamp from = probes[w];
    const Timestamp to = probes.back();
    SCOPED_TRACE("window (" + std::to_string(from) + ", " +
                 std::to_string(to) + "]");
    const Graph& at_from = want[w];
    std::vector<NodeId> ids = Sample(at_from, 4, static_cast<uint64_t>(to));
    for (const Event& e : log) {
      if (e.type == EventType::kAddNode && e.time > from &&
          !at_from.HasNode(e.u)) {
        ids.push_back(e.u);  // an arrival
        break;
      }
    }
    ids.push_back(1'000'000'000);  // never existed

    auto bulk = qm->GetNodeHistories(ids, from, to);
    ASSERT_TRUE(bulk.ok());
    for (size_t k = 0; k < ids.size(); ++k) {
      auto single = qm->GetNodeHistory(ids[k], from, to);
      ASSERT_TRUE(single.ok());
      ExpectHistory(*single, log, ids[k]);
      EXPECT_TRUE((*bulk)[k].initial == single->initial) << "node " << ids[k];
      EXPECT_TRUE((*bulk)[k].events == single->events) << "node " << ids[k];
    }
    auto where = qm->GetNodeHistoriesWhere(
        from, to, [](NodeId id, const NodeRecord*) { return id % 3 == 0; });
    ASSERT_TRUE(where.ok());
    std::set<NodeId> want_where;
    for (NodeId id : at_from.NodeIds()) {
      if (id % 3 == 0) want_where.insert(id);
    }
    for (const Event& e : log) {
      if (e.type == EventType::kAddNode && e.time > from && e.time <= to &&
          e.u % 3 == 0 && !at_from.HasNode(e.u)) {
        want_where.insert(e.u);
      }
    }
    ASSERT_EQ(where->size(), want_where.size());
    for (const NodeHistory& h : *where) {
      EXPECT_TRUE(want_where.contains(h.node)) << "node " << h.node;
      ExpectHistory(h, log, h.node);
    }

    const NodeId hub = ids.front();
    auto onehop = qm->GetOneHopHistory(hub, from, to);
    ASSERT_TRUE(onehop.ok());
    ExpectHistory(onehop->center, log, hub);
    std::set<NodeId> want_nbrs;
    for (NodeId n : at_from.Neighbors(hub)) want_nbrs.insert(n);
    for (const Event& e : TouchingEvents(log, hub, from, to)) {
      if (e.type == EventType::kAddEdge) {
        want_nbrs.insert(e.u == hub ? e.v : e.u);
      }
    }
    std::set<NodeId> got_nbrs;
    for (const NodeHistory& h : onehop->neighbors) {
      got_nbrs.insert(h.node);
      ExpectHistory(h, log, h.node);
    }
    EXPECT_EQ(got_nbrs, want_nbrs);

    auto range = qm->GetEventsInRange(from, to);
    ASSERT_TRUE(range.ok());
    std::vector<Event> want_range;
    for (const Event& e : log) {
      if (e.time > from && e.time <= to) want_range.push_back(e);
    }
    std::sort(want_range.begin(), want_range.end(), EventTotalOrder);
    want_range.erase(std::unique(want_range.begin(), want_range.end()),
                     want_range.end());
    EXPECT_EQ(*range, want_range);

    // TAF versions: node states and one-hop subgraphs at both window ends.
    const Graph at_to = workload::ReplayToGraph(log, to);
    auto son = ctx.Nodes().TimeRange(from, to).WithIds(ids).Fetch();
    ASSERT_TRUE(son.ok()) << son.status().ToString();
    for (const taf::NodeT& n : son->nodes()) {
      for (const Graph* g : {&at_from, &at_to}) {
        const Timestamp t = g == &at_from ? from : to;
        const taf::StaticNodeView v = n.GetStateAt(t);
        ASSERT_EQ(v.exists, g->HasNode(n.id())) << "node " << n.id();
        if (!v.exists) continue;
        EXPECT_EQ(v.attrs, g->GetNode(n.id())->attrs) << "node " << n.id();
        std::vector<NodeId> nbrs = g->Neighbors(n.id());
        std::sort(nbrs.begin(), nbrs.end());
        EXPECT_EQ(v.neighbors, nbrs) << "node " << n.id() << " t=" << t;
      }
    }
    std::vector<NodeId> seeds(ids.begin(), ids.begin() + 3);
    auto sots = ctx.Subgraphs(1).TimeRange(from, to).WithSeeds(seeds).Fetch();
    ASSERT_TRUE(sots.ok()) << sots.status().ToString();
    for (size_t i = 0; i < seeds.size(); ++i) {
      const taf::SubgraphT& sg = sots->subgraphs()[i];
      std::unordered_set<NodeId> members{seeds[i]};
      if (at_from.HasNode(seeds[i])) {
        for (const auto& [n, d] : algo::BfsDistances(at_from, seeds[i], 1)) {
          members.insert(n);
        }
      }
      ASSERT_EQ(sg.members(), members) << "seed " << seeds[i];
      auto induced = [&](const Graph& g) {
        return Delta::FromGraph(g).FilterByNodes(members).ToGraph();
      };
      EXPECT_TRUE(sg.GetVersionAt(from) == induced(at_from))
          << "seed " << seeds[i];
      EXPECT_TRUE(sg.GetVersionAt(to) == induced(at_to)) << "seed " << seeds[i];
    }
  }
}

using OpenSpanConfig = std::tuple<PartitionStrategy, ClusteringOrder, bool>;

class OpenSpanOracleTest : public ::testing::TestWithParam<OpenSpanConfig> {};

TEST_P(OpenSpanOracleTest, EveryReadMatchesReplayWhileOpenAndAfterClose) {
  const auto [strategy, order, replicated] = GetParam();
  TGIOptions opts = SpanOptions();
  opts.partition_strategy = strategy;
  opts.clustering_order = order;
  opts.replicate_one_hop = replicated;
  // The eight configurations cycle through the three codecs.
  const int index = (strategy == PartitionStrategy::kLocality ? 4 : 0) +
                    (order == ClusteringOrder::kPartitionMajor ? 2 : 0) +
                    (replicated ? 1 : 0);
  const CompressionKind codecs[] = {CompressionKind::kNone,
                                    CompressionKind::kLz,
                                    CompressionKind::kColumnar};
  SetCodec(&opts, codecs[index % 3]);

  Cluster cluster(FastCluster());
  TGI tgi(&cluster, opts);
  const std::vector<Event> events = History(211, 1'500);
  std::vector<Event> log(events.begin(), events.begin() + kPrefix);
  ASSERT_TRUE(tgi.BuildFrom(log).ok());
  auto qm_or = tgi.OpenQueryManager(2);
  ASSERT_TRUE(qm_or.ok());
  TGIQueryManager* qm = qm_or->get();

  for (size_t size : kAppends) {
    const auto begin = events.begin() + static_cast<long>(log.size());
    const std::vector<Event> batch(begin, begin + static_cast<long>(size));
    ASSERT_TRUE(tgi.AppendBatch(batch).ok());
    log.insert(log.end(), batch.begin(), batch.end());
    SCOPED_TRACE("after " + std::to_string(log.size()) + " events");
    // A time in a closed span, one in the middle of the newest span (open
    // until the last append closes it), the newest time, and one past it.
    const size_t newest = (log.size() - 1) / opts.events_per_timespan *
                          opts.events_per_timespan;
    const Timestamp end = log.back().time;
    ExpectReadsMatchReplay(qm, log,
                           {log[log.size() / 3].time,
                            log[(newest + log.size() - 1) / 2].time, end,
                            end + 5},
                           replicated);
  }
  // The last append filled the open span, which closed; its successor is
  // open with no events yet, and the reads above at the newest time were
  // served from its root.
  EXPECT_EQ(log.size(), events.size());
  EXPECT_EQ(tgi.builder()->timespans_built(), 6u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, OpenSpanOracleTest,
    ::testing::Combine(::testing::Values(PartitionStrategy::kRandom,
                                         PartitionStrategy::kLocality),
                       ::testing::Values(ClusteringOrder::kDeltaMajor,
                                         ClusteringOrder::kPartitionMajor),
                       ::testing::Bool()));

// Every deltas-table row, by (partition, row key).
std::map<std::pair<uint64_t, std::string>, std::string> DeltaRows(
    Cluster* cluster, size_t spans, size_t ns) {
  std::map<std::pair<uint64_t, std::string>, std::string> out;
  for (size_t tsid = 0; tsid < spans; ++tsid) {
    for (size_t sid = 0; sid < ns; ++sid) {
      const uint64_t part = tgi::DeltaPlacement(
          static_cast<TimespanId>(tsid), static_cast<PartitionId>(sid), ns);
      auto rows = cluster->Scan(tgi::kDeltasTable, part, "");
      EXPECT_TRUE(rows.ok());
      if (!rows.ok()) continue;
      for (const KVPair& kv : *rows) {
        out.emplace(std::make_pair(part, kv.key), std::string(kv.value.view()));
      }
    }
  }
  return out;
}

// The index of the last eventlist each span's stored TimespanMeta lists.
std::map<TimespanId, size_t> LastEventlists(Cluster* cluster) {
  std::map<TimespanId, size_t> out;
  auto rows = cluster->Scan(tgi::kTimespansTable, 0, "");
  EXPECT_TRUE(rows.ok());
  for (const KVPair& kv : *rows) {
    auto meta = tgi::TimespanMeta::Deserialize(kv.value.view());
    EXPECT_TRUE(meta.ok());
    if (meta.ok()) out[meta->tsid] = meta->eventlist_bounds.size() - 1;
  }
  return out;
}

TEST(OpenSpanTest, AppendsNeverChangeWhatAStoredRowMeans) {
  TGIOptions opts = SpanOptions();
  opts.replicate_one_hop = true;  // aux rows too
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, opts);
  const std::vector<Event> events = History(223, 1'500);
  size_t pos = kPrefix;
  ASSERT_TRUE(
      tgi.BuildFrom({events.begin(), events.begin() + static_cast<long>(pos)})
          .ok());
  const size_t ns = opts.num_horizontal_partitions;
  auto recorded = DeltaRows(&cluster, tgi.builder()->timespans_built(), ns);
  auto last_evl = LastEventlists(&cluster);
  size_t partial_rewrites = 0;
  for (size_t size : kAppends) {
    const auto begin = events.begin() + static_cast<long>(pos);
    ASSERT_TRUE(
        tgi.AppendBatch({begin, begin + static_cast<long>(size)}).ok());
    pos += size;
    auto now = DeltaRows(&cluster, tgi.builder()->timespans_built(), ns);
    for (const auto& [key, bytes] : recorded) {
      auto it = now.find(key);
      ASSERT_NE(it, now.end()) << "row deleted";
      if (it->second == bytes) continue;
      // Only the partial last eventlist of a span may change, and then only
      // by gaining later events.
      DeltaId did = 0;
      MicroPartitionId pid = 0;
      bool aux = false;
      ASSERT_TRUE(tgi::ParseDeltaRowKey(opts.clustering_order, key.second,
                                        &did, &pid, &aux));
      ASSERT_GE(did, tgi::kEventlistDidBase)
          << "tree row " << did << " changed";
      const auto tsid = static_cast<TimespanId>(key.first / ns);
      ASSERT_EQ(did - tgi::kEventlistDidBase, last_evl.at(tsid))
          << "a full eventlist changed";
      auto before = EventList::Deserialize(bytes);
      auto after = EventList::Deserialize(it->second);
      ASSERT_TRUE(before.ok() && after.ok());
      ASSERT_LT(before->size(), after->size());
      const std::vector<Event>& old_events = before->events();
      const std::vector<Event>& new_events = after->events();
      EXPECT_TRUE(std::equal(old_events.begin(), old_events.end(),
                             new_events.begin()));
      for (size_t i = old_events.size(); i < new_events.size(); ++i) {
        EXPECT_GE(new_events[i].time, old_events.back().time);
      }
      ++partial_rewrites;
    }
    recorded = std::move(now);
    last_evl = LastEventlists(&cluster);
  }
  EXPECT_GT(partial_rewrites, 0u);
}

TEST(OpenSpanTest, BulkLoadLeavesTheTrailingSpanOpenAsBuildFromDoes) {
  const std::vector<Event> events = History(227, 1'000);  // 3 spans + 100
  const CompressionKind codecs[] = {CompressionKind::kNone,
                                    CompressionKind::kLz,
                                    CompressionKind::kColumnar};
  for (CompressionKind codec : codecs) {
    for (size_t threads : {1, 8}) {
      SCOPED_TRACE("codec " + std::to_string(static_cast<int>(codec)) +
                   ", threads " + std::to_string(threads));
      TGIOptions opts = SpanOptions();
      opts.ingest_threads = threads;
      opts.replicate_one_hop = true;
      SetCodec(&opts, codec);
      Cluster built(FastCluster());
      Cluster bulk(FastCluster());
      TGI by_build(&built, opts);
      TGI by_bulk(&bulk, opts);
      ASSERT_TRUE(by_build.BuildFrom(events).ok());
      ASSERT_TRUE(by_bulk.BulkLoad(events).ok());
      EXPECT_EQ(built.ContentFingerprint(), bulk.ContentFingerprint());
      EXPECT_EQ(built.TotalKeys(), bulk.TotalKeys());
      // The trailing span is open: a further append fills it in both, it
      // closes, and its successor opens with no events yet.
      std::vector<Event> more = History(229, 200);
      for (Event& e : more) e.time += events.back().time + 1;
      ASSERT_TRUE(by_build.AppendBatch(more).ok());
      ASSERT_TRUE(by_bulk.AppendBatch(more).ok());
      EXPECT_EQ(built.ContentFingerprint(), bulk.ContentFingerprint());
      EXPECT_EQ(by_build.builder()->timespans_built(), 5u);
      EXPECT_EQ(by_bulk.builder()->timespans_built(), 5u);
    }
  }
}

TEST(OpenSpanTest, AppendOfWholeEventlistsKeepsTheOpenSpanCached) {
  TGIOptions opts = SpanOptions();
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, opts);
  const std::vector<Event> events = History(233, 900);
  size_t pos = kPrefix;
  ASSERT_TRUE(
      tgi.BuildFrom({events.begin(), events.begin() + static_cast<long>(pos)})
          .ok());
  auto append = [&](size_t n) {
    const auto begin = events.begin() + static_cast<long>(pos);
    pos += n;
    return tgi.AppendBatch({begin, begin + static_cast<long>(n)});
  };
  ASSERT_TRUE(append(2 * opts.eventlist_size).ok());  // opens a span
  auto qm = tgi.OpenQueryManager(2).value();
  const Timestamp t = events[kPrefix + 30].time;  // inside the open span
  const Graph want = workload::ReplayToGraph(events, t);
  ASSERT_TRUE(qm->GetSnapshot(t).ok());  // warm

  // Whole eventlists: no stored row changes, so nothing re-fetches.
  ASSERT_TRUE(append(opts.eventlist_size).ok());
  FetchStats warm;
  auto snap = qm->GetSnapshot(t, &warm);
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(*snap == want);
  EXPECT_EQ(warm.kv_batches, 0u);
  EXPECT_EQ(warm.decodes, 0u);
  EXPECT_GT(warm.cache_entries_retained, 0u);

  // Part of an eventlist, twice: the second append rewrites the partial
  // eventlist the first one wrote, and its scope is published.
  ASSERT_TRUE(append(7).ok());
  const Timestamp t2 = events[pos - 1].time;
  const Graph want2 = workload::ReplayToGraph(events, t2);
  ASSERT_TRUE(qm->GetSnapshot(t2).ok());  // warm
  ASSERT_TRUE(append(5).ok());
  FetchStats refetch;
  auto snap2 = qm->GetSnapshot(t2, &refetch);
  ASSERT_TRUE(snap2.ok());
  EXPECT_TRUE(*snap2 == want2);
  EXPECT_GT(refetch.decodes, 0u);
  EXPECT_GT(refetch.cache_entries_invalidated, 0u);
  auto newest = qm->GetSnapshot(events[pos - 1].time);
  ASSERT_TRUE(newest.ok());
  EXPECT_TRUE(*newest == workload::ReplayToGraph(events, events[pos - 1].time));
}

// A query manager that refreshes after a publish may load span rows that a
// build wrote after that publish. Read up to the requested time, GetSnapshot
// would see those rows while GetNodeHistory serves a merged version chain
// cached under a versions scope no publish moved. Both must stop at the
// pinned GraphMeta::end.
TEST(PublishOrderTest, SnapshotAndHistoryAgreeBeforeABuildIsPublished) {
  TGIOptions opts = SpanOptions();
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, opts);
  const std::vector<Event> prefix = History(239, kPrefix);
  ASSERT_TRUE(tgi.BuildFrom(prefix).ok());
  auto qm = tgi.OpenQueryManager(2).value();

  // Warm the history of the busiest node.
  const Graph at_end = workload::ReplayToGraph(prefix, prefix.back().time);
  const NodeId n = algo::HighestDegreeNode(at_end);
  ASSERT_TRUE(qm->GetNodeHistory(n, 0, prefix.back().time).ok());

  // Publish one node whose versions scope differs from n's.
  NodeId other = 5'000'000;
  while (MakeEpochKey(tgi::kVersionsTable, tgi::NodePlacement(other)) ==
         MakeEpochKey(tgi::kVersionsTable, tgi::NodePlacement(n))) {
    ++other;
  }
  Timestamp t = prefix.back().time + 1;
  ASSERT_TRUE(tgi.AppendBatch({Event::AddNode(t, other)}).ok());

  // Ingest, without Finish, a span of edges to new neighbors of n.
  std::vector<Event> span;
  for (NodeId k = 0; span.size() < opts.events_per_timespan; ++k) {
    span.push_back(Event::AddNode(++t, 6'000'000 + k));
    span.push_back(Event::AddEdge(++t, n, 6'000'000 + k));
  }
  ASSERT_TRUE(tgi.builder()->Ingest(span).ok());

  const Timestamp probe = span[span.size() / 2].time;
  auto snap = qm->GetSnapshot(probe);
  ASSERT_TRUE(snap.ok());
  auto hist = qm->GetNodeHistory(n, 0, probe);
  ASSERT_TRUE(hist.ok());
  Delta state = hist->initial;
  for (const Event& e : hist->events.events()) state.ApplyEvent(e);
  size_t history_degree = 0;
  state.ForEachEdgeEntry(
      [&](const EdgeKey& key, const std::optional<EdgeRecord>& e) {
        if (e.has_value() && (key.u == n || key.v == n)) ++history_degree;
      });
  EXPECT_EQ(snap->Neighbors(n).size(), history_degree);
  // Both stop at the published end: the ingested span is not visible yet.
  EXPECT_EQ(history_degree, at_end.Neighbors(n).size());

  // Once published, both see it.
  ASSERT_TRUE(tgi.builder()->Finish().ok());
  std::vector<Event> log = prefix;
  log.push_back(Event::AddNode(prefix.back().time + 1, other));
  log.insert(log.end(), span.begin(), span.end());
  auto snap_after = qm->GetSnapshot(probe);
  ASSERT_TRUE(snap_after.ok());
  EXPECT_TRUE(*snap_after == workload::ReplayToGraph(log, probe));
  auto hist_after = qm->GetNodeHistory(n, 0, probe);
  ASSERT_TRUE(hist_after.ok());
  EXPECT_EQ(hist_after->events.events(), TouchingEvents(log, n, 0, probe));
}

}  // namespace
}  // namespace hgs
