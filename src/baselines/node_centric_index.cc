#include "baselines/node_centric_index.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/thread_pool.h"
#include "graph/algorithms.h"
#include "kvstore/kv_types.h"

namespace hgs {

namespace {
constexpr std::string_view kStreamTable = "node_streams";

uint64_t NodeToken(NodeId id) {
  uint64_t h = id * 0xC2B2AE3D27D4EB4Full;
  return h ^ (h >> 31);
}

std::string NodeKey(NodeId id) {
  std::string key;
  AppendOrdered64(&key, id);
  return key;
}

}  // namespace

Status NodeCentricIndex::Build(const std::vector<Event>& events) {
  std::unordered_map<NodeId, EventList> streams;
  std::unordered_set<NodeId> seen;
  all_nodes_.clear();
  for (const Event& e : events) {
    streams[e.u].Append(e);
    if (seen.insert(e.u).second) all_nodes_.push_back(e.u);
    if (e.IsEdgeEvent() && e.v != e.u) {
      streams[e.v].Append(e);
      if (seen.insert(e.v).second) all_nodes_.push_back(e.v);
    }
  }
  std::sort(all_nodes_.begin(), all_nodes_.end());
  for (auto& [id, stream] : streams) {
    stream.SetScope(events.front().time - 1, events.back().time);
    HGS_RETURN_NOT_OK(cluster_->Put(kStreamTable, NodeToken(id), NodeKey(id),
                                    stream.Serialize()));
  }
  return Status::OK();
}

Result<EventList> NodeCentricIndex::FetchStream(NodeId id, FetchStats* stats) {
  auto raw = cluster_->Get(kStreamTable, NodeToken(id), NodeKey(id));
  if (stats != nullptr) ++stats->kv_requests;
  if (!raw.ok()) {
    if (raw.status().IsNotFound()) return EventList();
    return raw.status();
  }
  if (stats != nullptr) {
    ++stats->micro_deltas;
    stats->bytes += raw->size();
  }
  return EventList::Deserialize(*raw);
}

Result<Graph> NodeCentricIndex::GetSnapshot(Timestamp t, FetchStats* stats) {
  // No time-centric access path: fetch every node's stream and replay the
  // node-local view. Edge events are deduplicated by the Graph structure.
  Graph g;
  Mutex mu;
  std::atomic<bool> failed{false};
  Status first_error;
  FetchStats agg;
  ParallelFor(all_nodes_.size(), 8, [&](size_t i) {
    if (failed.load(std::memory_order_relaxed)) return;
    FetchStats local;
    auto stream = FetchStream(all_nodes_[i], &local);
    MutexLock lock(mu);
    agg.Merge(local);
    if (!stream.ok()) {
      if (!failed.exchange(true)) first_error = stream.status();
      return;
    }
    stream->ApplyUpTo(t, &g);
  });
  if (stats != nullptr) stats->Merge(agg);
  if (failed.load()) return first_error;
  return g;
}

Result<Delta> NodeCentricIndex::GetNodeStateDelta(NodeId id, Timestamp t,
                                                  FetchStats* stats) {
  HGS_ASSIGN_OR_RETURN(EventList stream, FetchStream(id, stats));
  Delta d;
  stream.ApplyUpTo(t, &d);
  return d.FilterById(id);
}

Result<NodeHistory> NodeCentricIndex::GetNodeHistory(NodeId id,
                                                     Timestamp from,
                                                     Timestamp to,
                                                     FetchStats* stats) {
  HGS_ASSIGN_OR_RETURN(EventList stream, FetchStream(id, stats));
  NodeHistory out;
  out.node = id;
  out.from = from;
  out.to = to;
  out.events.SetScope(from, to);
  Delta init;
  for (const Event& e : stream.events()) {
    if (e.time <= from) {
      init.ApplyEvent(e);
    } else if (e.time <= to && e.Touches(id)) {
      out.events.Append(e);
    }
  }
  out.initial = init.FilterById(id);
  return out;
}

Result<Graph> NodeCentricIndex::GetOneHop(NodeId id, Timestamp t,
                                          FetchStats* stats) {
  // Fetch the node's stream, replay to find neighbors, then fetch each
  // neighbor's stream (Table 1's |R|·|V| cost).
  HGS_ASSIGN_OR_RETURN(EventList stream, FetchStream(id, stats));
  Delta acc;
  stream.ApplyUpTo(t, &acc);
  std::unordered_set<NodeId> hood{id};
  acc.ForEachEdgeEntry(
      [&](const EdgeKey& key, const std::optional<EdgeRecord>& rec) {
        if (!rec.has_value()) return;
        if (key.u == id) hood.insert(key.v);
        if (key.v == id) hood.insert(key.u);
      });
  for (NodeId n : hood) {
    if (n == id) continue;
    HGS_ASSIGN_OR_RETURN(EventList ns, FetchStream(n, stats));
    ns.ApplyUpTo(t, &acc);
  }
  // Induced subgraph on the one-hop neighborhood.
  return acc.FilterByNodes(hood).ToGraph();
}

uint64_t NodeCentricIndex::StorageBytes() const {
  return cluster_->TotalStoredBytes();
}

}  // namespace hgs
