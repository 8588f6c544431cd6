#include "oracle.h"

#include <algorithm>
#include <functional>
#include <set>
#include <string>

#include "graph/algorithms.h"

namespace hgs::bench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t AttrMix(const Attributes& attrs) {
  uint64_t h = 0;
  for (const auto& [key, value] : attrs.entries()) {
    h += Mix(std::hash<std::string>{}(key) * 31 +
             std::hash<std::string>{}(value));
  }
  return h;
}

}  // namespace

GraphDigest DigestOf(const Graph& g) {
  GraphDigest d;
  g.ForEachNode([&](NodeId id, const NodeRecord& rec) {
    d.nodes++;
    d.node_mix += Mix(Mix(id) ^ AttrMix(rec.attrs));
  });
  g.ForEachEdge([&](const EdgeKey& key, const EdgeRecord& rec) {
    d.edges++;
    d.edge_mix += Mix(Mix(key.u) ^ Mix(key.v + 1) ^ Mix(rec.src + 2) ^
                      (rec.directed ? 1u : 0u) ^ AttrMix(rec.attrs));
  });
  return d;
}

ReplayOracle::ReplayOracle(const std::vector<Event>& events) {
  NodeId bound = 0;
  for (const Event& e : events) {
    bound = std::max(bound, e.u + 1);
    if (e.IsEdgeEvent()) bound = std::max(bound, e.v + 1);
  }
  per_node_.resize(bound);
  arrival_.assign(bound, kMaxTimestamp);
  for (const Event& e : events) {
    if (e.IsNodeEvent()) {
      per_node_[e.u].push_back(NodeEvent{e.time, kInvalidNodeId, e.type});
      if (e.type == EventType::kAddNode) {
        arrival_[e.u] = std::min(arrival_[e.u], e.time);
      }
    } else {
      per_node_[e.u].push_back(NodeEvent{e.time, e.v, e.type});
      per_node_[e.v].push_back(NodeEvent{e.time, e.u, e.type});
    }
  }
}

void ReplayOracle::Precompute(const std::vector<Event>& events,
                              const std::vector<Timestamp>& times,
                              const std::vector<KHopQuery>& khop_pool,
                              int k) {
  std::vector<Timestamp> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::multimap<Timestamp, NodeId> pool_by_time;
  for (const KHopQuery& q : khop_pool) pool_by_time.emplace(q.time, q.node);

  Graph g;
  size_t next = 0;
  auto record = [&](Timestamp t) {
    snapshots_[t] = DigestOf(g);
    auto [lo, hi] = pool_by_time.equal_range(t);
    for (auto it = lo; it != hi; ++it) {
      const NodeId src = it->second;
      khop_[{src, t}] =
          g.HasNode(src)
              ? DigestOf(algo::InducedSubgraph(
                    g, algo::KHopNeighborhood(g, src, k)))
              : GraphDigest{};
    }
  };
  for (const Event& e : events) {
    while (next < sorted.size() && sorted[next] < e.time) {
      record(sorted[next++]);
    }
    ApplyEventToGraph(e, &g);
  }
  while (next < sorted.size()) record(sorted[next++]);
}

const GraphDigest* ReplayOracle::SnapshotAt(Timestamp t) const {
  auto it = snapshots_.find(t);
  return it == snapshots_.end() ? nullptr : &it->second;
}

const GraphDigest* ReplayOracle::KHopAt(NodeId id, Timestamp t) const {
  auto it = khop_.find({id, t});
  return it == khop_.end() ? nullptr : &it->second;
}

std::pair<const ReplayOracle::NodeEvent*, const ReplayOracle::NodeEvent*>
ReplayOracle::Range(NodeId id, Timestamp from, Timestamp to) const {
  if (id >= per_node_.size() || to <= from) return {nullptr, nullptr};
  const std::vector<NodeEvent>& evs = per_node_[id];
  auto lo = std::upper_bound(
      evs.begin(), evs.end(), from,
      [](Timestamp t, const NodeEvent& e) { return t < e.time; });
  auto hi = std::upper_bound(
      lo, evs.end(), to,
      [](Timestamp t, const NodeEvent& e) { return t < e.time; });
  return {evs.data() + (lo - evs.begin()), evs.data() + (hi - evs.begin())};
}

EventDigest ReplayOracle::NodeEvents(NodeId id, Timestamp from,
                                     Timestamp to) const {
  EventDigest d;
  auto [lo, hi] = Range(id, from, to);
  for (const NodeEvent* e = lo; e != hi; ++e) {
    d.count++;
    d.time_sum += e->time;
  }
  return d;
}

EventDigest ReplayOracle::UnionEvents(const std::vector<NodeId>& ids,
                                      Timestamp from, Timestamp to) const {
  // Generated streams have strictly increasing timestamps, so an event is
  // identified by its time.
  std::vector<Timestamp> times;
  for (NodeId id : ids) {
    auto [lo, hi] = Range(id, from, to);
    for (const NodeEvent* e = lo; e != hi; ++e) times.push_back(e->time);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  EventDigest d;
  for (Timestamp t : times) {
    d.count++;
    d.time_sum += t;
  }
  return d;
}

std::vector<NodeId> ReplayOracle::NeighborsAt(NodeId id, Timestamp t) const {
  std::set<NodeId> live;
  auto [lo, hi] = Range(id, kMinTimestamp, t);
  for (const NodeEvent* e = lo; e != hi; ++e) {
    if (e->type == EventType::kAddEdge) {
      live.insert(e->other);
    } else if (e->type == EventType::kRemoveEdge) {
      live.erase(e->other);
    } else if (e->type == EventType::kRemoveNode) {
      live.clear();
    }
  }
  return {live.begin(), live.end()};
}

std::vector<NodeId> ReplayOracle::EdgePartners(NodeId id, Timestamp from,
                                               Timestamp to) const {
  std::vector<NodeId> out;
  auto [lo, hi] = Range(id, from, to);
  for (const NodeEvent* e = lo; e != hi; ++e) {
    if (e->type == EventType::kAddEdge || e->type == EventType::kRemoveEdge) {
      out.push_back(e->other);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Timestamp ReplayOracle::Arrival(NodeId id) const {
  return id < arrival_.size() ? arrival_[id] : kMaxTimestamp;
}

std::vector<NodeId> ReplayOracle::ArrivedBy(Timestamp t) const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < arrival_.size(); ++id) {
    if (arrival_[id] <= t) out.push_back(id);
  }
  return out;
}

}  // namespace hgs::bench
