// Replay oracle: the answers every benchmark operation is checked against,
// precomputed from the generated event stream before any timing starts.
//
// The stream is indexed once per node (sorted event times, edge partners,
// arrival time) and replayed once through ApplyEventToGraph, taking a
// structural digest of the graph at every timepoint a workload can ask for
// and the k-hop neighbourhoods of its k-hop pool.

#ifndef HGS_HGSBENCH_ORACLE_H_
#define HGS_HGSBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "delta/event.h"
#include "graph/graph.h"

namespace hgs::bench {

/// Order-independent digest of a graph: counts plus sums of mixed node and
/// edge identities (attributes included), so two graphs agree on it only
/// when they hold the same components with the same attributes.
struct GraphDigest {
  uint64_t nodes = 0;
  uint64_t edges = 0;
  uint64_t node_mix = 0;
  uint64_t edge_mix = 0;

  bool operator==(const GraphDigest&) const = default;
};

GraphDigest DigestOf(const Graph& g);

/// Count and time-sum of a set of events; checks a retrieved history
/// without materializing the expected one.
struct EventDigest {
  uint64_t count = 0;
  int64_t time_sum = 0;

  bool operator==(const EventDigest&) const = default;
};

struct KHopQuery {
  NodeId node = kInvalidNodeId;
  Timestamp time = 0;
};

class ReplayOracle {
 public:
  /// Indexes `events` per node. Node ids must be dense (every generator in
  /// workload/ numbers nodes 0, 1, 2, ...).
  explicit ReplayOracle(const std::vector<Event>& events);

  /// Replays `events` (the same stream) once, recording the graph digest at
  /// each of `times` and, with `k`, the digest of the k-hop neighbourhood
  /// (induced subgraph) of every pool entry. Every pool time must be in
  /// `times`.
  void Precompute(const std::vector<Event>& events,
                  const std::vector<Timestamp>& times,
                  const std::vector<KHopQuery>& khop_pool, int k);

  /// Digest of the graph as of t; nullptr when t was not precomputed.
  const GraphDigest* SnapshotAt(Timestamp t) const;
  /// Digest of the k-hop neighbourhood; nullptr when not in the pool.
  const GraphDigest* KHopAt(NodeId id, Timestamp t) const;

  /// Events touching `id` with from < time <= to.
  EventDigest NodeEvents(NodeId id, Timestamp from, Timestamp to) const;
  /// Distinct events touching any of `ids` with from < time <= to.
  EventDigest UnionEvents(const std::vector<NodeId>& ids, Timestamp from,
                          Timestamp to) const;
  /// Neighbours of `id` as of t, ascending.
  std::vector<NodeId> NeighborsAt(NodeId id, Timestamp t) const;
  /// Partners of `id`'s edge additions and removals with from < time <= to,
  /// ascending.
  std::vector<NodeId> EdgePartners(NodeId id, Timestamp from,
                                   Timestamp to) const;
  /// Time of the node's first AddNode; kMaxTimestamp when it never exists.
  Timestamp Arrival(NodeId id) const;
  /// Nodes whose first AddNode is at or before t, ascending by id (the
  /// generators remove no nodes, so these are the nodes present at t).
  std::vector<NodeId> ArrivedBy(Timestamp t) const;
  /// Exclusive upper bound of the node ids in the stream.
  NodeId IdBound() const { return static_cast<NodeId>(arrival_.size()); }

 private:
  struct NodeEvent {
    Timestamp time = 0;
    NodeId other = kInvalidNodeId;  ///< edge partner; invalid for node events
    EventType type = EventType::kAddNode;
  };

  /// The node's events with from < time <= to.
  std::pair<const NodeEvent*, const NodeEvent*> Range(NodeId id,
                                                      Timestamp from,
                                                      Timestamp to) const;

  std::vector<std::vector<NodeEvent>> per_node_;
  std::vector<Timestamp> arrival_;
  std::map<Timestamp, GraphDigest> snapshots_;
  std::map<std::pair<NodeId, Timestamp>, GraphDigest> khop_;
};

}  // namespace hgs::bench

#endif  // HGS_HGSBENCH_ORACLE_H_
