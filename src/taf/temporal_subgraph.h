// SubgraphT: the sequence of states of a subgraph (typically a k-hop
// neighborhood) over a time range — an initial subgraph snapshot plus the
// events touching its members. Membership is frozen at the window start,
// the standard simplification for windowed neighborhood analytics; events
// that link members to outside nodes are retained (they change member
// degrees) but outside nodes never join the member set.

#ifndef HGS_TAF_TEMPORAL_SUBGRAPH_H_
#define HGS_TAF_TEMPORAL_SUBGRAPH_H_

#include <unordered_set>
#include <vector>

#include "delta/eventlist.h"
#include "graph/graph.h"

namespace hgs::taf {

class SubgraphT {
 public:
  SubgraphT() = default;
  SubgraphT(NodeId seed, std::unordered_set<NodeId> members, Delta initial,
            EventList events, Timestamp from, Timestamp to)
      : seed_(seed),
        members_(std::move(members)),
        initial_(std::move(initial)),
        events_(std::move(events)),
        from_(from),
        to_(to) {}

  NodeId seed() const { return seed_; }
  Timestamp GetStartTime() const { return from_; }
  Timestamp GetEndTime() const { return to_; }
  const std::unordered_set<NodeId>& members() const { return members_; }
  const EventList& events() const { return events_; }
  size_t VersionCount() const { return events_.size(); }

  std::vector<Timestamp> ChangePoints() const {
    std::vector<Timestamp> out;
    out.reserve(events_.size());
    for (const Event& e : events_.events()) out.push_back(e.time);
    return out;
  }

  /// Materialized member-induced subgraph as of t (GetVersionAt).
  Graph GetVersionAt(Timestamp t) const;

  /// Underlying state delta as of t (includes boundary edges).
  Delta GetStateDeltaAt(Timestamp t) const;

  /// Iterates versions chronologically, maintaining one rolling graph.
  /// `fn(time, graph)` is invoked for the initial state (at GetStartTime)
  /// and after each event.
  void ForEachVersion(
      const std::function<void(Timestamp, const Graph&)>& fn) const;

  /// Single-pass walk: `on_initial` sees the materialized state at the
  /// window start, then `before_event` sees (state before event, event) for
  /// each event. One rolling graph — this is what makes NodeComputeDelta
  /// O(N + T) rather than O(N·T).
  void Walk(const std::function<void(const Graph&)>& on_initial,
            const std::function<void(const Graph&, const Event&)>&
                before_event) const;

 private:
  Graph MaterializeMembers(const Delta& d) const;

  NodeId seed_ = kInvalidNodeId;
  std::unordered_set<NodeId> members_;
  Delta initial_;
  EventList events_;
  Timestamp from_ = 0;
  Timestamp to_ = 0;
};

}  // namespace hgs::taf

#endif  // HGS_TAF_TEMPORAL_SUBGRAPH_H_
