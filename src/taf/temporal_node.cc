#include "taf/temporal_node.h"

#include <algorithm>

namespace hgs::taf {

std::vector<Timestamp> NodeT::ChangePoints() const {
  std::vector<Timestamp> out;
  out.reserve(history_.events.size());
  for (const Event& e : history_.events.events()) out.push_back(e.time);
  return out;
}

// ForEachEdgeEntry visits keys in ascending order, and one node's incident
// keys in that order have ascending neighbor ids, so the vectors come out
// sorted and paired without a sort.
StaticNodeView NodeT::ViewFromDelta(NodeId id, const Delta& d) {
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
  return view;
}

StaticNodeView NodeT::GetStateAt(Timestamp t) const {
  Iterator it(this);
  while (it.HasNextEvent() && it.PeekNextEvent().time <= t) it.GetNextEvent();
  return std::move(it.view_);
}

std::vector<std::pair<Timestamp, StaticNodeView>> NodeT::GetVersions() const {
  std::vector<std::pair<Timestamp, StaticNodeView>> out;
  out.reserve(history_.events.size() + 1);
  Iterator it(this);
  out.emplace_back(it.CurrentTime(), it.CurrentVersion());
  while (it.HasNextEvent()) {
    const StaticNodeView& v = it.GetNextVersion();
    out.emplace_back(it.CurrentTime(), v);
  }
  return out;
}

std::vector<NodeId> NodeT::GetNeighborIDsAt(Timestamp t) const {
  return GetStateAt(t).neighbors;
}

NodeT::Iterator::Iterator(const NodeT* node)
    : node_(node),
      view_(ViewFromDelta(node->history_.node, node->history_.initial)),
      time_(node->history_.from) {}

const Event& NodeT::Iterator::PeekNextEvent() const {
  return node_->history_.events.events()[next_];
}

const StaticNodeView& NodeT::Iterator::GetNextVersion() {
  GetNextEvent();
  return view_;
}

const Event& NodeT::Iterator::GetNextEvent() {
  const Event& e = node_->history_.events.events()[next_++];
  Apply(e);
  time_ = e.time;
  return e;
}

void NodeT::Iterator::Apply(const Event& e) {
  StaticNodeView& v = view_;
  if (e.IsNodeEvent() && e.u == v.id) {
    switch (e.type) {
      case EventType::kAddNode:
        v.exists = true;
        v.attrs = e.attrs;
        break;
      case EventType::kRemoveNode:
        v.exists = false;
        v.attrs = Attributes();
        v.neighbors.clear();
        v.edges.clear();
        break;
      case EventType::kSetNodeAttr:
        // An absent node's attrs are empty, so this creates the node with
        // only this attribute.
        v.exists = true;
        v.attrs.Set(e.key, e.value);
        break;
      default:  // kDelNodeAttr: a no-op on an absent node
        v.attrs.Erase(e.key);
        break;
    }
    return;
  }
  // What remains changes at most the edge to `other`: an edge event on an
  // incident edge, or the removal of a neighbor, which tombstones every
  // edge incident to that neighbor.
  if (e.IsNodeEvent() ? e.type != EventType::kRemoveNode
                      : !e.Touches(v.id)) {
    return;
  }
  const NodeId other = e.u == v.id ? e.v : e.u;
  auto pos = std::lower_bound(v.neighbors.begin(), v.neighbors.end(), other);
  const auto i = pos - v.neighbors.begin();
  const bool present = pos != v.neighbors.end() && *pos == other;
  switch (e.type) {
    case EventType::kRemoveNode:
    case EventType::kRemoveEdge:
      if (present) {
        v.neighbors.erase(pos);
        v.edges.erase(v.edges.begin() + i);
      }
      break;
    case EventType::kDelEdgeAttr:
      if (present) v.edges[i].attrs.Erase(e.key);
      break;
    default:  // kAddEdge, kSetEdgeAttr: both create a missing edge as (u, v)
      if (!present) {
        v.neighbors.insert(pos, other);
        v.edges.insert(v.edges.begin() + i,
                       EdgeRecord{.src = e.u, .dst = e.v,
                                  .directed = e.directed, .attrs = {}});
      }
      if (e.type == EventType::kSetEdgeAttr) {
        v.edges[i].attrs.Set(e.key, e.value);
      } else {
        v.edges[i] = EdgeRecord{.src = e.u, .dst = e.v,
                                .directed = e.directed, .attrs = e.attrs};
      }
      break;
  }
}

}  // namespace hgs::taf
