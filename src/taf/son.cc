#include "taf/son.h"

#include <algorithm>
#include <unordered_set>

namespace hgs::taf {

SoN SoN::Select(const std::function<bool(const NodeT&)>& pred) const {
  std::vector<NodeT> kept;
  for (const NodeT& n : nodes_) {
    if (pred(n)) kept.push_back(n);
  }
  return SoN(engine_, std::move(kept), from_, to_);
}

SoN SoN::SelectByAttr(std::string_view key, std::string_view value) const {
  return Select([&](const NodeT& n) {
    StaticNodeView v = n.GetStateAt(n.GetStartTime());
    auto got = v.attrs.Get(key);
    return got.has_value() && *got == value;
  });
}

SoN SoN::FilterAttributes(const std::vector<std::string>& keys) const {
  std::unordered_set<std::string> keep(keys.begin(), keys.end());
  auto project_attrs = [&](const Attributes& attrs) {
    Attributes out;
    for (const auto& [k, v] : attrs.entries()) {
      if (keep.contains(k)) out.Set(k, v);
    }
    return out;
  };
  std::vector<NodeT> projected(nodes_.size());
  engine_->ParallelOver(nodes_.size(), [&](size_t i) {
    const NodeHistory& h = nodes_[i].history();
    NodeHistory out;
    out.node = h.node;
    out.from = h.from;
    out.to = h.to;
    // Project the initial state's node records (edges untouched).
    h.initial.ForEachNodeEntry(
        [&](NodeId id, const std::optional<NodeRecord>& rec) {
          if (rec.has_value()) {
            out.initial.PutNode(id,
                                NodeRecord{.attrs = project_attrs(rec->attrs)});
          } else {
            out.initial.TombstoneNode(id);
          }
        });
    h.initial.ForEachEdgeEntry(
        [&](const EdgeKey& key, const std::optional<EdgeRecord>& rec) {
          if (rec.has_value()) {
            out.initial.PutEdge(key, *rec);
          } else {
            out.initial.TombstoneEdge(key);
          }
        });
    // Drop node-attribute events for projected-away keys.
    out.events.SetScope(h.events.after(), h.events.upto());
    for (const Event& e : h.events.events()) {
      if ((e.type == EventType::kSetNodeAttr ||
           e.type == EventType::kDelNodeAttr) &&
          !keep.contains(e.key)) {
        continue;
      }
      if (e.type == EventType::kAddNode) {
        Event projected_event = e;
        projected_event.attrs = project_attrs(e.attrs);
        out.events.Append(std::move(projected_event));
        continue;
      }
      out.events.Append(e);
    }
    projected[i] = NodeT(std::move(out));
  });
  return SoN(engine_, std::move(projected), from_, to_);
}

SoN SoN::Timeslice(Timestamp t) const {
  std::vector<NodeT> sliced(nodes_.size());
  engine_->ParallelOver(nodes_.size(), [&](size_t i) {
    const NodeT& n = nodes_[i];
    NodeHistory h;
    h.node = n.id();
    h.from = t;
    h.to = t;
    h.initial = n.history().initial;
    n.history().events.ApplyUpTo(t, &h.initial);
    h.events.SetScope(t, t);
    sliced[i] = NodeT(std::move(h));
  });
  return SoN(engine_, std::move(sliced), t, t);
}

SoN SoN::Timeslice(Timestamp from, Timestamp to) const {
  std::vector<NodeT> sliced(nodes_.size());
  engine_->ParallelOver(nodes_.size(), [&](size_t i) {
    const NodeT& n = nodes_[i];
    NodeHistory h;
    h.node = n.id();
    h.from = from;
    h.to = to;
    h.initial = n.history().initial;
    n.history().events.ApplyUpTo(from, &h.initial);
    h.events = n.history().events.FilterByTime(from, to);
    sliced[i] = NodeT(std::move(h));
  });
  return SoN(engine_, std::move(sliced), from, to);
}

Graph SoN::GetGraphAt(Timestamp t) const {
  std::vector<StaticNodeView> views;
  views.reserve(nodes_.size());
  Graph g;
  for (const NodeT& n : nodes_) {
    const StaticNodeView& v = views.emplace_back(n.GetStateAt(t));
    if (v.exists) g.AddNode(v.id, v.attrs);
  }
  // g holds exactly the members present at t, so an edge whose endpoints
  // are both in g is an edge between members.
  for (const StaticNodeView& v : views) {
    for (const EdgeRecord& e : v.edges) {
      if (g.HasNode(e.src) && g.HasNode(e.dst)) {
        g.AddEdge(e.src, e.dst, e.directed, e.attrs);
      }
    }
  }
  return g;
}

std::vector<Timestamp> SoN::AllChangePoints() const {
  std::vector<Timestamp> all;
  for (const NodeT& n : nodes_) {
    auto pts = n.ChangePoints();
    all.insert(all.end(), pts.begin(), pts.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

Series SoN::Evolution(const std::function<double(const Graph&)>& quantity,
                      size_t points) const {
  if (points == 0) return {};
  std::vector<Timestamp> times;
  times.reserve(points);
  if (points == 1 || to_ == from_) {
    times.push_back(to_);
  } else {
    for (size_t i = 0; i < points; ++i) {
      times.push_back(from_ + static_cast<Timestamp>(
                                  (to_ - from_) *
                                  static_cast<int64_t>(i) /
                                  static_cast<int64_t>(points - 1)));
    }
  }
  return EvolutionAt(quantity, times);
}

Series SoN::EvolutionAt(const std::function<double(const Graph&)>& quantity,
                        const std::vector<Timestamp>& times) const {
  Series out(times.size());
  engine_->ParallelOver(times.size(), [&](size_t i) {
    out[i] = {times[i], quantity(GetGraphAt(times[i]))};
  });
  return out;
}

SoTS SoTS::Select(const std::function<bool(const SubgraphT&)>& pred) const {
  std::vector<SubgraphT> kept;
  for (const SubgraphT& s : subgraphs_) {
    if (pred(s)) kept.push_back(s);
  }
  return SoTS(engine_, std::move(kept), from_, to_);
}

}  // namespace hgs::taf
