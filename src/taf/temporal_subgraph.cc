#include "taf/temporal_subgraph.h"

namespace hgs::taf {

Graph SubgraphT::MaterializeMembers(const Delta& d) const {
  return d.FilterByNodes(members_).ToGraph();
}

Graph SubgraphT::GetVersionAt(Timestamp t) const {
  return MaterializeMembers(GetStateDeltaAt(t));
}

Delta SubgraphT::GetStateDeltaAt(Timestamp t) const {
  Delta state = initial_;
  events_.ApplyUpTo(t, &state);
  return state;
}

void SubgraphT::ApplyToMembers(const Event& e, Graph* g) const {
  const bool relevant = e.IsEdgeEvent()
                            ? members_.contains(e.u) && members_.contains(e.v)
                            : members_.contains(e.u);
  if (relevant) ApplyEventToGraph(e, g);
}

void SubgraphT::ForEachVersion(
    const std::function<void(Timestamp, const Graph&)>& fn) const {
  Graph g = MaterializeMembers(initial_);
  fn(from_, g);
  for (const Event& e : events_.events()) {
    ApplyToMembers(e, &g);
    fn(e.time, g);
  }
}

void SubgraphT::Walk(
    const std::function<void(const Graph&)>& on_initial,
    const std::function<void(const Graph&, const Event&)>& before_event)
    const {
  Graph g = MaterializeMembers(initial_);
  on_initial(g);
  for (const Event& e : events_.events()) {
    before_event(g, e);  // state *before* the event
    ApplyToMembers(e, &g);
  }
}

}  // namespace hgs::taf
