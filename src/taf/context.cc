#include "taf/context.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace hgs::taf {

NodeSetSpec& NodeSetSpec::TimeRange(Timestamp from, Timestamp to) {
  from_ = from;
  to_ = to;
  return *this;
}

NodeSetSpec& NodeSetSpec::WithIds(std::vector<NodeId> ids) {
  explicit_ids_ = std::move(ids);
  return *this;
}

NodeSetSpec& NodeSetSpec::WhereId(std::function<bool(NodeId)> pred) {
  id_pred_ = std::move(pred);
  return *this;
}

NodeSetSpec& NodeSetSpec::WhereAttr(std::string key, std::string value) {
  attr_filter_ = std::make_pair(std::move(key), std::move(value));
  return *this;
}

NodeSetSpec& NodeSetSpec::IncludeArrivals(bool include) {
  include_arrivals_ = include;
  return *this;
}

Result<SoN> NodeSetSpec::Fetch(FetchStats* stats) const {
  TGIQueryManager* qm = engine_->query_manager();
  Timestamp from = std::max(from_, qm->HistoryStart() - 1);
  Timestamp to = std::min(to_, qm->HistoryEnd());

  // One retrieval plan: the query manager rebuilds each partition's state
  // at `from` once and selects candidates, arrivals and initial states
  // from it, spreading every stage over its fetch workers.
  std::vector<NodeHistory> hists;
  if (explicit_ids_.has_value()) {
    // Explicit id lists may repeat ids (WithIds({5, 5})); a temporal node
    // must appear once per distinct id, and each history fetched once.
    std::vector<NodeId> ids = *explicit_ids_;
    if (id_pred_ != nullptr) {
      std::erase_if(ids, [&](NodeId id) { return !id_pred_(id); });
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    HGS_ASSIGN_OR_RETURN(hists, qm->GetNodeHistories(ids, from, to, stats));
  } else {
    auto keep = [&](NodeId id, const NodeRecord* rec) {
      if (id_pred_ != nullptr && !id_pred_(id)) return false;
      if (rec == nullptr) return include_arrivals_;
      if (!attr_filter_.has_value()) return true;
      auto v = rec->attrs.Get(attr_filter_->first);
      return v.has_value() && *v == attr_filter_->second;
    };
    HGS_ASSIGN_OR_RETURN(hists,
                         qm->GetNodeHistoriesWhere(from, to, keep, stats));
  }

  std::vector<NodeT> nodes;
  nodes.reserve(hists.size());
  for (NodeHistory& h : hists) {
    NodeT n(std::move(h));
    // Explicit ids are filtered by attribute after the fetch.
    if (attr_filter_.has_value() && explicit_ids_.has_value()) {
      auto v = n.GetStateAt(from).attrs.Get(attr_filter_->first);
      if (!(v.has_value() && *v == attr_filter_->second)) continue;
    }
    nodes.push_back(std::move(n));
  }
  return SoN(engine_, std::move(nodes), from, to);
}

SubgraphSetSpec& SubgraphSetSpec::TimeRange(Timestamp from, Timestamp to) {
  from_ = from;
  to_ = to;
  return *this;
}

SubgraphSetSpec& SubgraphSetSpec::WithSeeds(std::vector<NodeId> seeds) {
  seeds_ = std::move(seeds);
  return *this;
}

Result<SoTS> SubgraphSetSpec::Fetch(FetchStats* stats) const {
  TGIQueryManager* qm = engine_->query_manager();
  Timestamp from = std::max(from_, qm->HistoryStart() - 1);
  Timestamp to = std::min(to_, qm->HistoryEnd());
  if (seeds_.empty()) {
    return Status::InvalidArgument("SubgraphSetSpec requires seeds");
  }

  // One retrieval per seed on the engine's workers. The tasks overlap, so
  // their wall times are dropped; the caller times the whole fetch.
  std::vector<SubgraphT> out(seeds_.size());
  FetchStats tasks;
  Status st = RunTasks(
      seeds_.size(), engine_->num_workers(), &tasks,
      [&](size_t i, FetchStats* local) -> Status {
        // Membership: the k-hop neighborhood at window start.
        HGS_ASSIGN_OR_RETURN(
            Graph hood, qm->GetKHopNeighborhood(seeds_[i], from, k_, local));
        std::unordered_set<NodeId> members;
        for (NodeId id : hood.NodeIds()) members.insert(id);
        members.insert(seeds_[i]);
        Delta initial = Delta::FromGraph(hood);

        // Member events arrive merged and deduplicated straight from the
        // index: one bulk retrieval per subgraph, eventlists shared by
        // members fetched once, and duplicates of internal edge events
        // removed inside each (timespan, eventlist) chunk — so no per-node
        // histories are materialized and no global sort over the union
        // runs.
        std::vector<NodeId> member_ids(members.begin(), members.end());
        std::sort(member_ids.begin(), member_ids.end());
        HGS_ASSIGN_OR_RETURN(
            std::vector<Event> merged,
            qm->GetMergedMemberEvents(member_ids, from, to, local));
        EventList events(from, to);
        for (Event& e : merged) events.Append(std::move(e));

        out[i] = SubgraphT(seeds_[i], std::move(members), std::move(initial),
                           std::move(events), from, to);
        return Status::OK();
      });
  tasks.wall_seconds = 0;
  if (stats != nullptr) stats->Merge(tasks);
  HGS_RETURN_NOT_OK(st);
  return SoTS(engine_, std::move(out), from, to);
}

}  // namespace hgs::taf
