#include "taf/context.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace hgs::taf {

namespace {

/// [begin, end) of share `w` out of `shares` over n items (Fig 10: each
/// worker pulls its contiguous share of the candidate set in one bulk
/// retrieval).
std::pair<size_t, size_t> ShareBounds(size_t n, size_t shares, size_t w) {
  return {n * w / shares, n * (w + 1) / shares};
}

/// RunTasks over the engine's workers (TAFEngine::ParallelOver's degree),
/// minus the tasks' wall time: the tasks overlap, so the caller times the
/// whole fetch instead.
Status FetchInShares(const TAFEngine& engine, size_t n, FetchStats* stats,
                     const std::function<Status(size_t, FetchStats*)>& fn) {
  FetchStats tasks;
  Status st = RunTasks(n, engine.num_workers(), &tasks, fn);
  tasks.wall_seconds = 0;
  if (stats != nullptr) stats->Merge(tasks);
  return st;
}

}  // namespace

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

  // -- 1. Candidate enumeration. -------------------------------------------
  std::vector<NodeId> candidates;
  Delta snapshot_delta;
  if (explicit_ids_.has_value()) {
    candidates = *explicit_ids_;
  } else {
    HGS_ASSIGN_OR_RETURN(snapshot_delta, qm->GetSnapshotDelta(from, stats));
    snapshot_delta.ForEachNodeEntry(
        [&](NodeId id, const std::optional<NodeRecord>& rec) {
          if (rec.has_value()) candidates.push_back(id);
        });
    if (include_arrivals_ && to > from) {
      HGS_ASSIGN_OR_RETURN(std::vector<Event> range_events,
                           qm->GetEventsInRange(from, to, stats));
      std::unordered_set<NodeId> have(candidates.begin(), candidates.end());
      for (const Event& e : range_events) {
        if (e.type == EventType::kAddNode && !have.contains(e.u)) {
          have.insert(e.u);
          candidates.push_back(e.u);
        }
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());

  // -- 2. Cheap filters before any per-node fetch. --------------------------
  if (id_pred_ != nullptr) {
    std::erase_if(candidates, [&](NodeId id) { return !id_pred_(id); });
  }
  if (attr_filter_.has_value() && !explicit_ids_.has_value()) {
    // The snapshot delta already holds window-start attributes.
    std::erase_if(candidates, [&](NodeId id) {
      const auto* rec = snapshot_delta.FindNode(id);
      if (rec == nullptr || !rec->has_value()) return false;  // arrival
      auto v = (*rec)->attrs.Get(attr_filter_->first);
      return !(v.has_value() && *v == attr_filter_->second);
    });
  }
  // Explicit id lists may repeat ids (WithIds({5, 5})); a temporal node
  // must appear once per distinct id, and each history fetched once.
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // -- 3. Parallel fetch: each worker pulls its share in one bulk
  // GetNodeHistories call (Fig 10), so the physical fetch cost is bounded
  // by partitions touched per share, not by candidate count.
  std::vector<NodeT> nodes(candidates.size());
  size_t shares = std::min(engine_->num_workers(),
                           std::max<size_t>(candidates.size(), 1));
  HGS_RETURN_NOT_OK(FetchInShares(
      *engine_, shares, stats, [&](size_t w, FetchStats* local) -> Status {
        auto [begin, end] = ShareBounds(candidates.size(), shares, w);
        if (begin == end) return Status::OK();
        std::vector<NodeId> share(candidates.begin() + begin,
                                  candidates.begin() + end);
        HGS_ASSIGN_OR_RETURN(std::vector<NodeHistory> hists,
                             qm->GetNodeHistories(share, from, to, local));
        // Shares write disjoint ranges.
        for (size_t i = begin; i < end; ++i) {
          nodes[i] = NodeT(std::move(hists[i - begin]));
        }
        return Status::OK();
      }));

  // Post-fetch attribute filter for explicit-id fetches.
  if (attr_filter_.has_value() && explicit_ids_.has_value()) {
    std::vector<NodeT> kept;
    for (NodeT& n : nodes) {
      auto v = n.GetStateAt(from).attrs.Get(attr_filter_->first);
      if (v.has_value() && *v == attr_filter_->second) {
        kept.push_back(std::move(n));
      }
    }
    nodes = std::move(kept);
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

  std::vector<SubgraphT> out(seeds_.size());
  HGS_RETURN_NOT_OK(FetchInShares(
      *engine_, seeds_.size(), stats,
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
      }));
  return SoTS(engine_, std::move(out), from, to);
}

}  // namespace hgs::taf
