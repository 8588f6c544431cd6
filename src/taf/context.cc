#include "taf/context.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace hgs::taf {

namespace {

// One node of a subgraph fetch: its history over the window and, when it
// is present at the window start, the nodes its present edges link it to.
struct BallNode {
  explicit BallNode(NodeHistory h) : history(std::move(h)) {
    const auto* rec = history.initial.FindNode(history.node);
    present = rec != nullptr && rec->has_value();
    if (!present) return;
    history.initial.ForEachEdgeEntry(
        [&](const EdgeKey& key, const std::optional<EdgeRecord>& edge) {
          if (edge.has_value()) {
            neighbors.push_back(key.u == history.node ? key.v : key.u);
          }
        });
  }

  NodeHistory history;
  bool present = false;
  std::vector<NodeId> neighbors;
};

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

  // Every seed's ball expands together, one GetNodeHistories call per hop,
  // each over the ring nodes no earlier call fetched. The next ring is
  // read off the present incident edges of this ring's initial states.
  std::unordered_map<NodeId, BallNode> ball;
  std::vector<NodeId> ring(seeds_);
  std::sort(ring.begin(), ring.end());
  ring.erase(std::unique(ring.begin(), ring.end()), ring.end());
  for (int hop = 0;; ++hop) {
    HGS_ASSIGN_OR_RETURN(std::vector<NodeHistory> hists,
                         qm->GetNodeHistories(ring, from, to, stats));
    for (NodeHistory& h : hists) ball.try_emplace(h.node, std::move(h));
    if (hop >= k_) break;
    std::vector<NodeId> next;
    for (NodeId id : ring) {
      for (NodeId n : ball.at(id).neighbors) {
        if (!ball.contains(n)) next.push_back(n);
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    ring = std::move(next);
  }

  std::vector<SubgraphT> out(seeds_.size());
  engine_->ParallelOver(seeds_.size(), [&](size_t i) {
    // Members: the seed, and the nodes present at `from` within k hops of
    // it, in BFS order.
    std::unordered_set<NodeId> members{seeds_[i]};
    std::vector<const BallNode*> picked{&ball.at(seeds_[i])};
    size_t begin = 0;
    for (int hop = 0; hop < k_; ++hop) {
      const size_t end = picked.size();
      for (size_t j = begin; j < end; ++j) {
        for (NodeId n : picked[j]->neighbors) {
          const BallNode& node = ball.at(n);
          if (node.present && members.insert(n).second) {
            picked.push_back(&node);
          }
        }
      }
      begin = end;
    }
    std::vector<const Delta*> initials;
    std::vector<const Event*> events;
    for (const BallNode* m : picked) {
      initials.push_back(&m->history.initial);
      for (const Event& e : m->history.events.events()) events.push_back(&e);
    }
    // An edge event between two members is in both of their histories.
    // The total order makes the copies adjacent, so unique keeps one.
    auto before = [](const Event* a, const Event* b) {
      return EventTotalOrder(*a, *b);
    };
    auto same = [](const Event* a, const Event* b) { return *a == *b; };
    std::sort(events.begin(), events.end(), before);
    events.erase(std::unique(events.begin(), events.end(), same), events.end());
    EventList list(from, to);
    for (const Event* e : events) list.Append(*e);
    out[i] = SubgraphT(seeds_[i], std::move(members), Delta::SumAll(initials),
                       std::move(list), from, to);
  });
  return SoTS(engine_, std::move(out), from, to);
}

}  // namespace hgs::taf
