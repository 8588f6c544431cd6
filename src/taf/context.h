// TAFContext and the lazy fetch specifications — the C++ rendition of the
// paper's Python snippets (Fig 7):
//
//   TAFContext ctx(&qm, /*workers=*/4);                 // TGIHandler
//   auto son = ctx.Nodes()                              // SON(tgiH)
//                 .TimeRange(t0, t1)                    //   .Timeslice(...)
//                 .WhereId([](NodeId id){return id<5000;})  // .Select(...)
//                 .Fetch();                             //   .fetch()
//
// Nothing is retrieved until Fetch(): the combined instructions form one
// retrieval plan. A node-set plan is one TGI call: the query manager
// rebuilds each micro-partition's state at the window start once, selects
// candidates, arrivals and initial states from it, and spreads every stage
// over its fetch workers. Fig 10 instead has each worker pull its own share
// of the temporal nodes; here the shares would each rebuild the same
// partition states, so there are none. A subgraph-set plan (SoTS) uses the
// same set-at-a-time retrieval: every seed's k-hop ball expands together,
// one GetNodeHistories call per hop, and each subgraph is then assembled
// from its members' histories.

#ifndef HGS_TAF_CONTEXT_H_
#define HGS_TAF_CONTEXT_H_

#include <memory>
#include <string>
#include <vector>

#include "taf/operators.h"
#include "taf/son.h"

namespace hgs::taf {

class NodeSetSpec {
 public:
  NodeSetSpec(std::shared_ptr<const TAFEngine> engine)
      : engine_(std::move(engine)) {}

  /// Temporal scope of the fetch (defaults to the whole history).
  NodeSetSpec& TimeRange(Timestamp from, Timestamp to);
  /// Point scope: state as of t only.
  NodeSetSpec& AtTime(Timestamp t) { return TimeRange(t, t); }

  /// Restrict to an explicit id set (skips candidate enumeration).
  NodeSetSpec& WithIds(std::vector<NodeId> ids);
  /// Restrict by id predicate (e.g. the paper's "id < 5000").
  NodeSetSpec& WhereId(std::function<bool(NodeId)> pred);
  /// Restrict by attribute value as of the window start. Arrivals have no
  /// state there and are kept.
  NodeSetSpec& WhereAttr(std::string key, std::string value);
  /// Include nodes that first appear during the window (default true).
  NodeSetSpec& IncludeArrivals(bool include);

  /// Executes the plan as one TGI call: GetNodeHistoriesWhere with the
  /// filters as its predicate, or GetNodeHistories for WithIds sets.
  Result<SoN> Fetch(FetchStats* stats = nullptr) const;

 private:
  std::shared_ptr<const TAFEngine> engine_;
  Timestamp from_ = kMinTimestamp;
  Timestamp to_ = kMaxTimestamp;
  bool include_arrivals_ = true;
  std::optional<std::vector<NodeId>> explicit_ids_;
  std::function<bool(NodeId)> id_pred_;
  std::optional<std::pair<std::string, std::string>> attr_filter_;
};

class SubgraphSetSpec {
 public:
  SubgraphSetSpec(std::shared_ptr<const TAFEngine> engine, int k)
      : engine_(std::move(engine)), k_(k) {}

  SubgraphSetSpec& TimeRange(Timestamp from, Timestamp to);
  /// Seeds of the k-hop subgraphs, one subgraph per entry.
  SubgraphSetSpec& WithSeeds(std::vector<NodeId> seeds);

  /// Executes the plan as max(k, 0) + 1 GetNodeHistories calls: the seeds,
  /// then each ring of nodes that the previous ring's present edges at the
  /// window start reach and no earlier call fetched. A subgraph's members
  /// are its seed and the nodes present at the window start within k hops
  /// of it; its initial state is the sum of their initial states, and its
  /// events the union of theirs, each once, in (time, EventTotalOrder)
  /// order.
  Result<SoTS> Fetch(FetchStats* stats = nullptr) const;

 private:
  std::shared_ptr<const TAFEngine> engine_;
  int k_;
  Timestamp from_ = kMinTimestamp;
  Timestamp to_ = kMaxTimestamp;
  std::vector<NodeId> seeds_;
};

/// The TGIHandler analogue: binds a TGI query manager to a worker cluster.
class TAFContext {
 public:
  TAFContext(TGIQueryManager* qm, size_t num_workers)
      : engine_(std::make_shared<TAFEngine>(qm, num_workers)) {}

  /// Start a SoN retrieval plan.
  NodeSetSpec Nodes() const { return NodeSetSpec(engine_); }
  /// Start a SoTS retrieval plan with k-hop subgraphs.
  SubgraphSetSpec Subgraphs(int k) const {
    return SubgraphSetSpec(engine_, k);
  }

  const std::shared_ptr<const TAFEngine>& engine() const { return engine_; }
  TGIQueryManager* query_manager() const { return engine_->query_manager(); }

 private:
  std::shared_ptr<const TAFEngine> engine_;
};

}  // namespace hgs::taf

#endif  // HGS_TAF_CONTEXT_H_
