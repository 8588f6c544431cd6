// SoN and SoTS (Definitions 6-7): the prime operands of the temporal graph
// algebra, with the operator library of Section 5.1:
//   Selection, Timeslice, Graph, NodeCompute, NodeComputeTemporal,
//   NodeComputeDelta, Compare, Evolution (TempAggregation lives in
//   taf/operators.h).
//
// Map-style operators execute data-parallel over the engine's workers.

#ifndef HGS_TAF_SON_H_
#define HGS_TAF_SON_H_

#include <functional>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "taf/engine.h"
#include "taf/temporal_node.h"
#include "taf/temporal_subgraph.h"

namespace hgs::taf {

/// Timeseries of a scalar quantity.
using Series = std::vector<std::pair<Timestamp, double>>;

class SoN {
 public:
  SoN() = default;
  SoN(std::shared_ptr<const TAFEngine> engine, std::vector<NodeT> nodes,
      Timestamp from, Timestamp to)
      : engine_(std::move(engine)),
        nodes_(std::move(nodes)),
        from_(from),
        to_(to) {}

  size_t size() const { return nodes_.size(); }
  const std::vector<NodeT>& nodes() const { return nodes_; }
  Timestamp GetStartTime() const { return from_; }
  Timestamp GetEndTime() const { return to_; }

  /// Selection: entity-centric filtering; time and attribute dimensions are
  /// untouched (operator 1).
  SoN Select(const std::function<bool(const NodeT&)>& pred) const;

  /// Convenience selection on the node's attribute value at window start.
  SoN SelectByAttr(std::string_view key, std::string_view value) const;

  /// The paper's Filter operator: projects the *attribute dimension* of the
  /// SoN (Fig 6) — keeps only the listed attribute keys in node states and
  /// drops attribute events for other keys. Entity and time dimensions are
  /// untouched.
  SoN FilterAttributes(const std::vector<std::string>& keys) const;

  /// Timeslice to a point: each node narrowed to its state as of t
  /// (operator 2). The result has an empty event dimension.
  SoN Timeslice(Timestamp t) const;

  /// Timeslice to a sub-interval [from, to] of the current range.
  SoN Timeslice(Timestamp from, Timestamp to) const;

  /// The Graph operator (3): in-memory graph of the member nodes as of t,
  /// edges restricted to pairs inside the SoN.
  Graph GetGraphAt(Timestamp t) const;

  /// Union of all members' change points, ascending, deduplicated.
  std::vector<Timestamp> AllChangePoints() const;

  /// NodeCompute (4): map a function over the temporal nodes.
  template <typename R>
  std::vector<R> NodeCompute(
      const std::function<R(const NodeT&)>& fn) const {
    std::vector<R> out(nodes_.size());
    engine_->ParallelOver(nodes_.size(),
                          [&](size_t i) { out[i] = fn(nodes_[i]); });
    return out;
  }

  /// NodeComputeTemporal (5): evaluate `fn` on every version of every node
  /// (or on the versions selected by `timepoints`).
  template <typename R>
  std::vector<std::vector<std::pair<Timestamp, R>>> NodeComputeTemporal(
      const std::function<R(const StaticNodeView&)>& fn,
      const std::function<std::vector<Timestamp>(const NodeT&)>& timepoints =
          nullptr) const {
    std::vector<std::vector<std::pair<Timestamp, R>>> out(nodes_.size());
    engine_->ParallelOver(nodes_.size(), [&](size_t i) {
      const NodeT& node = nodes_[i];
      std::vector<std::pair<Timestamp, R>>& series = out[i];
      if (timepoints != nullptr) {
        for (Timestamp t : timepoints(node)) {
          series.emplace_back(t, fn(node.GetStateAt(t)));
        }
        return;
      }
      // Default: all points of change, computed fresh on each version.
      auto it = node.GetIterator();
      series.emplace_back(node.GetStartTime(), fn(it.CurrentVersion()));
      while (it.HasNextEvent()) {
        const StaticNodeView& v = it.GetNextVersion();
        series.emplace_back(it.CurrentTime(), fn(v));
      }
    });
    return out;
  }

  /// NodeComputeDelta (6): like NodeComputeTemporal, but each new version's
  /// value is produced incrementally by `fdelta(previous_view, previous
  /// value, event)` where `previous_view` is the state *before* the event.
  template <typename R>
  std::vector<std::vector<std::pair<Timestamp, R>>> NodeComputeDelta(
      const std::function<R(const StaticNodeView&)>& fn,
      const std::function<R(const StaticNodeView&, const R&, const Event&)>&
          fdelta) const {
    std::vector<std::vector<std::pair<Timestamp, R>>> out(nodes_.size());
    engine_->ParallelOver(nodes_.size(), [&](size_t i) {
      const NodeT& node = nodes_[i];
      std::vector<std::pair<Timestamp, R>>& series = out[i];
      auto it = node.GetIterator();
      R value = fn(it.CurrentVersion());
      series.emplace_back(node.GetStartTime(), value);
      while (it.HasNextEvent()) {
        const Event& e = it.PeekNextEvent();
        value = fdelta(it.CurrentVersion(), value, e);
        series.emplace_back(e.time, value);
        it.GetNextEvent();
      }
    });
    return out;
  }

  /// Evolution (8): samples a graph-level quantity at `points` uniformly
  /// spaced timepoints over the window (or at explicitly given times).
  Series Evolution(const std::function<double(const Graph&)>& quantity,
                   size_t points) const;
  Series EvolutionAt(const std::function<double(const Graph&)>& quantity,
                     const std::vector<Timestamp>& times) const;

  const std::shared_ptr<const TAFEngine>& engine() const { return engine_; }

 private:
  std::shared_ptr<const TAFEngine> engine_;
  std::vector<NodeT> nodes_;
  Timestamp from_ = 0;
  Timestamp to_ = 0;
};

class SoTS {
 public:
  SoTS() = default;
  SoTS(std::shared_ptr<const TAFEngine> engine,
       std::vector<SubgraphT> subgraphs, Timestamp from, Timestamp to)
      : engine_(std::move(engine)),
        subgraphs_(std::move(subgraphs)),
        from_(from),
        to_(to) {}

  size_t size() const { return subgraphs_.size(); }
  const std::vector<SubgraphT>& subgraphs() const { return subgraphs_; }
  Timestamp GetStartTime() const { return from_; }
  Timestamp GetEndTime() const { return to_; }

  /// Selection over subgraphs.
  SoTS Select(const std::function<bool(const SubgraphT&)>& pred) const;

  /// NodeCompute over subgraphs: one value per temporal subgraph.
  template <typename R>
  std::vector<R> NodeCompute(
      const std::function<R(const SubgraphT&)>& fn) const {
    std::vector<R> out(subgraphs_.size());
    engine_->ParallelOver(subgraphs_.size(),
                          [&](size_t i) { out[i] = fn(subgraphs_[i]); });
    return out;
  }

  /// NodeComputeTemporal: `fn` evaluated afresh on every version of every
  /// subgraph — O(N·T) in the paper's analysis.
  template <typename R>
  std::vector<std::vector<std::pair<Timestamp, R>>> NodeComputeTemporal(
      const std::function<R(const Graph&)>& fn) const {
    std::vector<std::vector<std::pair<Timestamp, R>>> out(subgraphs_.size());
    engine_->ParallelOver(subgraphs_.size(), [&](size_t i) {
      auto& series = out[i];
      subgraphs_[i].ForEachVersion([&](Timestamp t, const Graph& g) {
        series.emplace_back(t, fn(g));
      });
    });
    return out;
  }

  /// NodeComputeDelta: the initial version is computed with `fn`; every
  /// subsequent version updates the value with `fdelta(state_before_event,
  /// previous_value, event)` — O(N + T).
  template <typename R>
  std::vector<std::vector<std::pair<Timestamp, R>>> NodeComputeDelta(
      const std::function<R(const Graph&)>& fn,
      const std::function<R(const Graph&, const R&, const Event&)>& fdelta)
      const {
    std::vector<std::vector<std::pair<Timestamp, R>>> out(subgraphs_.size());
    engine_->ParallelOver(subgraphs_.size(), [&](size_t i) {
      auto& series = out[i];
      const SubgraphT& sg = subgraphs_[i];
      R value{};
      sg.Walk(
          [&](const Graph& initial) {
            value = fn(initial);
            series.emplace_back(sg.GetStartTime(), value);
          },
          [&](const Graph& before, const Event& e) {
            value = fdelta(before, value, e);
            series.emplace_back(e.time, value);
          });
    });
    return out;
  }

  const std::shared_ptr<const TAFEngine>& engine() const { return engine_; }

 private:
  std::shared_ptr<const TAFEngine> engine_;
  std::vector<SubgraphT> subgraphs_;
  Timestamp from_ = 0;
  Timestamp to_ = 0;
};

}  // namespace hgs::taf

#endif  // HGS_TAF_SON_H_
