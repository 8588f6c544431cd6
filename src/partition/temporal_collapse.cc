#include "partition/temporal_collapse.h"

#include <algorithm>
#include <cstdlib>

namespace hgs {

namespace {

double EdgeWeightOf(const Attributes& attrs, const std::string& weight_attr) {
  auto v = attrs.Get(weight_attr);
  if (!v.has_value()) return 1.0;
  return std::strtod(std::string(*v).c_str(), nullptr);
}

// Per-edge accumulation across the span: existence intervals and weights.
struct EdgeAccum {
  double max_weight = 0.0;
  double weight_time_integral = 0.0;  // Σ weight × duration
  bool ever_existed = false;
  // Open interval bookkeeping while replaying:
  bool currently_exists = false;
  double current_weight = 0.0;
  Timestamp since = 0;

  void Open(Timestamp t, double w) {
    currently_exists = true;
    current_weight = w;
    since = t;
    ever_existed = true;
    max_weight = std::max(max_weight, w);
  }
  void Close(Timestamp t) {
    if (!currently_exists) return;
    weight_time_integral +=
        current_weight * static_cast<double>(t - since);
    currently_exists = false;
  }
  void Reweight(Timestamp t, double w) {
    Close(t);
    Open(t, w);
  }
};

struct NodeAccum {
  bool ever_existed = false;
  double degree_time_integral = 0.0;
  size_t current_degree = 0;
  Timestamp degree_since = 0;
  bool alive = false;

  void TouchDegree(Timestamp t, int delta) {
    degree_time_integral += static_cast<double>(current_degree) *
                            static_cast<double>(t - degree_since);
    degree_since = t;
    current_degree = static_cast<size_t>(
        std::max<int64_t>(0, static_cast<int64_t>(current_degree) + delta));
  }
};

}  // namespace

WeightedGraph CollapseTemporalGraph(const Graph& start_state,
                                    std::span<const Event> events,
                                    TimeInterval span,
                                    const CollapseOptions& options) {
  if (options.edge_fn == CollapseFn::kMedian) {
    // Replay to the median timepoint and take that snapshot.
    Timestamp median = span.start + (span.end - span.start) / 2;
    Graph g = start_state;
    for (const Event& e : events) {
      if (e.time > median) break;
      ApplyEventToGraph(e, &g);
    }
    WeightedGraph out;
    g.ForEachNode([&](NodeId id, const NodeRecord&) { out.AddNode(id); });
    g.ForEachEdge([&](const EdgeKey& key, const EdgeRecord& rec) {
      out.AddEdge(key.u, key.v, EdgeWeightOf(rec.attrs, options.weight_attr));
    });
    if (options.node_fn != NodeWeightFn::kUniform) {
      for (auto& [id, w] : out.node_weights) {
        w = static_cast<double>(out.adjacency.at(id).size());
      }
    }
    // Ω constraint: include every vertex that existed at least once.
    for (const Event& e : events) {
      if (e.time <= median) continue;
      if (e.type == EventType::kAddNode && !out.node_weights.contains(e.u)) {
        out.AddNode(e.u);
      }
      if (e.type == EventType::kAddEdge) {
        if (!out.node_weights.contains(e.u)) out.AddNode(e.u);
        if (!out.node_weights.contains(e.v)) out.AddNode(e.v);
      }
    }
    return out;
  }

  // Union-style collapse: track per-edge existence over the whole span.
  std::unordered_map<EdgeKey, EdgeAccum, EdgeKeyHash> edge_acc;
  std::unordered_map<NodeId, NodeAccum> node_acc;

  auto touch_node = [&](NodeId id) -> NodeAccum& {
    auto& acc = node_acc[id];
    acc.ever_existed = true;
    return acc;
  };

  // Seed from the start state.
  start_state.ForEachNode([&](NodeId id, const NodeRecord&) {
    auto& acc = touch_node(id);
    acc.alive = true;
    acc.degree_since = span.start;
  });
  start_state.ForEachEdge([&](const EdgeKey& key, const EdgeRecord& rec) {
    edge_acc[key].Open(span.start,
                       EdgeWeightOf(rec.attrs, options.weight_attr));
    touch_node(key.u).current_degree++;
    touch_node(key.v).current_degree++;
  });

  for (const Event& e : events) {
    if (e.time >= span.end) break;
    switch (e.type) {
      case EventType::kAddNode: {
        auto& acc = touch_node(e.u);
        acc.alive = true;
        break;
      }
      case EventType::kRemoveNode: {
        auto it = node_acc.find(e.u);
        if (it != node_acc.end()) it->second.alive = false;
        break;
      }
      case EventType::kAddEdge: {
        double w = EdgeWeightOf(e.attrs, options.weight_attr);
        auto& acc = edge_acc[EdgeKey(e.u, e.v)];
        if (!acc.currently_exists) {
          acc.Open(e.time, w);
          touch_node(e.u).TouchDegree(e.time, +1);
          touch_node(e.v).TouchDegree(e.time, +1);
        } else {
          acc.Reweight(e.time, w);
        }
        break;
      }
      case EventType::kRemoveEdge: {
        auto it = edge_acc.find(EdgeKey(e.u, e.v));
        if (it != edge_acc.end() && it->second.currently_exists) {
          it->second.Close(e.time);
          touch_node(e.u).TouchDegree(e.time, -1);
          touch_node(e.v).TouchDegree(e.time, -1);
        }
        break;
      }
      case EventType::kSetEdgeAttr: {
        if (e.key == options.weight_attr) {
          auto it = edge_acc.find(EdgeKey(e.u, e.v));
          if (it != edge_acc.end() && it->second.currently_exists) {
            it->second.Reweight(e.time,
                                std::strtod(e.value.c_str(), nullptr));
          }
        }
        break;
      }
      default:
        break;  // attribute events don't affect structure
    }
  }
  // Close all open intervals at span end.
  for (auto& [key, acc] : edge_acc) acc.Close(span.end);
  for (auto& [id, acc] : node_acc) acc.TouchDegree(span.end, 0);

  WeightedGraph out;
  for (const auto& [id, acc] : node_acc) {
    if (acc.ever_existed) out.AddNode(id);
  }
  double span_len =
      std::max<double>(1.0, static_cast<double>(span.end - span.start));
  for (const auto& [key, acc] : edge_acc) {
    if (!acc.ever_existed) continue;
    double w = options.edge_fn == CollapseFn::kUnionMax
                   ? acc.max_weight
                   : acc.weight_time_integral / span_len;
    if (w <= 0.0) w = 1e-6;  // existed but infinitesimally: keep connectivity
    out.AddEdge(key.u, key.v, w);
  }
  switch (options.node_fn) {
    case NodeWeightFn::kUniform:
      break;
    case NodeWeightFn::kDegree:
      for (auto& [id, w] : out.node_weights) {
        w = static_cast<double>(out.adjacency.at(id).size());
      }
      break;
    case NodeWeightFn::kAvgDegree:
      for (auto& [id, w] : out.node_weights) {
        auto it = node_acc.find(id);
        w = it == node_acc.end()
                ? 1.0
                : it->second.degree_time_integral / span_len;
      }
      break;
  }
  return out;
}

}  // namespace hgs
