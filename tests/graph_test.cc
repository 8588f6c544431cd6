// Tests for the graph snapshot structure and the algorithm library.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/attributes.h"
#include "graph/graph.h"

namespace hgs {
namespace {

Graph Triangle() {
  Graph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  return g;
}

// A 5-node path 1-2-3-4-5.
Graph Path5() {
  Graph g;
  for (NodeId i = 1; i < 5; ++i) g.AddEdge(i, i + 1);
  return g;
}

TEST(AttributesTest, SetGetEraseOrdered) {
  Attributes a;
  a.Set("b", "2");
  a.Set("a", "1");
  a.Set("c", "3");
  EXPECT_EQ(*a.Get("a"), "1");
  EXPECT_EQ(*a.Get("b"), "2");
  a.Set("b", "20");
  EXPECT_EQ(*a.Get("b"), "20");
  EXPECT_TRUE(a.Erase("b"));
  EXPECT_FALSE(a.Erase("b"));
  EXPECT_FALSE(a.Get("b").has_value());
  // Entries stay sorted for deterministic serialization.
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.entries()[0].first, "a");
  EXPECT_EQ(a.entries()[1].first, "c");
}

TEST(AttributesTest, IntersectKeepsEqualEntries) {
  Attributes a{{"x", "1"}, {"y", "2"}, {"z", "3"}};
  Attributes b{{"x", "1"}, {"y", "9"}, {"w", "0"}};
  Attributes i = Attributes::Intersect(a, b);
  EXPECT_EQ(i.size(), 1u);
  EXPECT_EQ(*i.Get("x"), "1");
}

TEST(GraphTest, AddRemoveNodes) {
  Graph g;
  EXPECT_TRUE(g.AddNode(1));
  EXPECT_FALSE(g.AddNode(1));  // duplicate
  EXPECT_TRUE(g.HasNode(1));
  EXPECT_TRUE(g.RemoveNode(1));
  EXPECT_FALSE(g.RemoveNode(1));
  EXPECT_EQ(g.NumNodes(), 0u);
}

TEST(GraphTest, EdgesCreateEndpointsImplicitly) {
  Graph g;
  EXPECT_TRUE(g.AddEdge(1, 2));
  EXPECT_EQ(g.NumNodes(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(2, 1));  // undirected key canonicalization
}

TEST(GraphTest, SelfLoopsRejected) {
  Graph g;
  EXPECT_FALSE(g.AddEdge(1, 1));
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphTest, RemoveNodeDetachesEdges) {
  Graph g = Triangle();
  g.RemoveNode(2);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(1, 3));
  EXPECT_EQ(g.Neighbors(1).size(), 1u);
}

TEST(GraphTest, EdgeRecordPreservesDirection) {
  Graph g;
  g.AddEdge(5, 2, /*directed=*/true);
  const EdgeRecord* rec = g.GetEdge(2, 5);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->src, 5u);
  EXPECT_EQ(rec->dst, 2u);
  EXPECT_TRUE(rec->directed);
}

TEST(GraphTest, EqualityIsStructural) {
  Graph a = Triangle();
  Graph b = Triangle();
  EXPECT_TRUE(a == b);
  b.AddNode(99);
  EXPECT_FALSE(a == b);
}

// -- Model test of the dense storage ------------------------------------------
// Random structural and attribute edits, applied to a Graph and to a
// std::map reference; every observable is compared after every step. Small
// id ranges force re-adds after removal and long probe runs, hubs force
// long neighbor lists, and growth from empty crosses every index resize.
// Erases that relocate the last entry happen on most removals.

struct ModelGraph {
  std::map<NodeId, Attributes> nodes;
  std::map<EdgeKey, EdgeRecord> edges;
};

struct ModelConfig {
  uint64_t seed;
  uint64_t id_range;  // ids are id_of(0) .. id_of(id_range - 1)
  uint64_t stride;    // id_of(i) = i * stride + 7: 1 is dense, large sparse
  size_t steps;
};

std::string AttrKey(Rng* rng) {
  std::string key = "k";
  key += std::to_string(rng->Uniform(4));
  return key;
}

Attributes RandomAttrs(Rng* rng) {
  Attributes attrs;
  const uint64_t n = rng->Uniform(3);
  for (uint64_t i = 0; i < n; ++i) {
    attrs.Set(AttrKey(rng), std::to_string(rng->Uniform(100)));
  }
  return attrs;
}

std::vector<NodeId> Sorted(std::vector<NodeId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

void ExpectMatchesModel(const Graph& g, const ModelGraph& m,
                        const std::vector<NodeId>& all_ids) {
  ASSERT_EQ(g.NumNodes(), m.nodes.size());
  ASSERT_EQ(g.NumEdges(), m.edges.size());

  std::map<NodeId, std::vector<NodeId>> nbrs;
  for (const auto& [key, rec] : m.edges) {
    nbrs[key.u].push_back(key.v);
    nbrs[key.v].push_back(key.u);
  }
  for (NodeId id : all_ids) {
    auto it = m.nodes.find(id);
    ASSERT_EQ(g.HasNode(id), it != m.nodes.end()) << "node " << id;
    const NodeRecord* rec = g.GetNode(id);
    if (it == m.nodes.end()) {
      ASSERT_EQ(rec, nullptr);
      ASSERT_TRUE(g.Neighbors(id).empty());
      continue;
    }
    ASSERT_NE(rec, nullptr);
    ASSERT_EQ(rec->attrs, it->second) << "node " << id;
    ASSERT_EQ(Sorted(g.Neighbors(id)), Sorted(nbrs[id])) << "node " << id;
  }
  for (const auto& [key, rec] : m.edges) {
    const EdgeRecord* got = g.GetEdge(key.v, key.u);
    ASSERT_NE(got, nullptr) << key.u << "-" << key.v;
    ASSERT_EQ(*got, rec);
    ASSERT_TRUE(g.HasEdge(key.u, key.v));
  }
  // Presence of every pair among the first 12 ids, absent pairs included.
  for (size_t i = 0; i < std::min<size_t>(all_ids.size(), 12); ++i) {
    for (size_t j = 0; j < std::min<size_t>(all_ids.size(), 12); ++j) {
      const EdgeKey key(all_ids[i], all_ids[j]);
      ASSERT_EQ(g.GetEdge(key.u, key.v) != nullptr, m.edges.contains(key));
    }
  }

  std::map<NodeId, Attributes> seen_nodes;
  g.ForEachNode([&](NodeId id, const NodeRecord& rec) {
    EXPECT_TRUE(seen_nodes.emplace(id, rec.attrs).second) << "dup " << id;
  });
  ASSERT_EQ(seen_nodes, m.nodes);
  std::map<EdgeKey, EdgeRecord> seen_edges;
  g.ForEachEdge([&](const EdgeKey& key, const EdgeRecord& rec) {
    EXPECT_TRUE(seen_edges.emplace(key, rec).second);
  });
  ASSERT_EQ(seen_edges, m.edges);
  std::vector<NodeId> model_ids;
  for (const auto& [id, attrs] : m.nodes) model_ids.push_back(id);
  ASSERT_EQ(Sorted(g.NodeIds()), model_ids);

  // Equality against a fresh build of the model, and against a copy.
  Graph rebuilt;
  for (const auto& [id, attrs] : m.nodes) rebuilt.AddNode(id, attrs);
  for (const auto& [key, rec] : m.edges) {
    rebuilt.AddEdge(rec.src, rec.dst, rec.directed, rec.attrs);
  }
  ASSERT_TRUE(g == rebuilt);
  ASSERT_TRUE(rebuilt == g);
  const Graph copy = g;
  ASSERT_TRUE(copy == g);
}

void RunModel(const ModelConfig& cfg) {
  SCOPED_TRACE("seed " + std::to_string(cfg.seed) + " range " +
               std::to_string(cfg.id_range) + " stride " +
               std::to_string(cfg.stride));
  Rng rng(cfg.seed);
  auto id_of = [&](uint64_t i) -> NodeId { return i * cfg.stride + 7; };
  std::vector<NodeId> all_ids;
  for (uint64_t i = 0; i < cfg.id_range; ++i) all_ids.push_back(id_of(i));
  // Two hubs take a third of all edge endpoints.
  auto pick = [&]() -> NodeId {
    return rng.Bernoulli(0.3) ? id_of(rng.Uniform(2))
                              : id_of(rng.Uniform(cfg.id_range));
  };

  Graph g;
  ModelGraph m;
  for (size_t step = 0; step < cfg.steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const uint64_t op = rng.Uniform(100);
    if (op < 20) {
      const NodeId id = pick();
      Attributes attrs = RandomAttrs(&rng);
      const bool fresh = !m.nodes.contains(id);
      m.nodes[id] = attrs;
      ASSERT_EQ(g.AddNode(id, attrs), fresh);
    } else if (op < 30) {
      const NodeId id = pick();
      const bool present = m.nodes.erase(id) > 0;
      std::erase_if(m.edges, [&](const auto& e) {
        return e.first.u == id || e.first.v == id;
      });
      ASSERT_EQ(g.RemoveNode(id), present);
    } else if (op < 65) {
      const NodeId u = pick();
      const NodeId v = pick();
      const bool directed = rng.Bernoulli(0.5);
      Attributes attrs = RandomAttrs(&rng);
      bool fresh = false;
      if (u != v) {
        m.nodes.try_emplace(u);
        m.nodes.try_emplace(v);
        const EdgeRecord rec{.src = u, .dst = v, .directed = directed,
                             .attrs = attrs};
        fresh = m.edges.insert_or_assign(EdgeKey(u, v), rec).second;
      }
      ASSERT_EQ(g.AddEdge(u, v, directed, attrs), fresh);
    } else if (op < 85) {
      const NodeId u = pick();
      const NodeId v = pick();
      const bool present = m.edges.erase(EdgeKey(u, v)) > 0;
      ASSERT_EQ(g.RemoveEdge(u, v), present);
    } else if (op < 95) {
      const NodeId id = pick();
      const std::string key = AttrKey(&rng);
      NodeRecord* rec = g.GetMutableNode(id);
      auto it = m.nodes.find(id);
      ASSERT_EQ(rec != nullptr, it != m.nodes.end());
      if (rec == nullptr) continue;
      if (rng.Bernoulli(0.5)) {
        rec->attrs.Set(key, "edited");
        it->second.Set(key, "edited");
      } else {
        ASSERT_EQ(rec->attrs.Erase(key), it->second.Erase(key));
      }
    } else {
      const NodeId u = pick();
      const NodeId v = pick();
      EdgeRecord* rec = g.GetMutableEdge(u, v);
      auto it = m.edges.find(EdgeKey(u, v));
      ASSERT_EQ(rec != nullptr, it != m.edges.end());
      if (rec == nullptr) continue;
      rec->attrs.Set("w", std::to_string(step));
      it->second.attrs.Set("w", std::to_string(step));
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(g, m, all_ids));
  }
}

TEST(GraphModelTest, SmallDenseIdRange) {
  for (uint64_t seed : {1, 2}) {
    RunModel({.seed = seed, .id_range = 24, .stride = 1, .steps = 2500});
  }
}

TEST(GraphModelTest, GrowingSparseIds) {
  // Ids 2^33 apart: all in one low-bit class, so only the hash mixing
  // spreads them over the index.
  constexpr uint64_t kStride = uint64_t{1} << 33;
  RunModel({.seed = 4, .id_range = 160, .stride = kStride, .steps = 2500});
}

TEST(GraphModelTest, RelocatedEntriesStayReachable) {
  // Erase the first-inserted node of many: the last entry moves into its
  // slot and must stay reachable through the index, edges included.
  Graph g;
  for (NodeId i = 0; i < 100; ++i) g.AddEdge(i, i + 1);
  ASSERT_TRUE(g.RemoveNode(0));
  ASSERT_TRUE(g.RemoveEdge(1, 2));
  EXPECT_EQ(g.NumNodes(), 100u);
  EXPECT_EQ(g.NumEdges(), 98u);
  EXPECT_TRUE(g.HasNode(100));
  EXPECT_TRUE(g.HasEdge(99, 100));
  EXPECT_EQ(g.Neighbors(100), std::vector<NodeId>{99});
  EXPECT_EQ(Sorted(g.Neighbors(50)), (std::vector<NodeId>{49, 51}));
  EXPECT_TRUE(g.Neighbors(1).empty());
}

TEST(AlgorithmsTest, DegreeAndDensity) {
  Graph g = Triangle();
  EXPECT_EQ(algo::Degree(g, 1), 2u);
  EXPECT_DOUBLE_EQ(algo::AverageDegree(g), 2.0);
  EXPECT_DOUBLE_EQ(algo::Density(g), 1.0);  // complete graph
  Graph p = Path5();
  EXPECT_DOUBLE_EQ(algo::Density(p), 2.0 * 4 / (5 * 4));
}

TEST(AlgorithmsTest, ClusteringCoefficient) {
  Graph g = Triangle();
  EXPECT_DOUBLE_EQ(algo::LocalClusteringCoefficient(g, 1), 1.0);
  // Star: center has no neighbor links.
  Graph star;
  for (NodeId i = 2; i <= 5; ++i) star.AddEdge(1, i);
  EXPECT_DOUBLE_EQ(algo::LocalClusteringCoefficient(star, 1), 0.0);
  EXPECT_DOUBLE_EQ(algo::LocalClusteringCoefficient(star, 2), 0.0);
  // Triangle + pendant on node 1.
  Graph g2 = Triangle();
  g2.AddEdge(1, 4);
  EXPECT_DOUBLE_EQ(algo::LocalClusteringCoefficient(g2, 1), 1.0 / 3.0);
}

TEST(AlgorithmsTest, TriangleCount) {
  EXPECT_EQ(algo::TriangleCount(Triangle()), 1u);
  EXPECT_EQ(algo::TriangleCount(Path5()), 0u);
  // K4 has 4 triangles.
  Graph k4;
  for (NodeId i = 1; i <= 4; ++i) {
    for (NodeId j = i + 1; j <= 4; ++j) k4.AddEdge(i, j);
  }
  EXPECT_EQ(algo::TriangleCount(k4), 4u);
}

TEST(AlgorithmsTest, PageRankSumsToOneAndRanksHubs) {
  Graph star;
  for (NodeId i = 2; i <= 6; ++i) star.AddEdge(1, i);
  auto pr = algo::PageRank(star, 30);
  double sum = 0;
  for (const auto& [id, score] : pr) sum += score;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  for (NodeId i = 2; i <= 6; ++i) EXPECT_GT(pr[1], pr[i]);
}

TEST(AlgorithmsTest, BfsAndShortestPath) {
  Graph p = Path5();
  auto dist = algo::BfsDistances(p, 1);
  EXPECT_EQ(dist[5], 4);
  EXPECT_EQ(algo::ShortestPathLength(p, 1, 5), 4);
  EXPECT_EQ(algo::ShortestPathLength(p, 1, 1), 0);
  p.AddNode(99);
  EXPECT_EQ(algo::ShortestPathLength(p, 1, 99), -1);
  // Bounded BFS.
  auto bounded = algo::BfsDistances(p, 1, 2);
  EXPECT_TRUE(bounded.contains(3));
  EXPECT_FALSE(bounded.contains(4));
}

TEST(AlgorithmsTest, ConnectedComponents) {
  Graph g;
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  g.AddNode(5);
  auto cc = algo::ConnectedComponents(g);
  EXPECT_EQ(cc[1], cc[2]);
  EXPECT_EQ(cc[3], cc[4]);
  EXPECT_NE(cc[1], cc[3]);
  EXPECT_EQ(cc[5], 5u);
  EXPECT_EQ(algo::LargestComponentSize(g), 2u);
}

TEST(AlgorithmsTest, CountLabel) {
  Graph g;
  g.AddNode(1, Attributes{{"EntityType", "Author"}});
  g.AddNode(2, Attributes{{"EntityType", "Paper"}});
  g.AddNode(3, Attributes{{"EntityType", "Author"}});
  EXPECT_EQ(algo::CountLabel(g, "EntityType", "Author"), 2u);
  EXPECT_EQ(algo::CountLabel(g, "EntityType", "Editor"), 0u);
}

TEST(AlgorithmsTest, DegreeDistributionAndHub) {
  Graph star;
  for (NodeId i = 2; i <= 5; ++i) star.AddEdge(1, i);
  auto hist = algo::DegreeDistribution(star);
  EXPECT_EQ(hist[1], 4u);
  EXPECT_EQ(hist[4], 1u);
  EXPECT_EQ(algo::HighestDegreeNode(star), 1u);
  EXPECT_EQ(algo::HighestDegreeNode(Graph()), kInvalidNodeId);
}

TEST(AlgorithmsTest, InducedSubgraph) {
  Graph g = Triangle();
  g.AddEdge(3, 4);
  Graph sub = algo::InducedSubgraph(g, {1, 2, 3});
  EXPECT_EQ(sub.NumNodes(), 3u);
  EXPECT_EQ(sub.NumEdges(), 3u);
  EXPECT_FALSE(sub.HasNode(4));
}

TEST(AlgorithmsTest, KHopNeighborhood) {
  Graph p = Path5();
  auto one_hop = algo::KHopNeighborhood(p, 3, 1);
  EXPECT_EQ(one_hop.size(), 3u);  // {2,3,4}
  auto two_hop = algo::KHopNeighborhood(p, 3, 2);
  EXPECT_EQ(two_hop.size(), 5u);
}

}  // namespace
}  // namespace hgs
