// Synthetic dataset generators standing in for the paper's evaluation traces
// (see "Substitutions" in README.md):
//   Dataset 1 — Wikipedia citation network: growth-only preferential
//               attachment (new nodes cite existing high-degree nodes).
//   Dataset 2/3 — Dataset 1 augmented with random edge add/delete churn.
//   Dataset 4 — Friendster-like social graph: community-structured edges
//               with uniformly spaced timestamps.
//   DBLP-like — bipartite-ish Author/Paper labelled graph with attribute
//               churn, for the incremental-computation experiments (Fig 17).
//
// All generators are deterministic given the seed and emit *well-formed*
// event streams: strictly increasing timestamps, edges added only between
// live nodes, RemoveEdge before an endpoint's RemoveNode.

#ifndef HGS_WORKLOAD_GENERATORS_H_
#define HGS_WORKLOAD_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "delta/event.h"

namespace hgs::workload {

struct WikiGrowthOptions {
  uint64_t num_events = 100'000;
  /// Probability an event is a node arrival (otherwise an edge/citation).
  double node_arrival_prob = 0.15;
  /// Fraction of events that set a node attribute instead of structure.
  double attr_event_prob = 0.05;
  /// Zipf skew of citation-target popularity.
  double zipf_skew = 1.0;
  uint64_t seed = 1;
};

/// Growth-only citation network (Dataset 1 analogue).
std::vector<Event> GenerateWikiGrowth(const WikiGrowthOptions& options);

struct ChurnOptions {
  uint64_t num_events = 100'000;
  /// Probability a churn event deletes an existing edge (otherwise adds).
  double delete_prob = 0.45;
  uint64_t seed = 2;
};

/// Appends random add/delete churn after an existing history (Dataset 2/3
/// analogues). `base` must be a well-formed stream; the result is the
/// concatenation with strictly increasing timestamps.
std::vector<Event> AugmentWithChurn(std::vector<Event> base,
                                    const ChurnOptions& options);

struct FriendsterOptions {
  uint64_t num_nodes = 20'000;
  uint64_t num_edges = 80'000;
  /// Expected community size for the planted partition structure.
  uint64_t community_size = 200;
  /// Probability an edge is intra-community.
  double intra_community_prob = 0.8;
  uint64_t seed = 3;
};

/// Community-structured social graph with uniform timestamps (Dataset 4
/// analogue). Node arrivals are interleaved with edge additions; every node
/// carries a "community" attribute.
std::vector<Event> GenerateFriendster(const FriendsterOptions& options);

struct DblpOptions {
  uint64_t num_authors = 2'000;
  uint64_t num_papers = 6'000;
  /// Authors per paper (edges paper->author).
  uint64_t authors_per_paper = 3;
  /// Attribute-churn events appended after the structure is built.
  uint64_t num_attr_events = 20'000;
  uint64_t seed = 4;
};

/// Author/Paper labelled collaboration graph with EntityType attribute churn
/// (Fig 17's label-counting workload).
std::vector<Event> GenerateDblp(const DblpOptions& options);

/// Timestamp of the last event (0 for an empty stream).
Timestamp EndTime(const std::vector<Event>& events);

/// Replays a full stream into a Graph (the reference "ground truth" used by
/// the correctness tests).
Graph ReplayToGraph(const std::vector<Event>& events, Timestamp upto);

}  // namespace hgs::workload

#endif  // HGS_WORKLOAD_GENERATORS_H_
