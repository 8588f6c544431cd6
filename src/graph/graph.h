// An in-memory graph snapshot: the materialized state of the evolving graph
// at one timepoint. This is what TGI's GetSnapshot returns and what the graph
// algorithm library (graph/algorithms.h) operates on.
//
// Layout: two dense vectors, one entry per node ({id, record, neighbor ids})
// and one per edge ({canonical key, record}). Each vector sits behind an
// open-addressing index of 32-bit slot numbers (mixing hash, linear probing,
// at most half full, backward-shift delete); the keys live in the entries,
// so a lookup is one probe sequence plus a key compare per occupied
// position. Erasing an entry moves the vector's last entry into its place,
// so both vectors stay dense. Delta::ToGraph fills the storage in one sized
// pass: nodes appended in ascending id order, each index sized once, and
// every neighbor list reserved to its exact degree before the edges land.
//
// Invalidation: every AddNode, RemoveNode, AddEdge and RemoveEdge call
// invalidates all pointers and references previously returned by GetNode,
// GetMutableNode, GetEdge, GetMutableEdge and Neighbors (an insert may grow
// a vector; an erase relocates the last entry). Copy what must outlive the
// mutation. Editing a record through GetMutable* moves nothing.
//
// Iteration order (ForEachNode, ForEachEdge, NodeIds): a graph from
// Delta::ToGraph visits nodes in ascending id and edges in the delta's
// entry order. That is ascending canonical key order when every edge entry
// is filed under its own record's key, as in every delta the store builds.
// Otherwise entries appear in insertion order, except that each erase moves
// the then-last entry into the erased one's position.
//
// Const methods never mutate (the indexes are maintained eagerly), so any
// number of threads may read one graph concurrently.

#ifndef HGS_GRAPH_GRAPH_H_
#define HGS_GRAPH_GRAPH_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"
#include "graph/components.h"

namespace hgs {

class Delta;

class Graph {
 public:
  Graph() = default;

  /// Inserts a node; returns false (and overwrites attrs) if it existed.
  bool AddNode(NodeId id, Attributes attrs = {});

  /// Removes a node and all incident edges; returns false if absent.
  bool RemoveNode(NodeId id);

  /// Inserts an edge; creates missing endpoints implicitly. Returns false
  /// (and overwrites the record) if the edge existed.
  bool AddEdge(NodeId u, NodeId v, bool directed = false,
               Attributes attrs = {});

  /// Removes an edge; returns false if absent.
  bool RemoveEdge(NodeId u, NodeId v);

  bool HasNode(NodeId id) const { return FindNode(id) != nullptr; }
  bool HasEdge(NodeId u, NodeId v) const {
    return FindEdge(EdgeKey(u, v)) != nullptr;
  }

  /// Node record, or nullptr.
  const NodeRecord* GetNode(NodeId id) const;
  NodeRecord* GetMutableNode(NodeId id);

  /// Edge record, or nullptr.
  const EdgeRecord* GetEdge(NodeId u, NodeId v) const;
  EdgeRecord* GetMutableEdge(NodeId u, NodeId v);

  /// Neighbor ids of `id` (both directions); empty vector if absent.
  const std::vector<NodeId>& Neighbors(NodeId id) const;

  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  void ForEachNode(
      const std::function<void(NodeId, const NodeRecord&)>& fn) const;
  void ForEachEdge(
      const std::function<void(const EdgeKey&, const EdgeRecord&)>& fn) const;

  /// All node ids, in iteration order.
  std::vector<NodeId> NodeIds() const;

  bool operator==(const Graph& o) const;

 private:
  friend class Delta;

  struct NodeEntry {
    NodeId key = kInvalidNodeId;
    NodeRecord record;
    std::vector<NodeId> neighbors;
  };

  struct EdgeEntry {
    EdgeKey key;
    EdgeRecord record;
  };

  /// Open-addressing table of slot numbers into a dense entry vector
  /// (whose entries carry the keys). The capacity is zero or a power of
  /// two, and the table is kept at most half full.
  class SlotIndex {
   public:
    static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
    static constexpr size_t kNoPos = std::numeric_limits<size_t>::max();

    /// Position holding the entry with `key`, or kNoPos.
    template <typename Entry, typename Key>
    size_t Find(const std::vector<Entry>& entries, const Key& key) const;

    uint32_t SlotAt(size_t pos) const { return table_[pos]; }

    /// Grows the table, if needed, so that `n` entries fit at most half
    /// full, re-inserting every entry of `entries`. Throws
    /// std::length_error when `n` exceeds what a 32-bit slot can number.
    template <typename Entry>
    void Reserve(const std::vector<Entry>& entries, size_t n);

    /// Slot of the entry with `key`; if absent, a default entry with that
    /// key is appended and indexed first. `.second` is true if appended.
    template <typename Entry, typename Key>
    std::pair<uint32_t, bool> FindOrAppend(std::vector<Entry>* entries,
                                           const Key& key);

    /// Erases the entry indexed at `pos`: a backward-shift delete in the
    /// table, then the last entry moves into the freed slot.
    template <typename Entry>
    void Erase(std::vector<Entry>* entries, size_t pos);

   private:
    size_t mask() const { return table_.size() - 1; }

    /// Position holding the entry with `key`, else the empty position where
    /// it belongs. Requires a non-empty table.
    template <typename Entry, typename Key>
    size_t Probe(const std::vector<Entry>& entries, const Key& key) const;

    /// The empty position where `key`, known to be absent, belongs; no key
    /// compares. Requires a non-empty table.
    template <typename Key>
    size_t FreePosition(const Key& key) const;

    std::vector<uint32_t> table_;
  };

  using NodeComponent = std::pair<NodeId, std::optional<NodeRecord>>;
  using EdgeComponent = std::pair<EdgeKey, std::optional<EdgeRecord>>;

  /// Delta::ToGraph's one sized pass over compact component spans
  /// (ascending unique keys; nullopt marks a tombstone). Equal to AddNode
  /// for every present node, then AddEdge, in entry order, for every
  /// present edge whose endpoints are both nodes.
  static Graph FromSortedComponents(std::span<const NodeComponent> nodes,
                                    std::span<const EdgeComponent> edges);

  const NodeEntry* FindNode(NodeId id) const;
  const EdgeEntry* FindEdge(const EdgeKey& key) const;

  void DetachNeighbor(NodeId from, NodeId nbr);

  std::vector<NodeEntry> nodes_;
  std::vector<EdgeEntry> edges_;
  SlotIndex node_index_;
  SlotIndex edge_index_;
};

}  // namespace hgs

#endif  // HGS_GRAPH_GRAPH_H_
