#include "graph/graph.h"

#include <algorithm>
#include <stdexcept>

namespace hgs {

namespace {

// The slot indexes probe linearly from the low bits of these hashes, so
// dense ids must still spread: node ids go through a full finalizer, and
// EdgeKeyHash already mixes both endpoints.
uint64_t HashOf(NodeId id) { return Mix64(id); }
uint64_t HashOf(const EdgeKey& key) { return EdgeKeyHash{}(key); }

}  // namespace

// ---------------------------------------------------------------------------
// SlotIndex
// ---------------------------------------------------------------------------

template <typename Entry, typename Key>
size_t Graph::SlotIndex::Find(const std::vector<Entry>& entries,
                              const Key& key) const {
  if (table_.empty()) return kNoPos;
  const size_t pos = Probe(entries, key);
  return table_[pos] == kEmpty ? kNoPos : pos;
}

template <typename Entry, typename Key>
size_t Graph::SlotIndex::Probe(const std::vector<Entry>& entries,
                               const Key& key) const {
  size_t pos = HashOf(key) & mask();
  while (table_[pos] != kEmpty && !(entries[table_[pos]].key == key)) {
    pos = (pos + 1) & mask();
  }
  return pos;
}

template <typename Key>
size_t Graph::SlotIndex::FreePosition(const Key& key) const {
  size_t pos = HashOf(key) & mask();
  while (table_[pos] != kEmpty) pos = (pos + 1) & mask();
  return pos;
}

template <typename Entry>
void Graph::SlotIndex::Reserve(const std::vector<Entry>& entries, size_t n) {
  // Slot numbers are 32-bit and kEmpty is reserved: refuse, never truncate.
  if (n > kEmpty) {
    throw std::length_error("Graph: entry count exceeds 32-bit slot numbers");
  }
  if (2 * n <= table_.size()) return;
  size_t capacity = 8;
  while (capacity < 2 * n) capacity *= 2;
  table_.assign(capacity, kEmpty);
  for (size_t slot = 0; slot < entries.size(); ++slot) {
    table_[FreePosition(entries[slot].key)] = static_cast<uint32_t>(slot);
  }
}

template <typename Entry, typename Key>
std::pair<uint32_t, bool> Graph::SlotIndex::FindOrAppend(
    std::vector<Entry>* entries, const Key& key) {
  Reserve(*entries, entries->size() + 1);
  const size_t pos = Probe(*entries, key);
  if (table_[pos] != kEmpty) return {table_[pos], false};
  table_[pos] = static_cast<uint32_t>(entries->size());
  entries->emplace_back().key = key;
  return {table_[pos], true};
}

template <typename Entry>
void Graph::SlotIndex::Erase(std::vector<Entry>* entries, size_t pos) {
  const uint32_t slot = table_[pos];
  size_t hole = pos;
  for (size_t j = (pos + 1) & mask(); table_[j] != kEmpty;
       j = (j + 1) & mask()) {
    // The entry at j may fill the hole iff its home position lies
    // cyclically at or before the hole, i.e. the hole is on its probe path.
    const size_t home = HashOf((*entries)[table_[j]].key) & mask();
    if (((j - home) & mask()) >= ((j - hole) & mask())) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = kEmpty;

  const auto last = static_cast<uint32_t>(entries->size() - 1);
  if (slot != last) {
    size_t at = HashOf(entries->back().key) & mask();
    while (table_[at] != last) at = (at + 1) & mask();
    table_[at] = slot;
    (*entries)[slot] = std::move(entries->back());
  }
  entries->pop_back();
}

// ---------------------------------------------------------------------------
// Graph
// ---------------------------------------------------------------------------

const Graph::NodeEntry* Graph::FindNode(NodeId id) const {
  const size_t pos = node_index_.Find(nodes_, id);
  return pos == SlotIndex::kNoPos ? nullptr
                                  : &nodes_[node_index_.SlotAt(pos)];
}

const Graph::EdgeEntry* Graph::FindEdge(const EdgeKey& key) const {
  const size_t pos = edge_index_.Find(edges_, key);
  return pos == SlotIndex::kNoPos ? nullptr
                                  : &edges_[edge_index_.SlotAt(pos)];
}

bool Graph::AddNode(NodeId id, Attributes attrs) {
  const auto [slot, inserted] = node_index_.FindOrAppend(&nodes_, id);
  nodes_[slot].record.attrs = std::move(attrs);
  return inserted;
}

bool Graph::RemoveNode(NodeId id) {
  const size_t pos = node_index_.Find(nodes_, id);
  if (pos == SlotIndex::kNoPos) return false;
  // Every neighbor holds one back-reference and shares one edge with `id`.
  // Neither loop step touches `id`'s own entry, so its list stays valid.
  for (NodeId n : nodes_[node_index_.SlotAt(pos)].neighbors) {
    edge_index_.Erase(&edges_, edge_index_.Find(edges_, EdgeKey(id, n)));
    DetachNeighbor(n, id);
  }
  node_index_.Erase(&nodes_, pos);
  return true;
}

bool Graph::AddEdge(NodeId u, NodeId v, bool directed, Attributes attrs) {
  if (u == v) return false;  // self-loops excluded from the data model
  const uint32_t su = node_index_.FindOrAppend(&nodes_, u).first;
  const uint32_t sv = node_index_.FindOrAppend(&nodes_, v).first;
  const auto [slot, inserted] =
      edge_index_.FindOrAppend(&edges_, EdgeKey(u, v));
  edges_[slot].record =
      EdgeRecord{.src = u, .dst = v, .directed = directed,
                 .attrs = std::move(attrs)};
  if (inserted) {
    nodes_[su].neighbors.push_back(v);
    nodes_[sv].neighbors.push_back(u);
  }
  return inserted;
}

bool Graph::RemoveEdge(NodeId u, NodeId v) {
  const size_t pos = edge_index_.Find(edges_, EdgeKey(u, v));
  if (pos == SlotIndex::kNoPos) return false;
  edge_index_.Erase(&edges_, pos);
  DetachNeighbor(u, v);
  DetachNeighbor(v, u);
  return true;
}

void Graph::DetachNeighbor(NodeId from, NodeId nbr) {
  const size_t pos = node_index_.Find(nodes_, from);
  if (pos == SlotIndex::kNoPos) return;
  auto& vec = nodes_[node_index_.SlotAt(pos)].neighbors;
  auto it = std::find(vec.begin(), vec.end(), nbr);
  if (it != vec.end()) {
    *it = vec.back();
    vec.pop_back();
  }
}

Graph Graph::FromSortedComponents(std::span<const NodeComponent> nodes,
                                  std::span<const EdgeComponent> edges) {
  Graph g;
  // 1. Nodes, in ascending id order; then their index, sized once.
  g.nodes_.reserve(nodes.size());
  for (const auto& [id, rec] : nodes) {
    if (rec.has_value()) {
      g.nodes_.push_back(NodeEntry{.key = id, .record = *rec, .neighbors = {}});
    }
  }
  g.node_index_.Reserve(g.nodes_, g.nodes_.size());
  auto slot_of = [&g](NodeId id) {
    const size_t pos = g.node_index_.Find(g.nodes_, id);
    return pos == SlotIndex::kNoPos ? SlotIndex::kEmpty
                                    : g.node_index_.SlotAt(pos);
  };

  // 2. One pass over the edges: keep those AddEdge would take (present,
  // not a self-loop, both endpoints nodes), noting their endpoint slots,
  // and count degrees.
  struct Kept {
    const EdgeRecord* record;
    uint32_t src_slot;
    uint32_t dst_slot;
  };
  std::vector<Kept> kept;
  kept.reserve(edges.size());
  std::vector<uint32_t> degree(g.nodes_.size(), 0);
  for (const auto& [key, rec] : edges) {
    if (!rec.has_value() || rec->src == rec->dst) continue;
    const uint32_t src_slot = slot_of(rec->src);
    if (src_slot == SlotIndex::kEmpty) continue;
    const uint32_t dst_slot = slot_of(rec->dst);
    if (dst_slot == SlotIndex::kEmpty) continue;
    ++degree[src_slot];
    ++degree[dst_slot];
    kept.push_back(
        Kept{.record = &*rec, .src_slot = src_slot, .dst_slot = dst_slot});
  }

  // 3. Every neighbor list reserved to its exact degree.
  for (size_t slot = 0; slot < g.nodes_.size(); ++slot) {
    g.nodes_[slot].neighbors.reserve(degree[slot]);
  }

  // 4. The edges, into an index sized once. A delta may file two records
  // of one edge under different keys; as with AddEdge, the later wins.
  g.edges_.reserve(kept.size());
  g.edge_index_.Reserve(g.edges_, kept.size());
  for (const Kept& k : kept) {
    const EdgeRecord& rec = *k.record;
    const auto [slot, appended] =
        g.edge_index_.FindOrAppend(&g.edges_, EdgeKey(rec.src, rec.dst));
    g.edges_[slot].record = rec;
    if (appended) {
      g.nodes_[k.src_slot].neighbors.push_back(rec.dst);
      g.nodes_[k.dst_slot].neighbors.push_back(rec.src);
    }
  }
  return g;
}

const NodeRecord* Graph::GetNode(NodeId id) const {
  const NodeEntry* e = FindNode(id);
  return e == nullptr ? nullptr : &e->record;
}

NodeRecord* Graph::GetMutableNode(NodeId id) {
  return const_cast<NodeRecord*>(GetNode(id));
}

const EdgeRecord* Graph::GetEdge(NodeId u, NodeId v) const {
  const EdgeEntry* e = FindEdge(EdgeKey(u, v));
  return e == nullptr ? nullptr : &e->record;
}

EdgeRecord* Graph::GetMutableEdge(NodeId u, NodeId v) {
  return const_cast<EdgeRecord*>(GetEdge(u, v));
}

const std::vector<NodeId>& Graph::Neighbors(NodeId id) const {
  static const std::vector<NodeId> kEmpty;
  const NodeEntry* e = FindNode(id);
  return e == nullptr ? kEmpty : e->neighbors;
}

void Graph::ForEachNode(
    const std::function<void(NodeId, const NodeRecord&)>& fn) const {
  for (const NodeEntry& e : nodes_) fn(e.key, e.record);
}

void Graph::ForEachEdge(
    const std::function<void(const EdgeKey&, const EdgeRecord&)>& fn) const {
  for (const EdgeEntry& e : edges_) fn(e.key, e.record);
}

std::vector<NodeId> Graph::NodeIds() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const NodeEntry& e : nodes_) ids.push_back(e.key);
  return ids;
}

bool Graph::operator==(const Graph& o) const {
  if (nodes_.size() != o.nodes_.size() || edges_.size() != o.edges_.size()) {
    return false;
  }
  for (const NodeEntry& e : nodes_) {
    const NodeEntry* other = o.FindNode(e.key);
    if (other == nullptr || !(e.record == other->record)) return false;
  }
  for (const EdgeEntry& e : edges_) {
    const EdgeEntry* other = o.FindEdge(e.key);
    if (other == nullptr || !(e.record == other->record)) return false;
  }
  return true;
}

}  // namespace hgs
