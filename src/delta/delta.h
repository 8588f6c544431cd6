// Delta (Definition 2): a keyed collection of static graph components, with
// the algebra of Section 4.1 — sum (+), difference (-), intersection (∩) and
// union (∪). Every temporal index in this repository (Log, Copy, Copy+Log,
// NodeCentric, DeltaGraph, TGI) is a particular arrangement of Deltas.
//
// Representation: two sorted flat maps keyed by NodeId / canonical EdgeKey
// (FlatEntryMap below): a vector of unique (key, optional<record>) entries in
// ascending key order, plus a small unsorted append tail that is merged on
// demand. Micro-deltas stay tiny and allocation-light (writes are O(1)
// appends), while snapshot-scale algebra runs as linear two-pointer merges
// over the sorted spans instead of per-entry hash inserts. A mapped value of
// nullopt is a *tombstone* — "this component is absent" — which is how
// deletion events propagate through sums. Snapshot deltas contain no
// tombstones.
//
// Algebra semantics (set semantics over (key, state) pairs, per the paper):
//  * Sum:          right operand wins on key collision (Def. 4; order
//                  sensitivity is exactly the paper's Δ1+Δ2 ≠ Δ2+Δ1).
//  * Difference:   pairs of Δ1 whose (key, state) is not identically in Δ2.
//  * Intersection: pairs identical in both (the DeltaGraph parent
//                  construction).
//  * Union:        all pairs, left-biased on key collision.

#ifndef HGS_DELTA_DELTA_H_
#define HGS_DELTA_DELTA_H_

#include <functional>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/serde.h"
#include "common/types.h"
#include "delta/event.h"
#include "graph/graph.h"

namespace hgs {

class EventList;

namespace internal {

/// Sorted flat map of (key, optional<record>) entries: `sorted_` holds unique
/// keys in ascending order; `tail_` holds recent writes in append order
/// (later entries win, duplicates allowed), merged into `sorted_` once it
/// outgrows an adaptive threshold. Writes are O(1); lookups are a binary
/// search plus a backwards tail scan; ordered reads on a compact map touch
/// `sorted_` directly.
///
/// Const methods never mutate (no lazy compaction), so compact maps — which
/// is what deserialization and every merge produce — are safe to share
/// read-only across threads (the decoded-cache contract).
template <typename Key, typename Rec>
class FlatEntryMap {
 public:
  using Entry = std::pair<Key, std::optional<Rec>>;

  /// Insert-or-overwrite as an O(1) tail append (amortized: appends
  /// occasionally trigger a tail merge).
  void Set(Key key, std::optional<Rec> rec);

  /// Bulk-load fast path for entries arriving in ascending key order (the
  /// shape of a serialized delta); falls back to Set() when out of order.
  void AppendOrdered(Key key, std::optional<Rec> rec);

  /// nullptr: no entry; pointer to nullopt: tombstone; else the state.
  const std::optional<Rec>* Find(const Key& key) const;

  /// Mutable lookup for in-place read-modify-write (the found entry is the
  /// current winner, so editing it in place is always sound).
  std::optional<Rec>* FindMutable(const Key& key);

  /// Number of unique keys. O(1) when compact; counts through the tail
  /// otherwise.
  size_t size() const;
  bool empty() const { return sorted_.empty() && tail_.empty(); }

  /// Upper bound on size(): raw entry count including tail duplicates.
  size_t TotalEntries() const { return sorted_.size() + tail_.size(); }

  /// Pending (unsorted) writes. Lookups scan these linearly.
  size_t TailEntries() const { return tail_.size(); }

  void ReserveSorted(size_t n) { sorted_.reserve(n); }
  void Clear();

  /// Folds the tail into the sorted span (stable, later writes win).
  void Compact();
  bool IsCompact() const { return tail_.empty(); }

  /// The sorted span. Callers that require every entry must hold
  /// IsCompact(); use ForEachOrdered() otherwise.
  const std::vector<Entry>& sorted_entries() const { return sorted_; }

  /// Mutable sorted span for in-place folds. Requires IsCompact(); callers
  /// must preserve key order and uniqueness.
  std::vector<Entry>& mutable_sorted_entries() { return sorted_; }

  /// `*this` when compact, else a compacted copy built in `*scratch`. Lets
  /// two-pointer merges assume sorted operands with one code path.
  const FlatEntryMap& CompactedOrSelf(FlatEntryMap* scratch) const;

  /// Key-ordered entry pointers, tail included (no record copies).
  std::vector<const Entry*> MergedPtrs() const;

  /// Visits entries in ascending key order, tail included.
  template <typename Fn>
  void ForEachOrdered(Fn&& fn) const {
    if (tail_.empty()) {
      for (const Entry& e : sorted_) fn(e);
      return;
    }
    for (const Entry* p : MergedPtrs()) fn(*p);
  }

  /// In-place sum: this ← this + other (other wins on collisions). A small
  /// right operand is appended through the tail and folded in by a later
  /// compaction; large operands take the linear two-pointer path. Summing
  /// many operands is SumAll's job.
  void MergeFrom(const FlatEntryMap& other);

  /// maps[0] + maps[1] + … in one k-way merge over the sorted spans
  /// (tailed operands are compacted into scratch copies first). The later
  /// map wins on a key, and each surviving entry is copied once into an
  /// output reserved up front.
  static FlatEntryMap SumAll(std::span<const FlatEntryMap* const> maps);

  /// Replaces contents with `entries` (unique keys, any order).
  void AssignUnsortedUnique(std::vector<Entry>&& entries);

  /// Merges `entries` — strictly ascending keys, all absent from this map —
  /// with one backward in-place merge (no sort, no dedup). The batched
  /// event-replay path lands its new keys through here.
  void MergeDisjointSorted(std::vector<Entry>&& entries);

  /// Logical equality (representation-independent).
  bool EqualsLogical(const FlatEntryMap& o) const;

 private:
  void MaybeCompact() {
    if (tail_.size() >= kTailBase + sorted_.size() / 8) Compact();
  }

  /// Tail size that triggers a merge. Proportional to the sorted span so
  /// repeated appends amortize to O(1) per entry; the constant keeps
  /// micro-deltas from ever merging at all.
  static constexpr size_t kTailBase = 32;

  std::vector<Entry> sorted_;
  std::vector<Entry> tail_;
};

}  // namespace internal

class Delta {
 public:
  using NodeMap = internal::FlatEntryMap<NodeId, NodeRecord>;
  using EdgeMap = internal::FlatEntryMap<EdgeKey, EdgeRecord>;

  Delta() = default;

  // -- component mutation ------------------------------------------------
  void PutNode(NodeId id, NodeRecord rec) { nodes_.Set(id, std::move(rec)); }
  void TombstoneNode(NodeId id) { nodes_.Set(id, std::nullopt); }
  void PutEdge(const EdgeKey& key, EdgeRecord rec) {
    edges_.Set(key, std::move(rec));
  }
  void TombstoneEdge(const EdgeKey& key) { edges_.Set(key, std::nullopt); }

  /// Applies an event in timestamp order onto this (accumulating) delta.
  /// Attribute events on components not yet present create them, which makes
  /// partial (per-partition) accumulation well defined.
  void ApplyEvent(const Event& e);

  /// Batched replay: applies the events of `el` with after < time <= upto
  /// (`after == kMinTimestamp` means unbounded below) with per-key grouping —
  /// each touched key is located once and its events folded in order, and
  /// remove-node events tombstone incident edges in one bounded pass instead
  /// of one scan per event. Requires `el` chronologically sorted (the
  /// EventList invariant); result is identical to the sequential
  /// ApplyEvent loop over the same window.
  void ApplyEvents(const EventList& el, Timestamp after, Timestamp upto);

  /// Replays the (after, upto] window of every list, in list order, as one
  /// batched pass over the concatenated windows: equal to calling
  /// ApplyEvents on each list in turn.
  void ApplyEvents(std::span<const EventList* const> lists, Timestamp after,
                   Timestamp upto);

  // -- lookup --------------------------------------------------------------
  /// nullptr: no entry; pointer to nullopt: tombstone; else the state.
  const std::optional<NodeRecord>* FindNode(NodeId id) const;
  const std::optional<EdgeRecord>* FindEdge(const EdgeKey& key) const;

  size_t NodeEntryCount() const { return nodes_.size(); }
  size_t EdgeEntryCount() const { return edges_.size(); }

  /// Cardinality (Definition 3): number of unique component descriptions.
  size_t Cardinality() const { return nodes_.size() + edges_.size(); }
  bool Empty() const { return nodes_.empty() && edges_.empty(); }

  /// Exact wire size of Serialize() (payload + checksum); used for the cost
  /// accounting of Table 1 and for decoded-cache byte charging.
  size_t SerializedSizeBytes() const;

  /// Merges the append tails into the sorted spans. Deserialization and the
  /// algebra produce compact deltas already; builders that write thousands
  /// of entries through PutNode/PutEdge can compact once before handing the
  /// delta to read-side code.
  void Compact();
  bool IsCompact() const { return nodes_.IsCompact() && edges_.IsCompact(); }

  // -- algebra -------------------------------------------------------------
  /// In-place sum: this ← this + other (other wins on collisions).
  void Add(const Delta& other);

  static Delta Sum(const Delta& a, const Delta& b);

  /// rows[0] + rows[1] + … + rows[n-1] in one k-way pass per component map
  /// (later rows win on a key; each surviving entry is copied once): equal
  /// to the sequential Add chain from an empty delta. Snapshot
  /// reconstruction sums a root-to-leaf path of tree-delta rows this way.
  static Delta SumAll(std::span<const Delta* const> rows);

  static Delta Difference(const Delta& a, const Delta& b);
  static Delta Intersect(const Delta& a, const Delta& b);
  static Delta Union(const Delta& a, const Delta& b);

  // -- conversion ----------------------------------------------------------
  /// Materializes the non-tombstone components as a Graph: AddNode for
  /// every present node, then AddEdge, in key order, for every present edge
  /// whose endpoints are both nodes. Edges with a missing endpoint are
  /// dropped (arises for partition-scoped deltas whose edge has its other
  /// endpoint elsewhere), as are self-loops. Built in one sized pass over
  /// the sorted spans (Graph::FromSortedComponents): nodes appended in
  /// ascending id order, each index sized once, every neighbor list
  /// reserved to its exact degree. The graph iterates nodes by ascending id
  /// and edges in entry order: ascending canonical key when every edge is
  /// filed under its own record's key.
  Graph ToGraph() const;

  /// Snapshot delta of a graph: ∆ = G - ∅ (Example 4).
  static Delta FromGraph(const Graph& g);

  /// Restriction to a node set: node components in `ids` plus edge
  /// components with at least one endpoint in `ids` (Example 5 semantics).
  Delta FilterByNodes(const std::unordered_set<NodeId>& ids) const;

  /// Restriction to each of `ids` (strictly ascending): out[i] holds the
  /// entry of ids[i] and every edge entry incident to it, tombstones
  /// included. One pass over the edges serves every id, and stops at the
  /// first key whose smaller endpoint exceeds the last id.
  std::vector<Delta> FilterByIds(std::span<const NodeId> ids) const;

  /// Restriction to a single node and its incident edges: FilterByIds'
  /// one-id case.
  Delta FilterById(NodeId id) const;

  // -- iteration -----------------------------------------------------------
  // Entries are visited in ascending key order.
  void ForEachNodeEntry(
      const std::function<void(NodeId, const std::optional<NodeRecord>&)>& fn)
      const;
  void ForEachEdgeEntry(
      const std::function<void(const EdgeKey&,
                               const std::optional<EdgeRecord>&)>& fn) const;

  // -- serialization -------------------------------------------------------
  // Entries serialize in ascending key order, so deserialization decodes
  // straight into the sorted span with no per-entry insertion cost.
  std::string Serialize() const;
  static Result<Delta> Deserialize(std::string_view data);

  bool operator==(const Delta& o) const;

  // -- instrumentation -----------------------------------------------------
  /// Edge entries examined by remove-node incident-edge tombstoning on this
  /// thread. Regression guard: batched replay of R removals over E edge
  /// entries performs one bounded pass (≤ E steps), not R full scans.
  static uint64_t IncidentEdgeScanSteps();
  static void ResetIncidentEdgeScanSteps();

 private:
  /// Decodes the kColumnar alternative serialization (the schema codec in
  /// delta.cc); Deserialize routes here on the columnar magic.
  static Result<Delta> DeserializeColumnar(std::string_view payload);

  /// Batched replay of the `n` events at(0), …, at(n - 1), in that order
  /// (see ApplyEvents).
  template <typename EventAt>
  void ApplyEventsRange(size_t n, EventAt at);

  /// Tombstones present edges incident to a removed node, scanning only the
  /// sorted prefix whose canonical minimum endpoint is <= the largest id in
  /// `removed` (sorted, unique). Entries whose key is in `skip` (sorted) are
  /// left alone — they were folded with removal events interleaved already.
  void TombstoneIncidentEdges(const std::vector<NodeId>& removed,
                              const std::vector<EdgeKey>& skip);

  NodeMap nodes_;
  EdgeMap edges_;
};

}  // namespace hgs

#endif  // HGS_DELTA_DELTA_H_
