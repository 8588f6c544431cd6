#include "delta/delta.h"

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>

#include "common/columnar.h"
#include "common/compression.h"
#include "delta/eventlist.h"

namespace hgs {

namespace {

// Edge entries examined by remove-node incident-edge tombstoning; see
// Delta::IncidentEdgeScanSteps().
thread_local uint64_t t_incident_scan_steps = 0;

struct EntryKeyLess {
  template <typename Entry>
  bool operator()(const Entry& a, const Entry& b) const {
    return a.first < b.first;
  }
};

// Keeps the last of every run of equal-key entries (runs are write-ordered
// after a stable sort / stable merge, so "last" is the latest write).
template <typename Entry>
void DedupKeepLast(std::vector<Entry>* v) {
  size_t w = 0;
  for (size_t i = 0; i < v->size(); ++i) {
    if (i + 1 < v->size() && (*v)[i + 1].first == (*v)[i].first) continue;
    if (w != i) (*v)[w] = std::move((*v)[i]);
    ++w;
  }
  v->resize(w);
}

// [first, last) indices of events with after < time <= upto. `after ==
// kMinTimestamp` means unbounded below (so events carrying the sentinel
// timestamp itself are still included). Requires chronological order, the
// same precondition ApplyUpTo has always had.
std::pair<size_t, size_t> EventWindow(const std::vector<Event>& ev,
                                      Timestamp after, Timestamp upto) {
  auto first =
      after == kMinTimestamp
          ? ev.begin()
          : std::partition_point(ev.begin(), ev.end(), [after](const Event& e) {
              return e.time <= after;
            });
  auto last = std::partition_point(
      first, ev.end(), [upto](const Event& e) { return e.time <= upto; });
  return {static_cast<size_t>(first - ev.begin()),
          static_cast<size_t>(last - ev.begin())};
}

// First index >= `from` whose entry key is >= `key`, by exponential search.
// Group keys arrive in ascending order, so a cursor galloped forward visits
// the sorted span once overall (O(G log(n/G)) instead of G full binary
// searches).
template <typename Entry, typename Key>
size_t GallopToKey(const std::vector<Entry>& entries, size_t from,
                   const Key& key) {
  size_t lo = from;
  size_t step = 1;
  while (lo + step < entries.size() && entries[lo + step].first < key) {
    lo += step;
    step <<= 1;
  }
  const size_t hi = std::min(entries.size(), lo + step + 1);
  auto it = std::lower_bound(
      entries.begin() + static_cast<ptrdiff_t>(lo),
      entries.begin() + static_cast<ptrdiff_t>(hi), key,
      [](const Entry& e, const Key& k) { return e.first < k; });
  return static_cast<size_t>(it - entries.begin());
}

// Stable LSD radix pass set over a u64 key digit-by-digit (8-bit digits,
// all-zero digits skipped via the OR mask). Refs are small trivially
// copyable (key, index) pairs; radix beats comparison sort ~5x on the
// window sizes event replay produces.
template <typename Ref, typename KeyFn>
void StableRadixByU64(std::vector<Ref>* v, KeyFn key_of) {
  const size_t n = v->size();
  uint64_t ormask = 0;
  for (const Ref& r : *v) ormask |= key_of(r);
  std::vector<Ref> buf(n);
  Ref* src = v->data();
  Ref* dst = buf.data();
  bool in_v = true;
  for (int shift = 0; shift < 64; shift += 8) {
    if (((ormask >> shift) & 0xFF) == 0) continue;
    size_t count[256] = {};
    for (size_t i = 0; i < n; ++i) {
      ++count[(key_of(src[i]) >> shift) & 0xFF];
    }
    size_t pos = 0;
    for (size_t d = 0; d < 256; ++d) {
      size_t c = count[d];
      count[d] = pos;
      pos += c;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[count[(key_of(src[i]) >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
    in_v = !in_v;
  }
  if (!in_v) std::copy(buf.begin(), buf.end(), v->begin());
}

// Sorts (key, event index) refs by key, keeping index order within equal
// keys (the refs are built in index order and every radix pass is stable).
void SortRefs(std::vector<std::pair<NodeId, uint32_t>>* refs) {
  if (refs->size() < 512) {
    std::sort(refs->begin(), refs->end());
    return;
  }
  StableRadixByU64(refs, [](const auto& r) { return r.first; });
}

void SortRefs(std::vector<std::pair<EdgeKey, uint32_t>>* refs) {
  if (refs->size() < 512) {
    std::sort(refs->begin(), refs->end());
    return;
  }
  // LSD multi-key: minor key (v) first, then stable passes on the major
  // key (u) — equal (u, v) runs keep their original index order.
  StableRadixByU64(refs, [](const auto& r) { return r.first.v; });
  StableRadixByU64(refs, [](const auto& r) { return r.first.u; });
}

// Heterogeneous (entry, node id) ordering for equal_range over the sorted
// removal index list.
struct RemovalLess {
  bool operator()(const std::pair<NodeId, uint32_t>& a, NodeId b) const {
    return a.first < b;
  }
  bool operator()(NodeId a, const std::pair<NodeId, uint32_t>& b) const {
    return a < b.first;
  }
};

}  // namespace

namespace internal {

// ---------------------------------------------------------------------------
// FlatEntryMap
// ---------------------------------------------------------------------------

template <typename Key, typename Rec>
void FlatEntryMap<Key, Rec>::Set(Key key, std::optional<Rec> rec) {
  tail_.emplace_back(std::move(key), std::move(rec));
  MaybeCompact();
}

template <typename Key, typename Rec>
void FlatEntryMap<Key, Rec>::AppendOrdered(Key key, std::optional<Rec> rec) {
  if (tail_.empty() && (sorted_.empty() || sorted_.back().first < key)) {
    sorted_.emplace_back(std::move(key), std::move(rec));
  } else {
    Set(std::move(key), std::move(rec));
  }
}

template <typename Key, typename Rec>
const std::optional<Rec>* FlatEntryMap<Key, Rec>::Find(const Key& key) const {
  for (auto it = tail_.rbegin(); it != tail_.rend(); ++it) {
    if (it->first == key) return &it->second;
  }
  auto it = std::lower_bound(
      sorted_.begin(), sorted_.end(), key,
      [](const Entry& e, const Key& k) { return e.first < k; });
  if (it != sorted_.end() && it->first == key) return &it->second;
  return nullptr;
}

template <typename Key, typename Rec>
std::optional<Rec>* FlatEntryMap<Key, Rec>::FindMutable(const Key& key) {
  return const_cast<std::optional<Rec>*>(
      static_cast<const FlatEntryMap*>(this)->Find(key));
}

template <typename Key, typename Rec>
size_t FlatEntryMap<Key, Rec>::size() const {
  if (tail_.empty()) return sorted_.size();
  std::vector<Key> keys;
  keys.reserve(tail_.size());
  for (const Entry& e : tail_) keys.push_back(e.first);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  size_t extra = 0;
  for (const Key& k : keys) {
    auto it = std::lower_bound(
        sorted_.begin(), sorted_.end(), k,
        [](const Entry& e, const Key& key) { return e.first < key; });
    if (it == sorted_.end() || !(it->first == k)) ++extra;
  }
  return sorted_.size() + extra;
}

template <typename Key, typename Rec>
void FlatEntryMap<Key, Rec>::Clear() {
  sorted_.clear();
  tail_.clear();
}

template <typename Key, typename Rec>
void FlatEntryMap<Key, Rec>::Compact() {
  if (tail_.empty()) return;
  std::stable_sort(tail_.begin(), tail_.end(), EntryKeyLess{});
  DedupKeepLast(&tail_);
  if (sorted_.empty()) {
    sorted_ = std::move(tail_);
    tail_.clear();
    return;
  }
  const size_t mid = sorted_.size();
  sorted_.insert(sorted_.end(), std::make_move_iterator(tail_.begin()),
                 std::make_move_iterator(tail_.end()));
  tail_.clear();
  // Stable merge keeps tail entries after equal-key sorted entries, so the
  // keep-last dedup retains the later write.
  std::inplace_merge(sorted_.begin(),
                     sorted_.begin() + static_cast<ptrdiff_t>(mid),
                     sorted_.end(), EntryKeyLess{});
  DedupKeepLast(&sorted_);
}

template <typename Key, typename Rec>
const FlatEntryMap<Key, Rec>& FlatEntryMap<Key, Rec>::CompactedOrSelf(
    FlatEntryMap* scratch) const {
  if (tail_.empty()) return *this;
  *scratch = *this;
  scratch->Compact();
  return *scratch;
}

template <typename Key, typename Rec>
std::vector<const typename FlatEntryMap<Key, Rec>::Entry*>
FlatEntryMap<Key, Rec>::MergedPtrs() const {
  std::vector<const Entry*> out;
  if (tail_.empty()) {
    out.reserve(sorted_.size());
    for (const Entry& e : sorted_) out.push_back(&e);
    return out;
  }
  std::vector<const Entry*> tp;
  tp.reserve(tail_.size());
  for (const Entry& e : tail_) tp.push_back(&e);
  std::stable_sort(tp.begin(), tp.end(), [](const Entry* a, const Entry* b) {
    return a->first < b->first;
  });
  size_t w = 0;
  for (size_t i = 0; i < tp.size(); ++i) {
    if (i + 1 < tp.size() && tp[i + 1]->first == tp[i]->first) continue;
    tp[w++] = tp[i];
  }
  tp.resize(w);
  out.reserve(sorted_.size() + tp.size());
  size_t i = 0, j = 0;
  while (i < sorted_.size() || j < tp.size()) {
    if (j == tp.size() ||
        (i < sorted_.size() && sorted_[i].first < tp[j]->first)) {
      out.push_back(&sorted_[i]);
      ++i;
    } else if (i == sorted_.size() || tp[j]->first < sorted_[i].first) {
      out.push_back(tp[j]);
      ++j;
    } else {
      out.push_back(tp[j]);  // tail wins on collision
      ++i;
      ++j;
    }
  }
  return out;
}

template <typename Key, typename Rec>
void FlatEntryMap<Key, Rec>::MergeFrom(const FlatEntryMap& other) {
  if (other.empty()) return;
  if (empty()) {
    sorted_ = other.sorted_;
    tail_ = other.tail_;
    return;
  }
  const size_t osize = other.TotalEntries();
  if (osize <= kTailBase + sorted_.size() / 4) {
    // Small right operand: append in other's write order (sorted span, then
    // tail) so "other wins" falls out of tail ordering; amortized compaction
    // keeps long micro-delta merge chains linear overall.
    tail_.reserve(tail_.size() + osize);
    for (const Entry& e : other.sorted_) tail_.push_back(e);
    for (const Entry& e : other.tail_) tail_.push_back(e);
    MaybeCompact();
    return;
  }
  Compact();
  FlatEntryMap oscratch;
  const auto& b = other.CompactedOrSelf(&oscratch).sorted_entries();
  std::vector<Entry> out;
  out.reserve(sorted_.size() + b.size());
  size_t i = 0, j = 0;
  while (i < sorted_.size() || j < b.size()) {
    if (j == b.size() ||
        (i < sorted_.size() && sorted_[i].first < b[j].first)) {
      out.push_back(std::move(sorted_[i]));
      ++i;
    } else if (i == sorted_.size() || b[j].first < sorted_[i].first) {
      out.push_back(b[j]);
      ++j;
    } else {
      out.push_back(b[j]);  // right wins
      ++i;
      ++j;
    }
  }
  sorted_ = std::move(out);
}

template <typename Key, typename Rec>
FlatEntryMap<Key, Rec> FlatEntryMap<Key, Rec>::SumAll(
    std::span<const FlatEntryMap* const> maps) {
  // One cursor per non-empty operand. The heap pops the least (key, rank),
  // so equal keys pop in operand order and the last one popped wins.
  struct Cursor {
    const Entry* at;
    const Entry* end;
    size_t rank;
  };
  std::vector<FlatEntryMap> scratch(maps.size());
  std::vector<Cursor> heap;
  heap.reserve(maps.size());
  size_t total = 0;
  for (size_t i = 0; i < maps.size(); ++i) {
    const std::vector<Entry>& e =
        maps[i]->CompactedOrSelf(&scratch[i]).sorted_;
    if (e.empty()) continue;
    heap.push_back(Cursor{e.data(), e.data() + e.size(), i});
    total += e.size();
  }
  auto before = [](const Cursor& a, const Cursor& b) {
    return a.at->first < b.at->first ||
           (a.at->first == b.at->first && a.rank < b.rank);
  };
  auto sift_down = [&](size_t i) {
    const Cursor c = heap[i];
    for (size_t child = 2 * i + 1; child < heap.size(); child = 2 * i + 1) {
      if (child + 1 < heap.size() && before(heap[child + 1], heap[child])) {
        ++child;
      }
      if (!before(heap[child], c)) break;
      heap[i] = heap[child];
      i = child;
    }
    heap[i] = c;
  };
  for (size_t i = heap.size() / 2; i-- > 0;) sift_down(i);

  FlatEntryMap out;
  out.sorted_.reserve(total);
  const Entry* pending = nullptr;  // latest entry of the current key
  while (!heap.empty()) {
    Cursor& top = heap[0];
    if (pending != nullptr && !(pending->first == top.at->first)) {
      out.sorted_.push_back(*pending);
    }
    pending = top.at;
    if (++top.at == top.end) {
      top = heap.back();
      heap.pop_back();
    }
    if (!heap.empty()) sift_down(0);
  }
  if (pending != nullptr) out.sorted_.push_back(*pending);
  return out;
}

template <typename Key, typename Rec>
void FlatEntryMap<Key, Rec>::MergeDisjointSorted(std::vector<Entry>&& add) {
  if (add.empty()) return;
  Compact();
  if (sorted_.empty()) {
    sorted_ = std::move(add);
    return;
  }
  // Backward in-place merge: keys in `add` are strictly ascending and
  // disjoint from sorted_, so no comparison ever ties and no dedup is
  // needed.
  size_t i = sorted_.size();
  size_t j = add.size();
  size_t w = i + j;
  sorted_.resize(w);
  while (j > 0) {
    if (i > 0 && add[j - 1].first < sorted_[i - 1].first) {
      sorted_[--w] = std::move(sorted_[--i]);
    } else {
      sorted_[--w] = std::move(add[--j]);
    }
  }
}

template <typename Key, typename Rec>
void FlatEntryMap<Key, Rec>::AssignUnsortedUnique(
    std::vector<Entry>&& entries) {
  std::sort(entries.begin(), entries.end(), EntryKeyLess{});
  sorted_ = std::move(entries);
  tail_.clear();
}

template <typename Key, typename Rec>
bool FlatEntryMap<Key, Rec>::EqualsLogical(const FlatEntryMap& o) const {
  if (tail_.empty() && o.tail_.empty()) return sorted_ == o.sorted_;
  auto pa = MergedPtrs();
  auto pb = o.MergedPtrs();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (!(*pa[i] == *pb[i])) return false;
  }
  return true;
}

template class FlatEntryMap<NodeId, NodeRecord>;
template class FlatEntryMap<EdgeKey, EdgeRecord>;

}  // namespace internal

// ---------------------------------------------------------------------------
// Event application
// ---------------------------------------------------------------------------

void Delta::ApplyEvent(const Event& e) {
  switch (e.type) {
    case EventType::kAddNode:
      nodes_.Set(e.u, NodeRecord{.attrs = e.attrs});
      break;
    case EventType::kRemoveNode:
      nodes_.Set(e.u, std::nullopt);
      edges_.Compact();
      TombstoneIncidentEdges({e.u}, {});
      break;
    case EventType::kAddEdge:
      edges_.Set(EdgeKey(e.u, e.v),
                 EdgeRecord{.src = e.u, .dst = e.v, .directed = e.directed,
                            .attrs = e.attrs});
      break;
    case EventType::kRemoveEdge:
      edges_.Set(EdgeKey(e.u, e.v), std::nullopt);
      break;
    case EventType::kSetNodeAttr: {
      auto* slot = nodes_.FindMutable(e.u);
      if (slot == nullptr) {
        NodeRecord rec;
        rec.attrs.Set(e.key, e.value);
        nodes_.Set(e.u, std::move(rec));
      } else {
        if (!slot->has_value()) *slot = NodeRecord{};
        (*slot)->attrs.Set(e.key, e.value);
      }
      break;
    }
    case EventType::kDelNodeAttr: {
      auto* slot = nodes_.FindMutable(e.u);
      if (slot != nullptr && slot->has_value()) (*slot)->attrs.Erase(e.key);
      break;
    }
    case EventType::kSetEdgeAttr: {
      const EdgeKey key(e.u, e.v);
      auto* slot = edges_.FindMutable(key);
      if (slot == nullptr) {
        EdgeRecord rec{.src = e.u, .dst = e.v, .directed = e.directed,
                       .attrs = {}};
        rec.attrs.Set(e.key, e.value);
        edges_.Set(key, std::move(rec));
      } else {
        if (!slot->has_value()) {
          *slot = EdgeRecord{.src = e.u, .dst = e.v, .directed = e.directed,
                             .attrs = {}};
        }
        (*slot)->attrs.Set(e.key, e.value);
      }
      break;
    }
    case EventType::kDelEdgeAttr: {
      auto* slot = edges_.FindMutable(EdgeKey(e.u, e.v));
      if (slot != nullptr && slot->has_value()) (*slot)->attrs.Erase(e.key);
      break;
    }
  }
}

template <typename EventAt>
void Delta::ApplyEventsRange(size_t n, EventAt at) {
  if (n == 0) return;
  // Tiny windows: per-key grouping costs more than it saves. Scalar
  // application looks keys up through the unsorted tail, so fold an
  // oversized one (grown by a preceding merge chain) first — otherwise
  // per-event lookups on a snapshot-scale accumulator degrade toward
  // O(sorted/8) tail comparisons each.
  if (n <= 8) {
    if (nodes_.TailEntries() > 64) nodes_.Compact();
    if (edges_.TailEntries() > 64) edges_.Compact();
    for (size_t i = 0; i < n; ++i) ApplyEvent(at(i));
    return;
  }

  nodes_.Compact();
  edges_.Compact();

  // Index the window: (key, event index) per touched key, plus the
  // remove-node stream that interacts with edge state.
  std::vector<std::pair<NodeId, uint32_t>> node_refs;
  std::vector<std::pair<EdgeKey, uint32_t>> edge_refs;
  std::vector<std::pair<NodeId, uint32_t>> removals;
  node_refs.reserve(n);
  edge_refs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const Event& ev = at(i);
    if (ev.IsNodeEvent()) {
      node_refs.emplace_back(ev.u, i);
      if (ev.type == EventType::kRemoveNode) removals.emplace_back(ev.u, i);
    } else {
      edge_refs.emplace_back(EdgeKey(ev.u, ev.v), i);
    }
  }
  SortRefs(&node_refs);
  SortRefs(&edge_refs);
  std::sort(removals.begin(), removals.end());

  // --- node groups: locate each touched node once, fold its events. Groups
  // ascend by key, so a galloping cursor replaces per-group binary search.
  std::vector<NodeMap::Entry> pending_nodes;
  pending_nodes.reserve(node_refs.size());
  auto& node_entries = nodes_.mutable_sorted_entries();
  size_t ncursor = 0;
  for (size_t g = 0; g < node_refs.size();) {
    const NodeId u = node_refs[g].first;
    size_t ge = g;
    while (ge < node_refs.size() && node_refs[ge].first == u) ++ge;
    ncursor = GallopToKey(node_entries, ncursor, u);
    std::optional<NodeRecord>* slot =
        ncursor < node_entries.size() && node_entries[ncursor].first == u
            ? &node_entries[ncursor].second
            : nullptr;
    bool entry_exists = slot != nullptr;
    std::optional<NodeRecord> local;
    std::optional<NodeRecord>* target = entry_exists ? slot : &local;
    for (size_t k = g; k < ge; ++k) {
      const Event& ev = at(node_refs[k].second);
      switch (ev.type) {
        case EventType::kAddNode:
          *target = NodeRecord{.attrs = ev.attrs};
          entry_exists = true;
          break;
        case EventType::kRemoveNode:
          *target = std::nullopt;
          entry_exists = true;
          break;
        case EventType::kSetNodeAttr:
          if (!entry_exists || !target->has_value()) {
            *target = NodeRecord{};
            entry_exists = true;
          }
          (*target)->attrs.Set(ev.key, ev.value);
          break;
        case EventType::kDelNodeAttr:
          if (entry_exists && target->has_value()) {
            (*target)->attrs.Erase(ev.key);
          }
          break;
        default:
          break;  // edge events never land in node groups
      }
    }
    if (slot == nullptr && entry_exists) {
      pending_nodes.emplace_back(u, std::move(local));
    }
    g = ge;
  }

  // --- edge groups: fold edge events merged with the removal stream of
  // both endpoints, by event index (= application order). ------------------
  std::vector<EdgeMap::Entry> pending_edges;
  pending_edges.reserve(edge_refs.size());
  std::vector<EdgeKey> grouped_keys;
  grouped_keys.reserve(edge_refs.size());
  auto& edge_entries = edges_.mutable_sorted_entries();
  size_t ecursor = 0;
  for (size_t g = 0; g < edge_refs.size();) {
    const EdgeKey key = edge_refs[g].first;
    size_t ge = g;
    while (ge < edge_refs.size() && edge_refs[ge].first == key) ++ge;
    grouped_keys.push_back(key);
    auto ru = removals.end(), ru_end = removals.end();
    auto rv = removals.end(), rv_end = removals.end();
    if (!removals.empty()) {
      std::tie(ru, ru_end) = std::equal_range(removals.begin(),
                                              removals.end(), key.u,
                                              RemovalLess{});
      if (key.v != key.u) {
        std::tie(rv, rv_end) = std::equal_range(removals.begin(),
                                                removals.end(), key.v,
                                                RemovalLess{});
      }
    }
    ecursor = GallopToKey(edge_entries, ecursor, key);
    std::optional<EdgeRecord>* slot =
        ecursor < edge_entries.size() && edge_entries[ecursor].first == key
            ? &edge_entries[ecursor].second
            : nullptr;
    bool entry_exists = slot != nullptr;
    std::optional<EdgeRecord> local;
    std::optional<EdgeRecord>* target = entry_exists ? slot : &local;
    size_t k = g;
    while (k < ge || ru != ru_end || rv != rv_end) {
      const uint32_t ke = k < ge ? edge_refs[k].second : UINT32_MAX;
      const uint32_t ue = ru != ru_end ? ru->second : UINT32_MAX;
      const uint32_t ve = rv != rv_end ? rv->second : UINT32_MAX;
      if (ke < ue && ke < ve) {
        const Event& ev = at(ke);
        switch (ev.type) {
          case EventType::kAddEdge:
            *target = EdgeRecord{.src = ev.u, .dst = ev.v,
                                 .directed = ev.directed,
                                 .attrs = ev.attrs};
            entry_exists = true;
            break;
          case EventType::kRemoveEdge:
            *target = std::nullopt;
            entry_exists = true;
            break;
          case EventType::kSetEdgeAttr:
            if (!entry_exists || !target->has_value()) {
              *target = EdgeRecord{.src = ev.u, .dst = ev.v,
                                   .directed = ev.directed, .attrs = {}};
              entry_exists = true;
            }
            (*target)->attrs.Set(ev.key, ev.value);
            break;
          case EventType::kDelEdgeAttr:
            if (entry_exists && target->has_value()) {
              (*target)->attrs.Erase(ev.key);
            }
            break;
          default:
            break;  // node events never land in edge groups
        }
        ++k;
      } else if (ue < ve) {
        // A removed endpoint tombstones the edge iff it is present, and
        // never creates an entry — matching the sequential semantics.
        if (entry_exists && target->has_value()) *target = std::nullopt;
        ++ru;
      } else {
        if (entry_exists && target->has_value()) *target = std::nullopt;
        ++rv;
      }
    }
    if (slot == nullptr && entry_exists) {
      pending_edges.emplace_back(key, std::move(local));
    }
    g = ge;
  }

  // --- incident-edge tombstoning for edges untouched by this window: one
  // bounded pass over the sorted span, not one scan per removal. ------------
  if (!removals.empty()) {
    std::vector<NodeId> removed;
    removed.reserve(removals.size());
    for (const auto& [id, idx] : removals) {
      if (removed.empty() || removed.back() != id) removed.push_back(id);
    }
    TombstoneIncidentEdges(removed, grouped_keys);
  }

  // New keys arrive in ascending order and are absent from the sorted spans
  // by construction: one backward in-place merge each, no sort needed.
  nodes_.MergeDisjointSorted(std::move(pending_nodes));
  edges_.MergeDisjointSorted(std::move(pending_edges));
}

void Delta::ApplyEvents(const EventList& el, Timestamp after, Timestamp upto) {
  auto [b, e] = EventWindow(el.events(), after, upto);
  const Event* first = el.events().data() + b;
  ApplyEventsRange(e - b,
                   [first](size_t i) -> const Event& { return first[i]; });
}

void Delta::ApplyEvents(std::span<const EventList* const> lists,
                        Timestamp after, Timestamp upto) {
  if (lists.size() == 1) return ApplyEvents(*lists[0], after, upto);
  std::vector<const Event*> window;
  for (const EventList* el : lists) {
    const std::vector<Event>& ev = el->events();
    auto [b, e] = EventWindow(ev, after, upto);
    for (size_t i = b; i < e; ++i) window.push_back(&ev[i]);
  }
  ApplyEventsRange(window.size(),
                   [&window](size_t i) -> const Event& { return *window[i]; });
}

void Delta::TombstoneIncidentEdges(const std::vector<NodeId>& removed,
                                   const std::vector<EdgeKey>& skip) {
  if (removed.empty()) return;
  auto& entries = edges_.mutable_sorted_entries();
  const NodeId max_removed = removed.back();
  uint64_t steps = 0;
  for (auto& entry : entries) {
    // Canonical keys are (min, max): past the largest removed id, no entry's
    // minimum endpoint — hence neither endpoint — can be a removed node.
    if (entry.first.u > max_removed) break;
    ++steps;
    if (!entry.second.has_value()) continue;
    if (!std::binary_search(removed.begin(), removed.end(), entry.first.u) &&
        !std::binary_search(removed.begin(), removed.end(), entry.first.v)) {
      continue;
    }
    if (!skip.empty() &&
        std::binary_search(skip.begin(), skip.end(), entry.first)) {
      continue;
    }
    entry.second = std::nullopt;
  }
  t_incident_scan_steps += steps;
}

uint64_t Delta::IncidentEdgeScanSteps() { return t_incident_scan_steps; }
void Delta::ResetIncidentEdgeScanSteps() { t_incident_scan_steps = 0; }

// ---------------------------------------------------------------------------
// Lookup / size
// ---------------------------------------------------------------------------

const std::optional<NodeRecord>* Delta::FindNode(NodeId id) const {
  return nodes_.Find(id);
}

const std::optional<EdgeRecord>* Delta::FindEdge(const EdgeKey& key) const {
  return edges_.Find(key);
}

size_t Delta::SerializedSizeBytes() const {
  size_t total = VarintWireSize(nodes_.size());
  nodes_.ForEachOrdered([&](const NodeMap::Entry& e) {
    total += VarintWireSize(e.first) + 1;
    if (e.second.has_value()) total += AttributesWireSize(e.second->attrs);
  });
  total += VarintWireSize(edges_.size());
  edges_.ForEachOrdered([&](const EdgeMap::Entry& e) {
    total += 1;
    if (e.second.has_value()) {
      total += VarintWireSize(e.second->src) + VarintWireSize(e.second->dst) +
               1 + AttributesWireSize(e.second->attrs);
    } else {
      total += VarintWireSize(e.first.u) + VarintWireSize(e.first.v);
    }
  });
  return total + kChecksumWireSize;
}

void Delta::Compact() {
  nodes_.Compact();
  edges_.Compact();
}

// ---------------------------------------------------------------------------
// Algebra
// ---------------------------------------------------------------------------

void Delta::Add(const Delta& other) {
  nodes_.MergeFrom(other.nodes_);
  edges_.MergeFrom(other.edges_);
}

Delta Delta::SumAll(std::span<const Delta* const> rows) {
  std::vector<const NodeMap*> nodes;
  std::vector<const EdgeMap*> edges;
  nodes.reserve(rows.size());
  edges.reserve(rows.size());
  for (const Delta* d : rows) {
    nodes.push_back(&d->nodes_);
    edges.push_back(&d->edges_);
  }
  Delta out;
  out.nodes_ = NodeMap::SumAll(nodes);
  out.edges_ = EdgeMap::SumAll(edges);
  return out;
}

Delta Delta::Sum(const Delta& a, const Delta& b) {
  Delta out = a;
  out.Add(b);
  return out;
}

namespace {

// Pairs of `a` whose (key, state) is not identically in `b`; linear
// two-pointer walk over the sorted spans.
template <typename M>
void DifferenceInto(const M& am, const M& bm, M* out) {
  M sa, sb;
  const auto& a = am.CompactedOrSelf(&sa).sorted_entries();
  const auto& b = bm.CompactedOrSelf(&sb).sorted_entries();
  size_t i = 0, j = 0;
  while (i < a.size()) {
    if (j == b.size() || a[i].first < b[j].first) {
      out->AppendOrdered(a[i].first, a[i].second);
      ++i;
    } else if (b[j].first < a[i].first) {
      ++j;
    } else {
      if (!(a[i].second == b[j].second)) {
        out->AppendOrdered(a[i].first, a[i].second);
      }
      ++i;
      ++j;
    }
  }
}

// Pairs identical in both.
template <typename M>
void IntersectInto(const M& am, const M& bm, M* out) {
  M sa, sb;
  const auto& a = am.CompactedOrSelf(&sa).sorted_entries();
  const auto& b = bm.CompactedOrSelf(&sb).sorted_entries();
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      ++i;
    } else if (b[j].first < a[i].first) {
      ++j;
    } else {
      if (a[i].second == b[j].second) {
        out->AppendOrdered(a[i].first, a[i].second);
      }
      ++i;
      ++j;
    }
  }
}

// All pairs, left-biased on collision.
template <typename M>
void UnionInto(const M& am, const M& bm, M* out) {
  M sa, sb;
  const auto& a = am.CompactedOrSelf(&sa).sorted_entries();
  const auto& b = bm.CompactedOrSelf(&sb).sorted_entries();
  out->ReserveSorted(a.size() + b.size());
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].first < b[j].first)) {
      out->AppendOrdered(a[i].first, a[i].second);
      ++i;
    } else if (i == a.size() || b[j].first < a[i].first) {
      out->AppendOrdered(b[j].first, b[j].second);
      ++j;
    } else {
      out->AppendOrdered(a[i].first, a[i].second);
      ++i;
      ++j;
    }
  }
}

}  // namespace

Delta Delta::Difference(const Delta& a, const Delta& b) {
  Delta out;
  DifferenceInto(a.nodes_, b.nodes_, &out.nodes_);
  DifferenceInto(a.edges_, b.edges_, &out.edges_);
  return out;
}

Delta Delta::Intersect(const Delta& a, const Delta& b) {
  Delta out;
  IntersectInto(a.nodes_, b.nodes_, &out.nodes_);
  IntersectInto(a.edges_, b.edges_, &out.edges_);
  return out;
}

Delta Delta::Union(const Delta& a, const Delta& b) {
  Delta out;
  UnionInto(a.nodes_, b.nodes_, &out.nodes_);
  UnionInto(a.edges_, b.edges_, &out.edges_);
  return out;
}

// ---------------------------------------------------------------------------
// Conversion
// ---------------------------------------------------------------------------

Graph Delta::ToGraph() const {
  NodeMap node_scratch;
  EdgeMap edge_scratch;
  return Graph::FromSortedComponents(
      nodes_.CompactedOrSelf(&node_scratch).sorted_entries(),
      edges_.CompactedOrSelf(&edge_scratch).sorted_entries());
}

Delta Delta::FromGraph(const Graph& g) {
  Delta d;
  std::vector<NodeMap::Entry> nodes;
  nodes.reserve(g.NumNodes());
  g.ForEachNode([&](NodeId id, const NodeRecord& rec) {
    nodes.emplace_back(id, rec);
  });
  d.nodes_.AssignUnsortedUnique(std::move(nodes));
  std::vector<EdgeMap::Entry> edges;
  edges.reserve(g.NumEdges());
  g.ForEachEdge([&](const EdgeKey& key, const EdgeRecord& rec) {
    edges.emplace_back(key, rec);
  });
  d.edges_.AssignUnsortedUnique(std::move(edges));
  return d;
}

Delta Delta::FilterByNodes(const std::unordered_set<NodeId>& ids) const {
  Delta out;
  nodes_.ForEachOrdered([&](const NodeMap::Entry& e) {
    if (ids.contains(e.first)) out.nodes_.AppendOrdered(e.first, e.second);
  });
  edges_.ForEachOrdered([&](const EdgeMap::Entry& e) {
    if (ids.contains(e.first.u) || ids.contains(e.first.v)) {
      out.edges_.AppendOrdered(e.first, e.second);
    }
  });
  return out;
}

std::vector<Delta> Delta::FilterByIds(std::span<const NodeId> ids) const {
  std::vector<Delta> out(ids.size());
  if (ids.empty()) return out;
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto* rec = nodes_.Find(ids[i]);
    if (rec != nullptr) out[i].nodes_.AppendOrdered(ids[i], *rec);
  }
  // Canonical keys ascend by their smaller endpoint u, so the first id not
  // below u only moves forward, and no key past the last id can touch one.
  // Each output receives its keys in ascending order: every (x, id) key
  // precedes every (id, y) key.
  size_t first = 0;
  auto visit = [&](const EdgeMap::Entry& e) {
    const EdgeKey& key = e.first;
    while (first < ids.size() && ids[first] < key.u) ++first;
    if (first == ids.size()) return false;
    if (ids[first] == key.u) out[first].edges_.AppendOrdered(key, e.second);
    if (key.v != key.u) {
      auto it = std::lower_bound(ids.begin() + static_cast<ptrdiff_t>(first),
                                 ids.end(), key.v);
      if (it != ids.end() && *it == key.v) {
        out[static_cast<size_t>(it - ids.begin())].edges_.AppendOrdered(
            key, e.second);
      }
    }
    return true;
  };
  if (edges_.IsCompact()) {
    for (const EdgeMap::Entry& e : edges_.sorted_entries()) {
      if (!visit(e)) break;
    }
  } else {
    for (const EdgeMap::Entry* e : edges_.MergedPtrs()) {
      if (!visit(*e)) break;
    }
  }
  return out;
}

Delta Delta::FilterById(NodeId id) const {
  return std::move(FilterByIds(std::span<const NodeId>(&id, 1))[0]);
}

// ---------------------------------------------------------------------------
// Iteration
// ---------------------------------------------------------------------------

void Delta::ForEachNodeEntry(
    const std::function<void(NodeId, const std::optional<NodeRecord>&)>& fn)
    const {
  nodes_.ForEachOrdered(
      [&](const NodeMap::Entry& e) { fn(e.first, e.second); });
}

void Delta::ForEachEdgeEntry(
    const std::function<void(const EdgeKey&, const std::optional<EdgeRecord>&)>&
        fn) const {
  edges_.ForEachOrdered(
      [&](const EdgeMap::Entry& e) { fn(e.first, e.second); });
}

// ---------------------------------------------------------------------------
// Serialization (entries in ascending key order)
// ---------------------------------------------------------------------------

std::string Delta::Serialize() const {
  BinaryWriter w;
  w.PutVarint64(nodes_.size());
  nodes_.ForEachOrdered([&](const NodeMap::Entry& e) {
    w.PutVarint64(e.first);
    w.PutBool(e.second.has_value());
    if (e.second.has_value()) SerializeAttributes(e.second->attrs, &w);
  });
  w.PutVarint64(edges_.size());
  edges_.ForEachOrdered([&](const EdgeMap::Entry& e) {
    const auto& rec = e.second;
    w.PutBool(rec.has_value());
    if (rec.has_value()) {
      w.PutVarint64(rec->src);
      w.PutVarint64(rec->dst);
      w.PutBool(rec->directed);
      SerializeAttributes(rec->attrs, &w);
    } else {
      w.PutVarint64(e.first.u);
      w.PutVarint64(e.first.v);
    }
  });
  return w.FinishWithChecksum();
}

// The whole-value decode is the read path's hot loop: pointer-bumping
// field decodes with one sticky-error check per record. Entries arrive in
// key order (the serialization invariant), so they append straight onto
// the sorted span with no per-entry insertion cost; AppendOrdered degrades
// gracefully to tail writes if a (corrupt but checksum-colliding) buffer is
// unsorted.
Result<Delta> Delta::Deserialize(std::string_view data) {
  // A columnar payload (alternative serialization; see common/columnar.h)
  // routes on its magic — legacy payloads can never start with those bytes.
  if (IsColumnarPayload(data)) return DeserializeColumnar(data);
  BinaryReader r(data);
  HGS_RETURN_NOT_OK(r.VerifyChecksum());
  Delta d;
  uint64_t n_nodes = r.ReadVarint64();
  if (r.failed()) return r.BulkStatus();
  d.nodes_.ReserveSorted(std::min<uint64_t>(n_nodes, r.remaining()));
  for (uint64_t i = 0; i < n_nodes; ++i) {
    uint64_t id = r.ReadVarint64();
    if (r.ReadBool()) {
      d.nodes_.AppendOrdered(
          id, NodeRecord{.attrs = DeserializeAttributes(&r)});
    } else {
      d.nodes_.AppendOrdered(id, std::nullopt);
    }
    if (r.failed()) return r.BulkStatus();
  }
  uint64_t n_edges = r.ReadVarint64();
  if (r.failed()) return r.BulkStatus();
  d.edges_.ReserveSorted(std::min<uint64_t>(n_edges, r.remaining()));
  for (uint64_t i = 0; i < n_edges; ++i) {
    if (r.ReadBool()) {
      uint64_t src = r.ReadVarint64();
      uint64_t dst = r.ReadVarint64();
      bool directed = r.ReadBool();
      d.edges_.AppendOrdered(
          EdgeKey(src, dst),
          EdgeRecord{.src = src, .dst = dst, .directed = directed,
                     .attrs = DeserializeAttributes(&r)});
    } else {
      uint64_t u = r.ReadVarint64();
      uint64_t v = r.ReadVarint64();
      d.edges_.AppendOrdered(EdgeKey(u, v), std::nullopt);
    }
    if (r.failed()) return r.BulkStatus();
  }
  d.Compact();
  return d;
}

// -- kDelta columnar schema -------------------------------------------------
// Column layout (see common/columnar.h for the container):
//    0 head     : varint node entry count, varint edge entry count
//    1 nodeids  : zigzag varint deltas of node keys (ascending)
//    2 nodebits : present bit per node entry (0 = tombstone)
//    3 nodeattrs: per present node: varint count, then (key id, value id)
//    4 edgeu    : zigzag varint deltas of canonical key.u (ascending keys)
//    5 edgedv   : varint (key.v - key.u) per edge entry (canonical v >= u)
//    6 edgebits : present bit per edge entry (0 = tombstone)
//    7 edgeflags: per present edge: flipped bit (src is key.v), directed bit
//    8 edgeattrs: per present edge: varint count, then (key id, value id)
//    9 keydict  : sorted dictionary of attribute keys
//   10 valdict  : sorted dictionary of attribute values

namespace {

constexpr size_t kDelColHead = 0;
constexpr size_t kDelColNodeIds = 1;
constexpr size_t kDelColNodeBits = 2;
constexpr size_t kDelColNodeAttrs = 3;
constexpr size_t kDelColEdgeU = 4;
constexpr size_t kDelColEdgeDv = 5;
constexpr size_t kDelColEdgeBits = 6;
constexpr size_t kDelColEdgeFlags = 7;
constexpr size_t kDelColEdgeAttrs = 8;
constexpr size_t kDelColKeyDict = 9;
constexpr size_t kDelColValDict = 10;

void PutAttrIds(const Attributes& attrs, const StringDictBuilder& keys,
                const StringDictBuilder& vals, BinaryWriter* w) {
  w->PutVarint64(attrs.size());
  for (const auto& [k, v] : attrs.entries()) {
    w->PutVarint64(keys.IdOf(k));
    w->PutVarint64(vals.IdOf(v));
  }
}

Attributes ReadAttrIds(const StringDictView& keys, const StringDictView& vals,
                       BinaryReader* r) {
  Attributes out;
  uint64_t n = r->ReadVarint64();
  for (uint64_t i = 0; i < n && !r->failed(); ++i) {
    std::string_view k = keys.Get(r->ReadVarint64(), r);
    std::string_view v = vals.Get(r->ReadVarint64(), r);
    // Dict ids arrive in the entry's original sorted-key order.
    out.AppendSorted(std::string(k), std::string(v));
  }
  return out;
}

std::optional<std::string> EncodeColumnarDeltaPayload(const Delta& d) {
  StringDictBuilder keys;
  StringDictBuilder vals;
  bool representable = true;
  d.ForEachNodeEntry([&](NodeId, const std::optional<NodeRecord>& rec) {
    if (!rec.has_value()) return;
    for (const auto& [k, v] : rec->attrs.entries()) {
      keys.Add(k);
      vals.Add(v);
    }
  });
  d.ForEachEdgeEntry(
      [&](const EdgeKey& key, const std::optional<EdgeRecord>& rec) {
        if (!rec.has_value()) return;
        // The record's orientation must reduce to one flipped bit against the
        // canonical key; anything else cannot be represented losslessly.
        if (EdgeKey(rec->src, rec->dst) != key) representable = false;
        for (const auto& [k, v] : rec->attrs.entries()) {
          keys.Add(k);
          vals.Add(v);
        }
      });
  if (!representable) return std::nullopt;
  keys.Build();
  vals.Build();

  BinaryWriter head;
  head.PutVarint64(d.NodeEntryCount());
  head.PutVarint64(d.EdgeEntryCount());

  BinaryWriter node_ids;
  BitColumnWriter node_bits;
  BinaryWriter node_attrs;
  DeltaInt64Encoder node_enc;
  d.ForEachNodeEntry([&](NodeId id, const std::optional<NodeRecord>& rec) {
    node_enc.Put(&node_ids, static_cast<int64_t>(id));
    node_bits.Append(rec.has_value());
    if (rec.has_value()) PutAttrIds(rec->attrs, keys, vals, &node_attrs);
  });

  BinaryWriter edge_u;
  BinaryWriter edge_dv;
  BitColumnWriter edge_bits;
  BitColumnWriter edge_flags;
  BinaryWriter edge_attrs;
  DeltaInt64Encoder u_enc;
  d.ForEachEdgeEntry(
      [&](const EdgeKey& key, const std::optional<EdgeRecord>& rec) {
        u_enc.Put(&edge_u, static_cast<int64_t>(key.u));
        edge_dv.PutVarint64(key.v - key.u);
        edge_bits.Append(rec.has_value());
        if (rec.has_value()) {
          bool flipped = rec->src == key.v && key.u != key.v;
          edge_flags.Append(flipped);
          edge_flags.Append(rec->directed);
          PutAttrIds(rec->attrs, keys, vals, &edge_attrs);
        }
      });

  ColumnarBlockWriter block(ValueSchema::kDelta);
  block.AddColumn(head.Finish());
  block.AddColumn(node_ids.Finish());
  block.AddColumn(node_bits.Finish());
  block.AddColumn(node_attrs.Finish());
  block.AddColumn(edge_u.Finish());
  block.AddColumn(edge_dv.Finish());
  block.AddColumn(edge_bits.Finish());
  block.AddColumn(edge_flags.Finish());
  block.AddColumn(edge_attrs.Finish());
  block.AddColumn(keys.Serialize());
  block.AddColumn(vals.Serialize());
  return block.Finish();
}

std::optional<std::string> ColumnarEncodeDelta(std::string_view payload) {
  Result<Delta> parsed = Delta::Deserialize(payload);
  if (!parsed.ok()) return std::nullopt;
  // Only canonical serializations are eligible (see the eventlist codec).
  if (parsed->Serialize() != payload) return std::nullopt;
  return EncodeColumnarDeltaPayload(*parsed);
}

Result<std::string> ColumnarReencodeDelta(std::string_view payload) {
  HGS_ASSIGN_OR_RETURN(Delta d, Delta::Deserialize(payload));
  return d.Serialize();
}

[[maybe_unused]] const bool kDeltaCodecRegistered = [] {
  RegisterColumnarCodec(ValueSchema::kDelta, &ColumnarEncodeDelta,
                        &ColumnarReencodeDelta);
  return true;
}();

}  // namespace

Result<Delta> Delta::DeserializeColumnar(std::string_view payload) {
  HGS_ASSIGN_OR_RETURN(ColumnarBlockReader block,
                       ColumnarBlockReader::Parse(payload, ValueSchema::kDelta));
  HGS_ASSIGN_OR_RETURN(std::string_view head_col, block.Column(kDelColHead));
  HGS_ASSIGN_OR_RETURN(std::string_view nid_col,
                       block.Column(kDelColNodeIds));
  HGS_ASSIGN_OR_RETURN(std::string_view nbit_col,
                       block.Column(kDelColNodeBits));
  HGS_ASSIGN_OR_RETURN(std::string_view nattr_col,
                       block.Column(kDelColNodeAttrs));
  HGS_ASSIGN_OR_RETURN(std::string_view eu_col, block.Column(kDelColEdgeU));
  HGS_ASSIGN_OR_RETURN(std::string_view edv_col, block.Column(kDelColEdgeDv));
  HGS_ASSIGN_OR_RETURN(std::string_view ebit_col,
                       block.Column(kDelColEdgeBits));
  HGS_ASSIGN_OR_RETURN(std::string_view eflag_col,
                       block.Column(kDelColEdgeFlags));
  HGS_ASSIGN_OR_RETURN(std::string_view eattr_col,
                       block.Column(kDelColEdgeAttrs));
  HGS_ASSIGN_OR_RETURN(std::string_view keydict_col,
                       block.Column(kDelColKeyDict));
  HGS_ASSIGN_OR_RETURN(std::string_view valdict_col,
                       block.Column(kDelColValDict));
  HGS_ASSIGN_OR_RETURN(StringDictView keys, StringDictView::Parse(keydict_col));
  HGS_ASSIGN_OR_RETURN(StringDictView vals, StringDictView::Parse(valdict_col));

  BinaryReader head(head_col);
  uint64_t n_nodes = head.ReadVarint64();
  uint64_t n_edges = head.ReadVarint64();
  if (head.failed()) return head.BulkStatus();

  Delta d;
  BinaryReader nids(nid_col);
  BitColumnReader nbits = BitColumnReader::Bind(nbit_col);
  BinaryReader nattrs(nattr_col);
  DeltaInt64Decoder nid_dec;
  d.nodes_.ReserveSorted(std::min<uint64_t>(n_nodes, payload.size()));
  for (uint64_t i = 0; i < n_nodes; ++i) {
    auto id = static_cast<NodeId>(nid_dec.Next(&nids));
    if (nbits.Next(&nids)) {
      d.nodes_.AppendOrdered(id,
                             NodeRecord{.attrs = ReadAttrIds(keys, vals,
                                                             &nattrs)});
    } else {
      d.nodes_.AppendOrdered(id, std::nullopt);
    }
    if (nids.failed() || nattrs.failed()) {
      return Status::Corruption("columnar delta: truncated node column");
    }
  }

  BinaryReader eus(eu_col);
  BinaryReader edvs(edv_col);
  BitColumnReader ebits = BitColumnReader::Bind(ebit_col);
  BitColumnReader eflags = BitColumnReader::Bind(eflag_col);
  BinaryReader eattrs(eattr_col);
  DeltaInt64Decoder eu_dec;
  d.edges_.ReserveSorted(std::min<uint64_t>(n_edges, payload.size()));
  for (uint64_t i = 0; i < n_edges; ++i) {
    auto u = static_cast<NodeId>(eu_dec.Next(&eus));
    NodeId v = u + edvs.ReadVarint64();
    EdgeKey key(u, v);
    if (ebits.Next(&eus)) {
      bool flipped = eflags.Next(&eus);
      bool directed = eflags.Next(&eus);
      d.edges_.AppendOrdered(
          key, EdgeRecord{.src = flipped ? key.v : key.u,
                          .dst = flipped ? key.u : key.v,
                          .directed = directed,
                          .attrs = ReadAttrIds(keys, vals, &eattrs)});
    } else {
      d.edges_.AppendOrdered(key, std::nullopt);
    }
    if (eus.failed() || edvs.failed() || eattrs.failed()) {
      return Status::Corruption("columnar delta: truncated edge column");
    }
  }
  d.Compact();
  return d;
}

bool Delta::operator==(const Delta& o) const {
  return nodes_.EqualsLogical(o.nodes_) && edges_.EqualsLogical(o.edges_);
}

}  // namespace hgs
