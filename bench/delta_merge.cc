// Delta merge & replay micro-benchmark: the sorted flat-map representation
// vs the hash-map baseline it replaced.
//
// Kernels, each the hot loop of a read-path stage:
//  1. micro-merge:    fold K disjoint micro-deltas into one accumulator
//  2. large-merge:    one snapshot-half into another (worst-case Delta::Add)
//  3. snapshot-merge: GetSnapshotDelta's merge on its real row shape — L
//                     tree levels of k rows whose keys overlap across
//                     levels (tombstones included), then E eventlist rows.
//                     The row-at-a-time chain (Add, then ApplyEvents per
//                     list) against Delta::SumAll plus one batched
//                     ApplyEvents over every list; both results must agree
//  4. materialize:    replay a whole history into an empty delta (eventlist
//                     materialization, the Copy+Log / NodeCentric path)
//  5. attr-replay:    attribute-churn eventlist onto a snapshot-scale delta
//                     (keys repeat; per-key grouping pays off)
//  6. growth-replay:  add/remove churn of mostly-new keys onto a snapshot
//                     delta — the one insert-bound shape where the hash map
//                     keeps an edge; reported for honesty
//  7. removal-heavy:  remove-node storm (the quadratic incident-edge scan
//                     regression)
//  8. to-graph:       Delta::ToGraph's one sized pass over the
//                     snapshot-merge result, graph freed inside the timer,
//                     against the AddNode/AddEdge build it must equal
//                     (exits 1 if the two graphs differ)
//
// Output: entries-or-events per second per implementation, and peak RSS at
// exit (the flat representation also shrinks decoded residency); with
// --json=<path> every printed rate also lands as a telemetry row.
// HGS_SCALE scales the dataset (CI smoke runs use HGS_SCALE=0.05).

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "delta/delta.h"
#include "delta/eventlist.h"

// -- live-heap accounting ----------------------------------------------------
// Counts bytes currently allocated (glibc malloc_usable_size), so the
// resident footprint of the flat vs hash representation can be compared
// exactly instead of through process-wide RSS. Disabled under ASan (user
// replacement operators conflict with its interceptors); the residency
// kernel reports n/a there.
#if defined(__SANITIZE_ADDRESS__)
#define HGS_HEAP_ACCOUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HGS_HEAP_ACCOUNTING 0
#else
#define HGS_HEAP_ACCOUNTING 1
#endif
#else
#define HGS_HEAP_ACCOUNTING 1
#endif

static std::atomic<long long> g_live_bytes{0};

#if HGS_HEAP_ACCOUNTING
// The replacement operators pair malloc with free correctly; GCC's
// static checker cannot see through the replacement and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<long long>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

#pragma GCC diagnostic pop
#endif  // HGS_HEAP_ACCOUNTING

namespace hgs::bench {
namespace {

// The pre-flat-map Delta: two unordered_maps with identical apply/merge
// semantics. Kept here as the measured baseline.
struct HashDelta {
  std::unordered_map<NodeId, std::optional<NodeRecord>> nodes;
  std::unordered_map<EdgeKey, std::optional<EdgeRecord>, EdgeKeyHash> edges;

  void Apply(const Event& e) {
    switch (e.type) {
      case EventType::kAddNode:
        nodes[e.u] = NodeRecord{.attrs = e.attrs};
        break;
      case EventType::kRemoveNode:
        nodes[e.u] = std::nullopt;
        for (auto& [key, rec] : edges) {
          if ((key.u == e.u || key.v == e.u) && rec.has_value()) {
            rec = std::nullopt;
          }
        }
        break;
      case EventType::kAddEdge:
        edges[EdgeKey(e.u, e.v)] = EdgeRecord{
            .src = e.u, .dst = e.v, .directed = e.directed, .attrs = e.attrs};
        break;
      case EventType::kRemoveEdge:
        edges[EdgeKey(e.u, e.v)] = std::nullopt;
        break;
      case EventType::kSetNodeAttr: {
        auto& slot = nodes[e.u];
        if (!slot.has_value()) slot = NodeRecord{};
        slot->attrs.Set(e.key, e.value);
        break;
      }
      case EventType::kDelNodeAttr: {
        auto it = nodes.find(e.u);
        if (it != nodes.end() && it->second.has_value()) {
          it->second->attrs.Erase(e.key);
        }
        break;
      }
      case EventType::kSetEdgeAttr: {
        auto& slot = edges[EdgeKey(e.u, e.v)];
        if (!slot.has_value()) {
          slot = EdgeRecord{
              .src = e.u, .dst = e.v, .directed = e.directed, .attrs = {}};
        }
        slot->attrs.Set(e.key, e.value);
        break;
      }
      case EventType::kDelEdgeAttr: {
        auto it = edges.find(EdgeKey(e.u, e.v));
        if (it != edges.end() && it->second.has_value()) {
          it->second->attrs.Erase(e.key);
        }
        break;
      }
    }
  }

  void Add(const HashDelta& o) {
    nodes.reserve(nodes.size() + o.nodes.size());
    edges.reserve(edges.size() + o.edges.size());
    for (const auto& [id, rec] : o.nodes) nodes[id] = rec;
    for (const auto& [key, rec] : o.edges) edges[key] = rec;
  }

  size_t Cardinality() const { return nodes.size() + edges.size(); }
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void PrintRate(const char* kernel, const char* impl, uint64_t ops,
               double seconds) {
  const double mops =
      seconds > 0 ? static_cast<double>(ops) / seconds / 1e6 : 0.0;
  std::printf("%-14s %-14s ops=%10llu  time=%8.4fs  Mops/s=%8.2f\n", kernel,
              impl, static_cast<unsigned long long>(ops), seconds, mops);
  JsonRow("delta_merge", std::string(kernel) + "_" + impl + "_Mops", mops,
          "Mops/s");
}

// Splits a snapshot delta into k micro-deltas by node-id bucket; edges are
// replicated into both endpoints' buckets (partitioned-snapshot semantics).
std::vector<Delta> SplitFlat(const Delta& d, size_t k) {
  std::vector<Delta> out(k);
  d.ForEachNodeEntry([&](NodeId id, const std::optional<NodeRecord>& rec) {
    if (rec.has_value()) out[id % k].PutNode(id, *rec);
  });
  d.ForEachEdgeEntry(
      [&](const EdgeKey& key, const std::optional<EdgeRecord>& rec) {
        if (!rec.has_value()) return;
        out[key.u % k].PutEdge(key, *rec);
        if (key.v % k != key.u % k) out[key.v % k].PutEdge(key, *rec);
      });
  for (Delta& slot : out) slot.Compact();
  return out;
}

std::vector<HashDelta> SplitHash(const Delta& d, size_t k) {
  std::vector<HashDelta> out(k);
  d.ForEachNodeEntry([&](NodeId id, const std::optional<NodeRecord>& rec) {
    if (rec.has_value()) out[id % k].nodes[id] = rec;
  });
  d.ForEachEdgeEntry(
      [&](const EdgeKey& key, const std::optional<EdgeRecord>& rec) {
        if (!rec.has_value()) return;
        out[key.u % k].edges[key] = rec;
        if (key.v % k != key.u % k) out[key.v % k].edges[key] = rec;
      });
  return out;
}

void RunMicroMerge(const Delta& snapshot, size_t k, size_t rounds) {
  const std::vector<Delta> flat_parts = SplitFlat(snapshot, k);
  const std::vector<HashDelta> hash_parts = SplitHash(snapshot, k);
  uint64_t merged_entries = 0;
  for (const Delta& p : flat_parts) merged_entries += p.Cardinality();
  merged_entries *= rounds;

  double flat_s = 0, hash_s = 0;
  size_t sink = 0;
  for (size_t r = 0; r < rounds; ++r) {
    auto start = std::chrono::steady_clock::now();
    Delta acc;
    for (const Delta& p : flat_parts) acc.Add(p);
    flat_s += SecondsSince(start);
    sink += acc.Cardinality();
  }
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<HashDelta> parts = hash_parts;
    auto start = std::chrono::steady_clock::now();
    HashDelta acc;
    for (HashDelta& p : parts) acc.Add(p);
    hash_s += SecondsSince(start);
    sink += acc.Cardinality();
  }
  PrintRate("micro-merge", "flat", merged_entries, flat_s);
  PrintRate("micro-merge", "hash", merged_entries, hash_s);
  std::printf("# micro-merge sink=%zu k=%zu\n", sink, k);
}

void RunLargeMerge(const Delta& snapshot, size_t rounds) {
  std::vector<Delta> halves = SplitFlat(snapshot, 2);
  std::vector<HashDelta> hash_halves = SplitHash(snapshot, 2);
  const uint64_t ops =
      (halves[0].Cardinality() + halves[1].Cardinality()) * rounds;

  double flat_s = 0, hash_s = 0;
  size_t sink = 0;
  for (size_t r = 0; r < rounds; ++r) {
    Delta acc = halves[0];
    auto start = std::chrono::steady_clock::now();
    acc.Add(halves[1]);
    flat_s += SecondsSince(start);
    sink += acc.Cardinality();
  }
  for (size_t r = 0; r < rounds; ++r) {
    HashDelta acc = hash_halves[0];
    auto start = std::chrono::steady_clock::now();
    acc.Add(hash_halves[1]);
    hash_s += SecondsSince(start);
    sink += acc.Cardinality();
  }
  PrintRate("large-merge", "flat", ops, flat_s);
  PrintRate("large-merge", "hash", ops, hash_s);
  std::printf("# large-merge sink=%zu\n", sink);
}

// Snapshot reconstruction's merge: `levels` tree levels of k rows each,
// then `num_lists` eventlist rows replayed up to the end of `events`. A
// level's rows replay one slice of the history into k node-id buckets, an
// edge event into both endpoints' buckets: level 0 the first half, every
// later level an equal part of the rest up to 90%. Keys overlap across
// levels and removals leave tombstones. The last 10% becomes the
// eventlists.
// Returns the merged delta.
Delta RunSnapshotMerge(const std::vector<Event>& events, size_t levels,
                       size_t k, size_t num_lists, size_t rounds) {
  const size_t tree_end = events.size() * 9 / 10;
  std::vector<Delta> rows;
  size_t from = 0;
  for (size_t level = 0; level < levels; ++level) {
    const size_t to =
        level == 0 ? tree_end / 2
                   : tree_end / 2 + (tree_end / 2) * level / (levels - 1);
    std::vector<Delta> level_rows(k);
    for (size_t i = from; i < to; ++i) {
      const Event& e = events[i];
      level_rows[e.u % k].ApplyEvent(e);
      if (e.IsEdgeEvent() && e.v % k != e.u % k) {
        level_rows[e.v % k].ApplyEvent(e);
      }
    }
    for (Delta& row : level_rows) {
      row.Compact();
      rows.push_back(std::move(row));
    }
    from = to;
  }
  std::vector<EventList> lists(num_lists);
  for (size_t i = tree_end; i < events.size(); ++i) {
    const size_t j = (i - tree_end) * num_lists / (events.size() - tree_end);
    lists[j].Append(events[i]);
  }
  std::vector<const Delta*> row_ptrs;
  std::vector<const EventList*> list_ptrs;
  uint64_t ops = events.size() - tree_end;
  for (const Delta& row : rows) {
    row_ptrs.push_back(&row);
    ops += row.Cardinality();
  }
  for (const EventList& list : lists) list_ptrs.push_back(&list);
  const Timestamp upto = events.back().time;

  double chain_s = 0, sum_s = 0;
  size_t sink = 0;
  Delta chain, sum;
  for (size_t r = 0; r < rounds; ++r) {
    auto start = std::chrono::steady_clock::now();
    chain = Delta();
    for (const Delta* row : row_ptrs) chain.Add(*row);
    for (const EventList* list : list_ptrs) {
      chain.ApplyEvents(*list, kMinTimestamp, upto);
    }
    chain_s += SecondsSince(start);
    sink += chain.Cardinality();
  }
  for (size_t r = 0; r < rounds; ++r) {
    auto start = std::chrono::steady_clock::now();
    sum = Delta::SumAll(row_ptrs);
    sum.ApplyEvents(list_ptrs, kMinTimestamp, upto);
    sum_s += SecondsSince(start);
    sink += sum.Cardinality();
  }
  if (!(chain == sum)) {
    std::fprintf(stderr, "snapshot-merge: SumAll result differs\n");
    std::exit(1);
  }
  PrintRate("snapshot-merge", "add-chain", ops * rounds, chain_s);
  PrintRate("snapshot-merge", "sum-all", ops * rounds, sum_s);
  JsonRow("delta_merge", "snapshot-merge_add-chain_ms",
          chain_s * 1e3 / static_cast<double>(rounds), "ms");
  JsonRow("delta_merge", "snapshot-merge_sum-all_ms",
          sum_s * 1e3 / static_cast<double>(rounds), "ms");
  std::printf("# snapshot-merge sink=%zu rows=%zu lists=%zu result=%zu\n",
              sink, rows.size(), lists.size(), sum.Cardinality());
  return sum;
}

// The graph ToGraph is specified to equal: AddNode for every present node,
// then AddEdge for every present edge whose endpoints are both nodes.
Graph IncrementalGraph(const Delta& d) {
  Graph g;
  d.ForEachNodeEntry([&](NodeId id, const std::optional<NodeRecord>& rec) {
    if (rec.has_value()) g.AddNode(id, rec->attrs);
  });
  d.ForEachEdgeEntry(
      [&](const EdgeKey&, const std::optional<EdgeRecord>& rec) {
        if (rec.has_value() && g.HasNode(rec->src) && g.HasNode(rec->dst)) {
          g.AddEdge(rec->src, rec->dst, rec->directed, rec->attrs);
        }
      });
  return g;
}

// Graph equality plus equal neighbor multisets (== compares records only).
bool SameGraph(const Graph& a, const Graph& b) {
  if (!(a == b)) return false;
  bool same = true;
  a.ForEachNode([&](NodeId id, const NodeRecord&) {
    std::vector<NodeId> x = a.Neighbors(id);
    std::vector<NodeId> y = b.Neighbors(id);
    std::sort(x.begin(), x.end());
    std::sort(y.begin(), y.end());
    same = same && x == y;
  });
  return same;
}

// The last stage of a snapshot read: the merged delta becomes the Graph the
// analytics run on. Each timed call builds the graph and frees it.
void RunToGraph(const Delta& merged, size_t rounds) {
  double sized_s = 0, incremental_s = 0;
  size_t sink = 0;
  for (size_t r = 0; r < rounds; ++r) {
    auto start = std::chrono::steady_clock::now();
    {
      Graph g = merged.ToGraph();
      sink += g.NumEdges();
    }
    sized_s += SecondsSince(start);
  }
  for (size_t r = 0; r < rounds; ++r) {
    auto start = std::chrono::steady_clock::now();
    {
      Graph g = IncrementalGraph(merged);
      sink += g.NumEdges();
    }
    incremental_s += SecondsSince(start);
  }
  const Graph sized = merged.ToGraph();
  if (!SameGraph(sized, IncrementalGraph(merged))) {
    std::fprintf(stderr,
                 "to-graph: ToGraph differs from an incremental build\n");
    std::exit(1);
  }
  const double sized_ms = sized_s * 1e3 / static_cast<double>(rounds);
  const double incremental_ms =
      incremental_s * 1e3 / static_cast<double>(rounds);
  std::printf("%-14s %-14s nodes=%zu edges=%zu  ms/call=%8.3f\n", "to-graph",
              "sized", sized.NumNodes(), sized.NumEdges(), sized_ms);
  std::printf("%-14s %-14s nodes=%zu edges=%zu  ms/call=%8.3f\n", "to-graph",
              "incremental", sized.NumNodes(), sized.NumEdges(),
              incremental_ms);
  JsonRow("delta_merge", "to-graph_sized_ms", sized_ms, "ms");
  JsonRow("delta_merge", "to-graph_incremental_ms", incremental_ms, "ms");
  std::printf("# to-graph sink=%zu\n", sink);
}

// Replays `tail_events` onto a copy of `base` (pass empty deltas for the
// materialization kernel): batched ApplyEvents vs the per-event flat loop
// vs the hash baseline.
void RunReplay(const char* kernel, const Delta& base,
               const HashDelta& hash_base,
               const std::vector<Event>& tail_events, size_t rounds) {
  EventList list(kMinTimestamp, kMaxTimestamp);
  for (const Event& e : tail_events) list.Append(e);
  const uint64_t ops = tail_events.size() * rounds;

  double batched_s = 0, scalar_s = 0, hash_s = 0;
  size_t sink = 0;
  for (size_t r = 0; r < rounds; ++r) {
    Delta d = base;
    auto start = std::chrono::steady_clock::now();
    d.ApplyEvents(list, kMinTimestamp, kMaxTimestamp);
    batched_s += SecondsSince(start);
    sink += d.Cardinality();
  }
  for (size_t r = 0; r < rounds; ++r) {
    Delta d = base;
    auto start = std::chrono::steady_clock::now();
    for (const Event& e : tail_events) d.ApplyEvent(e);
    scalar_s += SecondsSince(start);
    sink += d.Cardinality();
  }
  for (size_t r = 0; r < rounds; ++r) {
    HashDelta d = hash_base;
    auto start = std::chrono::steady_clock::now();
    for (const Event& e : tail_events) d.Apply(e);
    hash_s += SecondsSince(start);
    sink += d.Cardinality();
  }
  PrintRate(kernel, "flat-batched", ops, batched_s);
  PrintRate(kernel, "flat-scalar", ops, scalar_s);
  PrintRate(kernel, "hash", ops, hash_s);
  std::printf("# %s sink=%zu\n", kernel, sink);
}

void RunRemovalReplay(size_t num_edges, size_t num_removals, size_t rounds) {
  Delta base;
  HashDelta hash_base;
  const NodeId stride = static_cast<NodeId>(num_edges);
  for (NodeId i = 0; i < stride; ++i) {
    Event n1 = Event::AddNode(1, i);
    Event n2 = Event::AddNode(1, i + stride);
    Event ed = Event::AddEdge(2, i, i + stride);
    base.ApplyEvent(n1);
    base.ApplyEvent(n2);
    base.ApplyEvent(ed);
    hash_base.Apply(n1);
    hash_base.Apply(n2);
    hash_base.Apply(ed);
  }
  base.Compact();
  EventList removals(kMinTimestamp, kMaxTimestamp);
  std::vector<Event> removal_events;
  for (size_t i = 0; i < num_removals; ++i) {
    Event e = Event::RemoveNode(static_cast<Timestamp>(10 + i),
                                static_cast<NodeId>(i));
    removals.Append(e);
    removal_events.push_back(e);
  }
  const uint64_t ops = num_removals * rounds;

  double batched_s = 0, hash_s = 0;
  size_t sink = 0;
  for (size_t r = 0; r < rounds; ++r) {
    Delta d = base;
    auto start = std::chrono::steady_clock::now();
    d.ApplyEvents(removals, kMinTimestamp, kMaxTimestamp);
    batched_s += SecondsSince(start);
    sink += d.Cardinality();
  }
  for (size_t r = 0; r < rounds; ++r) {
    HashDelta d = hash_base;
    auto start = std::chrono::steady_clock::now();
    for (const Event& e : removal_events) d.Apply(e);
    hash_s += SecondsSince(start);
    sink += d.Cardinality();
  }
  PrintRate("removal-heavy", "flat-batched", ops, batched_s);
  PrintRate("removal-heavy", "hash", ops, hash_s);
  std::printf("# removal-heavy sink=%zu edges=%zu removals=%zu\n", sink,
              num_edges, num_removals);
}

// Live-heap footprint of one snapshot-scale delta per representation.
void RunResidency(const Delta& snapshot, const HashDelta& hash_snapshot) {
  if (!HGS_HEAP_ACCOUNTING) {
    std::printf("residency      (n/a under sanitizers)\n");
    return;
  }
  const size_t entries = snapshot.Cardinality();
  long long flat_bytes = 0, hash_bytes = 0;
  {
    long long before = g_live_bytes.load();
    Delta copy = snapshot;
    flat_bytes = g_live_bytes.load() - before;
  }
  {
    long long before = g_live_bytes.load();
    HashDelta copy = hash_snapshot;
    hash_bytes = g_live_bytes.load() - before;
  }
  const double flat_per = static_cast<double>(flat_bytes) /
                          static_cast<double>(entries);
  const double hash_per = static_cast<double>(hash_bytes) /
                          static_cast<double>(entries);
  std::printf(
      "residency      flat           entries=%zu bytes=%lld (%.1f B/entry)\n",
      entries, flat_bytes, flat_per);
  std::printf(
      "residency      hash           entries=%zu bytes=%lld (%.1f B/entry)\n",
      entries, hash_bytes, hash_per);
  JsonRow("delta_merge", "residency_flat_B_per_entry", flat_per, "B");
  JsonRow("delta_merge", "residency_hash_B_per_entry", hash_per, "B");
}

void Run() {
  PrintPreamble("delta_merge: flat-map Delta vs hash-map baseline",
                "flat merges/replays faster at lower peak RSS");

  auto events = Dataset2();
  const size_t cut = events.size() * 9 / 10;
  std::vector<Event> head(events.begin(),
                          events.begin() + static_cast<ptrdiff_t>(cut));
  std::vector<Event> tail(events.begin() + static_cast<ptrdiff_t>(cut),
                          events.end());

  Delta snapshot;
  HashDelta hash_snapshot;
  for (const Event& e : head) {
    snapshot.ApplyEvent(e);
    hash_snapshot.Apply(e);
  }
  snapshot.Compact();
  std::printf("# snapshot cardinality=%zu  replay tail=%zu events\n",
              snapshot.Cardinality(), tail.size());

  const size_t rounds = Scaled(6) > 0 ? Scaled(6) : 1;
  RunResidency(snapshot, hash_snapshot);
  RunMicroMerge(snapshot, /*k=*/64, rounds);
  RunLargeMerge(snapshot, rounds);
  // About the path of a warm snapshot in the HGS benchmark: ~75 tree rows
  // and ~30 eventlist rows.
  const Delta merged = RunSnapshotMerge(events, /*levels=*/6, /*k=*/12,
                                        /*num_lists=*/30, rounds);
  RunToGraph(merged, rounds);

  // Materialize: the whole history into an empty delta.
  RunReplay("materialize", Delta(), HashDelta(), events, rounds);

  // Attribute churn onto an existing snapshot (DBLP shape: repeated keys).
  {
    auto dblp = DatasetDblp();
    const size_t dcut = dblp.size() * 6 / 10;
    Delta dbase;
    HashDelta dhash;
    for (size_t i = 0; i < dcut; ++i) {
      dbase.ApplyEvent(dblp[i]);
      dhash.Apply(dblp[i]);
    }
    dbase.Compact();
    std::vector<Event> dtail(dblp.begin() + static_cast<ptrdiff_t>(dcut),
                             dblp.end());
    RunReplay("attr-replay", dbase, dhash, dtail, rounds);
  }

  // Mostly-new-key growth churn onto an existing snapshot: the insert-bound
  // shape where a hash map keeps an edge over any sorted structure.
  RunReplay("growth-replay", snapshot, hash_snapshot, tail, rounds);

  RunRemovalReplay(Scaled(4'000), Scaled(1'000), rounds);
}

}  // namespace
}  // namespace hgs::bench

int main(int argc, char** argv) {
  hgs::bench::InitBenchTelemetry(&argc, argv);
  hgs::bench::Run();
  return 0;
}
