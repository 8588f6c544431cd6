// Tests of the delta framework: event application, the delta algebra laws of
// Section 4.1 (sums, differences, intersections, identities, the documented
// non-commutativity), eventlist scoping, and serialization round trips.
// Includes randomized property tests driven by generated histories.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <unordered_map>

#include "common/rng.h"
#include "delta/delta.h"
#include "delta/event.h"
#include "delta/eventlist.h"
#include "workload/generators.h"

// -- allocation counting ----------------------------------------------------
// Replaces the global allocator for this test binary with a pass-through
// that counts allocations made on the current thread while armed. Used to
// assert that filter outputs reserve once instead of growing.
//
// Under AddressSanitizer the replacement is disabled (mixing user-replaced
// operators with ASan's interposed ones trips alloc-dealloc-mismatch for
// allocations crossing the shared-library boundary); the counting-based
// tests skip themselves there.
#if defined(__SANITIZE_ADDRESS__)
#define HGS_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HGS_ALLOC_COUNTING 0
#else
#define HGS_ALLOC_COUNTING 1
#endif
#else
#define HGS_ALLOC_COUNTING 1
#endif

static thread_local bool g_count_allocs = false;
static thread_local size_t g_alloc_count = 0;

#if HGS_ALLOC_COUNTING
void* operator new(std::size_t n) {
  if (g_count_allocs) ++g_alloc_count;
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // HGS_ALLOC_COUNTING

namespace hgs {
namespace {

/// Arms the allocation counter for the enclosing scope (this thread only).
class ScopedAllocCounter {
 public:
  ScopedAllocCounter() {
    g_alloc_count = 0;
    g_count_allocs = true;
  }
  ~ScopedAllocCounter() { g_count_allocs = false; }
  size_t count() const { return g_alloc_count; }
};

Delta MakeDelta(std::initializer_list<NodeId> nodes,
                std::initializer_list<std::pair<NodeId, NodeId>> edges = {}) {
  Delta d;
  for (NodeId n : nodes) d.PutNode(n, NodeRecord{});
  for (auto [u, v] : edges) {
    d.PutEdge(EdgeKey(u, v),
              EdgeRecord{.src = u, .dst = v, .directed = false, .attrs = {}});
  }
  return d;
}

TEST(EventTest, FactoriesPopulateFields) {
  Event e = Event::AddEdge(42, 1, 2, true, Attributes{{"w", "3"}});
  EXPECT_EQ(e.time, 42);
  EXPECT_EQ(e.type, EventType::kAddEdge);
  EXPECT_EQ(e.u, 1u);
  EXPECT_EQ(e.v, 2u);
  EXPECT_TRUE(e.directed);
  EXPECT_EQ(*e.attrs.Get("w"), "3");
}

TEST(EventTest, TouchesBothEndpointsOfEdge) {
  Event e = Event::AddEdge(1, 10, 20);
  EXPECT_TRUE(e.Touches(10));
  EXPECT_TRUE(e.Touches(20));
  EXPECT_FALSE(e.Touches(30));
  Event n = Event::SetNodeAttr(2, 10, "k", "v");
  EXPECT_TRUE(n.Touches(10));
  EXPECT_FALSE(n.Touches(20));
}

TEST(EventTest, SerializationRoundTripAllTypes) {
  std::vector<Event> events = {
      Event::AddNode(1, 5, Attributes{{"a", "b"}}),
      Event::RemoveNode(2, 5),
      Event::AddEdge(3, 1, 2, true, Attributes{{"w", "1.5"}}),
      Event::RemoveEdge(4, 1, 2),
      Event::SetNodeAttr(5, 7, "k", "new", "old"),
      Event::DelNodeAttr(6, 7, "k", "old"),
      Event::SetEdgeAttr(7, 1, 2, "w", "2", "1.5"),
      Event::DelEdgeAttr(8, 1, 2, "w", "2"),
  };
  BinaryWriter w;
  for (const Event& e : events) e.SerializeTo(&w);
  std::string buf = w.Finish();
  BinaryReader r(buf);
  for (const Event& e : events) {
    Event got;
    Event::DeserializeFrom(&r, &got);
    ASSERT_FALSE(r.failed());
    EXPECT_EQ(got, e);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(EventTest, ApplyToGraphLifecycle) {
  Graph g;
  ApplyEventToGraph(Event::AddNode(1, 1), &g);
  ApplyEventToGraph(Event::AddNode(2, 2), &g);
  ApplyEventToGraph(Event::AddEdge(3, 1, 2), &g);
  EXPECT_TRUE(g.HasEdge(1, 2));
  ApplyEventToGraph(Event::SetNodeAttr(4, 1, "color", "red"), &g);
  EXPECT_EQ(*g.GetNode(1)->attrs.Get("color"), "red");
  ApplyEventToGraph(Event::SetEdgeAttr(5, 1, 2, "w", "9"), &g);
  EXPECT_EQ(*g.GetEdge(1, 2)->attrs.Get("w"), "9");
  ApplyEventToGraph(Event::RemoveEdge(6, 1, 2), &g);
  EXPECT_FALSE(g.HasEdge(1, 2));
  ApplyEventToGraph(Event::RemoveNode(7, 1), &g);
  EXPECT_FALSE(g.HasNode(1));
  EXPECT_TRUE(g.HasNode(2));
}

TEST(DeltaTest, SumRightOperandWins) {
  Delta a;
  a.PutNode(1, NodeRecord{.attrs = Attributes{{"v", "old"}}});
  Delta b;
  b.PutNode(1, NodeRecord{.attrs = Attributes{{"v", "new"}}});
  Delta s = Delta::Sum(a, b);
  ASSERT_NE(s.FindNode(1), nullptr);
  EXPECT_EQ(*(*s.FindNode(1))->attrs.Get("v"), "new");
  // Non-commutativity witness (Definition 4 note).
  Delta s2 = Delta::Sum(b, a);
  EXPECT_FALSE(s == s2);
}

TEST(DeltaTest, SumWithEmptyIsIdentity) {
  Delta a = MakeDelta({1, 2}, {{1, 2}});
  EXPECT_EQ(Delta::Sum(a, Delta()), a);
  EXPECT_EQ(Delta::Sum(Delta(), a), a);
}

TEST(DeltaTest, SumIsAssociative) {
  Delta a = MakeDelta({1});
  Delta b;
  b.PutNode(1, NodeRecord{.attrs = Attributes{{"x", "1"}}});
  b.PutNode(2, NodeRecord{});
  Delta c;
  c.TombstoneNode(2);
  c.PutNode(3, NodeRecord{});
  EXPECT_EQ(Delta::Sum(Delta::Sum(a, b), c), Delta::Sum(a, Delta::Sum(b, c)));
}

TEST(DeltaTest, DifferenceLaws) {
  Delta a = MakeDelta({1, 2}, {{1, 2}});
  // Δ - Δ = ∅ and Δ - ∅ = Δ (Section 4.1).
  EXPECT_TRUE(Delta::Difference(a, a).Empty());
  EXPECT_EQ(Delta::Difference(a, Delta()), a);
  // Differing state on the same key is kept.
  Delta b;
  b.PutNode(1, NodeRecord{.attrs = Attributes{{"k", "v"}}});
  b.PutNode(2, NodeRecord{});
  Delta diff = Delta::Difference(a, b);
  EXPECT_NE(diff.FindNode(1), nullptr);   // states differ -> kept
  EXPECT_EQ(diff.FindNode(2), nullptr);   // identical -> removed
}

TEST(DeltaTest, IntersectKeepsIdenticalPairsOnly) {
  Delta a = MakeDelta({1, 2, 3}, {{1, 2}});
  Delta b = MakeDelta({2, 3}, {{1, 2}});
  Delta bmod = b;
  bmod.PutNode(3, NodeRecord{.attrs = Attributes{{"changed", "1"}}});
  Delta i = Delta::Intersect(a, bmod);
  EXPECT_EQ(i.FindNode(1), nullptr);
  EXPECT_NE(i.FindNode(2), nullptr);
  EXPECT_EQ(i.FindNode(3), nullptr);  // differing state excluded
  EXPECT_NE(i.FindEdge(EdgeKey(1, 2)), nullptr);
  // Δ ∩ ∅ = ∅.
  EXPECT_TRUE(Delta::Intersect(a, Delta()).Empty());
}

TEST(DeltaTest, UnionIdentity) {
  Delta a = MakeDelta({1, 2});
  EXPECT_EQ(Delta::Union(a, Delta()), a);
  EXPECT_EQ(Delta::Union(Delta(), a), a);
}

TEST(DeltaTest, ReconstructionInvariant) {
  // child == parent + (child - parent) whenever parent ⊆-compatible, the
  // identity the DeltaGraph hierarchy depends on.
  Delta parent = MakeDelta({1, 2}, {{1, 2}});
  Delta child = MakeDelta({1, 2, 3}, {{1, 2}, {2, 3}});
  child.PutNode(1, NodeRecord{.attrs = Attributes{{"a", "b"}}});
  Delta derived = Delta::Difference(child, parent);
  EXPECT_EQ(Delta::Sum(parent, derived), child);
}

TEST(DeltaTest, TombstonesPropagateThroughSum) {
  Delta base = MakeDelta({1, 2}, {{1, 2}});
  Delta removal;
  removal.TombstoneNode(1);
  removal.TombstoneEdge(EdgeKey(1, 2));
  Delta merged = Delta::Sum(base, removal);
  Graph g = merged.ToGraph();
  EXPECT_FALSE(g.HasNode(1));
  EXPECT_TRUE(g.HasNode(2));
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(DeltaTest, ApplyEventSequence) {
  Delta d;
  d.ApplyEvent(Event::AddNode(1, 1));
  d.ApplyEvent(Event::AddNode(2, 2));
  d.ApplyEvent(Event::AddEdge(3, 1, 2));
  d.ApplyEvent(Event::SetNodeAttr(4, 1, "k", "v"));
  d.ApplyEvent(Event::RemoveEdge(5, 1, 2));
  Graph g = d.ToGraph();
  EXPECT_TRUE(g.HasNode(1));
  EXPECT_EQ(*g.GetNode(1)->attrs.Get("k"), "v");
  EXPECT_FALSE(g.HasEdge(1, 2));
}

TEST(DeltaTest, RemoveNodeTombstonesIncidentEdgesInDelta) {
  Delta d;
  d.ApplyEvent(Event::AddNode(1, 1));
  d.ApplyEvent(Event::AddNode(2, 2));
  d.ApplyEvent(Event::AddEdge(3, 1, 2));
  d.ApplyEvent(Event::RemoveNode(4, 1));
  const auto* edge = d.FindEdge(EdgeKey(1, 2));
  ASSERT_NE(edge, nullptr);
  EXPECT_FALSE(edge->has_value());  // tombstoned
}

TEST(DeltaTest, FilterByNodesKeepsIncidentEdges) {
  Delta d = MakeDelta({1, 2, 3}, {{1, 2}, {2, 3}});
  Delta f = d.FilterByNodes({1});
  EXPECT_NE(f.FindNode(1), nullptr);
  EXPECT_EQ(f.FindNode(2), nullptr);
  EXPECT_NE(f.FindEdge(EdgeKey(1, 2)), nullptr);  // one endpoint in scope
  EXPECT_EQ(f.FindEdge(EdgeKey(2, 3)), nullptr);
}

TEST(DeltaTest, ToGraphDropsDanglingEdges) {
  Delta d;
  d.PutEdge(EdgeKey(1, 2),
            EdgeRecord{.src = 1, .dst = 2, .directed = false, .attrs = {}});
  d.PutNode(1, NodeRecord{});
  EXPECT_EQ(d.ToGraph().NumEdges(), 0u);
}

TEST(DeltaTest, SerializationRoundTrip) {
  Delta d = MakeDelta({1, 2, 3}, {{1, 2}, {2, 3}});
  d.PutNode(9, NodeRecord{.attrs = Attributes{{"label", "hub"}}});
  d.TombstoneNode(4);
  d.TombstoneEdge(EdgeKey(7, 8));
  auto back = Delta::Deserialize(d.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, d);
}

TEST(DeltaTest, DeserializeRejectsCorruption) {
  Delta d = MakeDelta({1, 2});
  std::string buf = d.Serialize();
  buf[buf.size() / 2] ^= 0x10;
  EXPECT_FALSE(Delta::Deserialize(buf).ok());
}

TEST(DeltaTest, FromGraphRoundTrip) {
  Graph g;
  g.AddNode(1, Attributes{{"x", "1"}});
  g.AddNode(2);
  g.AddEdge(1, 2, true, Attributes{{"w", "5"}});
  Delta d = Delta::FromGraph(g);
  EXPECT_EQ(d.Cardinality(), 3u);
  EXPECT_TRUE(d.ToGraph() == g);
}

TEST(EventListTest, FilterSemantics) {
  EventList list(0, 100);
  for (int i = 1; i <= 10; ++i) {
    list.Append(Event::AddNode(i * 10, static_cast<NodeId>(i)));
  }
  // (after, upto] semantics.
  EventList mid = list.FilterByTime(20, 50);
  ASSERT_EQ(mid.size(), 3u);  // 30, 40, 50
  EXPECT_EQ(mid.events().front().time, 30);
  EXPECT_EQ(mid.events().back().time, 50);
}

TEST(EventListTest, FilterByNode) {
  EventList list(0, 10);
  list.Append(Event::AddNode(1, 1));
  list.Append(Event::AddEdge(2, 1, 2));
  list.Append(Event::AddNode(3, 3));
  EventList for1 = list.FilterByNode(1);
  EXPECT_EQ(for1.size(), 2u);
  EventList for2 = list.FilterByNode(2);
  EXPECT_EQ(for2.size(), 1u);  // edge touches both endpoints
}

TEST(EventListTest, ApplyUpToStopsAtT) {
  EventList list(0, 100);
  list.Append(Event::AddNode(10, 1));
  list.Append(Event::AddNode(20, 2));
  list.Append(Event::AddNode(30, 3));
  Graph g;
  list.ApplyUpTo(20, &g);
  EXPECT_TRUE(g.HasNode(1));
  EXPECT_TRUE(g.HasNode(2));
  EXPECT_FALSE(g.HasNode(3));
}

TEST(EventListTest, SerializationRoundTrip) {
  EventList list(5, 50);
  list.Append(Event::AddNode(10, 1, Attributes{{"a", "1"}}));
  list.Append(Event::AddEdge(20, 1, 2, true));
  list.Append(Event::SetNodeAttr(30, 1, "a", "2", "1"));
  auto back = EventList::Deserialize(list.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, list);
}

TEST(EventListTest, SortIsStable) {
  EventList list(0, 10);
  list.Append(Event::AddNode(5, 2));
  list.Append(Event::AddNode(3, 1));
  list.Append(Event::AddNode(5, 3));
  list.Sort();
  EXPECT_EQ(list.events()[0].u, 1u);
  EXPECT_EQ(list.events()[1].u, 2u);  // equal keys keep insertion order
  EXPECT_EQ(list.events()[2].u, 3u);
}

// ---------------------------------------------------------------------------
// Property tests over generated histories.
// ---------------------------------------------------------------------------

class DeltaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaPropertyTest, SnapshotDeltaEqualsEventReplay) {
  // Accumulating events into a Delta and materializing equals replaying the
  // events into a Graph directly (Example 4: Δsnapshot = G(t) - G(-∞)).
  workload::WikiGrowthOptions opts;
  opts.num_events = 3'000;
  opts.seed = GetParam();
  auto events = workload::GenerateWikiGrowth(opts);
  auto churned = workload::AugmentWithChurn(
      std::move(events), {.num_events = 2'000, .seed = GetParam() + 100});

  Delta acc;
  for (const Event& e : churned) acc.ApplyEvent(e);
  Graph from_delta = acc.ToGraph();
  Graph replayed = workload::ReplayToGraph(churned, kMaxTimestamp);
  EXPECT_TRUE(from_delta == replayed);
}

TEST_P(DeltaPropertyTest, HierarchyReconstruction) {
  // parent = ∩ children; child == parent + (child - parent) for snapshots
  // taken from a generated history.
  workload::WikiGrowthOptions opts;
  opts.num_events = 2'000;
  opts.seed = GetParam();
  auto events = workload::GenerateWikiGrowth(opts);
  Timestamp t_mid = events[events.size() / 2].time;
  Delta child1 = Delta::FromGraph(workload::ReplayToGraph(events, t_mid));
  Delta child2 =
      Delta::FromGraph(workload::ReplayToGraph(events, kMaxTimestamp));
  Delta parent = Delta::Intersect(child1, child2);
  EXPECT_EQ(Delta::Sum(parent, Delta::Difference(child1, parent)), child1);
  EXPECT_EQ(Delta::Sum(parent, Delta::Difference(child2, parent)), child2);
}

TEST_P(DeltaPropertyTest, SerializedRoundTripOnGeneratedHistory) {
  workload::WikiGrowthOptions opts;
  opts.num_events = 1'500;
  opts.seed = GetParam() * 13 + 1;
  auto events = workload::GenerateWikiGrowth(opts);
  Delta acc;
  for (const Event& e : events) acc.ApplyEvent(e);
  auto back = Delta::Deserialize(acc.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, acc);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Decode round trips over fuzzed inputs, corrupt-buffer handling, and
// allocation discipline of the filter paths.
// ---------------------------------------------------------------------------

std::string RandomString(Rng* rng, size_t max_len) {
  size_t len = rng->Uniform(max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng->Uniform(26)));
  }
  return s;
}

Attributes RandomAttrs(Rng* rng) {
  Attributes attrs;
  size_t n = rng->Uniform(4);
  for (size_t i = 0; i < n; ++i) {
    attrs.Set(RandomString(rng, 6), RandomString(rng, 12));
  }
  return attrs;
}

/// A random event covering every EventType, including empty and long
/// strings, so the fuzz round trip exercises each decode branch.
Event RandomEvent(Rng* rng, Timestamp t) {
  NodeId u = rng->Uniform(50);
  NodeId v = rng->Uniform(50);
  switch (rng->Uniform(8)) {
    case 0:
      return Event::AddNode(t, u, RandomAttrs(rng));
    case 1:
      return Event::RemoveNode(t, u);
    case 2:
      return Event::AddEdge(t, u, v, rng->Uniform(2) == 0, RandomAttrs(rng));
    case 3:
      return Event::RemoveEdge(t, u, v);
    case 4:
      return Event::SetNodeAttr(t, u, RandomString(rng, 8),
                                RandomString(rng, 20), RandomString(rng, 20));
    case 5:
      return Event::DelNodeAttr(t, u, RandomString(rng, 8),
                                RandomString(rng, 20));
    case 6:
      return Event::SetEdgeAttr(t, u, v, RandomString(rng, 8),
                                RandomString(rng, 20), RandomString(rng, 20));
    default:
      return Event::DelEdgeAttr(t, u, v, RandomString(rng, 8),
                                RandomString(rng, 20));
  }
}

TEST(BulkDecodeTest, EventListRoundTripsFuzzedInputs) {
  Rng rng(20260731);
  for (int round = 0; round < 50; ++round) {
    EventList list(0, 10'000);
    size_t n = rng.Uniform(40);
    for (size_t i = 0; i < n; ++i) {
      list.Append(RandomEvent(&rng, static_cast<Timestamp>(i + 1)));
    }
    auto back = EventList::Deserialize(list.Serialize());
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(*back == list);
  }
}

TEST(BulkDecodeTest, DeltaRoundTripsFuzzedInputs) {
  Rng rng(20260801);
  for (int round = 0; round < 50; ++round) {
    Delta d;
    size_t n = rng.Uniform(60);
    for (size_t i = 0; i < n; ++i) {
      d.ApplyEvent(RandomEvent(&rng, static_cast<Timestamp>(i + 1)));
    }
    auto back = Delta::Deserialize(d.Serialize());
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(*back == d);
  }
}

TEST(BulkDecodeTest, CorruptBuffersErrorWithoutCrashing) {
  Rng rng(7);
  EventList list(0, 100);
  for (int i = 0; i < 10; ++i) {
    list.Append(RandomEvent(&rng, static_cast<Timestamp>(i + 1)));
  }
  std::string wire = list.Serialize();
  // Truncations at every length: either a checksum error or (never, for
  // this corpus) a clean decode — but no crash or hang.
  for (size_t len = 0; len < wire.size(); ++len) {
    auto res = EventList::Deserialize(std::string_view(wire).substr(0, len));
    EXPECT_FALSE(res.ok());
  }
  // Single-byte flips are caught by the checksum before decoding runs.
  for (size_t i = 0; i < wire.size(); ++i) {
    std::string bad = wire;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    (void)EventList::Deserialize(bad);
  }
}

TEST(EventListTest, FilterByNodeReservesOutputAndDoesNotReallocate) {
  if (!HGS_ALLOC_COUNTING) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  EventList list(0, 10'000);
  for (int i = 0; i < 200; ++i) {
    // Attribute-free edge events: copying one allocates nothing (SSO
    // strings, empty attributes), so the only allocation in
    // FilterByNode is the reserved output buffer.
    list.Append(Event::AddEdge(i + 1, 1, static_cast<NodeId>(2 + i % 7)));
  }
  size_t allocs = 0;
  EventList out;
  {
    ScopedAllocCounter counter;
    out = list.FilterByNode(1);
    allocs = counter.count();
  }
  EXPECT_EQ(out.size(), 200u);
  EXPECT_LE(allocs, 2u);

  // The consuming overload moves matching events out.
  EventList doomed = list;
  EventList moved = std::move(doomed).FilterByNode(1);
  EXPECT_TRUE(moved == out);
  EXPECT_TRUE(doomed.empty());
}

// A delta of `n` nodes, each with its own `kind=article` block, on a path of
// n - 1 attribute-free edges.
Delta AttributedPath(NodeId n) {
  Delta d;
  for (NodeId i = 0; i < n; ++i) {
    d.PutNode(i, NodeRecord{.attrs = {{"kind", "article"}}});
  }
  for (NodeId i = 1; i < n; ++i) {
    d.PutEdge(EdgeKey(i - 1, i),
              EdgeRecord{.src = i - 1, .dst = i, .directed = false,
                         .attrs = {}});
  }
  d.Compact();
  return d;
}

TEST(DeltaAllocationTest, CopyAndSumShareAttributeBlocks) {
  if (!HGS_ALLOC_COUNTING) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  // Allocations of a copy and of a self-sum, at 1,000 and 4,000 nodes:
  // records share their attribute blocks, so neither count may grow with
  // the node count.
  size_t copy_allocs[2] = {};
  size_t sum_allocs[2] = {};
  const NodeId sizes[2] = {1'000, 4'000};
  for (int i = 0; i < 2; ++i) {
    const Delta d = AttributedPath(sizes[i]);
    {
      ScopedAllocCounter counter;
      Delta copy = d;
      copy_allocs[i] = counter.count();
      EXPECT_EQ(copy, d);
    }
    const Delta* rows[] = {&d, &d};
    {
      ScopedAllocCounter counter;
      Delta sum = Delta::SumAll(rows);
      sum_allocs[i] = counter.count();
      EXPECT_EQ(sum, d);
    }
    const auto* rec = d.FindNode(7);
    ASSERT_TRUE(rec != nullptr && rec->has_value());
    EXPECT_EQ((*rec)->attrs.use_count(), 1u);
  }
  EXPECT_EQ(copy_allocs[0], copy_allocs[1]);
  EXPECT_EQ(sum_allocs[0], sum_allocs[1]);
  EXPECT_LE(copy_allocs[0], 2u);
  EXPECT_LE(sum_allocs[0], 16u);
}

// ---------------------------------------------------------------------------
// Flat-map representation: equivalence against a reference hash-map Delta,
// batched event application, removal-scan regression, serde exactness.
// ---------------------------------------------------------------------------

/// Reference implementation of the delta semantics over two hash maps (the
/// pre-flat-map representation). The flat-map algebra must stay
/// content-equivalent to this across arbitrary event sequences.
struct RefDelta {
  std::unordered_map<NodeId, std::optional<NodeRecord>> nodes;
  std::unordered_map<EdgeKey, std::optional<EdgeRecord>, EdgeKeyHash> edges;

  void Apply(const Event& e) {
    switch (e.type) {
      case EventType::kAddNode:
        nodes[e.u] = NodeRecord{.attrs = e.attrs};
        break;
      case EventType::kRemoveNode: {
        nodes[e.u] = std::nullopt;
        for (auto& [key, rec] : edges) {
          if ((key.u == e.u || key.v == e.u) && rec.has_value()) {
            rec = std::nullopt;
          }
        }
        break;
      }
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

  void Add(const RefDelta& o) {
    for (const auto& [id, rec] : o.nodes) nodes[id] = rec;
    for (const auto& [key, rec] : o.edges) edges[key] = rec;
  }

  static RefDelta Difference(const RefDelta& a, const RefDelta& b) {
    RefDelta out;
    for (const auto& [id, rec] : a.nodes) {
      auto it = b.nodes.find(id);
      if (it == b.nodes.end() || !(it->second == rec)) out.nodes[id] = rec;
    }
    for (const auto& [key, rec] : a.edges) {
      auto it = b.edges.find(key);
      if (it == b.edges.end() || !(it->second == rec)) out.edges[key] = rec;
    }
    return out;
  }

  static RefDelta Intersect(const RefDelta& a, const RefDelta& b) {
    RefDelta out;
    for (const auto& [id, rec] : a.nodes) {
      auto it = b.nodes.find(id);
      if (it != b.nodes.end() && it->second == rec) out.nodes[id] = rec;
    }
    for (const auto& [key, rec] : a.edges) {
      auto it = b.edges.find(key);
      if (it != b.edges.end() && it->second == rec) out.edges[key] = rec;
    }
    return out;
  }

  static RefDelta Union(const RefDelta& a, const RefDelta& b) {
    RefDelta out = b;
    for (const auto& [id, rec] : a.nodes) out.nodes[id] = rec;
    for (const auto& [key, rec] : a.edges) out.edges[key] = rec;
    return out;
  }
};

RefDelta ToRef(const Delta& d) {
  RefDelta out;
  d.ForEachNodeEntry([&](NodeId id, const std::optional<NodeRecord>& rec) {
    out.nodes[id] = rec;
  });
  d.ForEachEdgeEntry(
      [&](const EdgeKey& key, const std::optional<EdgeRecord>& rec) {
        out.edges[key] = rec;
      });
  return out;
}

::testing::AssertionResult SameContent(const Delta& d, const RefDelta& r) {
  RefDelta got = ToRef(d);
  if (got.nodes != r.nodes) {
    return ::testing::AssertionFailure()
           << "node entries differ: " << got.nodes.size() << " vs "
           << r.nodes.size();
  }
  if (got.edges != r.edges) {
    return ::testing::AssertionFailure()
           << "edge entries differ: " << got.edges.size() << " vs "
           << r.edges.size();
  }
  if (d.NodeEntryCount() != r.nodes.size() ||
      d.EdgeEntryCount() != r.edges.size()) {
    return ::testing::AssertionFailure() << "entry counts disagree";
  }
  return ::testing::AssertionSuccess();
}

class FlatMapPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatMapPropertyTest, MatchesHashReferenceAcrossRandomEventSequences) {
  Rng rng(GetParam() * 7919 + 3);
  for (int round = 0; round < 8; ++round) {
    // Two independently built deltas, mutated through the full event set.
    Delta d1, d2;
    RefDelta r1, r2;
    const size_t n1 = 20 + rng.Uniform(150);
    const size_t n2 = 20 + rng.Uniform(150);
    for (size_t i = 0; i < n1; ++i) {
      Event e = RandomEvent(&rng, static_cast<Timestamp>(i + 1));
      d1.ApplyEvent(e);
      r1.Apply(e);
    }
    for (size_t i = 0; i < n2; ++i) {
      Event e = RandomEvent(&rng, static_cast<Timestamp>(i + 1));
      d2.ApplyEvent(e);
      r2.Apply(e);
    }
    ASSERT_TRUE(SameContent(d1, r1));
    ASSERT_TRUE(SameContent(d2, r2));

    // Algebra equivalence (tombstones included in the entry comparison).
    RefDelta rsum = r1;
    rsum.Add(r2);
    EXPECT_TRUE(SameContent(Delta::Sum(d1, d2), rsum));
    EXPECT_TRUE(SameContent(Delta::Difference(d1, d2),
                            RefDelta::Difference(r1, r2)));
    EXPECT_TRUE(SameContent(Delta::Intersect(d1, d2),
                            RefDelta::Intersect(r1, r2)));
    EXPECT_TRUE(SameContent(Delta::Union(d1, d2), RefDelta::Union(r1, r2)));

    // The in-place sum agrees with the functional one.
    Delta acc = d1;
    acc.Add(d2);
    EXPECT_TRUE(SameContent(acc, rsum));

    // Serde round trip is content-preserving, lands compact, and the
    // re-serialized bytes are canonical (key-ordered).
    std::string wire = d1.Serialize();
    auto back = Delta::Deserialize(wire);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(*back == d1);
    EXPECT_TRUE(back->IsCompact());
    EXPECT_EQ(back->Serialize(), wire);
  }
}

TEST_P(FlatMapPropertyTest, BatchedApplyEventsMatchesSequentialReplay) {
  Rng rng(GetParam() * 104729 + 11);
  for (int round = 0; round < 10; ++round) {
    // A chronologically sorted eventlist with repeated timestamps.
    EventList list(kMinTimestamp, kMaxTimestamp);
    Timestamp t = 0;
    const size_t n = 30 + rng.Uniform(200);
    for (size_t i = 0; i < n; ++i) {
      t += static_cast<Timestamp>(rng.Uniform(2));
      list.Append(RandomEvent(&rng, t));
    }
    // A base state built from an unrelated prefix of events.
    Delta base;
    for (int i = 0; i < 40; ++i) {
      base.ApplyEvent(RandomEvent(&rng, i));
    }
    if (rng.Uniform(2) == 0) base.Compact();

    // Sweep windows, including empty, full, and boundary-colliding ones.
    const Timestamp probes[] = {kMinTimestamp, 0, t / 3, t / 2, t,
                                kMaxTimestamp};
    for (Timestamp after : probes) {
      for (Timestamp upto : probes) {
        Delta seq = base;
        for (const Event& e : list.events()) {
          if (e.time > after && e.time <= upto) seq.ApplyEvent(e);
        }
        if (after == kMinTimestamp) {
          // The sentinel means unbounded below for the batched path.
          seq = base;
          for (const Event& e : list.events()) {
            if (e.time <= upto) seq.ApplyEvent(e);
          }
        }
        Delta batched = base;
        batched.ApplyEvents(list, after, upto);
        EXPECT_TRUE(batched == seq)
            << "window (" << after << ", " << upto << "]";
      }
    }
  }
}

TEST_P(FlatMapPropertyTest, SumAllMatchesSequentialAddChain) {
  Rng rng(GetParam() * 15485863 + 5);
  size_t tailed = 0;
  for (int round = 0; round < 20; ++round) {
    // Lists of 0 to 9 rows, then up to 70 (a root-to-leaf path's shape).
    // Keys come from a 50-node space, so they overlap across rows, and
    // removals leave tombstones; some rows are empty, and rows left
    // uncompacted keep an append tail.
    const size_t k =
        round < 10 ? static_cast<size_t>(round) : 10 + rng.Uniform(61);
    std::vector<Delta> rows(k);
    for (Delta& row : rows) {
      const size_t n = rng.Uniform(4) == 0 ? 0 : rng.Uniform(120);
      for (size_t i = 0; i < n; ++i) {
        row.ApplyEvent(RandomEvent(&rng, static_cast<Timestamp>(i + 1)));
      }
      if (rng.Uniform(2) == 0) row.Compact();
      if (!row.IsCompact()) ++tailed;
    }
    std::vector<const Delta*> ptrs;
    Delta chain;
    for (const Delta& row : rows) {
      ptrs.push_back(&row);
      chain.Add(row);
    }
    const Delta sum = Delta::SumAll(ptrs);
    EXPECT_TRUE(sum == chain) << "rows=" << k;
    EXPECT_TRUE(sum.IsCompact());
  }
  EXPECT_GT(tailed, 0u);
}

TEST_P(FlatMapPropertyTest, FilterByIdsMatchesPerIdFilter) {
  Rng rng(GetParam() * 49979687 + 13);
  size_t tailed = 0;
  size_t self_loops = 0;
  size_t tombstones = 0;
  for (int round = 0; round < 20; ++round) {
    // Random events over node ids below 50 leave tombstones (removals) and
    // self-loops; deltas left uncompacted keep an append tail.
    Delta d;
    const size_t n = rng.Uniform(200);
    for (size_t i = 0; i < n; ++i) {
      d.ApplyEvent(RandomEvent(&rng, static_cast<Timestamp>(i + 1)));
    }
    if (rng.Uniform(2) == 0) d.Compact();
    if (!d.IsCompact()) ++tailed;
    // Ascending ids: a random subset of [0, 60), so some are absent, then
    // one above every edge key.
    std::vector<NodeId> ids;
    for (NodeId id = 0; id < 60; ++id) {
      if (rng.Uniform(3) == 0) ids.push_back(id);
    }
    ids.push_back(1'000 + static_cast<NodeId>(round));
    const std::vector<Delta> got = d.FilterByIds(ids);
    ASSERT_EQ(got.size(), ids.size());
    const RefDelta all = ToRef(d);
    for (size_t i = 0; i < ids.size(); ++i) {
      const NodeId id = ids[i];
      RefDelta want;
      auto node = all.nodes.find(id);
      if (node != all.nodes.end()) want.nodes[id] = node->second;
      for (const auto& [key, rec] : all.edges) {
        if (key.u != id && key.v != id) continue;
        want.edges[key] = rec;
        if (key.u == key.v) ++self_loops;
        if (!rec.has_value()) ++tombstones;
      }
      EXPECT_TRUE(SameContent(got[i], want)) << "round " << round << " id "
                                             << id;
      EXPECT_TRUE(got[i].IsCompact()) << "keys out of order for id " << id;
      EXPECT_TRUE(got[i] == d.FilterById(id));
    }
  }
  EXPECT_TRUE(Delta().FilterByIds({}).empty());
  EXPECT_GT(tailed, 0u);
  EXPECT_GT(self_loops, 0u);
  EXPECT_GT(tombstones, 0u);
}

TEST_P(FlatMapPropertyTest, ListReplayMatchesPerListReplay) {
  Rng rng(GetParam() * 2750159 + 7);
  for (int round = 0; round < 12; ++round) {
    // 0 to 5 chronologically sorted lists over overlapping time ranges
    // (the shape of one eventlist's per-partition rows). Some are small
    // enough for the scalar path on their own.
    std::vector<EventList> lists(static_cast<size_t>(round % 6));
    for (EventList& list : lists) {
      const size_t n = rng.Uniform(3) == 0 ? rng.Uniform(9) : rng.Uniform(150);
      Timestamp t = 0;
      for (size_t i = 0; i < n; ++i) {
        t += static_cast<Timestamp>(rng.Uniform(3));
        list.Append(RandomEvent(&rng, t));
      }
    }
    std::vector<const EventList*> ptrs;
    for (const EventList& list : lists) ptrs.push_back(&list);
    Delta base;
    for (int i = 0; i < 40; ++i) base.ApplyEvent(RandomEvent(&rng, i));
    if (rng.Uniform(2) == 0) base.Compact();

    const Timestamp probes[] = {kMinTimestamp, 0, 40, 100, kMaxTimestamp};
    for (Timestamp after : probes) {
      for (Timestamp upto : probes) {
        Delta per_list = base;
        for (const EventList& list : lists) {
          per_list.ApplyEvents(list, after, upto);
        }
        Delta batched = base;
        batched.ApplyEvents(ptrs, after, upto);
        EXPECT_TRUE(batched == per_list)
            << "lists=" << lists.size() << " window (" << after << ", "
            << upto << "]";
      }
    }
  }
}

// The graph ToGraph is specified to equal: AddNode for every present node,
// then AddEdge, in entry order, for every present edge whose endpoints are
// both nodes.
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

TEST_P(FlatMapPropertyTest, ToGraphMatchesIncrementalBuild) {
  Rng rng(GetParam() * 49979687 + 13);
  size_t tailed = 0, foreign = 0, own_keyed = 0;
  for (int round = 0; round < 40; ++round) {
    // Dense ids, or ids 2^35 apart.
    const bool sparse_ids = round % 2 == 1;
    const uint64_t n = 1 + rng.Uniform(80);
    auto id = [&](uint64_t i) -> NodeId {
      return sparse_ids ? (i << 35) + 3 : i + 1000;
    };
    Delta d;
    // Nodes: present with attributes, tombstoned, or absent.
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t roll = rng.Uniform(10);
      if (roll < 6) {
        Attributes attrs;
        if (rng.Bernoulli(0.5)) attrs.Set("a", std::to_string(i));
        d.PutNode(id(i), NodeRecord{.attrs = attrs});
      } else if (roll < 8) {
        d.TombstoneNode(id(i));
      }
    }
    // Edges over a wider id range (missing endpoints), with tombstones,
    // self-loops, both orientations and, rarely, a record filed under a
    // foreign key.
    const size_t m = rng.Uniform(4 * n + 1);
    bool round_foreign = false;
    for (size_t j = 0; j < m; ++j) {
      const NodeId u = id(rng.Uniform(n + 3));
      const NodeId v = rng.Bernoulli(0.05) ? u : id(rng.Uniform(n + 3));
      EdgeRecord rec{.src = u, .dst = v, .directed = false, .attrs = {}};
      rec.directed = rng.Bernoulli(0.5);
      if (rng.Bernoulli(0.3)) rec.attrs.Set("w", std::to_string(j));
      const uint64_t roll = rng.Uniform(20);
      if (roll < 3) {
        d.TombstoneEdge(EdgeKey(u, v));
      } else if (roll == 3 && n > 1) {
        d.PutEdge(EdgeKey(id(rng.Uniform(n)), id(rng.Uniform(n))), rec);
        ++foreign;
        round_foreign = true;
      } else {
        d.PutEdge(EdgeKey(u, v), rec);
      }
    }
    // Compact, then sometimes leave a fresh append tail on top.
    d.Compact();
    if (rng.Bernoulli(0.5)) {
      for (int j = 0; j < 5; ++j) {
        const NodeId u = id(rng.Uniform(n));
        const NodeId v = id(0);
        EdgeRecord rec{.src = u, .dst = v, .directed = false, .attrs = {}};
        d.PutNode(u, NodeRecord{});
        d.PutEdge(EdgeKey(u, v), std::move(rec));
      }
    }
    if (!d.IsCompact()) ++tailed;

    const Graph got = d.ToGraph();
    const Graph want = IncrementalGraph(d);
    ASSERT_TRUE(got == want) << "round " << round;
    want.ForEachNode([&](NodeId node, const NodeRecord&) {
      std::vector<NodeId> a = got.Neighbors(node);
      std::vector<NodeId> b = want.Neighbors(node);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "round " << round << " node " << node;
    });
    // Nodes iterate in ascending id order; edges too, unless some entry
    // is filed under a foreign key.
    const std::vector<NodeId> ids = got.NodeIds();
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    if (!round_foreign) {
      std::vector<EdgeKey> keys;
      got.ForEachEdge(
          [&](const EdgeKey& key, const EdgeRecord&) { keys.push_back(key); });
      EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()))
          << "round " << round;
      ++own_keyed;
    }
  }
  EXPECT_GT(tailed, 0u);
  EXPECT_GT(foreign, 0u);
  EXPECT_GT(own_keyed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatMapPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(DeltaTest, BatchedRemovalReplayScansEdgeEntriesOnce) {
  // Removal-heavy replay regression: R remove-node events over E edge
  // entries must cost one bounded pass over the edge span, not R scans
  // (the quadratic behavior of the per-event loop this replaced).
  constexpr NodeId kNodes = 1'000;
  Delta base;
  for (NodeId i = 0; i < kNodes; ++i) {
    base.ApplyEvent(Event::AddNode(1, i));
    base.ApplyEvent(Event::AddNode(1, i + kNodes));
    base.ApplyEvent(Event::AddEdge(2, i, i + kNodes));
  }
  base.Compact();

  constexpr size_t kRemovals = 500;
  EventList removals(kMinTimestamp, kMaxTimestamp);
  for (size_t i = 0; i < kRemovals; ++i) {
    removals.Append(Event::RemoveNode(static_cast<Timestamp>(10 + i),
                                      static_cast<NodeId>(i)));
  }

  Delta seq = base;
  for (const Event& e : removals.events()) seq.ApplyEvent(e);

  Delta::ResetIncidentEdgeScanSteps();
  Delta batched = base;
  batched.ApplyEvents(removals, kMinTimestamp, kMaxTimestamp);
  const uint64_t steps = Delta::IncidentEdgeScanSteps();

  EXPECT_TRUE(batched == seq);
  // One pass, bounded by the edge entry count — not kRemovals * kNodes.
  EXPECT_LE(steps, static_cast<uint64_t>(kNodes));
  for (size_t i = 0; i < kRemovals; ++i) {
    const auto* edge =
        batched.FindEdge(EdgeKey(static_cast<NodeId>(i),
                                 static_cast<NodeId>(i) + kNodes));
    ASSERT_NE(edge, nullptr);
    EXPECT_FALSE(edge->has_value()) << "edge " << i << " not tombstoned";
  }
}

TEST(DeltaTest, SerializedSizeBytesIsExact) {
  Rng rng(20260730);
  for (int round = 0; round < 20; ++round) {
    Delta d;
    size_t n = rng.Uniform(80);
    for (size_t i = 0; i < n; ++i) {
      d.ApplyEvent(RandomEvent(&rng, static_cast<Timestamp>(i + 1)));
    }
    // Exact both with a pending append tail and compacted.
    EXPECT_EQ(d.SerializedSizeBytes(), d.Serialize().size());
    d.Compact();
    EXPECT_EQ(d.SerializedSizeBytes(), d.Serialize().size());
  }
}

TEST(EventListTest, SerializedSizeBytesIsExact) {
  Rng rng(20260729);
  for (int round = 0; round < 20; ++round) {
    EventList list(-3, 10'000);
    size_t n = rng.Uniform(50);
    for (size_t i = 0; i < n; ++i) {
      list.Append(RandomEvent(&rng, static_cast<Timestamp>(i + 1)));
    }
    EXPECT_EQ(list.SerializedSizeBytes(), list.Serialize().size());
  }
}

}  // namespace
}  // namespace hgs
