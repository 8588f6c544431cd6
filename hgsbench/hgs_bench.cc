// The HGS benchmark driver.
//
// One workload per invocation: generate a seeded history, precompute the
// replay oracle, build the index several times (the median build is the
// set-up cost), warm up, then run the workload's operation schedule for a
// timed window. Every answer is checked against the oracle. The last line of
// standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics, or with --trace 1 the per-layer metrics
// (a second, traced window follows the untraced one; spans come only from
// this file's wrappers around public calls).
//
// Usage:
//   hgs_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--json <path>] [--trace-out <path>] [--commit <sha>]
//
// Workloads and metrics are documented in README.md next to this file.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/algorithms.h"
#include "kvstore/cluster.h"
#include "oracle.h"
#include "percentile.h"
#include "taf/context.h"
#include "tgi/tgi.h"
#include "trace.h"
#include "workload/generators.h"

#ifndef HGS_BENCH_BUILD_TYPE
#define HGS_BENCH_BUILD_TYPE "unknown"
#endif

namespace hgs::bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double SecondsSince(Clock::time_point start) { return MsSince(start) / 1e3; }

Clock::time_point After(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

// -- Shared set-up ------------------------------------------------------------

constexpr size_t kStorageNodes = 4;
constexpr size_t kReplication = 1;
constexpr size_t kServerThreadsPerNode = 4;
constexpr size_t kEventsPerTimespan = 10'000;
constexpr size_t kEventlistSize = 250;
constexpr size_t kMicroDeltaSize = 500;
constexpr size_t kFetchParallelism = 4;
constexpr size_t kSetupRepeats = 5;
/// A closed-loop window runs past its deadline until this many operations
/// completed, so op_p90_ms always has ten samples beyond it.
constexpr uint64_t kMinWindowOps = 120;
constexpr uint64_t kMiB = 1ull << 20;

/// The simulated I/O cost of the storage cluster: 600us seek + round trip
/// per request, 8us per key, 60 MB/s transfer (the figure benches' model).
LatencyModel SimulatedIo(bool enabled, bool charge_writes) {
  LatencyModel m;
  m.enabled = enabled;
  m.seek_micros = 600;
  m.per_key_micros = 8;
  m.bytes_per_micro = 60.0;
  m.charge_writes = charge_writes;
  // Sleep-only waits: many concurrent waiters on a small host.
  m.precise_wait = false;
  return m;
}

enum class Kind { kWarmSnapshots, kColdHistory, kLiveIngest, kTafEvolution };

struct WorkloadConfig {
  const char* name;
  Kind kind;
  uint64_t growth_events;  ///< GenerateWikiGrowth events
  uint64_t churn_events;   ///< AugmentWithChurn events appended after them
  bool latency_model;
  bool charge_writes;
  size_t read_cache_bytes;
  size_t decoded_cache_bytes;
  size_t readers;       ///< open-loop readers; 0: one closed-loop client
  double reader_hz;     ///< per-reader open-loop rate
  uint64_t warmup_ops;  ///< scheduled operations run before the window
};

// Why each workload exists is recorded in README.md.
constexpr WorkloadConfig kWorkloads[] = {
    {"warm-snapshots", Kind::kWarmSnapshots, 60'000, 30'000, false, false,
     64 * kMiB, 64 * kMiB, 0, 0, 0},
    {"cold-history", Kind::kColdHistory, 60'000, 140'000, true, false,
     4 * kMiB, 4 * kMiB, 0, 0, 64},
    {"live-ingest", Kind::kLiveIngest, 60'000, 180'000, true, true,
     64 * kMiB, 32 * kMiB, 2, 10.0, 0},
    {"taf-evolution", Kind::kTafEvolution, 60'000, 30'000, true, false,
     64 * kMiB, 32 * kMiB, 0, 0, 16},
};

const WorkloadConfig* FindWorkload(std::string_view name) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return seed * 1'000'003ull + stream;
}

std::vector<Event> GenerateHistory(const WorkloadConfig& w, uint64_t seed) {
  auto growth = workload::GenerateWikiGrowth(
      {.num_events = w.growth_events, .seed = DeriveSeed(seed, 1)});
  return workload::AugmentWithChurn(
      std::move(growth),
      {.num_events = w.churn_events, .seed = DeriveSeed(seed, 2)});
}

TGIOptions IndexOptions(const WorkloadConfig& w) {
  TGIOptions o;
  o.events_per_timespan = kEventsPerTimespan;
  o.eventlist_size = kEventlistSize;
  o.micro_delta_size = kMicroDeltaSize;
  o.num_horizontal_partitions = kStorageNodes;
  o.read_cache_bytes = w.read_cache_bytes;
  o.decoded_cache_bytes = w.decoded_cache_bytes;
  o.row_compression = CompressionKind::kColumnar;
  o.eventlist_compression = CompressionKind::kColumnar;
  o.versions_compression = CompressionKind::kColumnar;
  return o;
}

ClusterOptions StorageOptions(const WorkloadConfig& w) {
  ClusterOptions o;
  o.num_nodes = kStorageNodes;
  o.replication = kReplication;
  o.server_threads_per_node = kServerThreadsPerNode;
  o.latency = SimulatedIo(w.latency_model, w.charge_writes);
  return o;
}

struct Index {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<TGI> tgi;
  std::unique_ptr<TGIQueryManager> qm;

  /// Frees the index, the users of the cluster before the cluster.
  void Reset() {
    qm.reset();
    tgi.reset();
    cluster.reset();
  }
};

/// Builds the index over `events` (BulkLoad, or BuildFrom for the ingest
/// prefix) and opens a query manager. `build_s` receives the build alone.
Result<Index> BuildIndex(const WorkloadConfig& w,
                         const std::vector<Event>& events, double* build_s) {
  Index ix;
  ix.cluster = std::make_unique<Cluster>(StorageOptions(w));
  ix.tgi = std::make_unique<TGI>(ix.cluster.get(), IndexOptions(w));
  const auto start = Clock::now();
  HGS_RETURN_NOT_OK(w.kind == Kind::kLiveIngest ? ix.tgi->BuildFrom(events)
                                                : ix.tgi->BulkLoad(events));
  *build_s = SecondsSince(start);
  HGS_ASSIGN_OR_RETURN(ix.qm, ix.tgi->OpenQueryManager(kFetchParallelism));
  return ix;
}

// -- Operation recording ------------------------------------------------------

enum Api : size_t {
  kSnapshot,
  kMultipoint,
  kKHop,
  kHistories,
  kOneHop,
  kTafJob,
  kAppend,
  kApiCount,
};

constexpr const char* kApiNames[kApiCount] = {
    "snapshot", "multipoint", "khop", "histories", "onehop", "taf_job",
    "append"};

/// What one load thread observed. Merged after the window.
struct Recorder {
  std::array<std::vector<double>, kApiCount> api_ms;
  std::vector<double> op_ms;    ///< the workload's measured operations
  std::vector<double> late_ms;  ///< open loop: start minus scheduled send
  FetchStats fetch;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Records one operation; `measured` ops feed the op_* metrics (reads and
  /// TAF jobs; appends are reported through throughput instead).
  void Add(Api api, double ms, bool ok, const FetchStats& stats,
           bool measured = true) {
    attempted++;
    if (!ok) failed++;
    api_ms[api].push_back(ms);
    if (measured) op_ms.push_back(ms);
    fetch.Merge(stats);
  }

  void Merge(const Recorder& o) {
    for (size_t a = 0; a < kApiCount; ++a) {
      api_ms[a].insert(api_ms[a].end(), o.api_ms[a].begin(),
                       o.api_ms[a].end());
    }
    op_ms.insert(op_ms.end(), o.op_ms.begin(), o.op_ms.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    fetch.Merge(o.fetch);
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// A fixed cyclic mix of operation kinds. Operation indexes start at 0 in
/// every warm-up and window, so every run executes the same schedule: the
/// kinds in the pattern's proportions, each with parameters taken from
/// Spread() sequences. A fresh random draw per run would add sampling noise
/// of several percent to every metric.
struct OpMix {
  std::vector<Api> pattern;

  /// Kind of operation i and its ordinal among operations of that kind.
  std::pair<Api, uint64_t> At(uint64_t i) const {
    const size_t pos = i % pattern.size();
    const Api kind = pattern[pos];
    uint64_t per_cycle = 0;
    uint64_t before = 0;
    for (size_t p = 0; p < pattern.size(); ++p) {
      if (pattern[p] != kind) continue;
      per_cycle++;
      if (p < pos) before++;
    }
    return {kind, (i / pattern.size()) * per_cycle + before};
  }
};

/// Point n of an additive-recurrence low-discrepancy sequence in [0, 1):
/// any run of consecutive points covers the interval evenly, so a window of
/// any length samples each parameter range (snapshot times, node ranks,
/// window positions) in the same proportions. `stream` selects a second,
/// independent sequence for another parameter of the same operation.
double Spread(uint64_t n, int stream = 0) {
  constexpr double kStep[] = {0.6180339887498949, 0.4142135623730951};
  const double x = static_cast<double>(n + 1) * kStep[stream];
  return x - std::floor(x);
}

/// The element of `pool` at quantile q, taken modulo 1.
template <typename T>
const T& AtQuantile(const std::vector<T>& pool, double q) {
  q -= std::floor(q);
  return pool[std::min(pool.size() - 1,
                       static_cast<size_t>(q * static_cast<double>(
                                                   pool.size())))];
}

/// n timepoints at the midpoints of n equal slices of the history (0, end].
std::vector<Timestamp> EvenTimes(Timestamp end, size_t n) {
  std::vector<Timestamp> times;
  for (size_t i = 0; i < n; ++i) {
    times.push_back(std::max<Timestamp>(
        1, end * static_cast<Timestamp>(2 * i + 1) /
               static_cast<Timestamp>(2 * n)));
  }
  return times;
}

std::atomic<int> g_reported_failures{0};

/// Reports a failed or wrong answer (the first few in detail) and returns
/// false, so checks read `return Mismatch(...)`.
bool Mismatch(const char* what, const std::string& detail) {
  if (g_reported_failures.fetch_add(1) < 10) {
    std::fprintf(stderr, "hgs_bench: %s: %s\n", what, detail.c_str());
  }
  return false;
}

bool StatusOk(const char* what, const Status& s) {
  return s.ok() || Mismatch(what, s.ToString());
}

// -- Checked operations ---------------------------------------------------------
// Each operation goes through the public API, split at its public seams into
// child spans; the check against the oracle runs after the clock stops.

/// GetSnapshot, as its two public steps.
Result<Graph> RunSnapshot(TGIQueryManager* qm, Timestamp t, Tracer* tracer,
                          FetchStats* fs) {
  Span op(tracer, "op.snapshot");
  Result<Delta> delta = [&] {
    Span s(op, "tgi.query.snapshot_delta");
    return qm->GetSnapshotDelta(t, fs);
  }();
  if (!delta.ok()) return delta.status();
  Span s(op, "delta.to_graph");
  // GetSnapshot frees the merged delta before returning; so does this span.
  Delta merged = std::move(*delta);
  return merged.ToGraph();
}

bool CheckGraph(const char* what, const Result<Graph>& g,
                const GraphDigest* expect, Timestamp t) {
  if (!StatusOk(what, g.status())) return false;
  if (expect == nullptr) return Mismatch(what, "no oracle answer");
  GraphDigest got = DigestOf(*g);
  if (got == *expect) return true;
  return Mismatch(what, "t=" + std::to_string(t) + " |V|=" +
                            std::to_string(got.nodes) + "/" +
                            std::to_string(expect->nodes) + " |E|=" +
                            std::to_string(got.edges) + "/" +
                            std::to_string(expect->edges));
}

EventDigest EventsDigest(const std::vector<Event>& events) {
  EventDigest d;
  for (const Event& e : events) {
    d.count++;
    d.time_sum += e.time;
  }
  return d;
}

size_t LiveEdges(const Delta& d) {
  size_t n = 0;
  d.ForEachEdgeEntry([&](const EdgeKey&, const std::optional<EdgeRecord>& r) {
    if (r.has_value()) n++;
  });
  return n;
}

/// A node history over (from, to] against the oracle: initial existence and
/// degree at `from`, then the count and time-sum of its events.
bool CheckHistory(const ReplayOracle& oracle, const NodeHistory& h, NodeId id,
                  Timestamp from, Timestamp to) {
  if (h.node != id) return Mismatch("history", "wrong node");
  const auto* rec = h.initial.FindNode(id);
  const bool exists = rec != nullptr && rec->has_value();
  if (exists != (oracle.Arrival(id) <= from)) {
    return Mismatch("history", "initial state of node " + std::to_string(id));
  }
  if (exists && LiveEdges(h.initial) != oracle.NeighborsAt(id, from).size()) {
    return Mismatch("history", "initial degree of node " + std::to_string(id));
  }
  if (EventsDigest(h.events.events()) != oracle.NodeEvents(id, from, to)) {
    return Mismatch("history", "events of node " + std::to_string(id) +
                                   " in (" + std::to_string(from) + ", " +
                                   std::to_string(to) + "]");
  }
  return true;
}

bool CheckOneHop(const ReplayOracle& oracle, const Result<OneHopHistory>& r,
                 NodeId id, Timestamp from, Timestamp to) {
  if (!StatusOk("onehop", r.status())) return false;
  if (!CheckHistory(oracle, r->center, id, from, to)) return false;
  std::vector<NodeId> expect = oracle.NeighborsAt(id, from);
  std::vector<NodeId> partners = oracle.EdgePartners(id, from, to);
  expect.insert(expect.end(), partners.begin(), partners.end());
  std::sort(expect.begin(), expect.end());
  expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
  std::vector<NodeId> got;
  for (const NodeHistory& n : r->neighbors) got.push_back(n.node);
  std::sort(got.begin(), got.end());
  if (got != expect) return Mismatch("onehop", "neighbour set");
  for (const NodeHistory& n : r->neighbors) {
    if (EventsDigest(n.events.events()) !=
        oracle.NodeEvents(n.node, n.from, n.to)) {
      return Mismatch("onehop", "neighbour history");
    }
  }
  return true;
}

// -- Counters read from outside the program -------------------------------------

uint64_t ResilienceEvents(const ClusterResilienceStats& r) {
  return r.failovers.load() + r.retries.load() + r.hedges.load() +
         r.hedge_wins.load() + r.checksum_failures.load() +
         r.degraded_writes.load() + r.failed_writes.load() +
         r.hints_queued.load() + r.hints_replayed.load() +
         r.hints_dropped.load() + r.repair_rows.load();
}

struct Counters {
  uint64_t read_requests = 0;
  uint64_t bytes_read = 0;
  uint64_t put_batches = 0;
  uint64_t rows_put = 0;
  uint64_t bytes_put = 0;
  uint64_t resilience = 0;
  uint64_t retained = 0;
  uint64_t invalidated = 0;
  LruCacheCounters bytes_cache;
  LruCacheCounters decoded_cache;

  static Counters Read(const Index& ix) {
    Counters c;
    c.read_requests = ix.cluster->TotalReadRequests();
    c.bytes_read = ix.cluster->TotalBytesRead();
    c.put_batches = ix.cluster->TotalPutBatches();
    c.rows_put = ix.cluster->TotalRowsPut();
    c.bytes_put = ix.cluster->TotalBytesPut();
    c.resilience = ResilienceEvents(ix.cluster->resilience());
    c.retained = ix.qm->CacheEntriesRetained();
    c.invalidated = ix.qm->CacheEntriesInvalidated();
    c.bytes_cache = ix.qm->ReadCacheCounters();
    c.decoded_cache = ix.qm->DecodedCacheCounters();
    return c;
  }

  /// Counter growth since `before`; the resident sizes stay levels.
  Counters Since(const Counters& before) const {
    Counters d = *this;
    d.read_requests -= before.read_requests;
    d.bytes_read -= before.bytes_read;
    d.put_batches -= before.put_batches;
    d.rows_put -= before.rows_put;
    d.bytes_put -= before.bytes_put;
    d.resilience -= before.resilience;
    d.retained -= before.retained;
    d.invalidated -= before.invalidated;
    for (auto [now, then] :
         {std::pair{&d.bytes_cache, &before.bytes_cache},
          std::pair{&d.decoded_cache, &before.decoded_cache}}) {
      now->hits -= then->hits;
      now->misses -= then->misses;
      now->insertions -= then->insertions;
      now->evictions -= then->evictions;
      now->admission_rejects -= then->admission_rejects;
    }
    return d;
  }
};

/// One measured window.
struct Window {
  Recorder rec;
  double seconds = 0;
  Counters counters;  ///< growth over the window
  uint64_t appended_events = 0;
  uint64_t publishes = 0;
};

// -- Workloads --------------------------------------------------------------------

/// State shared by one workload's set-up and windows.
struct Bench {
  const WorkloadConfig& w;
  uint64_t seed;
  size_t nproc;
  std::vector<Event> events;
  std::unique_ptr<ReplayOracle> oracle;
  Index index{};
  std::vector<double> setup_s{};
  std::vector<double> build_s{};
  Recorder warm{};  ///< checked but untimed warm-up operations
  /// Stored bytes of the index and the events it holds: after set-up, or
  /// for live ingest after a fixed number of appended batches.
  uint64_t stored_bytes = 0;
  uint64_t indexed_events = 0;

  Timestamp End() const { return events.back().time; }
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the schedule's parameter pools and the oracle answers they need.
  virtual void Prepare(Bench& b) = 0;
  /// The history the index is set up from.
  virtual const std::vector<Event>& Load(const Bench& b) const {
    return b.events;
  }
  /// Untimed pass over the working set after set-up (none by default).
  virtual void WarmUp(Bench&) {}
  /// Operation i of the schedule, timed from `start`.
  virtual void Op(Bench& b, uint64_t i, Clock::time_point start,
                  Recorder* rec, Tracer* tracer) const = 0;
  /// One measured window: one closed-loop client unless overridden.
  virtual Window Run(Bench& b, double seconds, Tracer* tracer);

  /// Runs the schedule from its first operation on the calling thread, as
  /// one closed-loop client, until `deadline` has passed and at least
  /// `min_ops` operations have run, or until `max_ops` have run.
  Recorder ClosedLoop(Bench& b, Clock::time_point deadline, uint64_t min_ops,
                      uint64_t max_ops, Tracer* tracer) const {
    Recorder rec;
    for (uint64_t i = 0; i < max_ops; ++i) {
      if (i >= min_ops && Clock::now() >= deadline) break;
      Op(b, i, Clock::now(), &rec, tracer);
    }
    return rec;
  }
};

Window Workload::Run(Bench& b, double seconds, Tracer* tracer) {
  const Counters before = Counters::Read(b.index);
  const auto start = Clock::now();
  Window win;
  win.rec = ClosedLoop(b, After(start, seconds), kMinWindowOps,
                       std::numeric_limits<uint64_t>::max(), tracer);
  win.seconds = SecondsSince(start);
  win.counters = Counters::Read(b.index).Since(before);
  return win;
}

// warm-snapshots --------------------------------------------------------------

class WarmSnapshots : public Workload {
 public:
  void Prepare(Bench& b) override {
    times_ = EvenTimes(b.End(), kTimepoints);
    // k-hop sources at evenly spaced arrival ranks, from hubs to leaves.
    for (size_t j = 0; j < kKHopPool; ++j) {
      const Timestamp t = AtQuantile(times_, Spread(j));
      const double rank =
          (static_cast<double>(j) + 0.5) / static_cast<double>(kKHopPool);
      khop_pool_.push_back(
          KHopQuery{AtQuantile(b.oracle->ArrivedBy(t), rank), t});
    }
    b.oracle->Precompute(b.events, times_, khop_pool_, kKHopDepth);
  }

  /// Touches the whole working set once: every timepoint, the multipoint
  /// roll-forward across all of them, and every k-hop pool entry.
  void WarmUp(Bench& b) override {
    for (Timestamp t : times_) Snapshot(b, t, Clock::now(), &b.warm, nullptr);
    Multipoint(b, times_, Clock::now(), &b.warm, nullptr);
    for (const KHopQuery& q : khop_pool_) {
      KHop(b, q, Clock::now(), &b.warm, nullptr);
    }
  }

  void Op(Bench& b, uint64_t i, Clock::time_point start, Recorder* rec,
          Tracer* tracer) const override {
    auto [kind, n] = kMix.At(i);
    if (kind == kSnapshot) {
      Snapshot(b, AtQuantile(times_, Spread(n)), start, rec, tracer);
    } else if (kind == kMultipoint) {
      // Evenly spaced points at a moving offset.
      std::vector<Timestamp> points;
      for (size_t k = 0; k < kMultipointPoints; ++k) {
        points.push_back(AtQuantile(
            times_, Spread(n) + static_cast<double>(k) /
                                    static_cast<double>(kMultipointPoints)));
      }
      Multipoint(b, points, start, rec, tracer);
    } else {
      KHop(b, AtQuantile(khop_pool_, Spread(n)), start, rec, tracer);
    }
  }

 private:
  static constexpr size_t kTimepoints = 32;
  static constexpr size_t kMultipointPoints = 4;
  static constexpr size_t kKHopPool = 16;
  static constexpr int kKHopDepth = 2;
  // 7 snapshots, 2 multipoint reads and 1 k-hop fetch per 10 operations.
  inline static const OpMix kMix{{kSnapshot, kSnapshot, kMultipoint, kSnapshot,
                                  kKHop, kSnapshot, kSnapshot, kMultipoint,
                                  kSnapshot, kSnapshot}};

  void Snapshot(Bench& b, Timestamp t, Clock::time_point start, Recorder* rec,
                Tracer* tracer) const {
    FetchStats fs;
    Result<Graph> g = RunSnapshot(b.index.qm.get(), t, tracer, &fs);
    const double ms = MsSince(start);
    rec->Add(kSnapshot, ms,
             CheckGraph("snapshot", g, b.oracle->SnapshotAt(t), t), fs);
  }

  void Multipoint(Bench& b, const std::vector<Timestamp>& points,
                  Clock::time_point start, Recorder* rec,
                  Tracer* tracer) const {
    FetchStats fs;
    Result<std::vector<Graph>> gs = [&] {
      Span op(tracer, "op.multipoint");
      Span s(op, "tgi.query.multipoint");
      return b.index.qm->GetMultipointSnapshots(points, &fs);
    }();
    const double ms = MsSince(start);
    bool ok = StatusOk("multipoint", gs.status()) &&
              (gs->size() == points.size() || Mismatch("multipoint", "count"));
    for (size_t k = 0; ok && k < points.size(); ++k) {
      ok = DigestOf((*gs)[k]) == *b.oracle->SnapshotAt(points[k]) ||
           Mismatch("multipoint", "t=" + std::to_string(points[k]));
    }
    rec->Add(kMultipoint, ms, ok, fs);
  }

  void KHop(Bench& b, const KHopQuery& q, Clock::time_point start,
            Recorder* rec, Tracer* tracer) const {
    FetchStats fs;
    Result<Graph> g = [&] {
      Span op(tracer, "op.khop");
      Span s(op, "tgi.query.khop");
      return b.index.qm->GetKHopNeighborhood(q.node, q.time, kKHopDepth, &fs);
    }();
    const double ms = MsSince(start);
    rec->Add(kKHop, ms,
             CheckGraph("khop", g, b.oracle->KHopAt(q.node, q.time), q.time),
             fs);
  }

  std::vector<Timestamp> times_;
  std::vector<KHopQuery> khop_pool_;
};

// cold-history ------------------------------------------------------------------

class ColdHistory : public Workload {
 public:
  void Prepare(Bench& b) override {
    snapshots_ = EvenTimes(b.End(), kSnapshotTimes);
    nodes_ = b.oracle->ArrivedBy(b.End());
    b.oracle->Precompute(b.events, snapshots_, {}, 0);
  }

  void Op(Bench& b, uint64_t i, Clock::time_point start, Recorder* rec,
          Tracer* tracer) const override {
    TGIQueryManager* qm = b.index.qm.get();
    const ReplayOracle& oracle = *b.oracle;
    FetchStats fs;
    auto [kind, n] = kMix.At(i);
    if (kind == kHistories) {
      auto [from, to] = HistoryWindow(b.End(), n);
      // Node sets are random: a batch of 64 already averages over ranks.
      Rng rng(DeriveSeed(b.seed, 4) ^ (n * 0x9E3779B97F4A7C15ull));
      std::vector<NodeId> ids;
      for (size_t k = 0; k < kHistoryNodes; ++k) {
        ids.push_back(nodes_[rng.Uniform(nodes_.size())]);
      }
      auto hs = [&] {
        Span op(tracer, "op.histories");
        Span s(op, "tgi.query.histories");
        return qm->GetNodeHistories(ids, from, to, &fs);
      }();
      const double ms = MsSince(start);
      bool ok = StatusOk("histories", hs.status()) &&
                (hs->size() == ids.size() ||
                 Mismatch("histories", "result count"));
      for (size_t k = 0; ok && k < ids.size(); ++k) {
        ok = CheckHistory(oracle, (*hs)[k], ids[k], from, to);
      }
      rec->Add(kHistories, ms, ok, fs);
    } else if (kind == kOneHop) {
      auto [from, to] = HistoryWindow(b.End(), n);
      const NodeId id = AtQuantile(nodes_, Spread(n, 1));
      auto r = [&] {
        Span op(tracer, "op.onehop");
        Span s(op, "tgi.query.onehop");
        return qm->GetOneHopHistory(id, from, to, &fs);
      }();
      const double ms = MsSince(start);
      rec->Add(kOneHop, ms, CheckOneHop(oracle, r, id, from, to), fs);
    } else {
      const Timestamp t = AtQuantile(snapshots_, Spread(n));
      Result<Graph> g = RunSnapshot(qm, t, tracer, &fs);
      const double ms = MsSince(start);
      rec->Add(kSnapshot, ms,
               CheckGraph("snapshot", g, oracle.SnapshotAt(t), t), fs);
    }
  }

 private:
  static constexpr size_t kHistoryNodes = 64;
  static constexpr size_t kSnapshotTimes = 128;
  static constexpr size_t kWindowLengths = 8;
  // Half node-history batches, a quarter one-hop histories, a quarter
  // snapshots.
  inline static const OpMix kMix{{kHistories, kSnapshot, kHistories, kOneHop}};

  /// History window of operation n: lengths cycle through kWindowLengths
  /// evenly spaced fractions of the history; starts follow Spread().
  static std::pair<Timestamp, Timestamp> HistoryWindow(Timestamp end,
                                                        uint64_t n) {
    const auto len = std::max<Timestamp>(
        1, end * static_cast<Timestamp>(2 * (n % kWindowLengths) + 1) /
               static_cast<Timestamp>(2 * kWindowLengths));
    const auto from =
        static_cast<Timestamp>(Spread(n) * static_cast<double>(end - len));
    return {from, from + len};
  }

  std::vector<Timestamp> snapshots_;
  std::vector<NodeId> nodes_;
};

// live-ingest -------------------------------------------------------------------

class LiveIngest : public Workload {
 public:
  void Prepare(Bench& b) override {
    const size_t n = std::min(kPrefix, b.events.size());
    prefix_.assign(b.events.begin(), b.events.begin() + n);
    prefix_end_ = prefix_.back().time;
    std::vector<Timestamp> times{prefix_end_};
    for (size_t begin = n; begin < b.events.size(); begin += kBatch) {
      const size_t end = std::min(begin + kBatch, b.events.size());
      batches_.emplace_back(b.events.begin() + begin, b.events.begin() + end);
      times.push_back(batches_.back().back().time);
    }
    prefix_nodes_ = b.oracle->ArrivedBy(prefix_end_);
    b.oracle->Precompute(b.events, times, {}, 0);
  }

  const std::vector<Event>& Load(const Bench&) const override {
    return prefix_;
  }

  /// One reader operation against the latest published prefix.
  void Op(Bench& b, uint64_t i, Clock::time_point start, Recorder* rec,
          Tracer* tracer) const override {
    TGIQueryManager* qm = b.index.qm.get();
    const ReplayOracle& oracle = *b.oracle;
    const Timestamp latest = published_.load(std::memory_order_acquire);
    FetchStats fs;
    auto [kind, n] = kMix.At(i);
    if (kind == kSnapshot) {
      Result<Graph> g = RunSnapshot(qm, latest, tracer, &fs);
      const double ms = MsSince(start);
      rec->Add(kSnapshot, ms,
               CheckGraph("snapshot", g, oracle.SnapshotAt(latest), latest),
               fs);
    } else {
      const NodeId id = AtQuantile(prefix_nodes_, Spread(n));
      auto h = [&] {
        Span op(tracer, "op.history");
        Span s(op, "tgi.query.histories");
        return qm->GetNodeHistory(id, 0, latest, &fs);
      }();
      const double ms = MsSince(start);
      rec->Add(kHistories, ms,
               StatusOk("history", h.status()) &&
                   CheckHistory(oracle, *h, id, 0, latest),
               fs, /*measured=*/false);
    }
  }

  /// One writer appending batches closed-loop while open-loop readers
  /// issue scheduled reads, each timed from its scheduled send.
  Window Run(Bench& b, double seconds, Tracer* tracer) override {
    Window win;
    TGI* tgi = b.index.tgi.get();
    const Counters before = Counters::Read(b.index);
    published_.store(prefix_end_);
    next_read_.store(0);
    const auto start = Clock::now();
    const auto deadline = After(start, seconds);
    const size_t readers = std::min(b.w.readers, b.nproc);

    Recorder writer_rec;
    std::thread writer([&] {
      for (const std::vector<Event>& batch : batches_) {
        if (Clock::now() >= deadline) break;
        FetchStats none;
        const auto op_start = Clock::now();
        Status s = [&] {
          Span op(tracer, "op.append");
          {
            Span ingest(op, "tgi.builder.ingest");
            HGS_RETURN_NOT_OK(tgi->builder()->Ingest(batch));
          }
          Span finish(op, "tgi.builder.finish");
          return tgi->builder()->Finish();
        }();
        writer_rec.Add(kAppend, MsSince(op_start), StatusOk("append", s),
                       none, /*measured=*/false);
        if (!s.ok()) break;
        win.appended_events += batch.size();
        win.publishes++;
        published_.store(batch.back().time, std::memory_order_release);
        if (win.publishes == kSpaceProbeBatches) RecordSpace(b, win);
      }
    });

    std::vector<Recorder> recs(readers);
    std::vector<std::thread> threads;
    for (size_t r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        const double period = 1.0 / b.w.reader_hz;
        // Readers are staggered so their arrivals interleave evenly.
        const double phase = period * static_cast<double>(r) /
                             static_cast<double>(readers);
        for (uint64_t k = 0;; ++k) {
          const auto scheduled =
              After(start, phase + period * static_cast<double>(k));
          if (scheduled >= deadline) break;
          std::this_thread::sleep_until(scheduled);
          recs[r].late_ms.push_back(MsSince(scheduled));
          Op(b, next_read_.fetch_add(1), scheduled, &recs[r], tracer);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    writer.join();
    win.seconds = SecondsSince(start);
    for (const Recorder& r : recs) win.rec.Merge(r);
    win.rec.Merge(writer_rec);
    win.counters = Counters::Read(b.index).Since(before);
    if (win.publishes < kSpaceProbeBatches) RecordSpace(b, win);
    return win;
  }

 private:
  static constexpr size_t kPrefix = 80'000;
  static constexpr size_t kBatch = 1'000;
  /// Space is read after this many appended batches, so the stored bytes
  /// per event depend on the seed alone, not on how fast the writer ran.
  static constexpr uint64_t kSpaceProbeBatches = 30;
  // Half the reads are snapshots of the newest published batch: the
  // operation the op_* metrics time. The other half, node histories over
  // [0, newest], are reported per API only: at about 2 ms they sit under
  // the writer's CPU bursts, and pooling both into one percentile would put
  // op_p50 on the edge between two latency bands.
  inline static const OpMix kMix{{kSnapshot, kHistories}};

  void RecordSpace(Bench& b, const Window& win) const {
    b.stored_bytes = b.index.cluster->TotalStoredBytes();
    b.indexed_events = prefix_.size() + win.appended_events;
  }

  std::vector<Event> prefix_;
  std::vector<std::vector<Event>> batches_;
  std::vector<NodeId> prefix_nodes_;
  Timestamp prefix_end_ = 0;
  /// End time of the newest published batch.
  std::atomic<Timestamp> published_{0};
  /// Schedule index of the next read, shared by the readers.
  std::atomic<uint64_t> next_read_{0};
};

// taf-evolution -----------------------------------------------------------------

class TafEvolution : public Workload {
 public:
  void Prepare(Bench& b) override {
    const Timestamp end = b.End();
    const Timestamp len = end / kWindowFraction;
    const Timestamp first = end / kWindowFraction;
    for (size_t k = 0; k < kWindows; ++k) {
      TimeWindow w;
      w.from = first + (end - len - first) * static_cast<Timestamp>(k) /
                           static_cast<Timestamp>(kWindows - 1);
      w.to = w.from + len;
      w.present = b.oracle->ArrivedBy(w.from);
      windows_.push_back(std::move(w));
    }
  }

  /// Opens the TAF engine over the built index; the warm-up jobs
  /// (warmup_ops, one pass over the 16 windows) then fill the caches.
  void WarmUp(Bench& b) override {
    ctx_ = std::make_unique<taf::TAFContext>(b.index.qm.get(), b.nproc);
  }

  void Op(Bench& b, uint64_t i, Clock::time_point start, Recorder* rec,
          Tracer* tracer) const override {
    const TimeWindow& w = AtQuantile(windows_, Spread(i));
    // Subgraph seeds at evenly spaced arrival ranks of the nodes present.
    std::vector<NodeId> seeds;
    for (size_t k = 0; k < kSubgraphSeeds; ++k) {
      seeds.push_back(AtQuantile(
          w.present, Spread(i, 1) + static_cast<double>(k) /
                                        static_cast<double>(kSubgraphSeeds)));
    }
    FetchStats fs;
    Results res;
    RunJob(w, seeds, &res, tracer, &fs);
    const double ms = MsSince(start);
    rec->Add(kTafJob, ms, Check(*b.oracle, seeds, res), fs);
  }

 private:
  struct TimeWindow {
    Timestamp from = 0;
    Timestamp to = 0;
    std::vector<NodeId> present;  ///< nodes present at `from`
  };

  /// Results of one job, kept until the check has run.
  struct Results {
    Result<taf::SoN> son = Status::Aborted("not run");
    std::vector<std::vector<std::pair<Timestamp, double>>> degrees;
    taf::Series evolution;
    Result<taf::SoTS> sots = Status::Aborted("not run");
    std::vector<std::vector<std::pair<Timestamp, double>>> edge_balance;
  };

  static constexpr NodeId kIdModulus = 16;
  static constexpr Timestamp kWindowFraction = 16;
  static constexpr size_t kWindows = 16;
  static constexpr size_t kEvolutionPoints = 4;
  static constexpr size_t kSubgraphSeeds = 8;

  /// One job: fetch a node set, then its degree series, its largest-
  /// component evolution, and the edge balance of 1-hop subgraphs.
  void RunJob(const TimeWindow& w, const std::vector<NodeId>& seeds,
              Results* res, Tracer* tracer, FetchStats* fs) const {
    Span op(tracer, "op.taf_job");
    res->son = [&] {
      Span s(op, "taf.fetch");
      return ctx_->Nodes()
          .TimeRange(w.from, w.to)
          .WhereId([](NodeId id) { return id % kIdModulus == 0; })
          .Fetch(fs);
    }();
    if (!res->son.ok()) return;
    {
      Span s(op, "taf.compute");
      res->degrees = res->son->NodeComputeTemporal<double>(
          [](const taf::StaticNodeView& v) {
            return static_cast<double>(v.Degree());
          });
    }
    {
      Span s(op, "taf.compute");
      res->evolution = res->son->Evolution(
          [&](const Graph& g) {
            Span algo(s, "graph.algo");
            return g.NumNodes() == 0
                       ? 0.0
                       : static_cast<double>(algo::LargestComponentSize(g)) /
                             static_cast<double>(g.NumNodes());
          },
          kEvolutionPoints);
    }
    res->sots = [&] {
      Span s(op, "taf.subgraph_fetch");
      return ctx_->Subgraphs(1)
          .TimeRange(w.from, w.to)
          .WithSeeds(seeds)
          .Fetch(fs);
    }();
    if (!res->sots.ok()) return;
    Span s(op, "taf.compute");
    res->edge_balance = res->sots->NodeComputeDelta<double>(
        [](const Graph& g) { return static_cast<double>(g.NumEdges()); },
        [](const Graph&, const double& v, const Event& e) {
          if (e.type == EventType::kAddEdge) return v + 1;
          if (e.type == EventType::kRemoveEdge) return v - 1;
          return v;
        });
  }

  static bool Check(const ReplayOracle& oracle,
                    const std::vector<NodeId>& seeds, const Results& res) {
    if (!StatusOk("taf node fetch", res.son.status())) return false;
    const taf::SoN& son = *res.son;
    const Timestamp from = son.GetStartTime();
    const Timestamp to = son.GetEndTime();
    size_t expect = 0;
    for (NodeId id = 0; id < oracle.IdBound(); id += kIdModulus) {
      if (oracle.Arrival(id) <= to) expect++;
    }
    if (son.size() != expect) return Mismatch("taf", "SoN size");
    if (res.degrees.size() != son.size()) return Mismatch("taf", "degrees");
    for (size_t i = 0; i < son.size(); ++i) {
      const taf::NodeT& n = son.nodes()[i];
      if (n.id() % kIdModulus != 0 ||
          EventsDigest(n.history().events.events()) !=
              oracle.NodeEvents(n.id(), from, to) ||
          res.degrees[i].size() != n.VersionCount() + 1) {
        return Mismatch("taf", "node " + std::to_string(n.id()));
      }
    }
    if (res.evolution.size() != kEvolutionPoints) {
      return Mismatch("taf", "evolution points");
    }
    for (const auto& [t, share] : res.evolution) {
      if (share < 0 || share > 1) return Mismatch("taf", "evolution value");
    }
    if (!StatusOk("taf subgraph fetch", res.sots.status())) return false;
    const taf::SoTS& sots = *res.sots;
    if (sots.size() != seeds.size() ||
        res.edge_balance.size() != seeds.size()) {
      return Mismatch("taf", "subgraph count");
    }
    for (size_t i = 0; i < seeds.size(); ++i) {
      const taf::SubgraphT& sg = sots.subgraphs()[i];
      std::vector<NodeId> expect_members = oracle.NeighborsAt(seeds[i], from);
      expect_members.push_back(seeds[i]);
      std::sort(expect_members.begin(), expect_members.end());
      std::vector<NodeId> members(sg.members().begin(), sg.members().end());
      std::sort(members.begin(), members.end());
      if (members != expect_members) return Mismatch("taf", "members");
      if (EventsDigest(sg.events().events()) !=
              oracle.UnionEvents(members, from, to) ||
          res.edge_balance[i].size() != sg.VersionCount() + 1) {
        return Mismatch("taf", "subgraph events");
      }
    }
    return true;
  }

  std::vector<TimeWindow> windows_;
  std::unique_ptr<taf::TAFContext> ctx_;
};

std::unique_ptr<Workload> MakeWorkload(Kind kind) {
  switch (kind) {
    case Kind::kWarmSnapshots:
      return std::make_unique<WarmSnapshots>();
    case Kind::kColdHistory:
      return std::make_unique<ColdHistory>();
    case Kind::kLiveIngest:
      return std::make_unique<LiveIngest>();
    case Kind::kTafEvolution:
      return std::make_unique<TafEvolution>();
  }
  return nullptr;
}

// -- Metrics ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
  std::optional<double> p25;
  std::optional<double> p75;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit,
           size_t samples = 1) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples,
                              std::nullopt, std::nullopt});
  }

  /// A latency percentile; a missing percentile (too few samples beyond it)
  /// is an error when `required`, and reads 0 otherwise.
  void AddLatency(std::string name, const Distribution& d,
                  const std::optional<double>& value, bool required) {
    if (!value.has_value() && required) {
      std::fprintf(stderr,
                   "hgs_bench: %s needs more samples than %zu; run longer\n",
                   name.c_str(), d.samples);
      insufficient_ = true;
    }
    metrics_.push_back(Metric{std::move(name), value.value_or(0), "ms",
                              d.samples, d.p25, d.p75});
  }

  const std::vector<Metric>& metrics() const { return metrics_; }
  bool insufficient() const { return insufficient_; }

 private:
  std::vector<Metric> metrics_;
  bool insufficient_ = false;
};

void EndToEndMetrics(const Bench& b, const Window& win, MetricSet* out) {
  out->Add("setup_s", Median(b.setup_s), "s", b.setup_s.size());
  Distribution ops = Summarize(win.rec.op_ms);
  out->AddLatency("op_p50_ms", ops, ops.p50, true);
  const bool ingest = b.w.kind == Kind::kLiveIngest;
  const double work = ingest ? static_cast<double>(win.appended_events)
                             : static_cast<double>(win.rec.op_ms.size());
  out->Add("throughput_per_s", Ratio(work, win.seconds), "1/s",
           ingest ? win.publishes : win.rec.op_ms.size());
  out->Add("peak_rss_mib", PeakRssMib(), "MiB");
  out->Add("stored_bytes_per_event",
           Ratio(static_cast<double>(b.stored_bytes),
                 static_cast<double>(b.indexed_events)),
           "B/event");
}

void PerLayerMetrics(const Bench& b, const Window& plain, const Window& traced,
                     const TraceSummary& trace, MetricSet* out) {
  const Counters& c = traced.counters;
  const FetchStats& f = traced.rec.fetch;
  // Per-op counters are per read or TAF job: every operation but appends.
  const auto ops = static_cast<double>(traced.rec.attempted -
                                       traced.rec.api_ms[kAppend].size());
  const auto per_op = [&](double v) { return Ratio(v, ops); };
  const auto events = static_cast<double>(traced.appended_events);
  const auto publishes = static_cast<double>(traced.publishes);
  const LatencyModel io = SimulatedIo(b.w.latency_model, b.w.charge_writes);

  // kvstore: the storage cluster, read from its public totals.
  out->Add("kvstore.round_trips_per_op", per_op(f.kv_batches), "count");
  out->Add("kvstore.read_requests_per_op", per_op(c.read_requests), "count");
  out->Add("kvstore.bytes_read_per_op", per_op(c.bytes_read), "B");
  // Seek and transfer terms of the latency model; the per-key term has no
  // public counter.
  out->Add("kvstore.modelled_io_ms_per_op",
           io.enabled ? per_op(static_cast<double>(c.read_requests) *
                                   static_cast<double>(io.seek_micros) / 1e3 +
                               static_cast<double>(c.bytes_read) /
                                   io.bytes_per_micro / 1e3)
                      : 0,
           "ms");
  out->Add("kvstore.put_batches_per_publish",
           Ratio(static_cast<double>(c.put_batches), publishes), "count");
  out->Add("kvstore.rows_put_per_event",
           Ratio(static_cast<double>(c.rows_put), events), "count");
  out->Add("kvstore.bytes_put_per_event",
           Ratio(static_cast<double>(c.bytes_put), events), "B");
  out->Add("kvstore.resilience_events", static_cast<double>(c.resilience),
           "count");

  // tgi.cache: the two read-side cache tiers.
  out->Add("tgi.cache.decoded_hit_rate", c.decoded_cache.HitRate(), "ratio");
  out->Add("tgi.cache.byte_hit_rate", c.bytes_cache.HitRate(), "ratio");
  out->Add("tgi.cache.decoded_evictions_per_op",
           per_op(c.decoded_cache.evictions), "count");
  out->Add("tgi.cache.byte_evictions_per_op", per_op(c.bytes_cache.evictions),
           "count");
  out->Add("tgi.cache.admission_rejects",
           static_cast<double>(c.decoded_cache.admission_rejects +
                               c.bytes_cache.admission_rejects),
           "count");
  out->Add("tgi.cache.resident_mib",
           static_cast<double>(c.decoded_cache.bytes_used +
                               c.bytes_cache.bytes_used) /
               static_cast<double>(kMiB),
           "MiB");

  // tgi: query-side work counted by FetchStats.
  out->Add("tgi.decodes_per_op", per_op(f.decodes), "count");
  out->Add("tgi.decoded_bytes_per_op", per_op(f.decoded_bytes), "B");
  out->Add("tgi.value_copies_per_op", per_op(f.value_copies), "count");
  out->Add("tgi.micro_deltas_per_op", per_op(f.micro_deltas), "count");
  out->Add("tgi.version_scans_per_op", per_op(f.version_scans), "count");
  out->Add("tgi.eventlist_dedup_ratio",
           Ratio(static_cast<double>(f.eventlist_fetches),
                 static_cast<double>(f.eventlist_refs)),
           "ratio");

  // Span self times, ms per operation that contains the span.
  for (const char* span :
       {"tgi.query.snapshot_delta", "tgi.query.multipoint", "tgi.query.khop",
        "tgi.query.histories", "tgi.query.onehop", "delta.to_graph",
        "taf.fetch", "taf.subgraph_fetch", "taf.compute", "graph.algo"}) {
    out->Add(std::string(span) + "_ms", trace.SelfMsPerOp(span), "ms");
  }
  out->Add("tgi.builder.ingest_ms_per_batch",
           trace.SelfMsPerOp("tgi.builder.ingest"), "ms");
  out->Add("tgi.builder.finish_ms_per_batch",
           trace.SelfMsPerOp("tgi.builder.finish"), "ms");
  out->Add("tgi.builder.bulk_load_s", Median(b.build_s), "s",
           b.build_s.size());
  out->Add("tgi.cache_entries_invalidated_per_publish",
           Ratio(static_cast<double>(c.invalidated), publishes), "count");
  out->Add("tgi.cache_entries_retained_per_publish",
           Ratio(static_cast<double>(c.retained), publishes), "count");
  out->Add("taf.merge_skipped_sorts_per_job",
           per_op(f.taf_merge_skipped_sorts), "count");

  // The tail of the untraced window's timed operations. It sits on the
  // slowest, most CPU-bound calls of each mix and moved by a quarter between
  // runs on a shared host: too much for an end-to-end bound.
  Distribution timed = Summarize(plain.rec.op_ms);
  out->AddLatency("op_p90_ms", timed, timed.p90, true);

  // Load generator (untraced window) and tracing itself.
  Distribution late = Summarize(plain.rec.late_ms);
  out->AddLatency("loadgen.late_ms_p90", late, late.p90, false);
  out->Add("loadgen.achieved_hz",
           b.w.reader_hz > 0 ? Ratio(static_cast<double>(
                                         plain.rec.late_ms.size()),
                                     plain.seconds)
                             : 0,
           "1/s");
  out->Add("trace.overhead_ratio",
           Ratio(Summarize(traced.rec.op_ms).p50.value_or(0),
                 Summarize(plain.rec.op_ms).p50.value_or(0)),
           "ratio");
  out->Add("trace.self_time_coverage", trace.Coverage(), "ratio",
           trace.ops);

  // Per-API medians of the untraced window (0 when the API is not in the
  // workload's mix).
  for (size_t a = 0; a < kApiCount; ++a) {
    Distribution d = Summarize(plain.rec.api_ms[a]);
    out->AddLatency(std::string("api.") + kApiNames[a] + "_p50_ms", d, d.p50,
                    false);
  }
}

// -- Output -----------------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string json_path;
  std::string trace_path;
  std::string commit = "unknown";
};

std::string Header(const Bench& b, const Args& args) {
  const WorkloadConfig& w = b.w;
  const LatencyModel io = SimulatedIo(w.latency_model, w.charge_writes);
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"benchmark\": \"hgsbench\", \"commit\": \"%s\", \"build_type\": "
      "\"%s\", \"nproc\": %zu, \"seed\": %" PRIu64
      ", \"workload\": \"%s\", \"trace\": %d, \"window_s\": %s, "
      "\"events\": %zu, \"latency_model\": {\"enabled\": %s, "
      "\"seek_micros\": %lld, \"per_key_micros\": %lld, "
      "\"bytes_per_micro\": %s, \"charge_writes\": %s}, "
      "\"read_cache_bytes\": %zu, \"decoded_cache_bytes\": %zu, "
      "\"readers\": %zu, \"reader_hz\": %s, \"warmup_ops\": %" PRIu64
      ", \"setup_repeats\": %zu, \"storage_nodes\": %zu, "
      "\"replication\": %zu, \"events_per_timespan\": %zu, "
      "\"eventlist_size\": %zu, \"micro_delta_size\": %zu, "
      "\"fetch_parallelism\": %zu, \"codec\": \"columnar\"}",
      args.commit.c_str(), HGS_BENCH_BUILD_TYPE, b.nproc, b.seed, w.name,
      args.trace ? 1 : 0, JsonNumber(args.seconds).c_str(), b.events.size(),
      io.enabled ? "true" : "false", static_cast<long long>(io.seek_micros),
      static_cast<long long>(io.per_key_micros),
      JsonNumber(io.bytes_per_micro).c_str(),
      io.charge_writes ? "true" : "false", w.read_cache_bytes,
      w.decoded_cache_bytes, w.readers, JsonNumber(w.reader_hz).c_str(),
      w.warmup_ops, kSetupRepeats, kStorageNodes, kReplication,
      kEventsPerTimespan, kEventlistSize, kMicroDeltaSize, kFetchParallelism);
  return buf;
}

bool WriteRunJson(const std::string& path, const std::string& header,
                  bool correct, uint64_t attempted, uint64_t failed,
                  const MetricSet& metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"header\": %s,\n\"correct\": %s, \"attempted\": %" PRIu64
               ", \"failed\": %" PRIu64 ",\n\"metrics\": [",
               header.c_str(), correct ? "true" : "false", attempted, failed);
  const auto& ms = metrics.metrics();
  for (size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"value\": %s, \"unit\": \"%s\", "
                 "\"samples\": %zu",
                 i == 0 ? "" : ",", m.name.c_str(),
                 JsonNumber(m.value).c_str(), m.unit.c_str(), m.samples);
    if (m.p25.has_value() && m.p75.has_value()) {
      std::fprintf(f, ", \"p25\": %s, \"p75\": %s",
                   JsonNumber(*m.p25).c_str(), JsonNumber(*m.p75).c_str());
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricSet& metrics) {
  for (const Metric& m : metrics.metrics()) {
    std::printf("%-44s %14.4f %-8s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.metrics()) {
    line += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// -- Driver -----------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--json") {
      args->json_path = value;
    } else if (flag == "--trace-out") {
      args->trace_path = value;
    } else if (flag == "--commit") {
      // Written into JSON headers verbatim: keep it to identifier characters.
      for (char& ch : value) {
        if (!std::isalnum(static_cast<unsigned char>(ch)) &&
            std::strchr("._-+/", ch) == nullptr) {
          ch = '_';
        }
      }
      args->commit = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

/// Logs how long one phase of the run took (standard error).
void LogPhase(const char* phase, Clock::time_point start) {
  std::fprintf(stderr, "hgs_bench: %-8s %7.2f s\n", phase,
               SecondsSince(start));
}

/// Set-up, warm-up and the measured window(s) of one workload. `windows`
/// receives the untraced window, then (with a tracer) the traced one.
Status Execute(Bench& b, Workload& workload, double seconds, Tracer* tracer,
               std::vector<Window>* windows) {
  auto start = Clock::now();
  workload.Prepare(b);
  LogPhase("oracle", start);

  start = Clock::now();
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    b.index.Reset();  // free the previous index before building the next
    const auto setup_start = Clock::now();
    double build = 0;
    HGS_ASSIGN_OR_RETURN(b.index, BuildIndex(b.w, workload.Load(b), &build));
    b.setup_s.push_back(SecondsSince(setup_start));
    b.build_s.push_back(build);
  }
  b.stored_bytes = b.index.cluster->TotalStoredBytes();
  b.indexed_events = workload.Load(b).size();
  LogPhase("set-up", start);

  start = Clock::now();
  workload.WarmUp(b);
  if (b.w.warmup_ops > 0) {
    b.warm.Merge(workload.ClosedLoop(b, Clock::time_point(), b.w.warmup_ops,
                                     b.w.warmup_ops, nullptr));
  }
  LogPhase("warm-up", start);

  windows->push_back(workload.Run(b, seconds, nullptr));
  if (tracer != nullptr) {
    if (b.w.kind == Kind::kLiveIngest) {
      // The traced window appends from the same prefix as the untraced one.
      b.index.Reset();
      double build = 0;
      HGS_ASSIGN_OR_RETURN(b.index, BuildIndex(b.w, workload.Load(b), &build));
    }
    windows->push_back(workload.Run(b, seconds, tracer));
  }
  return Status::OK();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hgs_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--json <path>] [--trace-out <path>] "
                 "[--commit <sha>]\nworkloads:");
    for (const WorkloadConfig& w : kWorkloads) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const WorkloadConfig* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "hgs_bench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  const auto start = Clock::now();
  std::vector<Event> events = GenerateHistory(*w, args.seed);
  auto oracle = std::make_unique<ReplayOracle>(events);
  Bench b{.w = *w,
          .seed = args.seed,
          .nproc = std::max(1u, std::thread::hardware_concurrency()),
          .events = std::move(events),
          .oracle = std::move(oracle)};
  LogPhase("generate", start);

  Tracer tracer;
  std::unique_ptr<Workload> workload = MakeWorkload(w->kind);
  std::vector<Window> windows;
  Status s = Execute(b, *workload, args.seconds,
                     args.trace ? &tracer : nullptr, &windows);
  if (!s.ok()) {
    std::fprintf(stderr, "hgs_bench: set-up failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  MetricSet metrics;
  TraceSummary summary;
  if (args.trace) {
    summary = SummarizeTrace(tracer.Spans());
    PerLayerMetrics(b, windows[0], windows[1], summary, &metrics);
  } else {
    EndToEndMetrics(b, windows[0], &metrics);
  }

  uint64_t attempted = b.warm.attempted;
  uint64_t failed = b.warm.failed;
  for (const Window& win : windows) {
    attempted += win.rec.attempted;
    failed += win.rec.failed;
  }
  const bool correct = failed == 0 && !metrics.insufficient();
  const std::string header = Header(b, args);
  if (!args.json_path.empty() &&
      !WriteRunJson(args.json_path, header, correct, attempted, failed,
                    metrics)) {
    std::fprintf(stderr, "hgs_bench: cannot write %s\n",
                 args.json_path.c_str());
    return 1;
  }
  if (args.trace && !args.trace_path.empty() &&
      !WriteTraceJson(args.trace_path, header, tracer.Spans(), summary)) {
    std::fprintf(stderr, "hgs_bench: cannot write %s\n",
                 args.trace_path.c_str());
    return 1;
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hgs::bench

int main(int argc, char** argv) { return hgs::bench::Main(argc, argv); }
