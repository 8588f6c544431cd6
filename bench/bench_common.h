// Shared plumbing for the figure/table reproduction benches.
//
// Scale: datasets are laptop-scale analogues of the paper's traces (see
// "Substitutions" in README.md). HGS_SCALE (default 1.0) multiplies dataset
// sizes, e.g. HGS_SCALE=4 ./build/bench/fig11_snapshot_parallel.
//
// Latency: benches run the storage cluster with the simulated latency model
// ENABLED (seek + per-key + bandwidth costs), which is what makes retrieval
// times behave like the paper's Cassandra cluster rather than like a hash
// map.

#ifndef HGS_BENCH_BENCH_COMMON_H_
#define HGS_BENCH_BENCH_COMMON_H_

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/algorithms.h"
#include "kvstore/cluster.h"
#include "tgi/tgi.h"
#include "workload/generators.h"

namespace hgs::bench {

inline double ScaleFromEnv() {
  const char* env = std::getenv("HGS_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::strtod(env, nullptr);
  return v > 0 ? v : 1.0;
}

inline uint64_t Scaled(uint64_t base) {
  return static_cast<uint64_t>(static_cast<double>(base) * ScaleFromEnv());
}

// -- Machine-readable telemetry ---------------------------------------------

/// Accumulates `{bench, metric, value, unit}` rows and writes them as a JSON
/// array at process exit. The sink stays inert until a path is configured via
/// the `--json=<path>` flag (see InitBenchTelemetry) or the HGS_BENCH_JSON
/// environment variable, so interactive runs are unaffected.
class BenchJsonSink {
 public:
  static BenchJsonSink& Instance() {
    // Leaked on purpose so the atexit flush never races static teardown.
    static BenchJsonSink* sink = new BenchJsonSink();
    return *sink;
  }

  void SetPath(std::string path) {
    std::lock_guard<std::mutex> lock(mu_);
    path_ = std::move(path);
  }

  void Add(const std::string& bench, const std::string& metric, double value,
           const std::string& unit) {
    std::lock_guard<std::mutex> lock(mu_);
    rows_.push_back(Row{bench, metric, unit, value});
  }

  void Flush() {
    std::lock_guard<std::mutex> lock(mu_);
    if (path_.empty() || rows_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench json: cannot open %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f,
                   "  {\"bench\": \"%s\", \"metric\": \"%s\", "
                   "\"value\": %.6g, \"unit\": \"%s\"}%s\n",
                   Escaped(r.bench).c_str(), Escaped(r.metric).c_str(),
                   r.value, Escaped(r.unit).c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    rows_.clear();
  }

 private:
  struct Row {
    std::string bench;
    std::string metric;
    std::string unit;
    double value;
  };

  BenchJsonSink() {
    const char* env = std::getenv("HGS_BENCH_JSON");
    if (env != nullptr && env[0] != '\0') path_ = env;
    std::atexit([] { Instance().Flush(); });
  }

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::mutex mu_;
  std::string path_;
  std::vector<Row> rows_;
};

/// Records one telemetry row; a no-op unless a JSON path is configured.
inline void JsonRow(const std::string& bench, const std::string& metric,
                    double value, const std::string& unit) {
  BenchJsonSink::Instance().Add(bench, metric, value, unit);
}

/// Consumes a `--json=<path>` flag from argv (leaving all other flags for
/// the bench's own parsing) and arms the JSON sink. Call first in main().
inline void InitBenchTelemetry(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      BenchJsonSink::Instance().SetPath(argv[i] + 7);
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
}

/// The cluster latency model used by all benches (a commodity disk/network:
/// 600us seek+RTT per request, 60 MB/s transfer). I/O-heavy on purpose: the
/// paper's EC2/Cassandra testbed was I/O-bound, and this keeps the parallel
/// fetch effects visible even on a host with few cores.
inline LatencyModel BenchLatency() {
  LatencyModel m;
  m.enabled = true;
  m.seek_micros = 600;
  m.per_key_micros = 8;
  m.bytes_per_micro = 60.0;
  // Coarse (sleep-only) waits: many concurrent waiters in the parallel-
  // fetch benches; spin residue would burn the host's few cores.
  m.precise_wait = false;
  return m;
}

/// Bandwidth-bound variant for the version-retrieval benches (Figs 14a/14c/
/// 16): at the paper's scale a version-chain pointer dereference reads a
/// large micro-eventlist row, so transfer and deserialization — not seeks —
/// dominate. A lower seek cost and lower bandwidth put the scaled-down
/// benches into the same regime.
inline LatencyModel VersionBenchLatency() {
  LatencyModel m;
  m.enabled = true;
  m.seek_micros = 120;
  m.per_key_micros = 2;
  // Effective row-read-and-deserialize throughput. Deliberately very low:
  // the paper's fetch path was Python/Pickle, where per-byte costs dwarf
  // seeks by orders of magnitude (their 100-change version retrievals take
  // seconds). This keeps the scaled-down benches in the same bytes-bound
  // regime.
  m.bytes_per_micro = 0.3;
  return m;
}

inline ClusterOptions MakeClusterOptions(
    size_t m, size_t r, CompressionKind compression = CompressionKind::kNone) {
  ClusterOptions opts;
  opts.num_nodes = m;
  opts.replication = r;
  opts.server_threads_per_node = 4;  // the paper's 4-core Cassandra boxes
  opts.compression = compression;
  opts.latency = BenchLatency();
  return opts;
}

// -- Dataset analogues (README.md "Substitutions") ----------------------------

/// Dataset 1: Wikipedia-citation-style growth. ~60k events at scale 1.
inline std::vector<Event> Dataset1() {
  return workload::GenerateWikiGrowth(
      {.num_events = Scaled(60'000), .seed = 1001});
}

/// Dataset 2: Dataset 1 plus ~50% synthetic add/delete churn.
inline std::vector<Event> Dataset2() {
  return workload::AugmentWithChurn(
      Dataset1(), {.num_events = Scaled(30'000), .seed = 1002});
}

/// Dataset 3: Dataset 1 plus ~130% synthetic churn.
inline std::vector<Event> Dataset3() {
  return workload::AugmentWithChurn(
      Dataset1(), {.num_events = Scaled(80'000), .seed = 1003});
}

/// Dataset 4: Friendster-like community graph with uniform timestamps.
inline std::vector<Event> Dataset4() {
  return workload::GenerateFriendster({.num_nodes = Scaled(12'000),
                                       .num_edges = Scaled(48'000),
                                       .community_size = 120,
                                       .seed = 1004});
}

/// DBLP-like labelled graph for the incremental-computation experiments.
inline std::vector<Event> DatasetDblp() {
  return workload::GenerateDblp({.num_authors = Scaled(1'500),
                                 .num_papers = Scaled(4'500),
                                 .authors_per_paper = 3,
                                 .num_attr_events = Scaled(25'000),
                                 .seed = 1005});
}

/// Default TGI tuning for benches (the paper's ps=500, l=250-scaled).
/// Both read-side caches are disabled: benchmark loops repeat identical
/// queries, and a warm byte cache would hide fetch costs while a warm
/// decoded cache would hide deserialization costs — the very sweeps these
/// figure reproductions make. Caching is benchmarked explicitly (warm rows
/// in table1_access_costs, cold/warm splits in bench_decode_cache).
inline TGIOptions DefaultTGIOptions() {
  TGIOptions opts;
  opts.events_per_timespan = 20'000;
  opts.eventlist_size = 250;
  opts.micro_delta_size = 500;
  opts.num_horizontal_partitions = 4;
  opts.read_cache_bytes = 0;
  opts.decoded_cache_bytes = 0;
  return opts;
}

/// A built index plus everything needed to query it.
struct TGIBundle {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<TGI> tgi;
  std::unique_ptr<TGIQueryManager> qm;
  std::vector<Event> events;
  Timestamp end = 0;
};

inline TGIBundle BuildBundle(std::vector<Event> events,
                             const TGIOptions& tgi_opts,
                             const ClusterOptions& cluster_opts,
                             size_t fetch_parallelism = 1) {
  TGIBundle b;
  b.cluster = std::make_unique<Cluster>(cluster_opts);
  b.tgi = std::make_unique<TGI>(b.cluster.get(), tgi_opts);
  b.events = std::move(events);
  b.end = workload::EndTime(b.events);
  Status s = b.tgi->BuildFrom(b.events);
  if (!s.ok()) {
    std::fprintf(stderr, "index build failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  auto qm = b.tgi->OpenQueryManager(fetch_parallelism);
  if (!qm.ok()) {
    std::fprintf(stderr, "open failed: %s\n", qm.status().ToString().c_str());
    std::abort();
  }
  b.qm = std::move(*qm);
  return b;
}

/// n nodes sampled from the state at `t`, optionally with a degree floor.
inline std::vector<NodeId> SampleNodes(const std::vector<Event>& events,
                                       Timestamp t, size_t n, uint64_t seed,
                                       size_t min_degree = 0) {
  Graph g = workload::ReplayToGraph(events, t);
  std::vector<NodeId> pool;
  g.ForEachNode([&](NodeId id, const NodeRecord&) {
    if (g.Neighbors(id).size() >= min_degree) pool.push_back(id);
  });
  std::sort(pool.begin(), pool.end());
  Rng rng(seed);
  std::vector<NodeId> out;
  out.reserve(n);
  for (size_t i = 0; i < n && !pool.empty(); ++i) {
    out.push_back(pool[rng.Uniform(pool.size())]);
  }
  return out;
}

/// Nodes bucketed by how many change points they have over the history:
/// returns for each target (approximately) the node whose version count is
/// closest.
inline std::vector<std::pair<NodeId, size_t>> NodesByVersionCount(
    const std::vector<Event>& events, const std::vector<size_t>& targets) {
  std::unordered_map<NodeId, size_t> counts;
  for (const Event& e : events) {
    counts[e.u]++;
    if (e.IsEdgeEvent()) counts[e.v]++;
  }
  std::vector<std::pair<NodeId, size_t>> out;
  std::unordered_set<NodeId> used;
  for (size_t target : targets) {
    NodeId best = kInvalidNodeId;
    size_t best_diff = SIZE_MAX;
    for (const auto& [id, c] : counts) {
      if (used.contains(id)) continue;
      size_t diff = c > target ? c - target : target - c;
      if (diff < best_diff || (diff == best_diff && id < best)) {
        best_diff = diff;
        best = id;
      }
    }
    if (best != kInvalidNodeId) {
      used.insert(best);
      out.emplace_back(best, counts[best]);
    }
  }
  return out;
}

/// Physical fetch round trips behind a FetchStats. Indexes that never go
/// through the batched/cached fetch helpers leave kv_batches at 0; for
/// them every logical request was its own round trip. Any batching, byte-
/// cache or decoded-cache evidence means kv_batches is authoritative.
inline uint64_t FetchRoundTrips(const FetchStats& s) {
  return s.kv_batches > 0 || s.cache_hits > 0 || s.decode_hits > 0
             ? s.kv_batches
             : s.kv_requests;
}

/// One-line fetch-efficiency summary (requests vs round trips vs the two
/// cache tiers), greppable into BENCH_*.json post-processing.
inline void PrintFetchEfficiency(const char* label, const FetchStats& s) {
  std::printf(
      "%s: requests=%" PRIu64 " round_trips=%" PRIu64 " cache_hits=%" PRIu64
      " cache_misses=%" PRIu64 " hit_rate=%.3f decodes=%" PRIu64
      " decode_hits=%" PRIu64 " decoded_bytes=%" PRIu64 "\n",
      label, s.kv_requests, FetchRoundTrips(s), s.cache_hits, s.cache_misses,
      s.CacheHitRate(), s.decodes, s.decode_hits, s.decoded_bytes);
}

/// One-line bulk node-history summary: logical work requested (node
/// histories, eventlist references) vs physical work issued after grouping
/// and dedup (version scans, unique eventlist rows, node round trips).
inline void PrintBulkEfficiency(const char* label, const FetchStats& s) {
  std::printf("%s: node_requests=%" PRIu64 " version_scans=%" PRIu64
              " eventlist_refs=%" PRIu64 " eventlist_fetches=%" PRIu64
              " round_trips=%" PRIu64 "\n",
              label, s.node_requests, s.version_scans, s.eventlist_refs,
              s.eventlist_fetches, FetchRoundTrips(s));
}

/// Peak resident set size of this process so far, in bytes (Linux
/// semantics: ru_maxrss is KiB).
inline uint64_t PeakRssBytes() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
}

inline void PrintPeakRssAtExit() {
  double mib = static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
  std::printf("# peak_rss_mib=%.1f\n", mib);
  JsonRow("process", "peak_rss_mib", mib, "MiB");
}

inline void PrintPreamble(const char* experiment, const char* paper_shape) {
  std::printf("# %s\n", experiment);
  std::printf("# paper shape to reproduce: %s\n", paper_shape);
  std::printf("# HGS_SCALE=%.2f\n", ScaleFromEnv());
  // Touch the sink first so its flush handler is registered before the RSS
  // hook below (atexit runs in reverse order): the RSS row must land in the
  // file even when the sink is armed by HGS_BENCH_JSON alone.
  BenchJsonSink::Instance();
  // Every figure bench reports its memory high-water mark alongside wall
  // time, so the byte-cache vs decoded-cache memory tradeoff is visible.
  std::atexit(PrintPeakRssAtExit);
}

}  // namespace hgs::bench

#endif  // HGS_BENCH_BENCH_COMMON_H_
