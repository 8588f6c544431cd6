// Ingest pipeline throughput: the sharded encode pipeline (thread sweep) vs
// BulkLoad, on the Dataset 2 event stream. Every configuration
// group-commits its rows: one write submission per storage node per table.
//
// Two regimes, same stream:
//   * io  — the simulated commodity-store latency model with write charging
//     enabled: every node batch pays a seek.
//   * cpu — latency disabled. Isolates the encode pipeline (leaf
//     compaction, intersection-tree algebra, partition splits, row
//     serialization) sharded across the worker pool; scaling with the
//     thread sweep shows only on multi-core hosts.
//
// Every configuration must produce byte-identical storage (the pipeline's
// determinism contract); the bench cross-checks content fingerprints and
// aborts on a mismatch. Write counters (put_batches / rows_put / bytes_put)
// print per row, and every figure is emitted through the JSON telemetry
// sink (--json=<path> or HGS_BENCH_JSON).
//
// An append regime, in both latency regimes, measures the batched update
// path: BuildFrom the first half of the stream, then AppendBatch the rest in
// 1,000-event batches, reporting ms per append, bytes put per appended event
// and stored bytes per event. Its storage differs from a one-shot build by
// design (the batches land in the open newest span), so it stays out of the
// byte-identity cross-check.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

using namespace hgs;

struct Spec {
  const char* name;    // table label
  const char* metric;  // JSON metric stem
  size_t threads;      // TGIOptions::ingest_threads
  bool bulk;           // BulkLoad instead of BuildFrom
};

struct Outcome {
  double seconds = 0;
  double events_per_sec = 0;
  uint64_t put_batches = 0;
  uint64_t rows_put = 0;
  uint64_t bytes_put = 0;
  uint64_t keys = 0;
  uint64_t fingerprint = 0;
};

Outcome RunOnce(const std::vector<Event>& events, const ClusterOptions& copts,
                const Spec& spec) {
  TGIOptions opts = hgs::bench::DefaultTGIOptions();
  opts.ingest_threads = spec.threads;
  Cluster cluster(copts);
  TGI tgi(&cluster, opts);
  auto start = std::chrono::steady_clock::now();
  Status s = spec.bulk ? tgi.BulkLoad(events) : tgi.BuildFrom(events);
  double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count();
  if (!s.ok()) {
    std::fprintf(stderr, "%s ingest failed: %s\n", spec.name,
                 s.ToString().c_str());
    std::abort();
  }
  Outcome out;
  out.seconds = secs;
  out.events_per_sec =
      secs > 0 ? static_cast<double>(events.size()) / secs : 0;
  out.put_batches = cluster.TotalPutBatches();
  out.rows_put = cluster.TotalRowsPut();
  out.bytes_put = cluster.TotalBytesPut();
  out.keys = cluster.TotalKeys();
  out.fingerprint = cluster.ContentFingerprint();
  return out;
}

constexpr size_t kAppendBatch = 1'000;

struct AppendOutcome {
  size_t appends = 0;
  double ms_per_append = 0;
  double bytes_put_per_event = 0;     // per appended event
  double stored_bytes_per_event = 0;  // per indexed event, after the appends
};

AppendOutcome RunAppends(const std::vector<Event>& events,
                         const ClusterOptions& copts) {
  Cluster cluster(copts);
  TGI tgi(&cluster, hgs::bench::DefaultTGIOptions());
  const size_t prefix = events.size() / 2;
  const std::vector<Event> first(events.begin(),
                                 events.begin() + static_cast<long>(prefix));
  Status s = tgi.BuildFrom(first);
  const uint64_t put_before = cluster.TotalBytesPut();
  double total_ms = 0;
  AppendOutcome out;
  for (size_t begin = prefix; s.ok() && begin < events.size();
       begin += kAppendBatch) {
    const size_t end = std::min(events.size(), begin + kAppendBatch);
    const std::vector<Event> batch(events.begin() + static_cast<long>(begin),
                                   events.begin() + static_cast<long>(end));
    auto start = std::chrono::steady_clock::now();
    s = tgi.AppendBatch(batch);
    total_ms += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    ++out.appends;
  }
  if (!s.ok()) {
    std::fprintf(stderr, "append failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  if (out.appends > 0) {
    const auto appended = static_cast<double>(events.size() - prefix);
    out.ms_per_append = total_ms / static_cast<double>(out.appends);
    out.bytes_put_per_event =
        static_cast<double>(cluster.TotalBytesPut() - put_before) / appended;
  }
  const auto indexed = static_cast<double>(events.size());
  out.stored_bytes_per_event =
      static_cast<double>(cluster.TotalStoredBytes()) / indexed;
  return out;
}

void ReportAppends(const char* regime, const AppendOutcome& o) {
  std::printf("%-4s %-24s appends=%zu ms_per_append=%8.2f "
              "bytes_put_per_event=%8.1f stored_bytes_per_event=%8.1f\n",
              regime, "append (1,000/batch)", o.appends, o.ms_per_append,
              o.bytes_put_per_event, o.stored_bytes_per_event);
  const std::string stem = std::string(regime) + "_append_";
  hgs::bench::JsonRow("ingest", stem + "ms_per_batch", o.ms_per_append, "ms");
  hgs::bench::JsonRow("ingest", stem + "bytes_put_per_event",
                      o.bytes_put_per_event, "B/event");
  hgs::bench::JsonRow("ingest", stem + "stored_bytes_per_event",
                      o.stored_bytes_per_event, "B/event");
}

void PrintRow(const char* regime, const Spec& spec, const Outcome& o) {
  std::printf("%-4s %-24s events_per_sec=%10.0f time_s=%8.3f "
              "put_batches=%8" PRIu64 " rows_put=%8" PRIu64
              " bytes_put=%11" PRIu64 "\n",
              regime, spec.name, o.events_per_sec, o.seconds, o.put_batches,
              o.rows_put, o.bytes_put);
}

}  // namespace

int main(int argc, char** argv) {
  hgs::bench::InitBenchTelemetry(&argc, argv);
  hgs::bench::PrintPreamble(
      "Ingest pipeline: sharded encode vs BulkLoad",
      "the thread sweep shards the encode work; all configurations store "
      "byte-identical contents");

  auto events = hgs::bench::Dataset2();
  std::printf("# events=%zu\n", events.size());

  const Spec kSweep[] = {
      {"serial (1t)", "serial_1t", 1, false},
      {"sharded (2t)", "sharded_2t", 2, false},
      {"sharded (4t)", "sharded_4t", 4, false},
      {"sharded (8t)", "sharded_8t", 8, false},
      {"bulkload (8t)", "bulkload_8t", 8, true},
  };

  uint64_t fingerprint = 0;
  uint64_t keys = 0;
  bool identical = true;
  auto check = [&](const Outcome& o) {
    if (fingerprint == 0 && keys == 0) {
      fingerprint = o.fingerprint;
      keys = o.keys;
      return;
    }
    if (o.fingerprint != fingerprint || o.keys != keys) identical = false;
  };

  // -- io regime: write latency charged -------------------------------------
  ClusterOptions io_opts = hgs::bench::MakeClusterOptions(4, 1);
  io_opts.latency.charge_writes = true;

  std::printf("\n== io regime (write latency charged, 4 nodes) ==\n");
  for (const Spec& spec : kSweep) {
    Outcome o = RunOnce(events, io_opts, spec);
    PrintRow("io", spec, o);
    check(o);
    hgs::bench::JsonRow("ingest",
                        std::string("io_") + spec.metric + "_events_per_sec",
                        o.events_per_sec, "events/s");
    if (std::string(spec.metric) == "serial_1t") {
      // Write counters (the same for every configuration).
      hgs::bench::JsonRow("ingest", "io_put_batches",
                          static_cast<double>(o.put_batches), "batches");
      hgs::bench::JsonRow("ingest", "rows_put",
                          static_cast<double>(o.rows_put), "rows");
      hgs::bench::JsonRow("ingest", "bytes_put",
                          static_cast<double>(o.bytes_put), "bytes");
    }
  }

  ReportAppends("io", RunAppends(events, io_opts));

  // -- cpu regime: latency off ----------------------------------------------
  ClusterOptions cpu_opts = hgs::bench::MakeClusterOptions(4, 1);
  cpu_opts.latency.enabled = false;

  std::printf("\n== cpu regime (latency off, encode-bound) ==\n");
  double cpu_1t = 0;
  double cpu_8t = 0;
  for (const Spec& spec : kSweep) {
    Outcome o = RunOnce(events, cpu_opts, spec);
    PrintRow("cpu", spec, o);
    check(o);
    hgs::bench::JsonRow("ingest",
                        std::string("cpu_") + spec.metric + "_events_per_sec",
                        o.events_per_sec, "events/s");
    if (std::string(spec.metric) == "serial_1t") cpu_1t = o.events_per_sec;
    if (std::string(spec.metric) == "sharded_8t") cpu_8t = o.events_per_sec;
  }
  double cpu_scaling = cpu_1t > 0 ? cpu_8t / cpu_1t : 0;
  ReportAppends("cpu", RunAppends(events, cpu_opts));
  std::printf("encode scaling 8t vs 1t: %.2fx (shows on multi-core hosts)\n",
              cpu_scaling);
  hgs::bench::JsonRow("ingest", "cpu_sharded_8t_speedup_vs_1t", cpu_scaling,
                      "x");

  std::printf("\nstorage determinism across all configurations: %s "
              "(fingerprint=%016" PRIx64 ", keys=%" PRIu64 ")\n",
              identical ? "IDENTICAL" : "MISMATCH", fingerprint, keys);
  hgs::bench::JsonRow("ingest", "fingerprints_all_equal", identical ? 1 : 0,
                      "bool");
  if (!identical) std::abort();
  return 0;
}
