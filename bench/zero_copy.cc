// Zero-copy storage values: copy counts, allocation volume and latency of
// the shared-buffer read path against the string-copy contract it replaced.
//
// Two sections:
//   * storage primitives — the same Scan / MultiGet traffic consumed once
//     as zero-copy views (checksummed in place) and once through a forced
//     per-value std::string materialization (the pre-refactor contract).
//     Expect: view rows report 0 value copies and an allocation count that
//     does not scale with the row count; copy rows pay one allocation and
//     one buffer's worth of moved bytes per value.
//   * warm TGI reads — GetSnapshotDelta / GetNodeHistories with both cache
//     tiers warm. Expect: value_copies == 0, zero decodes, and an
//     allocation volume dominated by the result assembly alone.
//
// Allocation counting replaces global new/delete in this binary (disabled
// under ASan, where interposition conflicts).

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"

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
static thread_local size_t g_alloc_bytes = 0;

#if HGS_ALLOC_COUNTING
void* operator new(std::size_t n) {
  if (g_count_allocs) {
    ++g_alloc_count;
    g_alloc_bytes += n;
  }
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

namespace {

using namespace hgs;

class ScopedAllocCounter {
 public:
  ScopedAllocCounter() {
    g_alloc_count = 0;
    g_alloc_bytes = 0;
    g_count_allocs = true;
  }
  ~ScopedAllocCounter() { g_count_allocs = false; }
  size_t count() const { return g_alloc_count; }
  size_t bytes() const { return g_alloc_bytes; }
};

struct Measured {
  double ms = 0;
  size_t allocs = 0;
  size_t alloc_bytes = 0;
  size_t value_copies = 0;
  uint64_t checksum = 0;  // consumed bytes, so nothing is optimized away
};

void PrintRow(const char* section, const char* mode, const Measured& m) {
  std::printf("%-10s %-14s time_ms=%8.2f allocs=%9zu alloc_bytes=%11zu "
              "value_copies=%7zu\n",
              section, mode, m.ms, m.allocs, m.alloc_bytes, m.value_copies);
  std::string stem = std::string(section) + "_" + mode;
  hgs::bench::JsonRow("zero_copy", stem + "_time_ms", m.ms, "ms");
  hgs::bench::JsonRow("zero_copy", stem + "_value_copies",
                      static_cast<double>(m.value_copies), "copies");
  hgs::bench::JsonRow("zero_copy", stem + "_alloc_bytes",
                      static_cast<double>(m.alloc_bytes), "bytes");
}

template <typename Fn>
Measured Measure(Fn&& fn) {
  Measured m;
  ScopedAllocCounter allocs;
  auto start = std::chrono::steady_clock::now();
  fn(&m);
  m.ms = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() *
         1e3;
  m.allocs = allocs.count();
  m.alloc_bytes = allocs.bytes();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  hgs::bench::InitBenchTelemetry(&argc, argv);
  hgs::bench::PrintPreamble(
      "Zero-copy storage values: copies, allocations and latency vs the "
      "string-copy baseline",
      "view modes move zero value bytes and allocate O(1) per request; "
      "copy modes pay one allocation + one buffer per value; warm TGI "
      "reads report value_copies == 0 and zero decodes");

  // -- storage primitives ---------------------------------------------------
  // 4 KiB values: the scale of a serialized micro-delta row, where the
  // bytes moved by a per-value copy dominate the request machinery.
  const size_t kRows = hgs::bench::Scaled(4'000);
  const int kReps = 8;
  ClusterOptions copts;  // in-memory: isolate CPU + allocator behavior
  copts.num_nodes = 2;
  copts.latency.enabled = false;
  Cluster cluster(copts);
  {
    std::string payload;
    for (size_t i = 0; i < kRows; ++i) {
      payload = "row-" + std::to_string(i) + "-";
      while (payload.size() < 4'096) payload += "abcdefgh";
      if (!cluster.Put("zc", i % 8, "key" + std::to_string(i), payload)
               .ok()) {
        std::abort();
      }
    }
  }

  auto scan_view = Measure([&](Measured* m) {
    for (int rep = 0; rep < kReps; ++rep) {
      for (uint64_t p = 0; p < 8; ++p) {
        FetchStats call;
        auto rows = cluster.Scan("zc", p, "", &call);
        if (!rows.ok()) std::abort();
        m->value_copies += call.value_copies;
        for (const KVPair& kv : *rows) {
          m->checksum ^= Fnv1a64(kv.value.data(), kv.value.size());
        }
      }
    }
  });
  PrintRow("scan", "view", scan_view);

  auto scan_copy = Measure([&](Measured* m) {
    for (int rep = 0; rep < kReps; ++rep) {
      for (uint64_t p = 0; p < 8; ++p) {
        FetchStats call;
        auto rows = cluster.Scan("zc", p, "", &call);
        if (!rows.ok()) std::abort();
        m->value_copies += call.value_copies;
        for (const KVPair& kv : *rows) {
          // The pre-refactor contract: every value lands in its own string.
          std::string owned = kv.value.ToString();
          ++m->value_copies;
          m->checksum ^= Fnv1a64(owned.data(), owned.size());
        }
      }
    }
  });
  PrintRow("scan", "string-copy", scan_copy);

  std::vector<MultiGetKey> keys;
  keys.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    keys.push_back(MultiGetKey{i % 8, "key" + std::to_string(i)});
  }
  auto multiget_view = Measure([&](Measured* m) {
    for (int rep = 0; rep < kReps; ++rep) {
      FetchStats call;
      auto got = cluster.MultiGet("zc", keys, &call);
      if (!got.ok()) std::abort();
      m->value_copies += call.value_copies;
      for (const auto& v : *got) {
        if (v.has_value()) m->checksum ^= Fnv1a64(v->data(), v->size());
      }
    }
  });
  PrintRow("multiget", "view", multiget_view);

  auto multiget_copy = Measure([&](Measured* m) {
    for (int rep = 0; rep < kReps; ++rep) {
      FetchStats call;
      auto got = cluster.MultiGet("zc", keys, &call);
      if (!got.ok()) std::abort();
      m->value_copies += call.value_copies;
      for (const auto& v : *got) {
        if (!v.has_value()) continue;
        std::string owned = v->ToString();
        ++m->value_copies;
        m->checksum ^= Fnv1a64(owned.data(), owned.size());
      }
    }
  });
  PrintRow("multiget", "string-copy", multiget_copy);

  // -- warm TGI reads -------------------------------------------------------
  TGIOptions opts = hgs::bench::DefaultTGIOptions();
  opts.read_cache_bytes = 64u << 20;
  opts.decoded_cache_bytes = 64u << 20;
  // Columnar row families: zero-copy must hold even with compression on —
  // decoding works over windows into the stored (or cached) block.
  opts.row_compression = hgs::CompressionKind::kColumnar;
  opts.eventlist_compression = hgs::CompressionKind::kColumnar;
  opts.versions_compression = hgs::CompressionKind::kColumnar;
  auto bundle = hgs::bench::BuildBundle(
      hgs::bench::Dataset2(), opts, hgs::bench::MakeClusterOptions(2, 1),
      /*fetch_parallelism=*/1);
  Timestamp mid = bundle.end / 2;
  std::vector<NodeId> ids = hgs::bench::SampleNodes(
      bundle.events, bundle.end, 64, /*seed=*/7, /*min_degree=*/1);

  FetchStats cold;
  if (!bundle.qm->GetSnapshotDelta(mid, &cold).ok()) std::abort();
  if (!bundle.qm->GetNodeHistories(ids, 0, bundle.end, &cold).ok()) {
    std::abort();
  }

  FetchStats snap_stats;
  auto warm_snap = Measure([&](Measured* m) {
    auto res = bundle.qm->GetSnapshotDelta(mid, &snap_stats);
    if (!res.ok()) std::abort();
    m->value_copies = snap_stats.value_copies;
    m->checksum = res->NodeEntryCount();
  });
  PrintRow("snapshot", "warm", warm_snap);

  FetchStats hist_stats;
  auto warm_hist = Measure([&](Measured* m) {
    auto res = bundle.qm->GetNodeHistories(ids, 0, bundle.end, &hist_stats);
    if (!res.ok()) std::abort();
    m->value_copies = hist_stats.value_copies;
    m->checksum = res->size();
  });
  PrintRow("histories", "warm", warm_hist);

  std::printf("\nwarm snapshot:  decodes=%" PRIu64 " decode_hits=%" PRIu64
              " round_trips=%" PRIu64 " value_copies=%" PRIu64 "\n",
              snap_stats.decodes, snap_stats.decode_hits,
              hgs::bench::FetchRoundTrips(snap_stats),
              snap_stats.value_copies);
  std::printf("warm histories: decodes=%" PRIu64 " decode_hits=%" PRIu64
              " round_trips=%" PRIu64 " value_copies=%" PRIu64 "\n",
              hist_stats.decodes, hist_stats.decode_hits,
              hgs::bench::FetchRoundTrips(hist_stats),
              hist_stats.value_copies);
  return 0;
}
