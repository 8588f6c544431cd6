// FetchStats: the one read-cost record (the currency of Table 1), filled by
// every layer a read passes through. The cluster client adds the node
// requests it submits, the value copies of its answers and its resilience
// events; the TGI read executor adds logical reads, cache probes and
// decodes; parallel sections in TGI and the baselines fold their per-task
// records through RunTasks. Each counter is named once, in
// HGS_FETCH_STATS_COUNTERS, which declares the fields and which Merge
// expands (common/counters.h); the cluster's lifetime resilience record
// shares the HGS_READ_RESILIENCE_COUNTERS part of it.

#ifndef HGS_COMMON_FETCH_STATS_H_
#define HGS_COMMON_FETCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "common/thread_pool.h"

// What the fault-tolerance machinery did on a read's behalf, counted by the
// cluster client as it happens: all zero on a healthy cluster.
// clang-format off
#define HGS_READ_RESILIENCE_COUNTERS(X)                      \
  X(failovers)          /* replicas abandoned for another */ \
  X(retries)            /* transient-error retries */        \
  X(hedges)             /* second-chance requests fired */   \
  X(hedge_wins)         /* hedged answers actually used */   \
  X(checksum_failures)  /* values rejected by the checksum */
// clang-format on

// Logical counters (kv_requests, micro_deltas, bytes) count every value the
// query consumed whether it came from the cluster or the read cache;
// kv_batches counts the physical node requests actually issued, which is
// what batching and caching reduce: one per node batch the cluster client
// submits (each round of a read sends one to every node it reaches; Get
// and Scan are one-item batches), retry and failover rounds and hedges
// included, so a fault-free read without hedging counts one per round trip.
//
// Node-history retrieval (GetNodeHistory / GetNodeHistories) splits the
// same way, which shows the set-at-a-time win: node_requests and
// eventlist_refs count what the query asked for, version_scans and
// eventlist_fetches what actually hit the index after grouping and dedup.
//
// Decoded tier: every value the query consumes is either decoded from raw
// bytes (decodes; decoded_bytes counts the input) or served as a
// ready-to-apply object from the decoded cache (decode_hits, zero
// deserialization; Micropartitions buckets and cached absent rows
// included). A fully warm decoded cache drives decodes to 0.
//
// Zero copy: `bytes` counts bytes *viewed* (every value byte the query
// consumed, wherever it came from); value_copies counts values whose bytes
// actually *moved* into a fresh buffer. On the shared-buffer path the only
// copies left are LZ-block materializations, so uncompressed reads, and
// every warm read, report 0.
//
// taf_merge_skipped_sorts is always 0: nothing counts it. It is kept only
// because the hgsbench driver reports it as taf.merge_skipped_sorts_per_job.
//
// Invalidation precision: when a query observed a re-publish and
// refreshed, how many cache entries (both tiers and micropart buckets) the
// sweep kept warm and how many it evicted. A partition-scoped publish
// retains every scope it didn't touch.
// clang-format off
#define HGS_FETCH_STATS_COUNTERS(X)                                     \
  X(kv_requests)        /* logical point gets + scans requested */      \
  X(kv_batches)         /* physical node requests */                    \
  X(cache_hits)         /* reads served by the partition-delta cache */ \
  X(cache_misses)       /* reads that had to go to the cluster */       \
  X(micro_deltas)       /* values deserialized */                       \
  X(bytes)              /* raw value bytes fetched */                   \
  X(node_requests)      /* logical node histories requested */          \
  X(version_scans)      /* versions-table partition scans issued */     \
  X(eventlist_refs)     /* version-chain eventlist references */        \
  X(eventlist_fetches)  /* deduplicated eventlist rows fetched */       \
  X(decode_hits)        /* values served decoded */                     \
  X(decodes)            /* Deserialize calls actually performed */      \
  X(decoded_bytes)      /* raw bytes those decodes consumed */          \
  X(value_copies)       /* values materialized rather than viewed */    \
  X(taf_merge_skipped_sorts)                                            \
  X(cache_entries_retained)                                             \
  X(cache_entries_invalidated)                                          \
  HGS_READ_RESILIENCE_COUNTERS(X)
// clang-format on

namespace hgs {

/// Read-cost accounting for one retrieval call: the counters of
/// HGS_FETCH_STATS_COUNTERS, and the call's wall time.
struct FetchStats {
  HGS_FETCH_STATS_COUNTERS(HGS_COUNTER_FIELD)
  double wall_seconds = 0.0;

  double CacheHitRate() const {
    uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }

  /// Adds every counter of `o`, and its wall time.
  void Merge(const FetchStats& o) {
    HGS_FETCH_STATS_COUNTERS(HGS_MERGE_COUNTER)
    wall_seconds += o.wall_seconds;
  }
};

/// Runs fn(i, &task_stats) for i in [0, n) on up to `parallelism` workers
/// (ParallelFor over the shared pool). Every task counts into its own
/// FetchStats, and after the join all of them fold into `stats` (when
/// non-null) through FetchStats::Merge, so no counter can be dropped. Every
/// task runs; the returned status is the failure with the lowest index.
inline Status RunTasks(size_t n, size_t parallelism, FetchStats* stats,
                       const std::function<Status(size_t, FetchStats*)>& fn) {
  std::vector<FetchStats> task_stats(n);
  Status status = StatusParallelFor(
      n, parallelism, [&](size_t i) { return fn(i, &task_stats[i]); });
  if (stats != nullptr) {
    for (const FetchStats& s : task_stats) stats->Merge(s);
  }
  return status;
}

}  // namespace hgs

#endif  // HGS_COMMON_FETCH_STATS_H_
