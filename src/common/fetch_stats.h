// FetchStats: the one read-cost record (the currency of Table 1), filled by
// every layer a read passes through. The cluster client adds the node
// requests it submits, the value copies of its answers and its resilience
// events; the TGI read executor adds logical reads, cache probes and
// decodes; parallel sections in TGI and the baselines fold their per-task
// records through RunTasks.

#ifndef HGS_COMMON_FETCH_STATS_H_
#define HGS_COMMON_FETCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"

namespace hgs {

/// Read-cost accounting for one retrieval call. Logical counters
/// (kv_requests, micro_deltas, bytes) count every value the query consumed
/// whether it came from the cluster or the read cache; kv_batches counts
/// the physical node requests actually issued, which is what batching and
/// caching reduce.
struct FetchStats {
  uint64_t kv_requests = 0;    ///< logical point gets + scans requested
  /// Physical node requests: one per node batch the cluster client
  /// submits (each round of a read sends one to every node it reaches;
  /// Get and Scan are one-item batches), retry and failover rounds and
  /// hedges included, so a fault-free read without hedging counts one per
  /// round trip.
  uint64_t kv_batches = 0;
  uint64_t cache_hits = 0;     ///< reads served by the partition-delta cache
  uint64_t cache_misses = 0;   ///< reads that had to go to the cluster
  uint64_t micro_deltas = 0;   ///< values deserialized
  uint64_t bytes = 0;          ///< raw value bytes fetched
  // Node-history retrieval accounting (GetNodeHistory / GetNodeHistories).
  // The logical/physical split shows the set-at-a-time win: node_requests
  // and eventlist_refs count what the query asked for, version_scans and
  // eventlist_fetches what actually hit the index after grouping + dedup.
  uint64_t node_requests = 0;      ///< logical node histories requested
  uint64_t version_scans = 0;      ///< versions-table partition scans issued
  uint64_t eventlist_refs = 0;     ///< version-chain eventlist references
  uint64_t eventlist_fetches = 0;  ///< deduplicated eventlist rows fetched
  // Decoded-tier accounting. Every value the query consumes is either
  // decoded from raw bytes (decodes; decoded_bytes counts the input) or
  // served as a ready-to-apply object from the decoded cache (decode_hits,
  // zero deserialization). A fully warm decoded cache drives decodes to 0.
  uint64_t decode_hits = 0;    ///< values served decoded (incl. micropart
                               ///< buckets and cached "absent" rows)
  uint64_t decodes = 0;        ///< Deserialize calls actually performed
  uint64_t decoded_bytes = 0;  ///< raw bytes those decodes consumed
  // Zero-copy accounting: `bytes` above counts bytes *viewed* (every value
  // byte the query consumed, wherever it came from); value_copies counts
  // values whose bytes actually *moved* into a fresh buffer. On the
  // shared-buffer path the only copies left are LZ-block materializations,
  // so uncompressed reads — and every warm read — report 0.
  uint64_t value_copies = 0;   ///< values materialized rather than viewed
  // Always 0: nothing counts it. Kept only because the hgsbench driver
  // reports it as taf.merge_skipped_sorts_per_job.
  uint64_t taf_merge_skipped_sorts = 0;
  // Invalidation precision: when this query observed a re-publish and
  // refreshed, how many cache entries (both tiers + micropart buckets) the
  // sweep kept warm vs evicted. A partition-scoped publish retains every
  // scope it didn't touch; the old global bump evicted everything.
  uint64_t cache_entries_retained = 0;
  uint64_t cache_entries_invalidated = 0;
  // Resilience accounting, counted by the cluster client as it happens:
  // what the fault-tolerance machinery did on this query's behalf. All
  // zero on a healthy cluster.
  uint64_t failovers = 0;          ///< replicas abandoned for another
  uint64_t retries = 0;            ///< transient-error retries
  uint64_t hedges = 0;             ///< second-chance requests fired
  uint64_t hedge_wins = 0;         ///< hedged answers actually used
  uint64_t checksum_failures = 0;  ///< values rejected by the checksum
  double wall_seconds = 0.0;

  double CacheHitRate() const {
    uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }

  void Merge(const FetchStats& o) {
    kv_requests += o.kv_requests;
    kv_batches += o.kv_batches;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    micro_deltas += o.micro_deltas;
    bytes += o.bytes;
    node_requests += o.node_requests;
    version_scans += o.version_scans;
    eventlist_refs += o.eventlist_refs;
    eventlist_fetches += o.eventlist_fetches;
    decode_hits += o.decode_hits;
    decodes += o.decodes;
    decoded_bytes += o.decoded_bytes;
    value_copies += o.value_copies;
    taf_merge_skipped_sorts += o.taf_merge_skipped_sorts;
    cache_entries_retained += o.cache_entries_retained;
    cache_entries_invalidated += o.cache_entries_invalidated;
    failovers += o.failovers;
    retries += o.retries;
    hedges += o.hedges;
    hedge_wins += o.hedge_wins;
    checksum_failures += o.checksum_failures;
    wall_seconds += o.wall_seconds;
  }
};
// Merge is the only place per-task stats fold together: a counter added
// without a line there would silently drop, so adding one must fail here.
static_assert(sizeof(FetchStats) == 22 * sizeof(uint64_t) + sizeof(double),
              "FetchStats changed: add the new field to Merge, then here");

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
