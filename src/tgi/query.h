// TGIQueryManager: the read side of the Temporal Graph Index (Section 4.6).
// Implements the paper's retrieval primitives:
//   * GetSnapshot            — Algorithm 1 (graph as of time t)
//   * GetNodeStateDelta      — static vertex (node + incident edges at t)
//   * GetNodeHistory         — Algorithm 2 (version chains + eventlists)
//   * GetNodeHistories       — set-at-a-time Algorithm 2 (bulk retrieval;
//                              a TAF subgraph fetch makes one call per hop)
//   * GetNodeHistoriesWhere  — the same, for the nodes a predicate selects
//                              (a TAF node-set fetch)
//   * GetKHopNeighborhood    — Algorithm 4 (point-in-time expansion;
//                              replication-aware)
//   * GetOneHopHistory       — Algorithm 5
//
// GetNodeHistories is the set-at-a-time primitive behind TAF's parallel
// fetch protocol (Fig 10): instead of one version-chain scan and one
// eventlist fetch per node, it groups the requested ids by placement, runs
// one scan per touched versions partition, unions every version-chain
// reference into a single deduplicated eventlist batch (an eventlist shared
// by many members is fetched and deserialized once, then demultiplexed per
// node), and batches the initial-state fetches per micro-partition. Its
// cost is therefore bounded by partitions touched, not nodes requested.
//
// Every retrieval plans its fetches as one batch of independent micro-delta
// reads and hands it to a single executor: decoded-tier probe, then the
// byte tier and one grouped Cluster::MultiGet for point reads and one
// Cluster::MultiScan for partition scans (one round trip per storage node
// instead of one per key or prefix), then parallel decode on
// `fetch_parallelism` workers (the paper's c), then cache insert. A
// snapshot starts from its span's root state, the summed root rows the
// decoded tier keeps as one shared Delta, so a warm snapshot merges one
// state and the rows below the root instead of every root row. A
// re-publish (AppendBatch) sweeps only the cache entries of the (table,
// partition) scopes it wrote.

#ifndef HGS_TGI_QUERY_H_
#define HGS_TGI_QUERY_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fetch_stats.h"
#include "common/lru_cache.h"
#include "common/mutex.h"
#include "common/result.h"
#include "delta/eventlist.h"
#include "graph/graph.h"
#include "kvstore/cluster.h"
#include "tgi/metadata.h"
#include "tgi/options.h"

namespace hgs {

/// A node's evolution over (from, to]: its state at `from` plus every event
/// touching it afterwards. This is also the wire format TAF's NodeT wraps.
struct NodeHistory {
  NodeId node = kInvalidNodeId;
  Timestamp from = 0;
  Timestamp to = 0;
  Delta initial;     ///< node record + incident edges as of `from`
  EventList events;  ///< events touching the node, chronological

  /// Change-point count (the paper's "version changes").
  size_t VersionCount() const { return events.size(); }

  /// Materialized per-version states: (time, node+edges delta), starting
  /// with the initial state at `from`.
  std::vector<std::pair<Timestamp, Delta>> Materialize() const;
};

/// Result of Algorithm 5: the center's history plus the histories of every
/// node that was a neighbor at some point in the interval.
struct OneHopHistory {
  NodeHistory center;
  std::vector<NodeHistory> neighbors;
};

class TGIQueryManager {
 public:
  /// `read_cache_bytes` is the partition-delta (raw byte) cache budget and
  /// `decoded_cache_bytes` the decoded-object cache budget (0 disables
  /// either tier; TGI::OpenQueryManager passes the TGIOptions knobs). The
  /// two tiers are independent: bytes serve re-fetches without round trips,
  /// decoded objects serve repeats without deserialization. Each tier has
  /// 16 lock shards, each holding a sixteenth of its budget.
  explicit TGIQueryManager(Cluster* cluster, size_t fetch_parallelism = 1,
                           size_t read_cache_bytes = 0,
                           size_t decoded_cache_bytes = 0);

  /// Loads graph + timespan metadata. Metadata and the read cache refresh
  /// automatically when the cluster's publish epoch changes (AppendBatch).
  /// Every query sees the index as of its pinned GraphMeta::end: events
  /// after it (written by a build still in progress) are ignored.
  Status Open();

  // -- retrieval primitives (Section 4.6) ---------------------------------
  Result<Graph> GetSnapshot(Timestamp t, FetchStats* stats = nullptr);
  Result<Delta> GetSnapshotDelta(Timestamp t, FetchStats* stats = nullptr);

  /// Multipoint snapshot retrieval (Fig 1): the graph at each timepoint.
  /// The distinct points, sorted, split into chains: runs of points that
  /// share a timespan and a checkpoint. A chain rebuilds the state at its
  /// first point from the tree, then rolls forward to each later point by
  /// replaying only the eventlists in between; every point's graph is
  /// materialized from the state at that point. Chains are independent and
  /// run in parallel on `fetch_parallelism` workers.
  Result<std::vector<Graph>> GetMultipointSnapshots(
      const std::vector<Timestamp>& times, FetchStats* stats = nullptr);

  /// The state of one node (record + incident edges) as of t. The returned
  /// delta is empty if the node does not exist at t.
  Result<Delta> GetNodeStateDelta(NodeId id, Timestamp t,
                                  FetchStats* stats = nullptr);

  Result<NodeHistory> GetNodeHistory(NodeId id, Timestamp from, Timestamp to,
                                     FetchStats* stats = nullptr);

  /// Set-at-a-time node-history retrieval (the TAF parallel fetch
  /// primitive). Returns one NodeHistory per input id, in input order;
  /// ids absent from the history yield an empty history (no initial state,
  /// no events), and duplicated ids yield duplicated results. Results are
  /// identical to per-id GetNodeHistory calls, but the physical work is
  /// bounded by partitions touched: one versions-table scan per touched
  /// placement partition, one deduplicated eventlist batch shared by all
  /// requested nodes, and batched initial-state fetches. FetchStats
  /// reports the grouping win as node_requests / eventlist_refs (logical)
  /// vs. version_scans / eventlist_fetches (physical).
  Result<std::vector<NodeHistory>> GetNodeHistories(
      const std::vector<NodeId>& ids, Timestamp from, Timestamp to,
      FetchStats* stats = nullptr);

  /// The histories over (from, to] of the nodes `keep` selects, in
  /// ascending id order: a TAF node-set fetch (Fig 7) as one retrieval
  /// plan. Every micro-partition of the span covering `from` is rebuilt at
  /// `from` once. `keep(id, &record)` is asked for each node present there,
  /// and `keep(id, nullptr)` for each node absent at `from` that a kAddNode
  /// in (from, to] adds, found by one pass over the range's decoded
  /// eventlist rows. The selected nodes' initial states are cut from the
  /// same partition states and their events demultiplexed from one
  /// eventlist batch, so each history equals GetNodeHistory(id, from, to).
  /// `keep` runs on the calling thread only.
  Result<std::vector<NodeHistory>> GetNodeHistoriesWhere(
      Timestamp from, Timestamp to,
      const std::function<bool(NodeId, const NodeRecord*)>& keep,
      FetchStats* stats = nullptr);

  /// Materialized node versions in (from, to]: GetNodeHistory + replay.
  Result<std::vector<std::pair<Timestamp, Delta>>> GetNodeVersions(
      NodeId id, Timestamp from, Timestamp to, FetchStats* stats = nullptr);

  /// k-hop neighborhood at time t (Algorithm 4: iterative expansion). Its
  /// nodes are the BFS ball of radius k around `id` at t, with exact
  /// records. Without 1-hop replication the result is the snapshot's
  /// subgraph induced on that ball. With it, the last expansion level is
  /// served from auxiliary micro-deltas without extra partition fetches:
  /// a last-ring node whose record an aux row supplies has its partition
  /// unfetched, so an edge between two last-ring nodes can be missing.
  /// Every other edge of the induced subgraph is present, and no edge
  /// outside it is.
  Result<Graph> GetKHopNeighborhood(NodeId id, Timestamp t, int k,
                                    FetchStats* stats = nullptr);

  /// One-hop history (Algorithm 5): the center's history over (from, to]
  /// plus one history per node that is a neighbor of the center at some
  /// point in the interval, in ascending id order. A neighbor's window
  /// opens at `from` when the edge is live there, or at the time a later
  /// kAddEdge adds it; a kRemoveEdge ends the window at its time, and a
  /// re-add extends it to `to`. Each neighbor history covers its own
  /// window (its `from` and `to` are the window's), and equals
  /// GetNodeHistory over that window in its events and in the present
  /// entries of its initial state, which is the neighbor's state at the
  /// window start. Its initial state may hold tombstones that a state
  /// rebuilt at the window start lacks. The center is one retrieval; every
  /// neighbor then rides one GetNodeHistories plan over the union of the
  /// windows, and each history is cut to its window by replaying its
  /// events up to the window start into the initial state and keeping the
  /// events inside it.
  Result<OneHopHistory> GetOneHopHistory(NodeId id, Timestamp from,
                                         Timestamp to,
                                         FetchStats* stats = nullptr);

  /// Every event in (from, to], across all timespans and partitions, in
  /// chronological order (events sharing a timestamp in EventTotalOrder),
  /// each once. This is the full-log scan primitive (used by the
  /// DeltaGraph baseline's version queries and by whole-graph evolution
  /// analyses); its cost is proportional to the range's change volume.
  Result<std::vector<Event>> GetEventsInRange(Timestamp from, Timestamp to,
                                              FetchStats* stats = nullptr);

  // -- metadata ------------------------------------------------------------
  Timestamp HistoryStart() const;
  Timestamp HistoryEnd() const;
  uint64_t EventCount() const;
  size_t fetch_parallelism() const {
    return fetch_parallelism_.load(std::memory_order_relaxed);
  }
  /// Safe to call concurrently with running queries: each query reads the
  /// parallelism once per fetch loop through the atomic.
  void set_fetch_parallelism(size_t c) {
    fetch_parallelism_.store(c == 0 ? 1 : c, std::memory_order_relaxed);
  }

  /// Lifetime counters of the partition-delta cache (zeros when disabled).
  LruCacheCounters ReadCacheCounters() const {
    return read_cache_ != nullptr ? read_cache_->Counters()
                                  : LruCacheCounters{};
  }

  /// Lifetime counters of the decoded-object cache (zeros when disabled).
  LruCacheCounters DecodedCacheCounters() const {
    return decoded_cache_ != nullptr ? decoded_cache_->Counters()
                                     : LruCacheCounters{};
  }

  /// Lifetime invalidation-precision counters: cache entries kept warm vs
  /// evicted across every publish-triggered refresh this manager ran.
  uint64_t CacheEntriesRetained() const {
    return entries_retained_.load(std::memory_order_relaxed);
  }
  uint64_t CacheEntriesInvalidated() const {
    return entries_invalidated_.load(std::memory_order_relaxed);
  }

 private:
  /// One cached read: either a point-read value (possibly a cached
  /// "absent") or the pairs of a partition scan. Values are SharedValues —
  /// the cache shares the storage node's buffer on fill and hands out
  /// views on hit, so neither direction copies value bytes.
  struct ReadCacheEntry {
    bool found = false;          ///< point reads: value present
    SharedValue value;           ///< point-read payload (zero-copy view)
    std::vector<KVPair> pairs;   ///< scan payload (zero-copy views)
  };
  using ReadCache =
      ShardedLruCache<std::string, std::shared_ptr<const ReadCacheEntry>>;

  /// One decoded-tier entry: an immutable decoded object shared between the
  /// cache and every in-flight query that fetched it (nullptr caches a
  /// known-absent row), plus the raw byte size it was decoded from so the
  /// logical byte accounting is identical between decode hits and misses.
  /// The concrete type behind `obj` is fixed by the kind byte of the cache
  /// key (one kind per decoded type), so a cast back can never mismatch.
  struct DecodedEntry {
    std::shared_ptr<const void> obj;
    size_t raw_bytes = 0;
  };
  using DecodedCache = ShardedLruCache<std::string, DecodedEntry>;

  /// Scan-granularity decoded entry (cache kind 'C'): every decoded row of
  /// one (table, partition, prefix) scan, in key order. A warm delta-major
  /// scan costs exactly one decoded-tier probe for the whole prefix instead
  /// of one byte-cache probe plus one decoded probe per row. The row type
  /// (Delta vs EventList) is fixed by the scan prefix's did, so a single
  /// kind byte cannot alias two row types under one key.
  struct DecodedScan {
    std::vector<DecodedEntry> rows;
  };

  /// Per-node merged version chain (cache kind 'V'): the concatenation of
  /// every VersionChainSegment of one node, in chain (tsid) order and
  /// unfiltered by time, so hub nodes with many segments cost one decoded
  /// entry — and one probe — instead of one per segment. segment_count and
  /// raw_bytes carry the logical accounting a rebuild would have reported.
  struct MergedVersionChain {
    std::vector<tgi::VersionEntry> entries;
    size_t segment_count = 0;
    size_t raw_bytes = 0;
  };

  /// A timespan's root state (cache kind 'R'): Delta::SumAll over every
  /// micro-partition row of the span's root did, which a snapshot sums with
  /// the path rows below the root instead of those rows. Its key carries
  /// the sub-epoch of each of the span's deltas scopes, so a publish of any
  /// of them sweeps it. `reads` is what a warm read of the root rows counts
  /// (requests, rows, bytes, decode hits), and a hit counts it, so warm and
  /// cold FetchStats stay equal.
  struct RootState {
    Delta state;
    FetchStats reads;
  };

  /// One read of an executor batch. `kind` fixes what it yields and is the
  /// first byte of its decoded-tier key: 'd' / 'e' the Delta / EventList
  /// row at `key` (null when absent); 'C' a DecodedScan of every row under
  /// the prefix `key`; 'V' the MergedVersionChain of the node whose
  /// VersionScanPrefix is `key`, built from a scan of its whole versions
  /// placement; 'M' the decoded Micropartitions bucket row at `key`, which
  /// bypasses the decoded tier (micropart_cache_ holds those). `row_kind`
  /// is the decoded type of the deltas rows a 'd' / 'e' / 'C' read yields.
  /// The root-state kind 'R' is not a read: GetSnapshotDeltaWith probes
  /// and fills it around its executor batch.
  struct Read {
    std::string_view table;
    uint64_t partition = 0;
    std::string key;
    char kind = 0;
    char row_kind = 0;
  };

  /// An immutable snapshot of the index metadata at one publish epoch,
  /// pinning the whole epoch map (`epochs`). Every query grabs one
  /// shared_ptr at entry and runs entirely against it, so a concurrent
  /// refresh (AppendBatch in another thread) can swap in new metadata
  /// without invalidating in-flight queries. Each cache key the query
  /// writes embeds its scope's sub-epoch, so late inserts from an
  /// old-epoch query can never be served to a new-epoch one — and a
  /// publish leaves every untouched scope's entries valid.
  struct MetaState {
    uint64_t epoch = 0;     ///< global epoch (== epochs->global when set)
    EpochVectorRef epochs;  ///< pinned sub-epoch map of this snapshot
    tgi::GraphMeta graph;
    std::vector<tgi::TimespanMeta> spans;

    /// Sub-epoch of one (table, partition) scope under the pinned map.
    uint64_t SubEpochFor(std::string_view table, uint64_t partition) const {
      return epochs == nullptr
                 ? epoch
                 : epochs->SubEpoch(MakeEpochKey(table, partition));
    }

    /// `t`, cut to the published history: rows may already hold events a
    /// build wrote after this snapshot's graph row, and queries skip them.
    Timestamp Horizon(Timestamp t) const { return std::min(t, graph.end); }
  };
  using MetaRef = std::shared_ptr<const MetaState>;

  /// Timespan of `meta` whose range covers t (last span with start <= t),
  /// or nullptr when t precedes all history.
  static const tgi::TimespanMeta* SpanFor(const MetaState& meta, Timestamp t);

  /// Loads graph + timespan metadata pinned to the cluster's current epoch
  /// map, reusing `reuse`'s graph and span rows where their scopes did not
  /// move (null: load everything). A publish that lands during the load
  /// restarts it. A builder publishes the data scopes before it writes the
  /// graph row, so the graph row loaded never outruns the pinned map.
  Result<MetaRef> LoadMetadata(const MetaState* reuse) const;

  /// Timespans-table rows, parsed and sorted by tsid.
  Result<std::vector<tgi::TimespanMeta>> LoadSpans() const;

  /// Fails before Open(); otherwise returns the metadata snapshot to run
  /// the query against. When the cluster's publish epoch moved
  /// (AppendBatch) it reloads only the re-published metadata rows (see
  /// LoadMetadata) and sweeps the cache tiers entry-by-entry, evicting
  /// exactly the entries whose (table, partition) sub-epoch changed; the
  /// retain/evict counts land in `stats` and the lifetime counters.
  Result<MetaRef> EnsureFresh(FetchStats* stats = nullptr);

  /// The current metadata snapshot (for the metadata accessors).
  MetaRef CurrentMeta() const;

  /// The read executor, the one path from the cluster to decoded objects.
  /// Returns one entry per read: (1) probe the decoded tier; (2) send the
  /// remaining point reads through the byte tier and then one grouped
  /// Cluster::MultiGet (point reads of a batch share one table), and the
  /// remaining scans — deduplicated, so 'V' reads of one placement share
  /// one — through the byte tier and then one Cluster::MultiScan; (3)
  /// decode every miss once, in parallel, straight off the shared views;
  /// (4) insert the results into the caches. The decode counters are
  /// summed after the join from what each miss decoded.
  Result<std::vector<DecodedEntry>> Execute(const MetaState& meta,
                                            const std::vector<Read>& reads,
                                            FetchStats* stats);

  /// Counts a decoded-tier hit on `read` the way the cold path counts the
  /// read: its bytes, and its rows as decode hits and micro-deltas (a scan
  /// request is counted where scans are deduplicated).
  static void CountDecodedHit(const Read& read, const DecodedEntry& entry,
                              FetchStats* stats);

  /// The decoded rows that rebuild one state, in merge-slot order (tree
  /// deltas root-to-leaf, then eventlists), borrowed from executor results
  /// that must outlive it. Every tree row precedes every eventlist row, so
  /// summing the deltas in one k-way pass and then replaying every
  /// eventlist in one batched pass equals applying the rows one by one.
  struct MergeSlots {
    std::vector<const Delta*> deltas;
    std::vector<const EventList*> evls;

    /// Adds the rows of one executed deltas-table read: every row of a 'C'
    /// scan in key order, otherwise the row itself (none if absent).
    void Add(const Read& read, const DecodedEntry& result);

    /// The state at t: Delta::SumAll over the deltas, then every
    /// eventlist replayed up to t.
    Delta Materialize(Timestamp t) const;
  };

  /// Every eventlist row overlapping (from, to], across all spans: a
  /// whole-span read of each overlapping eventlist did.
  static std::vector<Read> PlanRangeEventlistReads(const MetaState& meta,
                                                   Timestamp from,
                                                   Timestamp to);

  /// Plan helper for deltas-table rows `dids` of `span`, laid out
  /// [aux pass][did][micro-partition]. With `pids` null the reads cover
  /// every micro-partition: one 'C' scan per (did, sid) prefix under
  /// delta-major clustering, one point read per (did, pid) row under
  /// partition-major. With `pids` given, one point read per (did, pid) in
  /// either order, then (when `aux`) the aux replication rows.
  static std::vector<Read> PlanDeltaReads(
      const tgi::GraphMeta& graph, const tgi::TimespanMeta& span,
      const std::vector<DeltaId>& dids,
      const std::vector<MicroPartitionId>* pids, bool aux);

  /// Micro-partition of each of `ids` during a span (Micropartitions table
  /// lookup for locality spans, hash for random spans). Buckets missing
  /// from micropart_cache_ are fetched as one batch; a fetched bucket that
  /// names a pid outside the span is Corruption. Each distinct bucket
  /// served from micropart_cache_ counts what its cold read counts, as
  /// CountDecodedHit counts a point read.
  Result<std::vector<MicroPartitionId>> PidsOf(const MetaState& meta,
                                               const std::vector<NodeId>& ids,
                                               const tgi::TimespanMeta& span,
                                               FetchStats* stats);

  /// Reconstructed state of micro-partitions at time t (one Delta per input
  /// pid): tree path point reads + eventlist replay, optionally including
  /// aux replication rows. All pids' point reads go out as one batch.
  Result<std::vector<Delta>> FetchMicroStatesAt(
      const MetaState& meta, const tgi::TimespanMeta& span,
      const std::vector<MicroPartitionId>& pids, Timestamp t, bool include_aux,
      FetchStats* stats);

  // Internal (no-refresh) bodies of the public primitives, so composite
  // queries run every leg against one metadata snapshot.
  /// The snapshot at t starts from the span's root state: a hit skips the
  /// root's reads. On a miss the root rows are summed into the state, which
  /// is offered to the tier and merged the same way, unless the root is one
  /// row or its rows' stored bytes exceed a shard; then the rows merge as
  /// they are.
  Result<Delta> GetSnapshotDeltaWith(const MetaState& meta, Timestamp t,
                                     FetchStats* stats);
  Result<Delta> GetNodeStateDeltaWith(const MetaState& meta, NodeId id,
                                      Timestamp t, FetchStats* stats);
  Result<NodeHistory> GetNodeHistoryWith(const MetaState& meta, NodeId id,
                                         Timestamp from, Timestamp to,
                                         FetchStats* stats);
  /// Bulk body shared by GetNodeHistories and (with one id) GetNodeHistory,
  /// so single and set retrievals are the same code path by construction.
  Result<std::vector<NodeHistory>> GetNodeHistoriesWith(
      const MetaState& meta, const std::vector<NodeId>& ids, Timestamp from,
      Timestamp to, FetchStats* stats);

  /// The initial states of `ids` (unique): ids[u]'s is cut from
  /// states[state_of[u]], with one FilterByIds pass per state, run in
  /// parallel.
  std::vector<Delta> CutStates(const std::vector<Delta>& states,
                               const std::vector<NodeId>& ids,
                               const std::vector<size_t>& state_of);

  /// The histories of `ids` (unique) over (from, to], ids[u]'s starting
  /// from initials[u]: one merged version chain read per node, every
  /// eventlist those chains reference in range fetched once in one batch,
  /// then demultiplexed per node. The body GetNodeHistoriesWith and
  /// GetNodeHistoriesWhere share.
  Result<std::vector<NodeHistory>> AssembleHistories(
      const MetaState& meta, const std::vector<NodeId>& ids,
      std::vector<Delta> initials, Timestamp from, Timestamp to,
      FetchStats* stats);

  Cluster* cluster_;
  /// Atomic so set_fetch_parallelism can race in-flight queries (each fetch
  /// loop samples it once); plain size_t here was a data race under TSan.
  std::atomic<size_t> fetch_parallelism_;
  /// Atomic for the same reason: Open() may race EnsureFresh readers.
  std::atomic<bool> opened_{false};

  mutable Mutex meta_mu_;  ///< guards meta_ swaps/reads
  MetaRef meta_ GUARDED_BY(meta_mu_);

  /// Partition-delta cache over point reads and scans of the immutable
  /// index tables, keyed by (kind, epoch, table, partition, row key).
  std::unique_ptr<ReadCache> read_cache_;
  /// Decoded-object cache over the same coordinates (distinct kind bytes),
  /// holding immutable shared rows, scans, merged version chains and span
  /// root states; a Delta or EventList is charged its wire size.
  std::unique_ptr<DecodedCache> decoded_cache_;
  /// Serializes publish-triggered refreshes (metadata reload + cache
  /// sweep). Acquired before meta_mu_ / cache shard locks, never inside
  /// them — see the lock hierarchy in common/mutex.h.
  Mutex refresh_mu_;

  Mutex micropart_mu_;
  /// One decoded Micropartitions bucket, tagged with the sub-epoch of its
  /// partition at fill time so a stale fill (an in-flight old-epoch query
  /// racing a publish) is treated as a miss rather than served.
  struct MicropartBucket {
    uint64_t epoch = 0;
    size_t raw_bytes = 0;  ///< the bucket row's size; 0 when it is absent
    std::unordered_map<NodeId, MicroPartitionId> map;
  };
  // (tsid * buckets + bucket) -> decoded bucket; the key is the bucket
  // row's Micropartitions-table partition.
  std::unordered_map<uint64_t, MicropartBucket> micropart_cache_
      GUARDED_BY(micropart_mu_);

  std::atomic<uint64_t> entries_retained_{0};
  std::atomic<uint64_t> entries_invalidated_{0};
};

}  // namespace hgs

#endif  // HGS_TGI_QUERY_H_
