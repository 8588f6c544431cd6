// The simulated distributed key-value store: m storage nodes, replication
// factor r, token-based placement. This is the repository's stand-in for the
// Apache Cassandra cluster of the paper (see "Substitutions" in README.md).
//
// Tables are namespaces within one keyspace (the paper's five TGI tables:
// Deltas, Versions, Timespans, Graph, Micropartitions). A row is addressed by
// (table, partition-token, key); all rows of one partition are clustered on
// the same replica set and can be prefix-scanned with one "seek".
//
// Fault tolerance (client side, mirroring a Cassandra coordinator):
//   * every stored value is sealed with a per-value checksum, verified on
//     read; a mismatch is a replica failure, not a query error;
//   * every read is a batch (Get and Scan are one-item MultiGet and
//     MultiScan calls) run in rounds by one replica loop: each round sends
//     every unsettled item to the replica it is on, one node request (one
//     seek) per node; an item retries transient errors with capped
//     exponential backoff and fails over across replicas on its own; slow
//     batches hedge a second-chance request to the items' next replicas
//     after `hedge_after_micros`; one deadline bounds the call, and each
//     call counts what it did into one FetchStats;
//   * writes honor an ack level (one/quorum/all) and queue hinted handoffs
//     for replicas that miss a write or delete; ReplayHints/RepairNode
//     bring a rejoined node back to byte-identical contents;
//   * a replica with pending hints is "dirty": the read path prefers clean
//     replicas and never treats a dirty replica's NotFound as authoritative.

#ifndef HGS_KVSTORE_CLUSTER_H_
#define HGS_KVSTORE_CLUSTER_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/compression.h"
#include "common/fetch_stats.h"
#include "common/mutex.h"
#include "common/result.h"
#include "kvstore/storage_node.h"

namespace hgs {

/// Write acknowledgment level (Cassandra consistency levels ONE / QUORUM /
/// ALL). A write that reaches fewer live replicas than the level requires
/// fails loudly; missed replicas get hints either way.
enum class WriteAck : uint8_t {
  kOne = 0,
  kQuorum = 1,
  kAll = 2,
};

struct ClusterOptions {
  /// Number of storage machines (the paper's m).
  size_t num_nodes = 1;
  /// Replication factor (the paper's r). Clamped to num_nodes and to
  /// kMaxReplicas.
  size_t replication = 1;
  /// Server threads per node (the paper's Cassandra boxes had 4 cores).
  size_t server_threads_per_node = 4;
  /// Value compression applied at write time (Fig 13a).
  CompressionKind compression = CompressionKind::kNone;
  LatencyModel latency;

  // -- Resilience knobs ------------------------------------------------------
  /// Replica acks required before a write reports success.
  WriteAck write_ack = WriteAck::kAll;
  /// Transient-error retries per replica before failing over (reads) or
  /// hinting (writes).
  size_t max_retries = 2;
  /// Capped exponential backoff between retries: base * 2^(attempt-1), at
  /// most 2 ms.
  int64_t retry_backoff_micros = 100;
  /// Wall-clock budget of one read call (Get, Scan, MultiGet or MultiScan,
  /// every round of retries, failovers and hedges included); 0 means
  /// unbounded. Exceeding it fails the call with an IOError mentioning the
  /// deadline.
  int64_t request_deadline_micros = 0;
  /// Hedged reads: when > 0 and a replica has not answered within this
  /// budget, fire a second-chance request at another replica and take
  /// whichever usable answer lands first. 0 disables hedging.
  int64_t hedge_after_micros = 0;
  /// Per-node hinted-handoff queue bound. Overflow drops the oldest hint
  /// and pins the node dirty until a full RepairNode.
  size_t hint_limit_per_node = 65'536;
};

/// One key of a batched read: the partition it lives in plus its logical
/// key within that partition.
struct MultiGetKey {
  uint64_t partition = 0;
  std::string key;
};

/// One prefix of a batched scan: the rows of `partition` in `table` whose
/// key begins with `prefix`. `table` is a view: the caller keeps it alive
/// for the call (the TGI tables are string constants).
struct MultiScanPrefix {
  std::string_view table;
  uint64_t partition = 0;
  std::string prefix;
};

/// One row of a batched write. `schema` declares what the value's payload
/// is (enables the kColumnar codec for rows the writer knows to be
/// canonical serializations); `codec` overrides the cluster-wide
/// compression for this row when set.
struct PutRow {
  uint64_t partition = 0;
  std::string key;
  std::string value;
  ValueSchema schema = ValueSchema::kOpaque;
  std::optional<CompressionKind> codec;
};

/// Replication is clamped to this (real deployments rarely exceed r=5);
/// keeping the bound small lets the replica set live inline on the stack in
/// the per-key hot loops instead of heap-allocating a vector.
inline constexpr size_t kMaxReplicas = 8;

/// Replica node indices for one token, primary first. Fixed-capacity
/// inline array — no allocation.
struct ReplicaSet {
  std::array<uint32_t, kMaxReplicas> nodes{};
  uint32_t count = 0;

  size_t size() const { return count; }
  uint32_t operator[](size_t i) const { return nodes[i]; }
  const uint32_t* begin() const { return nodes.data(); }
  const uint32_t* end() const { return nodes.data() + count; }
};

/// Cluster-lifetime resilience counters (atomic, aggregated like the
/// per-node read/write stats). Every read event counted here is also
/// counted into the FetchStats of the call it happened in.
struct ClusterResilienceStats {
  std::atomic<uint64_t> failovers{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> hedges{0};
  std::atomic<uint64_t> hedge_wins{0};
  std::atomic<uint64_t> checksum_failures{0};
  /// Writes that met their ack level but missed at least one replica.
  std::atomic<uint64_t> degraded_writes{0};
  /// Writes (rows) that failed to meet their ack level.
  std::atomic<uint64_t> failed_writes{0};
  std::atomic<uint64_t> hints_queued{0};
  std::atomic<uint64_t> hints_replayed{0};
  std::atomic<uint64_t> hints_dropped{0};
  /// Rows streamed (restored or erased) by RepairNode.
  std::atomic<uint64_t> repair_rows{0};
};

/// The publish-epoch map: an immutable snapshot of the index's visibility
/// state. `global` counts publishes; a scope absent from `sub` has never
/// been published and is at sub-epoch 0. Readers pin one EpochVectorRef for
/// the duration of a query and key their caches by `SubEpoch(scope)`, so a
/// publish that touched scopes {A, B} leaves every other scope's cache
/// entries valid.
struct EpochVector {
  uint64_t global = 0;
  /// Sorted by EpochKey; values are the epoch of the scope's last publish.
  std::vector<std::pair<EpochKey, uint64_t>> sub;

  uint64_t SubEpoch(EpochKey key) const {
    auto it = std::lower_bound(
        sub.begin(), sub.end(), key,
        [](const std::pair<EpochKey, uint64_t>& e, EpochKey k) {
          return e.first < k;
        });
    if (it != sub.end() && it->first == key) return it->second;
    return 0;
  }
};

using EpochVectorRef = std::shared_ptr<const EpochVector>;

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);

  /// A one-row MultiPut: writes to all replicas of the token's placement
  /// group. Succeeds when at least the configured ack level's replica
  /// count committed; replicas that missed the write get a hint. A met ack
  /// level with missed replicas counts as a degraded write. The value is
  /// stored opaque under the cluster-wide compression; MultiPut takes
  /// per-row schemas and codecs.
  Status Put(std::string_view table, uint64_t partition, std::string_view key,
             std::string_view value);

  /// Group-committed batch write: each row is compressed once, rows are
  /// grouped by replica storage node, and every node receives its whole
  /// group as ONE batched submission — the MultiGet batching discipline
  /// mirrored for writes. Replicas of a row share one value buffer. All
  /// node batches are committed concurrently through the nodes' server
  /// pools; failed node batches are retried with backoff, then hinted.
  /// Fails when any row misses its ack level.
  Status MultiPut(std::string_view table, std::vector<PutRow> rows);

  // Every read call adds what it did to `stats` when non-null, never
  // resetting it: one kv_batches per node request it submits, the value
  // copies of the answer it returns, and the failovers, retries, hedges,
  // hedge wins and checksum failures it caused (each also counted in
  // resilience()).

  /// A one-key MultiGet: NotFound when no replica holds the key. The
  /// returned value is a zero-copy view of the serving node's buffer
  /// (decompression of an uncompressed block is a header-stripping window;
  /// an LZ block materializes one shared buffer — the read path's only
  /// value copy).
  Result<SharedValue> Get(std::string_view table, uint64_t partition,
                          std::string_view key, FetchStats* stats = nullptr);

  /// Batched point reads. Each key reads one replica at a time (load-
  /// balanced over clean live replicas, dirty ones last), and each round
  /// sends the keys bound for one storage node as one node request, so the
  /// latency model charges one seek per node batch instead of one per key.
  /// A key retries transient errors on its replica, and fails over to its
  /// next replica on corrupt bytes (checksum verification), a crashed node,
  /// spent retries or a NotFound from a dirty replica (rejoined with hints
  /// pending); a clean replica's NotFound is authoritative. Slow node
  /// batches are hedged to the keys' alternate replicas when hedging is
  /// enabled. Every wait runs under the call's one deadline. Returns one
  /// entry per input key, in input order; absent keys yield nullopt. Any
  /// key that no replica can serve (none live, failover exhausted,
  /// deadline passed) fails the whole call.
  Result<std::vector<std::optional<SharedValue>>> MultiGet(
      std::string_view table, const std::vector<MultiGetKey>& keys,
      FetchStats* stats = nullptr);

  /// A one-prefix MultiScan: all pairs of the partition whose key begins
  /// with `key_prefix`, in key order. Keys returned are logical
  /// (table/token stripped); values are zero-copy views, as Get's.
  Result<std::vector<KVPair>> Scan(std::string_view table, uint64_t partition,
                                   std::string_view key_prefix,
                                   FetchStats* stats = nullptr);

  /// Batched prefix scans, possibly over several tables, through
  /// MultiGet's replica loop: per round one node request per serving node,
  /// so the latency model charges one seek per node batch instead of one
  /// per prefix. A scan answer is never an absence, so any replica's
  /// verified rows settle a prefix. Returns one entry per input prefix, in
  /// input order. Any prefix that no replica can serve fails the whole
  /// call.
  Result<std::vector<std::vector<KVPair>>> MultiScan(
      const std::vector<MultiScanPrefix>& prefixes,
      FetchStats* stats = nullptr);

  /// Deletes from all replicas, observing the write ack level like Put;
  /// replicas that miss the delete get a tombstone hint so the key cannot
  /// resurrect on rejoin. On success, the value reports whether any
  /// replica held the key.
  Result<bool> Delete(std::string_view table, uint64_t partition,
                      std::string_view key);

  // -- Failure injection and recovery ---------------------------------------

  /// Crash switch: a down node fails every request. Rejoining (down=false)
  /// does NOT clear pending hints — the node stays dirty until ReplayHints
  /// or RepairNode runs.
  void SetNodeDown(size_t node, bool down);

  /// Installs a scripted fault profile (transient errors, slow-node and
  /// spike latency, corruption, crash) on one node.
  void SetFaultProfile(size_t node, const FaultProfile& profile);

  /// Whether the node may be missing writes (hints pending, or hints were
  /// dropped on overflow). Dirty replicas are read last and their NotFound
  /// answers are never authoritative.
  bool NodeDirty(size_t node) const;

  /// Pending hinted-handoff entries queued for a node.
  size_t PendingHints(size_t node) const;

  /// Replays the node's hinted writes/deletes in order. On success (and if
  /// no hint was ever dropped) the node becomes clean. The node must be
  /// up; replay stops at the first hint that cannot be applied.
  Status ReplayHints(size_t node);

  /// Full anti-entropy: reconciles the node against its live peer
  /// replicas — streams differing/missing rows in, erases rows deleted
  /// while the node was away — and clears hints (repair supersedes them).
  /// Afterwards the node's ContentFingerprint matches a never-faulted
  /// twin's. The node must be up.
  Status RepairNode(size_t node);

  size_t num_nodes() const { return nodes_.size(); }
  size_t replication() const { return options_.replication; }
  const ClusterOptions& options() const { return options_; }

  /// Total stored bytes across nodes (replicas counted once each).
  uint64_t TotalStoredBytes() const;
  uint64_t TotalKeys() const;
  /// Aggregate read requests (gets + scans) across nodes.
  uint64_t TotalReadRequests() const;
  uint64_t TotalBytesRead() const;
  /// Aggregate write-side counters across nodes (replica writes counted at
  /// every replica): write submissions, rows written, value bytes written.
  uint64_t TotalPutBatches() const;
  uint64_t TotalRowsPut() const;
  uint64_t TotalBytesPut() const;
  /// Order-stable fingerprint of all resident contents, per node. Two
  /// clusters loaded with byte-identical data compare equal regardless of
  /// the order or batching of the writes that produced them.
  uint64_t ContentFingerprint() const;
  /// Fingerprint of one node's resident contents (chaos tests compare a
  /// killed/rejoined/repaired node against its never-faulted twin).
  uint64_t NodeContentFingerprint(size_t node) const;

  /// Lifetime resilience counters (failovers, retries, hedges, checksum
  /// failures, degraded writes, hint traffic).
  const ClusterResilienceStats& resilience() const { return resilience_; }
  void ResetStats();

  /// The current publish-epoch map. The returned snapshot is immutable;
  /// publishes swap in a fresh copy, so a pinned ref stays internally
  /// consistent across concurrent publishes.
  EpochVectorRef epochs() const EXCLUDES(epoch_mu_) {
    MutexLock lock(epoch_mu_);
    return epochs_;
  }

  /// The global publish counter: bumped by every PublishTouched.
  uint64_t publish_epoch() const { return epochs()->global; }

  /// Scoped publish: advances the global epoch and copies-on-write only
  /// the touched scopes' sub-epochs. Cache entries keyed under any other
  /// scope's sub-epoch remain valid.
  void PublishTouched(std::vector<EpochKey> touched);

 private:
  using Deadline = std::optional<std::chrono::steady_clock::time_point>;

  /// One hinted write (value set) or delete (value null = tombstone).
  struct Hint {
    std::string key;
    std::shared_ptr<const std::string> value;
  };

  /// Cluster-side per-node client state: the hinted-handoff queue and the
  /// dirty flag the read path consults.
  struct NodeClientState {
    mutable Mutex mu;
    std::deque<Hint> hints GUARDED_BY(mu);
    // A hint was dropped; only RepairNode cleans.
    bool overflowed GUARDED_BY(mu) = false;
    // Lock-free mirror of "hints pending or overflowed" for the read path.
    std::atomic<bool> dirty{false};
  };

  std::string PhysicalKey(std::string_view table, uint64_t partition,
                          std::string_view key) const;
  ReplicaSet Replicas(uint64_t token) const;
  size_t RequiredAcks(size_t n_replicas) const;
  Deadline MakeDeadline() const;
  static bool DeadlinePassed(const Deadline& d);
  Status DeadlineError(const Status& last) const;
  void Backoff(size_t attempt, const Deadline& deadline) const;

  /// Seals (checksums) the compressed bytes of one logical value, encoding
  /// with `codec` (or the cluster-wide compression when unset) under the
  /// writer-declared `schema`.
  std::shared_ptr<const std::string> SealForStorage(
      std::string_view value, ValueSchema schema,
      std::optional<CompressionKind> codec) const;

  /// Commits one hinted row to one node with transient-error retries; a
  /// final failure leaves the hint to ReplayHints, which requeues it.
  Status WriteRowToNode(size_t node, const std::string& phys,
                        const std::shared_ptr<const std::string>& value);

  void EnqueueHint(size_t node, std::string phys,
                   std::shared_ptr<const std::string> value);
  /// Drops queued hints superseded by a newer committed write/delete of
  /// the same keys.
  void SupersedeHints(size_t node, const std::string& phys);

  /// One item of a batched read: the replicas that hold it and its
  /// physical key (a point read's key or a scan's prefix).
  struct BatchItem {
    ReplicaSet replicas;
    std::string phys;
  };

  /// The one read loop behind every read (T is SharedValue for point
  /// reads, std::vector<KVPair> for prefix scans), run in rounds. Each item
  /// walks its own replicas in serving order; each round sends every
  /// unsettled item to the replica it is on, the items bound for one node
  /// as one node request, and moves each item along its loop by its answer
  /// as MultiGet describes, with one capped backoff step per round that
  /// retried an item. A batch still unanswered after hedge_after_micros is
  /// hedged: its items regroup by their next live replica into
  /// second-chance batches, and a hedge answer replaces the primary's only
  /// when it is a value or an absence. Every wait honours the call's one
  /// deadline. Returns one entry per item, nullopt for an absent key.
  template <typename T>
  Result<std::vector<std::optional<T>>> BatchedRead(
      const std::vector<BatchItem>& items, FetchStats* stats);

  /// The first live replica other than `primary` (where a hedge goes), or
  /// num_nodes() when there is none.
  size_t HedgeTarget(const ReplicaSet& replicas, size_t primary) const;

  /// Orders the live replicas of `replicas` for serving: clean nodes first
  /// (rotated by the load-balancing counter), dirty nodes last. Returns
  /// the number of candidates written into `order`.
  size_t ServingOrder(const ReplicaSet& replicas,
                      std::array<uint32_t, kMaxReplicas>* order) const;

  void CountFailover(FetchStats* s);
  void CountRetry(FetchStats* s);
  void CountChecksumFailure(FetchStats* s);
  void CountHedge(FetchStats* s);
  void CountHedgeWin(FetchStats* s);

  /// Delete one row on one node with transient-error retries.
  Status DeleteRowFromNode(size_t node, const std::string& phys,
                           bool* existed = nullptr);

  ClusterOptions options_;
  std::vector<std::unique_ptr<StorageNode>> nodes_;
  std::vector<std::unique_ptr<NodeClientState>> node_state_;
  // Replica load balancing; mutable so const read-path helpers can rotate.
  mutable std::atomic<uint64_t> read_counter_{0};
  ClusterResilienceStats resilience_;
  mutable Mutex epoch_mu_;
  EpochVectorRef epochs_ GUARDED_BY(epoch_mu_) =
      std::make_shared<const EpochVector>();
};

}  // namespace hgs

#endif  // HGS_KVSTORE_CLUSTER_H_
