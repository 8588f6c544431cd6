// One simulated storage machine: an ordered in-memory store served by a
// bounded pool of server threads behind a request queue, with a latency model
// that charges a seek per request plus per-key and per-byte costs.
//
// The bounded server pool is what makes the simulation faithful to the
// paper's cluster experiments: a machine can only serve `server_threads`
// requests concurrently (the paper's Cassandra boxes had 4 cores), so client
// parallelism c saturates near m * server_threads — the knee visible in
// Figs 11/12.
//
// Every request consults the node's FaultInjector first: a crashed node
// fails everything, a transient fault fails this one request, slow-node and
// spike profiles add latency (waited even when the base latency model is
// off), and corruption flips a byte in a returned value copy — the resident
// data stays intact, modeling rot on the read path, and the cluster's
// per-value checksum turns it into a ChecksumMismatch failover.

#ifndef HGS_KVSTORE_STORAGE_NODE_H_
#define HGS_KVSTORE_STORAGE_NODE_H_

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "kvstore/fault_injector.h"
#include "kvstore/kv_types.h"

namespace hgs {

/// Simulated I/O cost parameters (microseconds / bytes-per-microsecond).
struct LatencyModel {
  /// Charged once per node request (network round trip + disk seek): a
  /// SubmitMultiGet or SubmitMultiScan batch pays it once for all its keys
  /// or prefixes.
  int64_t seek_micros = 250;
  /// Charged per key touched by a request.
  int64_t per_key_micros = 5;
  /// Simulated transfer bandwidth; charged per value byte returned.
  double bytes_per_micro = 120.0;  // ~120 MB/s
  /// When false, requests complete instantly (pure in-memory store).
  bool enabled = true;
  /// When true, writes are charged the same seek/per-key/per-byte costs as
  /// reads (a put is a round trip too). Off by default: the paper's
  /// evaluation measures retrieval, not construction, and the existing
  /// figure benches assume free writes. bench_ingest and hgsbench's
  /// live-ingest workload turn it on, so ingest pays one round trip per
  /// node batch.
  bool charge_writes = false;
  /// Wait implementation. Precise waits hit sub-millisecond deadlines by
  /// spinning the residue the OS sleep can't express (use when exact
  /// per-request latency matters and waiter concurrency is low). Coarse
  /// waits sleep only — no CPU burn, exact overlap, but latencies are
  /// quantized to the host's ~1ms sleep granularity.
  bool precise_wait = true;

  int64_t CostMicros(size_t keys, size_t bytes) const {
    if (!enabled) return 0;
    return seek_micros + per_key_micros * static_cast<int64_t>(keys) +
           static_cast<int64_t>(static_cast<double>(bytes) / bytes_per_micro);
  }
};

// The node's counters, which ResetStats zeroes. The write-side ones are the
// ingest path's FetchStats analogue: every write submission is one batch,
// so group-committed ingest shows put_batches << rows_put. max_serving
// counts reads and write batches alike, and is at most the node's server
// thread count.
// clang-format off
#define HGS_STORAGE_NODE_COUNTERS(X)                                      \
  X(get_requests)                                                         \
  X(scan_requests)                                                        \
  X(keys_read)                                                            \
  X(bytes_read)                                                           \
  X(simulated_micros)                                                     \
  X(put_batches)                                                          \
  X(rows_put)                                                             \
  X(bytes_put)                                                            \
  X(injected_faults)       /* requests the injector failed transiently */ \
  X(injected_corruptions)  /* values it corrupted on the way out */       \
  X(max_serving)           /* most requests ever in service at once */
// clang-format on

struct StorageNodeStats {
  HGS_STORAGE_NODE_COUNTERS(HGS_ATOMIC_COUNTER_FIELD)
  // Levels, outside the list: the resident value bytes, and the requests
  // in service right now.
  std::atomic<uint64_t> bytes_stored{0};
  std::atomic<uint64_t> serving{0};

  void Reset() { HGS_STORAGE_NODE_COUNTERS(HGS_ZERO_COUNTER) }
};

/// One row of a group-committed write batch. The value buffer is shared:
/// the cluster compresses each logical row once and every replica stores
/// the same buffer.
struct NodePutRow {
  std::string key;
  std::shared_ptr<const std::string> value;
};

class StorageNode {
 public:
  StorageNode(int node_id, size_t server_threads, LatencyModel latency);

  int node_id() const { return node_id_; }

  /// Batched point reads served as ONE request: the seek cost is charged
  /// once for the whole batch (per-key and per-byte costs still apply), and
  /// the batch counts as one get request in the stats. One Result per input
  /// key, in input order; absent keys yield NotFound. Values are zero-copy
  /// views of the node's resident buffers; the shared owner keeps a view
  /// valid across overwrites and deletes of its key.
  std::future<std::vector<Result<SharedValue>>> SubmitMultiGet(
      std::vector<std::string> keys);

  /// Batched prefix scans served as ONE request and charged like a
  /// SubmitMultiGet batch: one seek for the whole request, plus the per-key
  /// and per-byte costs of every pair it returns; the batch counts as one
  /// scan request in the stats. One Result per input prefix, in input
  /// order, each holding that prefix's pairs in key order. Values are
  /// zero-copy views of node memory, as SubmitMultiGet's.
  std::future<std::vector<Result<std::vector<KVPair>>>> SubmitMultiScan(
      std::vector<std::string> prefixes);

  /// Group commit: applies all rows under one lock acquisition and counts
  /// the whole batch as ONE write submission (one seek when writes are
  /// charged), mirroring SubmitMultiGet on the read side. Fails atomically
  /// (no row applied) on crash or transient fault. Synchronous; only
  /// charged simulated latency when the model's `charge_writes` is on.
  Status PutBatch(std::vector<NodePutRow> rows);

  /// PutBatch through the node's server pool, so one client can commit to
  /// several nodes concurrently (Cluster::MultiPut waits on the futures).
  std::future<Status> SubmitPutBatch(std::vector<NodePutRow> rows);

  /// Client-path delete: fails on crash/transient fault; otherwise
  /// *existed reports whether the key was present.
  Status Delete(const std::string& key, bool* existed = nullptr);

  /// Failure injection. SetDown is the crash switch (kept for
  /// compatibility; it toggles FaultProfile::crashed): a down node fails
  /// every request with IOError. Richer fault modes are installed through
  /// SetFaultProfile.
  void SetDown(bool down) { faults_.SetCrashed(down); }
  bool IsDown() const { return faults_.crashed(); }
  void SetFaultProfile(const FaultProfile& profile) {
    faults_.SetProfile(profile);
  }

  size_t NumKeys() const;

  /// Order-stable FNV-1a fingerprint of the resident contents (key and
  /// value bytes in key order). Test/diagnostic hook: two nodes holding
  /// byte-identical data fingerprint equal regardless of write order.
  uint64_t ContentFingerprint() const;

  // -- Admin channel (repair/anti-entropy) ---------------------------------
  // These bypass the server pool, the latency model, the fault injector and
  // the client write counters: they model the out-of-band streaming path a
  // real cluster uses for repair, and they work while the node is down.

  /// A point-in-time copy of the resident contents (keys copied, value
  /// buffers shared).
  std::vector<std::pair<std::string, std::shared_ptr<const std::string>>>
  SnapshotContents() const;

  /// Installs a row exactly as given (used by repair to stream a replica's
  /// authoritative copy).
  void RestoreRow(std::string key, std::shared_ptr<const std::string> value);

  /// Removes a row; true if it existed (used by repair to drop rows deleted
  /// while the node was away).
  bool EraseRow(const std::string& key);

  const StorageNodeStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  std::vector<Result<SharedValue>> DoMultiGet(
      const std::vector<std::string>& keys);
  std::vector<Result<std::vector<KVPair>>> DoMultiScan(
      const std::vector<std::string>& prefixes);
  /// Admits one read request of `items` keys or prefixes: the node's down
  /// error, a transient fault (charged as `items` keys), or OK with the
  /// injector's extra latency for the request in `*extra_micros`.
  Status AdmitRead(size_t items, int64_t* extra_micros);
  void ChargeLatency(size_t keys, size_t bytes, int64_t extra_micros = 0);
  Status TransientFault();
  Status DownError() const;
  /// Applies the injector's corruption draw to a value about to be
  /// returned: materializes a copy with one byte flipped (resident data is
  /// untouched).
  SharedValue MaybeCorrupt(SharedValue value);

  const int node_id_;
  LatencyModel latency_;
  mutable Mutex mu_;
  // Values are shared buffers so reads hand out views without copying;
  // an overwrite swaps in a new buffer while live views keep the old one.
  std::map<std::string, std::shared_ptr<const std::string>> data_
      GUARDED_BY(mu_);
  FaultInjector faults_;
  StorageNodeStats stats_;
  ThreadPool servers_;  // must be last: tasks reference the members above
};

}  // namespace hgs

#endif  // HGS_KVSTORE_STORAGE_NODE_H_
