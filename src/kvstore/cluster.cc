#include "kvstore/cluster.h"

#include <algorithm>
#include <future>
#include <thread>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"

namespace hgs {

namespace {

/// Granularity of the hedged-read race and deadline polls. Coarse enough to
/// stay off the scheduler's back, fine relative to the millisecond-scale
/// latencies the simulation deals in.
constexpr auto kPollQuantum = std::chrono::microseconds(100);

/// Upper bound of the exponential retry backoff.
constexpr int64_t kRetryBackoffCapMicros = 2'000;

/// Verifies and strips the checksum of every value of a replica's answer,
/// in place. A failure means corrupt bytes: a replica failure.
Status Unseal(SharedValue* value) {
  HGS_ASSIGN_OR_RETURN(*value, UnsealValue(*value));
  return Status::OK();
}

Status Unseal(std::vector<KVPair>* rows) {
  for (KVPair& kv : *rows) HGS_RETURN_NOT_OK(Unseal(&kv.value));
  return Status::OK();
}

/// Decompresses every value of a verified answer in place, into zero-copy
/// windows where the codec allows; each value the codec had to materialize
/// counts one value copy.
Status DecompressInPlace(SharedValue* value, FetchStats* stats) {
  HGS_ASSIGN_OR_RETURN(SharedValue out, DecompressShared(*value));
  if (out.owner() != value->owner()) ++stats->value_copies;
  *value = std::move(out);
  return Status::OK();
}

Status DecompressInPlace(std::vector<KVPair>* rows, FetchStats* stats) {
  for (KVPair& kv : *rows) {
    HGS_RETURN_NOT_OK(DecompressInPlace(&kv.value, stats));
  }
  return Status::OK();
}

/// Waits for `fut` until it is ready or `deadline` passes, polling so an
/// abandoned request cannot hold the caller; false on the deadline.
template <typename Future>
bool AwaitUntil(
    const Future& fut,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  if (!deadline.has_value()) {
    fut.wait();
    return true;
  }
  while (fut.wait_for(kPollQuantum) != std::future_status::ready) {
    if (std::chrono::steady_clock::now() >= *deadline) return false;
  }
  return true;
}

/// Recovers the placement token embedded in a physical key
/// (table \0 token(8B ordered) key), so repair can re-derive a stored
/// row's replica set without knowing which logical table wrote it.
std::optional<uint64_t> TokenOfPhysicalKey(std::string_view phys) {
  size_t z = phys.find('\0');
  if (z == std::string_view::npos || z + 1 + 8 > phys.size()) {
    return std::nullopt;
  }
  return ReadOrdered64(phys.data() + z + 1);
}

bool Contains(const ReplicaSet& replicas, size_t node) {
  for (uint32_t r : replicas) {
    if (r == node) return true;
  }
  return false;
}

/// A scan's rows with logical keys (table and token stripped), in a
/// right-sized vector: callers such as the byte cache keep the answer, and
/// charge it by its key and value sizes.
std::vector<KVPair> LogicalRows(std::string_view table,
                                std::vector<KVPair> rows) {
  const size_t strip = table.size() + 1 + 8;  // logical key offset
  std::vector<KVPair> out;
  out.reserve(rows.size());
  for (KVPair& kv : rows) {
    out.push_back(KVPair{kv.key.substr(strip), std::move(kv.value)});
  }
  return out;
}

}  // namespace

Cluster::Cluster(ClusterOptions options) : options_(options) {
  if (options_.num_nodes == 0) options_.num_nodes = 1;
  if (options_.replication == 0) options_.replication = 1;
  options_.replication =
      std::min({options_.replication, options_.num_nodes, kMaxReplicas});
  nodes_.reserve(options_.num_nodes);
  node_state_.reserve(options_.num_nodes);
  for (size_t i = 0; i < options_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<StorageNode>(
        static_cast<int>(i), options_.server_threads_per_node,
        options_.latency));
    node_state_.push_back(std::make_unique<NodeClientState>());
  }
}

std::string Cluster::PhysicalKey(std::string_view table, uint64_t partition,
                                 std::string_view key) const {
  // table \0 token(8B ordered) key — scanning a (table, token) prefix yields
  // the clustered rows of one partition in key order.
  std::string out;
  out.reserve(table.size() + 1 + 8 + key.size());
  out.append(table);
  out.push_back('\0');
  AppendOrdered64(&out, PlacementToken(table, partition));
  out.append(key);
  return out;
}

ReplicaSet Cluster::Replicas(uint64_t token) const {
  ReplicaSet out;
  size_t primary = static_cast<size_t>(token % nodes_.size());
  for (size_t i = 0; i < options_.replication; ++i) {
    out.nodes[out.count++] =
        static_cast<uint32_t>((primary + i) % nodes_.size());
  }
  return out;
}

size_t Cluster::RequiredAcks(size_t n_replicas) const {
  switch (options_.write_ack) {
    case WriteAck::kOne:
      return n_replicas == 0 ? 0 : 1;
    case WriteAck::kQuorum:
      return n_replicas / 2 + 1;
    case WriteAck::kAll:
      return n_replicas;
  }
  return n_replicas;
}

Cluster::Deadline Cluster::MakeDeadline() const {
  if (options_.request_deadline_micros <= 0) return std::nullopt;
  return std::chrono::steady_clock::now() +
         std::chrono::microseconds(options_.request_deadline_micros);
}

bool Cluster::DeadlinePassed(const Deadline& d) {
  return d.has_value() && std::chrono::steady_clock::now() >= *d;
}

Status Cluster::DeadlineError(const Status& last) const {
  std::string msg = "request deadline exceeded (" +
                    std::to_string(options_.request_deadline_micros) + "us)";
  if (!last.ok()) msg += "; last replica error: " + last.ToString();
  return Status::IOError(std::move(msg));
}

void Cluster::Backoff(size_t attempt, const Deadline& deadline) const {
  int64_t us = options_.retry_backoff_micros;
  for (size_t i = 1; i < attempt && us < kRetryBackoffCapMicros; ++i) {
    us *= 2;
  }
  us = std::min(us, kRetryBackoffCapMicros);
  if (deadline.has_value()) {
    auto remain = std::chrono::duration_cast<std::chrono::microseconds>(
                      *deadline - std::chrono::steady_clock::now())
                      .count();
    us = std::min(us, remain);
  }
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

std::shared_ptr<const std::string> Cluster::SealForStorage(
    std::string_view value, ValueSchema schema,
    std::optional<CompressionKind> codec) const {
  return std::make_shared<const std::string>(SealValue(
      Compress(value, codec.value_or(options_.compression), schema)));
}

// -- Hinted handoff ----------------------------------------------------------

void Cluster::EnqueueHint(size_t node, std::string phys,
                          std::shared_ptr<const std::string> value) {
  NodeClientState& st = *node_state_[node];
  MutexLock lock(st.mu);
  if (st.hints.size() >= options_.hint_limit_per_node) {
    // Bounded queue: drop the oldest hint. The node can no longer be made
    // whole by replay alone — only RepairNode clears the overflow.
    st.hints.pop_front();
    st.overflowed = true;
    resilience_.hints_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  st.hints.push_back(Hint{std::move(phys), std::move(value)});
  st.dirty.store(true, std::memory_order_relaxed);
  resilience_.hints_queued.fetch_add(1, std::memory_order_relaxed);
}

void Cluster::SupersedeHints(size_t node, const std::string& phys) {
  NodeClientState& st = *node_state_[node];
  if (!st.dirty.load(std::memory_order_relaxed)) return;
  MutexLock lock(st.mu);
  st.hints.erase(std::remove_if(st.hints.begin(), st.hints.end(),
                                [&phys](const Hint& h) {
                                  return h.key == phys;
                                }),
                 st.hints.end());
  if (st.hints.empty() && !st.overflowed) {
    st.dirty.store(false, std::memory_order_relaxed);
  }
}

bool Cluster::NodeDirty(size_t node) const {
  return node < node_state_.size() &&
         node_state_[node]->dirty.load(std::memory_order_relaxed);
}

size_t Cluster::PendingHints(size_t node) const {
  if (node >= node_state_.size()) return 0;
  MutexLock lock(node_state_[node]->mu);
  return node_state_[node]->hints.size();
}

Status Cluster::ReplayHints(size_t node) {
  if (node >= nodes_.size()) return Status::InvalidArgument("no such node");
  if (nodes_[node]->IsDown()) {
    return Status::FailedPrecondition(
        "node is down; rejoin it before replaying hints");
  }
  NodeClientState& st = *node_state_[node];
  while (true) {
    Hint hint;
    {
      MutexLock lock(st.mu);
      if (st.hints.empty()) break;
      hint = std::move(st.hints.front());
      st.hints.pop_front();
    }
    // Hints replay in queue order, so a later write of the same key lands
    // last and the node converges to the newest value.
    Status applied = hint.value == nullptr
                         ? DeleteRowFromNode(node, hint.key)
                         : WriteRowToNode(node, hint.key, hint.value);
    if (!applied.ok()) {
      // Node unreachable again mid-replay: put the hint back and report.
      MutexLock lock(st.mu);
      st.hints.push_front(std::move(hint));
      return applied;
    }
    resilience_.hints_replayed.fetch_add(1, std::memory_order_relaxed);
  }
  MutexLock lock(st.mu);
  if (st.hints.empty() && !st.overflowed) {
    st.dirty.store(false, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status Cluster::RepairNode(size_t target) {
  if (target >= nodes_.size()) return Status::InvalidArgument("no such node");
  if (nodes_[target]->IsDown()) {
    return Status::FailedPrecondition(
        "node is down; rejoin it before repairing");
  }
  NodeClientState& st = *node_state_[target];
  {
    // Full reconciliation supersedes any queued hints (and recovers from
    // hint overflow — this is the only path that clears it).
    MutexLock lock(st.mu);
    st.hints.clear();
    st.overflowed = false;
  }

  // Authoritative contents the target should hold, assembled from live
  // peers. Replicas store identical sealed buffers, so any live holder is
  // authoritative; the first live peer holding a row wins.
  std::unordered_map<std::string, std::shared_ptr<const std::string>> expected;
  for (size_t peer = 0; peer < nodes_.size(); ++peer) {
    if (peer == target || nodes_[peer]->IsDown()) continue;
    for (auto& [key, value] : nodes_[peer]->SnapshotContents()) {
      std::optional<uint64_t> token = TokenOfPhysicalKey(key);
      if (!token.has_value()) continue;
      if (!Contains(Replicas(*token), target)) continue;
      expected.emplace(key, value);
    }
  }

  uint64_t streamed = 0;
  // Rows the target holds that no live peer says it should hold were
  // deleted while the target was away. Erase only when some live peer is
  // itself a replica for the row (so an authoritative view existed);
  // otherwise the target may be the sole surviving holder — keep the row.
  for (auto& [key, value] : nodes_[target]->SnapshotContents()) {
    auto it = expected.find(key);
    if (it != expected.end()) {
      if (*it->second == *value) {
        expected.erase(it);  // already correct; nothing to stream
      }
      continue;  // differs: restored below
    }
    std::optional<uint64_t> token = TokenOfPhysicalKey(key);
    if (!token.has_value()) continue;
    for (uint32_t r : Replicas(*token)) {
      if (r != target && !nodes_[r]->IsDown()) {
        nodes_[target]->EraseRow(key);
        ++streamed;
        break;
      }
    }
  }
  // Stream in missing and differing rows, sharing the peer's exact buffer
  // so the repaired node ends byte-identical to a never-faulted twin.
  for (auto& [key, value] : expected) {
    nodes_[target]->RestoreRow(key, value);
    ++streamed;
  }
  resilience_.repair_rows.fetch_add(streamed, std::memory_order_relaxed);
  st.dirty.store(false, std::memory_order_relaxed);
  return Status::OK();
}

// -- Writes ------------------------------------------------------------------

Status Cluster::WriteRowToNode(
    size_t node, const std::string& phys,
    const std::shared_ptr<const std::string>& value) {
  StorageNode* n = nodes_[node].get();
  for (size_t attempt = 0;; ++attempt) {
    std::vector<NodePutRow> rows;
    rows.push_back(NodePutRow{phys, value});
    Status st = n->PutBatch(std::move(rows));
    if (st.ok()) return st;
    if (n->IsDown() || attempt >= options_.max_retries) return st;
    resilience_.retries.fetch_add(1, std::memory_order_relaxed);
    Backoff(attempt + 1, std::nullopt);
  }
}

Status Cluster::DeleteRowFromNode(size_t node, const std::string& phys,
                                  bool* existed) {
  StorageNode* n = nodes_[node].get();
  for (size_t attempt = 0;; ++attempt) {
    Status st = n->Delete(phys, existed);
    if (st.ok()) return st;
    if (n->IsDown() || attempt >= options_.max_retries) return st;
    resilience_.retries.fetch_add(1, std::memory_order_relaxed);
    Backoff(attempt + 1, std::nullopt);
  }
}

Status Cluster::Put(std::string_view table, uint64_t partition,
                    std::string_view key, std::string_view value) {
  std::vector<PutRow> rows;
  rows.push_back(PutRow{partition, std::string(key), std::string(value),
                        ValueSchema::kOpaque, std::nullopt});
  return MultiPut(table, std::move(rows));
}

Status Cluster::MultiPut(std::string_view table, std::vector<PutRow> rows) {
  if (rows.empty()) return Status::OK();

  // Seal each row once — compression and checksum, a pure function of the
  // row, so the rows seal in parallel on the shared work pool — and fan
  // the shared buffer out to its replicas' node groups.
  struct SealedRow {
    std::string phys;
    std::shared_ptr<const std::string> value;
    uint8_t replicas;
  };
  std::vector<SealedRow> sealed(rows.size());
  ParallelFor(rows.size(), std::thread::hardware_concurrency(),
              [&](size_t i) {
                const PutRow& row = rows[i];
                sealed[i].phys = PhysicalKey(table, row.partition, row.key);
                sealed[i].value =
                    SealForStorage(row.value, row.schema, row.codec);
              });
  std::unordered_map<size_t, std::vector<size_t>> by_node;  // node -> rows
  for (size_t i = 0; i < rows.size(); ++i) {
    ReplicaSet replicas = Replicas(PlacementToken(table, rows[i].partition));
    sealed[i].replicas = static_cast<uint8_t>(replicas.size());
    for (uint32_t node : replicas) by_node[node].push_back(i);
  }

  auto build_batch = [&sealed](const std::vector<size_t>& idxs) {
    std::vector<NodePutRow> batch;
    batch.reserve(idxs.size());
    for (size_t i : idxs) {
      batch.push_back(NodePutRow{sealed[i].phys, sealed[i].value});
    }
    return batch;
  };

  // One concurrent batched submission per node: group commit.
  std::vector<
      std::tuple<size_t, std::vector<size_t>, std::future<Status>>>
      inflight;
  inflight.reserve(by_node.size());
  for (auto& [node, idxs] : by_node) {
    std::future<Status> fut = nodes_[node]->SubmitPutBatch(build_batch(idxs));
    inflight.emplace_back(node, std::move(idxs), std::move(fut));
  }

  std::vector<uint32_t> acks(sealed.size(), 0);
  for (auto& [node, idxs, fut] : inflight) {
    Status st = fut.get();
    // A failed node batch is retried synchronously with backoff (the other
    // nodes have already committed by now), then hinted row by row.
    for (size_t attempt = 0;
         !st.ok() && !nodes_[node]->IsDown() && attempt < options_.max_retries;
         ++attempt) {
      resilience_.retries.fetch_add(1, std::memory_order_relaxed);
      Backoff(attempt + 1, std::nullopt);
      st = nodes_[node]->PutBatch(build_batch(idxs));
    }
    if (st.ok()) {
      if (node_state_[node]->dirty.load(std::memory_order_relaxed)) {
        for (size_t i : idxs) SupersedeHints(node, sealed[i].phys);
      }
      for (size_t i : idxs) ++acks[i];
    } else {
      for (size_t i : idxs) EnqueueHint(node, sealed[i].phys, sealed[i].value);
    }
  }

  size_t failed_rows = 0;
  size_t degraded_rows = 0;
  for (size_t i = 0; i < sealed.size(); ++i) {
    size_t required = RequiredAcks(sealed[i].replicas);
    if (acks[i] < required) {
      ++failed_rows;
    } else if (acks[i] < sealed[i].replicas) {
      ++degraded_rows;
    }
  }
  if (degraded_rows > 0) {
    resilience_.degraded_writes.fetch_add(degraded_rows,
                                          std::memory_order_relaxed);
  }
  if (failed_rows > 0) {
    resilience_.failed_writes.fetch_add(failed_rows,
                                        std::memory_order_relaxed);
    return Status::IOError("multiput: " + std::to_string(failed_rows) +
                           " of " + std::to_string(sealed.size()) +
                           " rows missed their ack level; missed replicas "
                           "hinted");
  }
  return Status::OK();
}

Result<bool> Cluster::Delete(std::string_view table, uint64_t partition,
                             std::string_view key) {
  std::string phys = PhysicalKey(table, partition, key);
  ReplicaSet replicas = Replicas(PlacementToken(table, partition));
  size_t acks = 0;
  bool any = false;
  for (uint32_t node : replicas) {
    bool existed = false;
    Status st = DeleteRowFromNode(node, phys, &existed);
    if (st.ok()) {
      ++acks;
      any |= existed;
      // The delete also obsoletes any queued (older) write hint for the key.
      SupersedeHints(node, phys);
    } else {
      // Tombstone hint: replay must delete, or the key would resurrect on
      // rejoin.
      EnqueueHint(node, phys, nullptr);
    }
  }
  const size_t required = RequiredAcks(replicas.size());
  if (acks < required) {
    resilience_.failed_writes.fetch_add(1, std::memory_order_relaxed);
    return Status::IOError("delete acked by " + std::to_string(acks) + " of " +
                           std::to_string(replicas.size()) + " replicas (" +
                           std::to_string(required) +
                           " required); missed replicas hinted");
  }
  if (acks < replicas.size()) {
    resilience_.degraded_writes.fetch_add(1, std::memory_order_relaxed);
  }
  return any;
}

// -- Reads -------------------------------------------------------------------

size_t Cluster::ServingOrder(const ReplicaSet& replicas,
                             std::array<uint32_t, kMaxReplicas>* order) const {
  size_t n = replicas.size();
  size_t start = read_counter_.fetch_add(1, std::memory_order_relaxed) % n;
  // Snapshot each replica's state once so a concurrent dirty-flag flip
  // can't make a node appear in both passes (or neither).
  std::array<uint8_t, kMaxReplicas> state{};  // 0 live+clean, 1 dirty, 2 down
  for (size_t i = 0; i < n; ++i) {
    uint32_t node = replicas[i];
    state[i] = nodes_[node]->IsDown() ? 2 : (NodeDirty(node) ? 1 : 0);
  }
  size_t count = 0;
  // Clean live replicas first (rotated for load balancing) ...
  for (size_t i = 0; i < n; ++i) {
    size_t slot = (start + i) % n;
    if (state[slot] == 0) (*order)[count++] = replicas[slot];
  }
  // ... dirty live replicas as a last resort: they may be missing writes,
  // so they only serve when no clean replica is available.
  for (size_t i = 0; i < n; ++i) {
    size_t slot = (start + i) % n;
    if (state[slot] == 1) (*order)[count++] = replicas[slot];
  }
  return count;
}

size_t Cluster::HedgeTarget(const ReplicaSet& replicas, size_t primary) const {
  for (uint32_t r : replicas) {
    if (r != primary && !nodes_[r]->IsDown()) return r;
  }
  return nodes_.size();
}

template <typename T>
Result<std::vector<std::optional<T>>> Cluster::BatchedRead(
    const std::vector<BatchItem>& items, FetchStats* caller) {
  FetchStats call;
  Result<std::vector<std::optional<T>>> out = ReadRounds<T>(items, &call);
  resilience_.AddReadEvents(call);
  if (caller != nullptr) caller->Merge(call);
  return out;
}

template <typename T>
Result<std::vector<std::optional<T>>> Cluster::ReadRounds(
    const std::vector<BatchItem>& items, FetchStats* stats) {
  std::vector<std::optional<T>> out(items.size());
  Deadline deadline = MakeDeadline();

  // Each item's own replica loop: its live replicas in serving order, the
  // one it is on, the retries spent there and the last replica error.
  struct Loop {
    std::array<uint32_t, kMaxReplicas> order{};
    size_t candidates = 0;
    size_t at = 0;
    size_t attempt = 0;
    Status last;
  };
  std::vector<Loop> loops(items.size());
  std::vector<size_t> pending(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    loops[i].candidates = ServingOrder(items[i].replicas, &loops[i].order);
    if (loops[i].candidates == 0) {
      return Status::IOError("no live replica for key");
    }
    pending[i] = i;
  }

  // One node request for a group of items (indices into `items`).
  struct Batch {
    size_t node;
    std::vector<size_t> idxs;
    std::future<std::vector<Result<T>>> fut;
  };
  // Sends `idxs` as one request per node, node_of(i) naming item i's node
  // (num_nodes() for none).
  auto submit = [&](const std::vector<size_t>& idxs, auto node_of) {
    std::vector<std::vector<size_t>> by_node(nodes_.size());
    for (size_t i : idxs) {
      size_t node = node_of(i);
      if (node < nodes_.size()) by_node[node].push_back(i);
    }
    std::vector<Batch> batches;
    for (size_t node = 0; node < by_node.size(); ++node) {
      if (by_node[node].empty()) continue;
      std::vector<std::string> phys;
      phys.reserve(by_node[node].size());
      for (size_t i : by_node[node]) phys.push_back(items[i].phys);
      ++stats->kv_batches;
      std::future<std::vector<Result<T>>> fut;
      if constexpr (std::is_same_v<T, SharedValue>) {
        fut = nodes_[node]->SubmitMultiGet(std::move(phys));
      } else {
        fut = nodes_[node]->SubmitMultiScan(std::move(phys));
      }
      batches.push_back(Batch{node, std::move(by_node[node]), std::move(fut)});
    }
    return batches;
  };

  // This round's answer for each item and the node that gave it.
  std::vector<std::optional<Result<T>>> answer(items.size());
  std::vector<size_t> answered_by(items.size());
  std::vector<size_t> next;  // items the round left unsettled
  size_t backoff = 0;        // the most retries an item of `next` has spent

  // Moves item i along its replica loop on this round's answer. An item
  // out of replicas is absent after a NotFound and fails the call
  // otherwise.
  auto step = [&](size_t i) -> Status {
    Loop& l = loops[i];
    Result<T> res = std::move(*answer[i]);
    answer[i].reset();
    if (res.ok()) {
      l.last = Unseal(&*res);
      if (l.last.ok()) {
        HGS_RETURN_NOT_OK(DecompressInPlace(&*res, stats));
        out[i] = std::move(*res);
        return Status::OK();
      }
      // Corrupt bytes (one bad row spoils a whole scan): a replica
      // failure, not a query error. Fail over.
      ++stats->checksum_failures;
    } else {
      l.last = res.status();
      if (l.last.IsNotFound()) {
        // NotFound from a clean replica is authoritative. A dirty replica
        // (rejoined with hints pending) may have missed the key: fail over.
        if (!NodeDirty(answered_by[i])) return Status::OK();
      } else if (!nodes_[l.order[l.at]]->IsDown() &&
                 l.attempt < options_.max_retries) {
        // A transient error on a live replica: retry it next round.
        ++stats->retries;
        backoff = std::max(backoff, ++l.attempt);
        next.push_back(i);
        return Status::OK();
      }
    }
    if (++l.at == l.candidates) {
      return l.last.IsNotFound() ? Status::OK() : l.last;
    }
    ++stats->failovers;
    l.attempt = 0;
    next.push_back(i);
    return Status::OK();
  };

  const int64_t hedge_us = options_.hedge_after_micros;
  while (!pending.empty()) {
    if (DeadlinePassed(deadline)) {
      return DeadlineError(loops[pending.front()].last);
    }
    std::vector<Batch> inflight = submit(
        pending, [&](size_t i) { return loops[i].order[loops[i].at]; });
    const auto hedge_at = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(hedge_us);
    for (Batch& b : inflight) {
      // A batch still unanswered `hedge_after_micros` after its round was
      // sent is hedged: its items regroup by each item's next live replica
      // and second-chance batches go there. Every batch of a round shares
      // the one timer, so k slow nodes cost one hedge delay, not k.
      std::vector<Batch> hedges;
      if (hedge_us > 0 &&
          b.fut.wait_until(hedge_at) != std::future_status::ready) {
        hedges = submit(b.idxs, [&](size_t i) {
          return HedgeTarget(items[i].replicas, b.node);
        });
        stats->hedges += hedges.size();
      }

      // Wait for the primary batch, or for every hedge batch to answer
      // first, never past the deadline. A hedge answer is its item's when
      // it is a value or an absence, and a batch that gave one wins.
      bool hedged = false;
      while (!hedges.empty() &&
             b.fut.wait_for(kPollQuantum) != std::future_status::ready) {
        hedged = std::all_of(hedges.begin(), hedges.end(), [](const Batch& h) {
          return h.fut.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready;
        });
        if (hedged) break;
        if (DeadlinePassed(deadline)) return DeadlineError(Status::OK());
      }
      if (hedged) {
        for (Batch& h : hedges) {
          std::vector<Result<T>> got = h.fut.get();
          bool won = false;
          for (size_t j = 0; j < h.idxs.size(); ++j) {
            if (!got[j].ok() && !got[j].status().IsNotFound()) continue;
            answer[h.idxs[j]] = std::move(got[j]);
            answered_by[h.idxs[j]] = h.node;
            won = true;
          }
          if (won) ++stats->hedge_wins;
        }
      }
      // The other items take the primary's answer; when every item has a
      // hedge answer the slow primary batch is abandoned.
      if (std::any_of(b.idxs.begin(), b.idxs.end(),
                      [&](size_t i) { return !answer[i].has_value(); })) {
        if (!AwaitUntil(b.fut, deadline)) return DeadlineError(Status::OK());
        std::vector<Result<T>> got = b.fut.get();
        for (size_t j = 0; j < b.idxs.size(); ++j) {
          if (answer[b.idxs[j]].has_value()) continue;
          answer[b.idxs[j]] = std::move(got[j]);
          answered_by[b.idxs[j]] = b.node;
        }
      }
      for (size_t i : b.idxs) HGS_RETURN_NOT_OK(step(i));
    }
    // One capped backoff step per round that retries an item.
    if (backoff > 0) Backoff(backoff, deadline);
    backoff = 0;
    pending.swap(next);
    next.clear();
  }
  return out;
}

Result<SharedValue> Cluster::Get(std::string_view table, uint64_t partition,
                                 std::string_view key, FetchStats* stats) {
  HGS_ASSIGN_OR_RETURN(
      std::vector<std::optional<SharedValue>> values,
      MultiGet(table, {MultiGetKey{partition, std::string(key)}}, stats));
  if (!values[0].has_value()) return Status::NotFound("key not found");
  return std::move(*values[0]);
}

Result<std::vector<std::optional<SharedValue>>> Cluster::MultiGet(
    std::string_view table, const std::vector<MultiGetKey>& keys,
    FetchStats* stats) {
  std::vector<BatchItem> items;
  items.reserve(keys.size());
  for (const MultiGetKey& k : keys) {
    items.push_back(BatchItem{Replicas(PlacementToken(table, k.partition)),
                              PhysicalKey(table, k.partition, k.key)});
  }
  return BatchedRead<SharedValue>(items, stats);
}

Result<std::vector<KVPair>> Cluster::Scan(std::string_view table,
                                          uint64_t partition,
                                          std::string_view key_prefix,
                                          FetchStats* stats) {
  HGS_ASSIGN_OR_RETURN(
      std::vector<std::vector<KVPair>> rows,
      MultiScan({MultiScanPrefix{table, partition, std::string(key_prefix)}},
                stats));
  return std::move(rows[0]);
}

Result<std::vector<std::vector<KVPair>>> Cluster::MultiScan(
    const std::vector<MultiScanPrefix>& prefixes, FetchStats* stats) {
  std::vector<BatchItem> items;
  items.reserve(prefixes.size());
  for (const MultiScanPrefix& p : prefixes) {
    items.push_back(BatchItem{Replicas(PlacementToken(p.table, p.partition)),
                              PhysicalKey(p.table, p.partition, p.prefix)});
  }
  HGS_ASSIGN_OR_RETURN(std::vector<std::optional<std::vector<KVPair>>> rows,
                       BatchedRead<std::vector<KVPair>>(items, stats));
  // A scan answer is never an absence: every entry holds the prefix's rows.
  std::vector<std::vector<KVPair>> out(prefixes.size());
  for (size_t i = 0; i < prefixes.size(); ++i) {
    if (rows[i].has_value()) {
      out[i] = LogicalRows(prefixes[i].table, std::move(*rows[i]));
    }
  }
  return out;
}

// -- Administration and telemetry --------------------------------------------

void Cluster::SetNodeDown(size_t node, bool down) {
  // Rejoining does NOT clear pending hints: the node stays dirty until
  // ReplayHints or RepairNode reconciles it.
  if (node < nodes_.size()) nodes_[node]->SetDown(down);
}

void Cluster::SetFaultProfile(size_t node, const FaultProfile& profile) {
  if (node < nodes_.size()) nodes_[node]->SetFaultProfile(profile);
}

uint64_t Cluster::SumNodeStat(
    std::atomic<uint64_t> StorageNodeStats::*member) const {
  uint64_t total = 0;
  for (const auto& n : nodes_) {
    total += (n->stats().*member).load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Cluster::TotalKeys() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) total += n->NumKeys();
  return total;
}

uint64_t Cluster::ContentFingerprint() const {
  uint64_t h = 1469598103934665603ull;
  for (const auto& n : nodes_) {
    h ^= n->ContentFingerprint();
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Cluster::NodeContentFingerprint(size_t node) const {
  return node < nodes_.size() ? nodes_[node]->ContentFingerprint() : 0;
}

void Cluster::ResetStats() {
  for (auto& n : nodes_) n->ResetStats();
  resilience_.Reset();
}

void Cluster::PublishTouched(std::vector<EpochKey> touched) {
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  MutexLock lock(epoch_mu_);
  auto next = std::make_shared<EpochVector>(*epochs_);
  next->global += 1;
  for (EpochKey key : touched) {
    auto it = std::lower_bound(
        next->sub.begin(), next->sub.end(), key,
        [](const std::pair<EpochKey, uint64_t>& e, EpochKey k) {
          return e.first < k;
        });
    if (it != next->sub.end() && it->first == key) {
      it->second = next->global;
    } else {
      next->sub.insert(it, {key, next->global});
    }
  }
  epochs_ = std::move(next);
}

}  // namespace hgs
