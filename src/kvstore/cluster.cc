#include "kvstore/cluster.h"

#include <algorithm>
#include <future>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>

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
  if (stats != nullptr && out.owner() != value->owner()) ++stats->value_copies;
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

/// A replica's answer settles the read when it is a value or an (authori-
/// tative) absence; hard errors keep the race open.
template <typename T>
bool UsableAnswer(const Result<T>& res) {
  return res.ok() || res.status().IsNotFound();
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

void Cluster::CountFailover(FetchStats* s) {
  resilience_.failovers.fetch_add(1, std::memory_order_relaxed);
  if (s != nullptr) ++s->failovers;
}

void Cluster::CountRetry(FetchStats* s) {
  resilience_.retries.fetch_add(1, std::memory_order_relaxed);
  if (s != nullptr) ++s->retries;
}

void Cluster::CountChecksumFailure(FetchStats* s) {
  resilience_.checksum_failures.fetch_add(1, std::memory_order_relaxed);
  if (s != nullptr) ++s->checksum_failures;
}

void Cluster::CountHedge(FetchStats* s) {
  resilience_.hedges.fetch_add(1, std::memory_order_relaxed);
  if (s != nullptr) ++s->hedges;
}

void Cluster::CountHedgeWin(FetchStats* s) {
  resilience_.hedge_wins.fetch_add(1, std::memory_order_relaxed);
  if (s != nullptr) ++s->hedge_wins;
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
    CountRetry(nullptr);
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
    CountRetry(nullptr);
    Backoff(attempt + 1, std::nullopt);
  }
}

Status Cluster::FinishWrite(size_t acks, size_t replicas, const char* what) {
  size_t required = RequiredAcks(replicas);
  if (acks < required) {
    resilience_.failed_writes.fetch_add(1, std::memory_order_relaxed);
    return Status::IOError(std::string(what) + " acked by " +
                           std::to_string(acks) + " of " +
                           std::to_string(replicas) + " replicas (" +
                           std::to_string(required) +
                           " required); missed replicas hinted");
  }
  if (acks < replicas) {
    resilience_.degraded_writes.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status Cluster::Put(std::string_view table, uint64_t partition,
                    std::string_view key, std::string_view value) {
  std::string phys = PhysicalKey(table, partition, key);
  std::shared_ptr<const std::string> stored = SealForStorage(value);
  ReplicaSet replicas = Replicas(PlacementToken(table, partition));
  size_t acks = 0;
  for (uint32_t node : replicas) {
    Status st = WriteRowToNode(node, phys, stored);
    if (st.ok()) {
      ++acks;
      // A committed write makes any hint queued for this key obsolete.
      SupersedeHints(node, phys);
    } else {
      EnqueueHint(node, phys, stored);
    }
  }
  return FinishWrite(acks, replicas.size(), "put");
}

Status Cluster::MultiPut(std::string_view table, std::vector<PutRow> rows,
                         size_t* put_batches) {
  if (put_batches != nullptr) *put_batches = 0;
  if (rows.empty()) return Status::OK();

  // Seal each row once and fan the shared buffer out to its replicas'
  // node groups.
  struct SealedRow {
    std::string phys;
    std::shared_ptr<const std::string> value;
    uint8_t replicas;
  };
  std::vector<SealedRow> sealed;
  sealed.reserve(rows.size());
  std::unordered_map<size_t, std::vector<size_t>> by_node;  // node -> rows
  for (PutRow& row : rows) {
    ReplicaSet replicas = Replicas(PlacementToken(table, row.partition));
    sealed.push_back(SealedRow{PhysicalKey(table, row.partition, row.key),
                               SealForStorage(row.value, row.schema, row.codec),
                               static_cast<uint8_t>(replicas.size())});
    for (uint32_t node : replicas) by_node[node].push_back(sealed.size() - 1);
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
  if (put_batches != nullptr) *put_batches = inflight.size();

  std::vector<uint32_t> acks(sealed.size(), 0);
  for (auto& [node, idxs, fut] : inflight) {
    Status st = fut.get();
    // A failed node batch is retried synchronously with backoff (the other
    // nodes have already committed by now), then hinted row by row.
    for (size_t attempt = 0;
         !st.ok() && !nodes_[node]->IsDown() && attempt < options_.max_retries;
         ++attempt) {
      CountRetry(nullptr);
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
  HGS_RETURN_NOT_OK(FinishWrite(acks, replicas.size(), "delete"));
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

template <typename T, typename SubmitFn>
Result<T> Cluster::HedgedSubmit(size_t primary, const ReplicaSet& replicas,
                                const std::string& phys, SubmitFn&& submit,
                                const Deadline& deadline, FetchStats* stats,
                                size_t* winner) {
  *winner = primary;
  if (stats != nullptr) ++stats->kv_batches;
  std::future<Result<T>> fut = submit(primary, phys);
  const int64_t hedge_us = options_.hedge_after_micros;
  size_t alt = nodes_.size();
  if (hedge_us > 0 && fut.wait_for(std::chrono::microseconds(hedge_us)) !=
                          std::future_status::ready) {
    if (DeadlinePassed(deadline)) return DeadlineError(Status::OK());
    alt = HedgeTarget(replicas, primary);
  }
  if (alt == nodes_.size()) {
    // Answered in time, hedging off, or nowhere to hedge: the deadline
    // still bounds how long we wait.
    if (!AwaitUntil(fut, deadline)) return DeadlineError(Status::OK());
    return fut.get();
  }

  // Primary is slow: fire a second-chance request at another live replica
  // and race the two. The losing future is abandoned — its task completes
  // harmlessly in the node's server pool.
  CountHedge(stats);
  if (stats != nullptr) ++stats->kv_batches;
  std::future<Result<T>> hedge = submit(alt, phys);
  while (true) {
    if (fut.wait_for(kPollQuantum) == std::future_status::ready) {
      Result<T> res = fut.get();
      if (UsableAnswer(res)) return res;
      // Primary failed hard; the hedge is the only hope left.
      if (!AwaitUntil(hedge, deadline)) return res;
      Result<T> second = hedge.get();
      if (UsableAnswer(second)) {
        CountHedgeWin(stats);
        *winner = alt;
        return second;
      }
      return res;
    }
    if (hedge.wait_for(kPollQuantum) == std::future_status::ready) {
      Result<T> second = hedge.get();
      if (UsableAnswer(second)) {
        CountHedgeWin(stats);
        *winner = alt;
        return second;
      }
      // Hedge failed hard; fall back to however long the primary takes.
      if (!AwaitUntil(fut, deadline)) return second;
      return fut.get();
    }
    if (DeadlinePassed(deadline)) {
      return DeadlineError(Status::OK());
    }
  }
}

template <typename T, typename SubmitFn>
Result<T> Cluster::ReadReplicas(const ReplicaSet& replicas,
                                const std::string& phys, SubmitFn&& submit,
                                const Deadline& deadline, FetchStats* stats) {
  std::array<uint32_t, kMaxReplicas> order;
  size_t candidates = ServingOrder(replicas, &order);
  Status last = Status::IOError("no replica available");
  for (size_t c = 0; c < candidates; ++c) {
    size_t node = order[c];
    if (c > 0) CountFailover(stats);
    for (size_t attempt = 0;; ++attempt) {
      if (DeadlinePassed(deadline)) return DeadlineError(last);
      size_t winner = node;
      Result<T> res = HedgedSubmit<T>(node, replicas, phys, submit, deadline,
                                      stats, &winner);
      if (res.ok()) {
        last = Unseal(&*res);
        if (last.ok()) {
          HGS_RETURN_NOT_OK(DecompressInPlace(&*res, stats));
          return res;
        }
        // Corrupt bytes (one bad row spoils a whole scan): a replica
        // failure, not a query error. Fail over.
        CountChecksumFailure(stats);
        break;
      }
      last = res.status();
      if (last.IsNotFound()) {
        // NotFound from a clean replica is authoritative. From a dirty
        // replica (rejoined with hints pending) the key may simply have
        // missed it — fall through to the next replica.
        if (!NodeDirty(winner)) return last;
        break;
      }
      if (nodes_[node]->IsDown()) break;  // crashed mid-flight: fail over
      if (attempt >= options_.max_retries) break;
      CountRetry(stats);
      Backoff(attempt + 1, deadline);
    }
  }
  return last;
}

Result<SharedValue> Cluster::ReadKey(const ReplicaSet& replicas,
                                     const std::string& phys,
                                     const Deadline& deadline,
                                     FetchStats* stats) {
  return ReadReplicas<SharedValue>(
      replicas, phys,
      [this](size_t node, const std::string& key) {
        return nodes_[node]->SubmitGet(key);
      },
      deadline, stats);
}

Result<SharedValue> Cluster::Get(std::string_view table, uint64_t partition,
                                 std::string_view key, FetchStats* stats) {
  return ReadKey(Replicas(PlacementToken(table, partition)),
                 PhysicalKey(table, partition, key), MakeDeadline(), stats);
}

Result<std::vector<std::optional<SharedValue>>> Cluster::MultiGet(
    std::string_view table, const std::vector<MultiGetKey>& keys,
    FetchStats* stats) {
  std::vector<std::optional<SharedValue>> out(keys.size());
  if (keys.empty()) return out;
  Deadline deadline = MakeDeadline();
  auto phys_of = [&](size_t i) {
    return PhysicalKey(table, keys[i].partition, keys[i].key);
  };

  // One node request for a group of keys (indices into `keys`).
  struct Batch {
    size_t node;
    std::vector<size_t> idxs;
    std::future<std::vector<Result<SharedValue>>> fut;
  };
  auto submit = [&](size_t node, std::vector<size_t> idxs) {
    std::vector<std::string> phys;
    phys.reserve(idxs.size());
    for (size_t i : idxs) phys.push_back(phys_of(i));
    if (stats != nullptr) ++stats->kv_batches;
    auto fut = nodes_[node]->SubmitMultiGet(std::move(phys));
    return Batch{node, std::move(idxs), std::move(fut)};
  };

  // Pick a serving replica per key (clean live nodes preferred) and group
  // the key indices by node.
  std::vector<uint64_t> tokens(keys.size());
  std::unordered_map<size_t, std::vector<size_t>> by_node;
  for (size_t i = 0; i < keys.size(); ++i) {
    tokens[i] = PlacementToken(table, keys[i].partition);
    std::array<uint32_t, kMaxReplicas> order;
    size_t candidates = ServingOrder(Replicas(tokens[i]), &order);
    if (candidates == 0) return Status::IOError("no live replica for key");
    by_node[order[0]].push_back(i);
  }
  std::vector<Batch> inflight;
  inflight.reserve(by_node.size());
  for (auto& [node, idxs] : by_node) {
    inflight.push_back(submit(node, std::move(idxs)));
  }

  // Settles key i from one node's answer. A verified value or an
  // authoritative absence is used as is (true). Corrupt bytes, a hard
  // error or a dirty replica's NotFound send the key through Get's replica
  // loop instead, under the call's deadline (false).
  Status fatal;  // first unservable key's error
  auto resolve = [&](size_t i, size_t node, Result<SharedValue>& res) {
    if (res.ok()) {
      Status sealed = Unseal(&*res);
      if (sealed.ok() && DecompressInPlace(&*res, stats).ok()) {
        out[i] = std::move(*res);
        return true;
      }
      if (!sealed.ok()) CountChecksumFailure(stats);
    } else if (res.status().IsNotFound() && !NodeDirty(node)) {
      return true;  // authoritative absence -> nullopt
    }
    Result<SharedValue> retry =
        ReadKey(Replicas(tokens[i]), phys_of(i), deadline, stats);
    if (retry.ok()) {
      out[i] = std::move(*retry);
    } else if (!retry.status().IsNotFound() && fatal.ok()) {
      fatal = retry.status();
    }
    return false;
  };

  const int64_t hedge_us = options_.hedge_after_micros;
  for (Batch& b : inflight) {
    // A slow batch is hedged: its keys regroup by each key's next live
    // replica and second-chance batches go there. Keys without one stay
    // with the primary (`stay` holds their positions in b.idxs).
    std::vector<Batch> hedges;
    std::vector<size_t> stay;
    if (hedge_us > 0 &&
        b.fut.wait_for(std::chrono::microseconds(hedge_us)) !=
            std::future_status::ready) {
      std::unordered_map<size_t, std::vector<size_t>> alt_nodes;
      for (size_t j = 0; j < b.idxs.size(); ++j) {
        size_t alt = HedgeTarget(Replicas(tokens[b.idxs[j]]), b.node);
        if (alt == nodes_.size()) {
          stay.push_back(j);
        } else {
          alt_nodes[alt].push_back(b.idxs[j]);
        }
      }
      for (auto& [node, idxs] : alt_nodes) {
        CountHedge(stats);
        hedges.push_back(submit(node, std::move(idxs)));
      }
    }

    // Wait for the primary batch, or for every hedge batch to answer
    // first, never past the deadline.
    bool hedged = false;
    if (hedges.empty()) {
      if (!AwaitUntil(b.fut, deadline)) return DeadlineError(Status::OK());
    } else {
      while (b.fut.wait_for(kPollQuantum) != std::future_status::ready) {
        hedged = std::all_of(hedges.begin(), hedges.end(), [](const Batch& h) {
          return h.fut.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready;
        });
        if (hedged) break;
        if (DeadlinePassed(deadline)) return DeadlineError(Status::OK());
      }
    }

    if (!hedged) {
      std::vector<Result<SharedValue>> answers = b.fut.get();
      for (size_t j = 0; j < b.idxs.size(); ++j) {
        resolve(b.idxs[j], b.node, answers[j]);
      }
    } else {
      // A hedge batch wins when one of its own answers is used.
      for (Batch& h : hedges) {
        std::vector<Result<SharedValue>> answers = h.fut.get();
        bool won = false;
        for (size_t j = 0; j < h.idxs.size(); ++j) {
          won |= resolve(h.idxs[j], h.node, answers[j]);
        }
        if (won) CountHedgeWin(stats);
      }
      // Keys without an alternate still need the primary's answer;
      // otherwise the slow primary batch is abandoned.
      if (!stay.empty()) {
        if (!AwaitUntil(b.fut, deadline)) return DeadlineError(Status::OK());
        std::vector<Result<SharedValue>> answers = b.fut.get();
        for (size_t j : stay) resolve(b.idxs[j], b.node, answers[j]);
      }
    }
    if (!fatal.ok()) return fatal;
  }
  return out;
}

Result<std::vector<KVPair>> Cluster::Scan(std::string_view table,
                                          uint64_t partition,
                                          std::string_view key_prefix,
                                          FetchStats* stats) {
  HGS_ASSIGN_OR_RETURN(
      std::vector<KVPair> rows,
      ReadReplicas<std::vector<KVPair>>(
          Replicas(PlacementToken(table, partition)),
          PhysicalKey(table, partition, key_prefix),
          [this](size_t node, const std::string& prefix) {
            return nodes_[node]->SubmitScan(prefix);
          },
          MakeDeadline(), stats));
  // Logical keys in a right-sized vector: callers such as the byte cache
  // keep the answer, and charge it by its key and value sizes.
  const size_t strip = table.size() + 1 + 8;  // logical key offset
  std::vector<KVPair> out;
  out.reserve(rows.size());
  for (KVPair& kv : rows) {
    out.push_back(KVPair{kv.key.substr(strip), std::move(kv.value)});
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

uint64_t Cluster::TotalStoredBytes() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) {
    total += n->stats().bytes_stored.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Cluster::TotalKeys() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) total += n->NumKeys();
  return total;
}

uint64_t Cluster::TotalReadRequests() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) {
    total += n->stats().get_requests.load(std::memory_order_relaxed) +
             n->stats().scan_requests.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Cluster::TotalBytesRead() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) {
    total += n->stats().bytes_read.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Cluster::TotalPutBatches() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) {
    total += n->stats().put_batches.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Cluster::TotalRowsPut() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) {
    total += n->stats().rows_put.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Cluster::TotalBytesPut() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) {
    total += n->stats().bytes_put.load(std::memory_order_relaxed);
  }
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
  resilience_.failovers.store(0);
  resilience_.retries.store(0);
  resilience_.hedges.store(0);
  resilience_.hedge_wins.store(0);
  resilience_.checksum_failures.store(0);
  resilience_.degraded_writes.store(0);
  resilience_.failed_writes.store(0);
  resilience_.hints_queued.store(0);
  resilience_.hints_replayed.store(0);
  resilience_.hints_dropped.store(0);
  resilience_.repair_rows.store(0);
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
