#include "kvstore/storage_node.h"

#include <thread>

namespace hgs {

namespace {

/// Base seed of the per-node fault injectors; each node mixes in its id,
/// so a scripted fault scenario replays identically run to run.
constexpr uint64_t kFaultSeed = 0xFA17;

/// Counts one request as in service for its lifetime and raises the
/// node's high-water mark of requests served at once.
class Serving {
 public:
  explicit Serving(StorageNodeStats* stats) : stats_(stats) {
    const uint64_t now =
        stats_->serving.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t peak = stats_->max_serving.load(std::memory_order_relaxed);
    while (now > peak && !stats_->max_serving.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }
  ~Serving() { stats_->serving.fetch_sub(1, std::memory_order_relaxed); }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

 private:
  StorageNodeStats* stats_;
};

}  // namespace

StorageNode::StorageNode(int node_id, size_t server_threads,
                         LatencyModel latency)
    : node_id_(node_id),
      latency_(latency),
      faults_(kFaultSeed ^ (0x9E3779B97F4A7C15ull *
                            static_cast<uint64_t>(node_id + 1))),
      servers_(server_threads) {}

void StorageNode::ChargeLatency(size_t keys, size_t bytes,
                                int64_t extra_micros) {
  // Injected latency (slow node, spikes) is waited even when the base model
  // is disabled: a scripted fault is always real.
  int64_t micros = latency_.CostMicros(keys, bytes) + extra_micros;
  stats_.simulated_micros.fetch_add(static_cast<uint64_t>(micros),
                                    std::memory_order_relaxed);
  if (micros <= 0) return;
  if (!latency_.precise_wait) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
    return;
  }
  // sleep_for on many hosts has ~1ms granularity, far coarser than the
  // sub-millisecond latencies this model expresses. Wait to a wall-clock
  // deadline instead: a coarse sleep covers the bulk, then a yield-spin
  // reaches the deadline precisely. Because the deadline is absolute,
  // concurrent waits overlap exactly as real I/O would.
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(micros);
  constexpr int64_t kSleepGranularityMicros = 1'500;
  if (micros > kSleepGranularityMicros) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(micros - kSleepGranularityMicros));
  }
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

Status StorageNode::DownError() const {
  return Status::IOError("storage node " + std::to_string(node_id_) +
                         " is down");
}

Status StorageNode::TransientFault() {
  stats_.injected_faults.fetch_add(1, std::memory_order_relaxed);
  return Status::IOError("storage node " + std::to_string(node_id_) +
                         ": transient fault");
}

SharedValue StorageNode::MaybeCorrupt(SharedValue value) {
  uint64_t seed = 0;
  if (value.empty() || !faults_.ShouldCorrupt(&seed)) return value;
  stats_.injected_corruptions.fetch_add(1, std::memory_order_relaxed);
  std::string bytes(value.view());
  bytes[seed % bytes.size()] ^= 0x40;
  return SharedValue(std::move(bytes));
}

Status StorageNode::AdmitRead(size_t items, int64_t* extra_micros) {
  if (IsDown()) return DownError();
  FaultDecision fault = faults_.OnRequest();
  *extra_micros = fault.extra_micros;
  if (!fault.fail) return Status::OK();
  ChargeLatency(items, 0, fault.extra_micros);
  return TransientFault();
}

std::vector<Result<SharedValue>> StorageNode::DoMultiGet(
    const std::vector<std::string>& keys) {
  Serving serving(&stats_);
  int64_t extra_micros = 0;
  Status admitted = AdmitRead(keys.size(), &extra_micros);
  if (!admitted.ok()) {
    return std::vector<Result<SharedValue>>(keys.size(), admitted);
  }
  std::vector<Result<SharedValue>> out;
  out.reserve(keys.size());
  size_t found = 0;
  size_t bytes = 0;
  {
    MutexLock lock(mu_);
    for (const std::string& key : keys) {
      auto it = data_.find(key);
      if (it == data_.end()) {
        out.push_back(Status::NotFound("key not found"));
      } else {
        ++found;
        bytes += it->second->size();
        out.push_back(SharedValue(it->second, *it->second));
      }
    }
  }
  for (Result<SharedValue>& res : out) {
    if (res.ok()) *res = MaybeCorrupt(std::move(*res));
  }
  stats_.get_requests.fetch_add(1, std::memory_order_relaxed);
  stats_.keys_read.fetch_add(found, std::memory_order_relaxed);
  stats_.bytes_read.fetch_add(bytes, std::memory_order_relaxed);
  // One round trip: a single seek covers the whole batch.
  ChargeLatency(keys.size(), bytes, extra_micros);
  return out;
}

std::vector<Result<std::vector<KVPair>>> StorageNode::DoMultiScan(
    const std::vector<std::string>& prefixes) {
  Serving serving(&stats_);
  int64_t extra_micros = 0;
  Status admitted = AdmitRead(prefixes.size(), &extra_micros);
  if (!admitted.ok()) {
    return std::vector<Result<std::vector<KVPair>>>(prefixes.size(), admitted);
  }
  std::vector<Result<std::vector<KVPair>>> out;
  out.reserve(prefixes.size());
  size_t keys = 0;
  size_t bytes = 0;
  {
    MutexLock lock(mu_);
    for (const std::string& prefix : prefixes) {
      std::vector<KVPair> rows;
      for (auto it = data_.lower_bound(prefix);
           it != data_.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0;
           ++it) {
        rows.push_back(KVPair{it->first, SharedValue(it->second, *it->second)});
        bytes += it->second->size();
      }
      keys += rows.size();
      out.push_back(std::move(rows));
    }
  }
  for (Result<std::vector<KVPair>>& rows : out) {
    for (KVPair& kv : *rows) kv.value = MaybeCorrupt(std::move(kv.value));
  }
  stats_.scan_requests.fetch_add(1, std::memory_order_relaxed);
  stats_.keys_read.fetch_add(keys, std::memory_order_relaxed);
  stats_.bytes_read.fetch_add(bytes, std::memory_order_relaxed);
  // One round trip: each prefix is one contiguous run of clustered rows,
  // and a single seek covers every run of the batch.
  ChargeLatency(keys, bytes, extra_micros);
  return out;
}

std::future<std::vector<Result<SharedValue>>> StorageNode::SubmitMultiGet(
    std::vector<std::string> keys) {
  return servers_.Submit(
      [this, keys = std::move(keys)]() { return DoMultiGet(keys); });
}

std::future<std::vector<Result<std::vector<KVPair>>>>
StorageNode::SubmitMultiScan(std::vector<std::string> prefixes) {
  return servers_.Submit([this, prefixes = std::move(prefixes)]() {
    return DoMultiScan(prefixes);
  });
}

Status StorageNode::PutBatch(std::vector<NodePutRow> rows) {
  Serving serving(&stats_);
  if (IsDown()) return DownError();
  FaultDecision fault = faults_.OnRequest();
  if (fault.fail) {
    if (latency_.charge_writes) ChargeLatency(rows.size(), 0, fault.extra_micros);
    return TransientFault();
  }
  size_t bytes = 0;
  size_t count = rows.size();
  {
    MutexLock lock(mu_);
    for (NodePutRow& row : rows) {
      bytes += row.value->size();
      auto it = data_.find(row.key);
      if (it != data_.end()) {
        stats_.bytes_stored.fetch_sub(it->second->size(),
                                      std::memory_order_relaxed);
      }
      stats_.bytes_stored.fetch_add(row.value->size(),
                                    std::memory_order_relaxed);
      data_[std::move(row.key)] = std::move(row.value);
    }
  }
  stats_.put_batches.fetch_add(1, std::memory_order_relaxed);
  stats_.rows_put.fetch_add(count, std::memory_order_relaxed);
  stats_.bytes_put.fetch_add(bytes, std::memory_order_relaxed);
  // One round trip commits the whole batch.
  if (latency_.charge_writes) ChargeLatency(count, bytes, fault.extra_micros);
  return Status::OK();
}

std::future<Status> StorageNode::SubmitPutBatch(std::vector<NodePutRow> rows) {
  return servers_.Submit(
      [this, rows = std::move(rows)]() mutable {
        return PutBatch(std::move(rows));
      });
}

Status StorageNode::Delete(const std::string& key, bool* existed) {
  if (existed != nullptr) *existed = false;
  if (IsDown()) return DownError();
  FaultDecision fault = faults_.OnRequest();
  if (fault.fail) return TransientFault();
  bool found = EraseRow(key);
  if (existed != nullptr) *existed = found;
  if (latency_.charge_writes) ChargeLatency(1, 0, fault.extra_micros);
  return Status::OK();
}

std::vector<std::pair<std::string, std::shared_ptr<const std::string>>>
StorageNode::SnapshotContents() const {
  MutexLock lock(mu_);
  std::vector<std::pair<std::string, std::shared_ptr<const std::string>>> out;
  out.reserve(data_.size());
  for (const auto& [key, value] : data_) out.emplace_back(key, value);
  return out;
}

void StorageNode::RestoreRow(std::string key,
                             std::shared_ptr<const std::string> value) {
  MutexLock lock(mu_);
  auto it = data_.find(key);
  if (it != data_.end()) {
    stats_.bytes_stored.fetch_sub(it->second->size(),
                                  std::memory_order_relaxed);
  }
  stats_.bytes_stored.fetch_add(value->size(), std::memory_order_relaxed);
  data_[std::move(key)] = std::move(value);
}

bool StorageNode::EraseRow(const std::string& key) {
  MutexLock lock(mu_);
  auto it = data_.find(key);
  if (it == data_.end()) return false;
  stats_.bytes_stored.fetch_sub(it->second->size(), std::memory_order_relaxed);
  data_.erase(it);
  return true;
}

size_t StorageNode::NumKeys() const {
  MutexLock lock(mu_);
  return data_.size();
}

uint64_t StorageNode::ContentFingerprint() const {
  MutexLock lock(mu_);
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const auto& [key, value] : data_) {
    h ^= Fnv1a64(key.data(), key.size());
    h *= 1099511628211ull;
    h ^= Fnv1a64(value->data(), value->size());
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace hgs
