// ShardedLruCache: a byte-budgeted, sharded LRU map used for read-side
// caching (the TGI partition-delta cache). Keys hash to one of N shards,
// each guarded by its own mutex, so concurrent fetch clients rarely
// contend. Eviction is least-recently-used within a shard, driven by the
// per-entry byte charge supplied at insert time.

#ifndef HGS_COMMON_LRU_CACHE_H_
#define HGS_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"

namespace hgs {

/// Aggregated counters of a ShardedLruCache (summed across shards).
struct LruCacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t admission_rejects = 0;  ///< puts larger than a shard budget
  uint64_t bytes_used = 0;
  uint64_t entries = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  /// `capacity_bytes` is the total budget across all shards; 0 disables the
  /// cache (every Get misses, Put is a no-op).
  explicit ShardedLruCache(size_t capacity_bytes, size_t num_shards = 16)
      : capacity_bytes_(capacity_bytes) {
    if (num_shards == 0) num_shards = 1;
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
    shard_capacity_ = capacity_bytes_ / num_shards;
    if (capacity_bytes_ > 0 && shard_capacity_ == 0) shard_capacity_ = 1;
  }

  /// Looks up `key`, refreshing its recency on a hit.
  std::optional<Value> Get(const Key& key) {
    if (capacity_bytes_ == 0) return std::nullopt;
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
  }

  /// Inserts or replaces `key`, accounting `charge` bytes against the
  /// budget and evicting LRU entries as needed. An entry larger than a
  /// whole shard's budget is not admitted (counted in admission_rejects),
  /// and any existing entry under the key is dropped, so a rejected
  /// replacement never leaves a stale value behind.
  void Put(const Key& key, Value value, size_t charge) {
    if (capacity_bytes_ == 0) return;
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.bytes -= it->second->charge;
      shard.lru.erase(it->second);
      shard.map.erase(it);
    }
    if (charge > shard_capacity_) {
      ++shard.admission_rejects;
      return;
    }
    EvictToFitLocked(shard, charge);
    shard.lru.push_front(Entry{key, std::move(value), charge});
    shard.map[key] = shard.lru.begin();
    shard.bytes += charge;
    ++shard.insertions;
  }

  /// Removes `key` if present.
  bool Erase(const Key& key) {
    if (capacity_bytes_ == 0) return false;
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return false;
    shard.bytes -= it->second->charge;
    shard.lru.erase(it->second);
    shard.map.erase(it);
    return true;
  }

  /// Result of a RetainIf sweep.
  struct RetainResult {
    uint64_t retained = 0;
    uint64_t evicted = 0;
  };

  /// Keeps only the entries for which `pred(key)` is true, dropping the
  /// rest (counted as evictions). The precision-invalidation primitive:
  /// a publish evicts exactly the scopes it touched instead of Clear()ing
  /// the whole cache. Each shard is swept under its own mutex.
  template <typename Pred>
  RetainResult RetainIf(Pred pred) {
    RetainResult result;
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      MutexLock lock(shard.mu);
      for (auto it = shard.lru.begin(); it != shard.lru.end();) {
        if (pred(it->key)) {
          ++result.retained;
          ++it;
          continue;
        }
        shard.bytes -= it->charge;
        shard.map.erase(it->key);
        it = shard.lru.erase(it);
        ++shard.evictions;
        ++result.evicted;
      }
    }
    return result;
  }

  /// Drops every entry (hit/miss counters are retained).
  void Clear() {
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      MutexLock lock(shard.mu);
      shard.lru.clear();
      shard.map.clear();
      shard.bytes = 0;
    }
  }

  LruCacheCounters Counters() const {
    LruCacheCounters out;
    for (const auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      MutexLock lock(shard.mu);
      out.hits += shard.hits;
      out.misses += shard.misses;
      out.insertions += shard.insertions;
      out.evictions += shard.evictions;
      out.admission_rejects += shard.admission_rejects;
      out.bytes_used += shard.bytes;
      out.entries += shard.map.size();
    }
    return out;
  }

  size_t capacity_bytes() const { return capacity_bytes_; }
  bool enabled() const { return capacity_bytes_ > 0; }

 private:
  struct Entry {
    Key key;
    Value value;
    size_t charge;
  };

  struct Shard {
    mutable Mutex mu;
    std::list<Entry> lru GUARDED_BY(mu);  // front = most recently used
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> map
        GUARDED_BY(mu);
    size_t bytes GUARDED_BY(mu) = 0;
    uint64_t hits GUARDED_BY(mu) = 0;
    uint64_t misses GUARDED_BY(mu) = 0;
    uint64_t insertions GUARDED_BY(mu) = 0;
    uint64_t evictions GUARDED_BY(mu) = 0;
    uint64_t admission_rejects GUARDED_BY(mu) = 0;
  };

  /// Evicts LRU entries until `charge` more bytes fit in the shard budget.
  void EvictToFitLocked(Shard& shard, size_t charge) REQUIRES(shard.mu) {
    while (shard.bytes + charge > shard_capacity_ && !shard.lru.empty()) {
      Entry& victim = shard.lru.back();
      shard.bytes -= victim.charge;
      shard.map.erase(victim.key);
      shard.lru.pop_back();
      ++shard.evictions;
    }
  }

  Shard& ShardFor(const Key& key) const {
    return *shards_[Hash{}(key) % shards_.size()];
  }

  size_t capacity_bytes_;
  size_t shard_capacity_;
  // unique_ptr keeps Shard (with its mutex) immovable while the vector is
  // sized once in the constructor.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace hgs

#endif  // HGS_COMMON_LRU_CACHE_H_
