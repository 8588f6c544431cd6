#include "tgi/query.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <numeric>
#include <tuple>
#include <unordered_set>

#include "common/thread_pool.h"
#include "tgi/layout.h"

namespace hgs {

namespace {

class WallTimer {
 public:
  explicit WallTimer(FetchStats* stats) : stats_(stats) {}
  ~WallTimer() {
    if (stats_ == nullptr) return;
    auto end = std::chrono::steady_clock::now();
    stats_->wall_seconds +=
        std::chrono::duration<double>(end - start_).count();
  }

 private:
  FetchStats* stats_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

// Cache key of one read: kind byte ('G' point read / 'S' scan in the byte
// tier, the Read kind in the decoded tier), the (table, partition) scope's
// SUB-epoch under the reading query's pinned epoch map, table, partition
// token, then the row key or scan prefix. Sub-epoch-tagged keys make late
// inserts from an in-flight old-epoch query invisible to queries running
// after an invalidation, and leave a publish that touched other scopes
// unable to cold this entry: its sub-epoch — and therefore its key — is
// unchanged.
std::string ReadCacheKey(char kind, uint64_t epoch, std::string_view table,
                         uint64_t partition, std::string_view row) {
  std::string out;
  out.reserve(2 + 8 + table.size() + 8 + row.size());
  out.push_back(kind);
  AppendOrdered64(&out, epoch);
  out.append(table);
  out.push_back('\0');
  AppendOrdered64(&out, partition);
  out.append(row);
  return out;
}

// Lock shards of each cache tier, bounding contention between parallel
// fetch workers; each shard holds an equal slice of its tier's budget.
constexpr size_t kCacheShards = 16;

// Approximate heap footprint of a cache entry, for byte-budget eviction.
// SharedValue entries charge their viewed size: the window is what the
// cache logically holds (the shared owner is charged where it lives).
size_t CacheCharge(const std::string& key, const SharedValue& value) {
  return key.size() + value.size() + 64;
}

// -- decoded tier ----------------------------------------------------------

// Kind byte of each read (the first byte of its decoded-tier key), so two
// decoded types can never alias under one key and a cached object is always
// cast back to the type that produced it.
constexpr char kDeltaKind = 'd';      // one Delta row
constexpr char kEventListKind = 'e';  // one EventList row
constexpr char kScanKind = 'C';       // TGIQueryManager::DecodedScan
constexpr char kChainKind = 'V';      // TGIQueryManager::MergedVersionChain
constexpr char kMicropartKind = 'M';  // one Micropartitions bucket
constexpr char kRootStateKind = 'R';  // TGIQueryManager::RootState

// Decoded-tier key of a span's root state: the ReadCacheKey layout over the
// span's first deltas scope, then the sub-epoch of each further one. The
// span's deltas scopes are consecutive partitions (DeltaPlacement), so the
// i-th trailing sub-epoch is that of the first partition + i. `sub` maps a
// deltas partition to its sub-epoch under the reading query's pinned map.
template <typename SubEpochOf>
std::string RootStateKey(const tgi::TimespanMeta& span, size_t ns,
                         SubEpochOf sub) {
  const uint64_t first = tgi::DeltaPlacement(span.tsid, 0, ns);
  std::string key =
      ReadCacheKey(kRootStateKind, sub(first), tgi::kDeltasTable, first, "");
  for (size_t sid = 1; sid < ns; ++sid) AppendOrdered64(&key, sub(first + sid));
  return key;
}

using MicropartEntries = std::vector<std::pair<NodeId, MicroPartitionId>>;

bool IsEventlist(DeltaId did) { return did >= tgi::kEventlistDidBase; }

// Decodes one raw row by its kind byte. Returns the shared immutable object
// plus its eviction charge: Delta and EventList charge their wire size (the
// paper's Σ|Δ| currency, and a close proxy for the decoded maps' payload).
Result<std::pair<std::shared_ptr<const void>, size_t>> DecodeRow(
    char kind, std::string_view raw) {
  switch (kind) {
    case kDeltaKind: {
      HGS_ASSIGN_OR_RETURN(Delta d, Delta::Deserialize(raw));
      size_t charge = d.SerializedSizeBytes();
      return std::pair<std::shared_ptr<const void>, size_t>(
          std::make_shared<Delta>(std::move(d)), charge);
    }
    case kEventListKind: {
      HGS_ASSIGN_OR_RETURN(EventList e, EventList::Deserialize(raw));
      size_t charge = e.SerializedSizeBytes();
      return std::pair<std::shared_ptr<const void>, size_t>(
          std::make_shared<EventList>(std::move(e)), charge);
    }
    case kMicropartKind: {
      HGS_ASSIGN_OR_RETURN(MicropartEntries m,
                           tgi::DeserializeMicropartBucket(raw));
      return std::pair<std::shared_ptr<const void>, size_t>(
          std::make_shared<MicropartEntries>(std::move(m)), 0);
    }
    default:
      return Status::InvalidArgument("unknown decoded kind");
  }
}

// The merge-slot sequence that rebuilds a span's state at t: the tree
// deltas root-to-leaf down to the checkpoint before t, then the eventlists
// from that checkpoint through the one covering t.
std::vector<DeltaId> DidPath(const tgi::TimespanMeta& span, Timestamp t) {
  const int32_t cpi = std::max<int32_t>(span.CheckpointBefore(t), 0);
  std::vector<DeltaId> dids = span.PathToCheckpoint(cpi);
  const int32_t evl_to = span.EventlistCovering(t);
  for (size_t j = static_cast<size_t>(cpi) * span.checkpoint_interval /
                  span.eventlist_size;
       evl_to >= 0 && j <= static_cast<size_t>(evl_to); ++j) {
    dids.push_back(tgi::EventlistDid(j));
  }
  return dids;
}

// Cuts a history fetched over a window that contains (from, to] down to
// (from, to]: its events up to `from` replay into the initial state, and
// its events inside the window stay.
void CutToWindow(NodeHistory* h, Timestamp from, Timestamp to) {
  if (h->from == from && h->to == to) return;
  h->initial.ApplyEvents(h->events, h->from, from);
  h->events = h->events.FilterByTime(from, to);
  h->from = from;
  h->to = to;
}

}  // namespace

std::vector<std::pair<Timestamp, Delta>> NodeHistory::Materialize() const {
  std::vector<std::pair<Timestamp, Delta>> out;
  Delta state = initial;
  out.emplace_back(from, state);
  for (const Event& e : events.events()) {
    state.ApplyEvent(e);
    out.emplace_back(e.time, state);
  }
  return out;
}

TGIQueryManager::TGIQueryManager(Cluster* cluster, size_t fetch_parallelism,
                                 size_t read_cache_bytes,
                                 size_t decoded_cache_bytes)
    : cluster_(cluster),
      fetch_parallelism_(fetch_parallelism == 0 ? 1 : fetch_parallelism) {
  if (read_cache_bytes > 0) {
    read_cache_ = std::make_unique<ReadCache>(read_cache_bytes, kCacheShards);
  }
  if (decoded_cache_bytes > 0) {
    decoded_cache_ =
        std::make_unique<DecodedCache>(decoded_cache_bytes, kCacheShards);
  }
}

Result<std::vector<tgi::TimespanMeta>> TGIQueryManager::LoadSpans() const {
  auto spans_raw = cluster_->Scan(tgi::kTimespansTable, 0, "");
  if (!spans_raw.ok()) return spans_raw.status();
  std::vector<tgi::TimespanMeta> spans;
  spans.reserve(spans_raw->size());
  for (const KVPair& kv : *spans_raw) {
    HGS_ASSIGN_OR_RETURN(tgi::TimespanMeta meta,
                         tgi::TimespanMeta::Deserialize(kv.value));
    spans.push_back(std::move(meta));
  }
  std::sort(spans.begin(), spans.end(),
            [](const tgi::TimespanMeta& a, const tgi::TimespanMeta& b) {
              return a.tsid < b.tsid;
            });
  return spans;
}

Result<TGIQueryManager::MetaRef> TGIQueryManager::LoadMetadata(
    const MetaState* reuse) const {
  for (;;) {
    EpochVectorRef epochs = cluster_->epochs();
    // A scope whose sub-epoch is unchanged between `reuse`'s pinned map and
    // this one was not written, so its rows are still valid.
    auto stale = [&](std::string_view table) {
      if (reuse == nullptr || reuse->epochs == nullptr) return true;
      EpochKey key = MakeEpochKey(table, 0);
      return reuse->epochs->SubEpoch(key) != epochs->SubEpoch(key);
    };
    auto state = std::make_shared<MetaState>();
    state->epoch = epochs->global;
    state->epochs = epochs;
    const bool graph_stale = stale(tgi::kGraphTable);
    if (graph_stale) {
      auto meta_raw = cluster_->Get(tgi::kGraphTable, 0, "meta");
      if (!meta_raw.ok()) return meta_raw.status();
      HGS_ASSIGN_OR_RETURN(state->graph,
                           tgi::GraphMeta::Deserialize(*meta_raw));
    } else {
      state->graph = reuse->graph;
    }
    if (graph_stale || stale(tgi::kTimespansTable)) {
      HGS_ASSIGN_OR_RETURN(state->spans, LoadSpans());
    } else {
      state->spans = reuse->spans;
    }
    if (cluster_->publish_epoch() == epochs->global) {
      return MetaRef(std::move(state));
    }
  }
}

Status TGIQueryManager::Open() {
  HGS_ASSIGN_OR_RETURN(MetaRef meta, LoadMetadata(nullptr));
  {
    MutexLock lock(meta_mu_);
    meta_ = std::move(meta);
  }
  opened_.store(true, std::memory_order_release);
  return Status::OK();
}

TGIQueryManager::MetaRef TGIQueryManager::CurrentMeta() const {
  MutexLock lock(meta_mu_);
  if (meta_ != nullptr) return meta_;
  static const MetaRef kEmpty = std::make_shared<MetaState>();
  return kEmpty;
}

Result<TGIQueryManager::MetaRef> TGIQueryManager::EnsureFresh(
    FetchStats* stats) {
  if (!opened_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("Open() not called");
  }
  {
    MetaRef current = CurrentMeta();
    if (cluster_->publish_epoch() == current->epoch) return current;
  }
  MutexLock lock(refresh_mu_);
  // Re-read under the refresh lock so concurrent stale readers converge on
  // one reload instead of racing each other backwards.
  MetaRef current = CurrentMeta();
  if (cluster_->publish_epoch() == current->epoch) return current;
  // Metadata was re-published (AppendBatch). The new epoch map tells us
  // exactly which (table, partition) scopes the writer touched: a scope
  // whose sub-epoch is unchanged between the pinned old map and the new
  // one was not written, so its metadata rows and cache entries are still
  // valid. In-flight queries keep their old snapshot alive through the
  // shared_ptr, and their sub-epoch-tagged cache inserts can't be served
  // to queries running at the new epochs.
  HGS_ASSIGN_OR_RETURN(MetaRef fresh, LoadMetadata(current.get()));
  const EpochVectorRef& epochs = fresh->epochs;
  uint64_t retained = 0;
  uint64_t invalidated = 0;
  {
    MutexLock mlock(micropart_mu_);
    for (auto it = micropart_cache_.begin(); it != micropart_cache_.end();) {
      uint64_t sub =
          epochs->SubEpoch(MakeEpochKey(tgi::kMicropartsTable, it->first));
      if (it->second.epoch == sub) {
        ++retained;
        ++it;
      } else {
        it = micropart_cache_.erase(it);
        ++invalidated;
      }
    }
  }
  // Both LRU tiers key entries as kind(1) | sub-epoch(8) | table | '\0' |
  // partition(8) | row. An entry is still valid iff its stored sub-epoch
  // matches the scope's sub-epoch under the new map; everything else is
  // swept. A root state's row holds the sub-epochs of the partitions after
  // its first (RootStateKey), and each of them must match too. Entries
  // from scopes a publish didn't touch keep their keys and stay warm.
  auto entry_valid = [&](const std::string& key) {
    if (key.size() < 1 + 8 + 1 + 8) return false;
    uint64_t entry_epoch = ReadOrdered64(key.data() + 1);
    size_t tab_end = key.find('\0', 9);
    if (tab_end == std::string::npos || tab_end + 1 + 8 > key.size()) {
      return false;
    }
    std::string_view table(key.data() + 9, tab_end - 9);
    uint64_t partition = ReadOrdered64(key.data() + tab_end + 1);
    if (entry_epoch != epochs->SubEpoch(MakeEpochKey(table, partition))) {
      return false;
    }
    if (key[0] != kRootStateKind) return true;
    for (size_t at = tab_end + 1 + 8; at + 8 <= key.size(); at += 8) {
      if (ReadOrdered64(key.data() + at) !=
          epochs->SubEpoch(MakeEpochKey(table, ++partition))) {
        return false;
      }
    }
    return true;
  };
  if (read_cache_ != nullptr) {
    auto swept = read_cache_->RetainIf(entry_valid);
    retained += swept.retained;
    invalidated += swept.evicted;
  }
  if (decoded_cache_ != nullptr) {
    auto swept = decoded_cache_->RetainIf(entry_valid);
    retained += swept.retained;
    invalidated += swept.evicted;
  }
  entries_retained_.fetch_add(retained, std::memory_order_relaxed);
  entries_invalidated_.fetch_add(invalidated, std::memory_order_relaxed);
  if (stats != nullptr) {
    stats->cache_entries_retained += retained;
    stats->cache_entries_invalidated += invalidated;
  }
  {
    MutexLock mlock(meta_mu_);
    meta_ = fresh;
  }
  return fresh;
}

Timestamp TGIQueryManager::HistoryStart() const {
  return CurrentMeta()->graph.start;
}

Timestamp TGIQueryManager::HistoryEnd() const {
  return CurrentMeta()->graph.end;
}

uint64_t TGIQueryManager::EventCount() const {
  return CurrentMeta()->graph.event_count;
}

const tgi::TimespanMeta* TGIQueryManager::SpanFor(const MetaState& meta,
                                                  Timestamp t) {
  const tgi::TimespanMeta* best = nullptr;
  for (const auto& span : meta.spans) {
    if (span.start <= t) {
      best = &span;
    } else {
      break;
    }
  }
  return best;
}

// -- the read executor -----------------------------------------------------

Result<std::vector<TGIQueryManager::DecodedEntry>> TGIQueryManager::Execute(
    const MetaState& meta, const std::vector<Read>& reads, FetchStats* stats) {
  FetchStats discarded;
  if (stats == nullptr) stats = &discarded;
  const size_t parallelism = fetch_parallelism();
  const size_t n = reads.size();
  std::vector<DecodedEntry> out(n);
  auto is_scan = [&](size_t i) {
    return reads[i].kind == kScanKind || reads[i].kind == kChainKind;
  };

  // (1) Decoded probe. A hit needs neither bytes nor a decode, and counts
  // the logical work the cold path would, so Table 1's logical columns are
  // identical between cold and warm runs.
  std::vector<std::string> ckeys(n);
  std::vector<size_t> misses;
  std::vector<bool> served(n, false);
  for (size_t i = 0; i < n; ++i) {
    const Read& r = reads[i];
    std::optional<DecodedEntry> hit;
    if (decoded_cache_ != nullptr && r.kind != kMicropartKind) {
      ckeys[i] = ReadCacheKey(r.kind, meta.SubEpochFor(r.table, r.partition),
                              r.table, r.partition, r.key);
      hit = decoded_cache_->Get(ckeys[i]);
    }
    if (!hit.has_value()) {
      misses.push_back(i);
      continue;
    }
    out[i] = std::move(*hit);
    served[i] = true;
    CountDecodedHit(r, out[i], stats);
  }

  // (2a) Scans, deduplicated by their byte-tier key: a 'C' read scans its
  // own prefix, a 'V' read its node's whole versions placement, which every
  // node hashed there shares. A scan all of whose reads hit the decoded
  // tier counts one logical request served from cache.
  struct Scan {
    std::string bkey;
    const Read* read;
    std::string_view prefix;
    bool needed = false;
    std::shared_ptr<const ReadCacheEntry> result;
  };
  std::vector<Scan> scans;
  std::vector<size_t> scan_of(n);
  {
    std::unordered_map<std::string, size_t> index;
    for (size_t i = 0; i < n; ++i) {
      const Read& r = reads[i];
      if (!is_scan(i)) continue;
      const std::string_view prefix =
          r.kind == kScanKind ? std::string_view(r.key) : std::string_view();
      std::string bkey =
          ReadCacheKey('S', meta.SubEpochFor(r.table, r.partition), r.table,
                       r.partition, prefix);
      auto [it, inserted] = index.emplace(bkey, scans.size());
      if (inserted) {
        scans.push_back(Scan{std::move(bkey), &r, prefix, false, nullptr});
      }
      scan_of[i] = it->second;
      if (!served[i]) scans[it->second].needed = true;
    }
  }
  std::vector<size_t> needed;
  for (size_t s = 0; s < scans.size(); ++s) {
    if (scans[s].needed) {
      needed.push_back(s);
    } else {
      ++stats->kv_requests;
      ++stats->cache_hits;
    }
  }

  // (2b) Point misses: the byte tier (a hit hands out a view of the cached
  // shared buffer — no bytes move), then one MultiGet for the rest.
  std::vector<std::optional<SharedValue>> raw(n);
  std::vector<size_t> fetch;
  std::vector<MultiGetKey> keys;
  std::vector<std::string> bkeys;
  for (size_t i : misses) {
    const Read& r = reads[i];
    if (is_scan(i)) continue;
    ++stats->kv_requests;
    if (read_cache_ != nullptr) {
      std::string bkey =
          ReadCacheKey('G', meta.SubEpochFor(r.table, r.partition), r.table,
                       r.partition, r.key);
      auto entry = read_cache_->Get(bkey);
      if (entry.has_value()) {
        ++stats->cache_hits;
        if ((*entry)->found) raw[i] = (*entry)->value;
        continue;
      }
      ++stats->cache_misses;
      bkeys.push_back(std::move(bkey));
    }
    if (!fetch.empty() && r.table != reads[fetch[0]].table) {
      return Status::InvalidArgument("point reads of a batch span tables");
    }
    fetch.push_back(i);
    keys.push_back(MultiGetKey{r.partition, r.key});
  }
  if (!keys.empty()) {
    auto values = cluster_->MultiGet(reads[fetch[0]].table, keys, stats);
    if (!values.ok()) return values.status();
    for (size_t j = 0; j < fetch.size(); ++j) {
      if (read_cache_ != nullptr) {
        // "Absent" is cached too: the row's absence is knowledge.
        auto entry = std::make_shared<ReadCacheEntry>();
        entry->found = (*values)[j].has_value();
        if (entry->found) entry->value = *(*values)[j];  // shares the buffer
        const size_t charge = CacheCharge(bkeys[j], entry->value);
        read_cache_->Put(bkeys[j], std::move(entry), charge);
      }
      raw[fetch[j]] = std::move((*values)[j]);
    }
  }

  // (2c) The needed scans: the byte tier, then one Cluster::MultiScan for
  // the rest, which sends one request per serving storage node.
  std::vector<size_t> scan_fetch;
  std::vector<MultiScanPrefix> prefixes;
  for (size_t s : needed) {
    Scan& scan = scans[s];
    ++stats->kv_requests;
    if (scan.read->kind == kChainKind) ++stats->version_scans;
    if (read_cache_ != nullptr) {
      auto entry = read_cache_->Get(scan.bkey);
      if (entry.has_value()) {
        ++stats->cache_hits;
        scan.result = std::move(*entry);
        continue;
      }
      ++stats->cache_misses;
    }
    scan_fetch.push_back(s);
    prefixes.push_back(MultiScanPrefix{scan.read->table, scan.read->partition,
                                       std::string(scan.prefix)});
  }
  HGS_ASSIGN_OR_RETURN(std::vector<std::vector<KVPair>> answers,
                       cluster_->MultiScan(prefixes, stats));
  for (size_t j = 0; j < scan_fetch.size(); ++j) {
    Scan& scan = scans[scan_fetch[j]];
    auto entry = std::make_shared<ReadCacheEntry>();
    entry->pairs = std::move(answers[j]);
    if (read_cache_ != nullptr) {
      size_t charge = scan.bkey.size() + 64;
      for (const KVPair& kv : entry->pairs) {
        charge += kv.key.size() + kv.value.size() + 32;
      }
      read_cache_->Put(scan.bkey, entry, charge);
    }
    scan.result = std::move(entry);
  }

  // (3) Decode every miss exactly once, in parallel — each row type's
  // Deserialize reads the shared view in place through BinaryReader's
  // Read* family, with no staging copy — and (4) publish it in the decoded
  // tier for every later consumer. Each miss records the rows it decoded
  // and their bytes; the counters are summed after the join.
  std::vector<std::pair<size_t, size_t>> decoded(misses.size());
  HGS_RETURN_NOT_OK(StatusParallelFor(
      misses.size(), parallelism, [&](size_t m) -> Status {
        const size_t i = misses[m];
        const Read& r = reads[i];
        auto& [decoded_rows, decoded_bytes] = decoded[m];
        size_t charge = 0;
        if (r.kind == kScanKind) {
          // Rows decode (or decode-hit) at row granularity too, so point
          // reads of the same rows reuse them.
          auto scan = std::make_shared<DecodedScan>();
          const uint64_t sub = meta.SubEpochFor(r.table, r.partition);
          for (const KVPair& kv : scans[scan_of[i]].result->pairs) {
            std::string rkey;
            std::optional<DecodedEntry> row;
            if (decoded_cache_ != nullptr) {
              rkey = ReadCacheKey(r.row_kind, sub, r.table, r.partition,
                                  kv.key);
              row = decoded_cache_->Get(rkey);
            }
            if (!row.has_value() || row->obj == nullptr) {
              HGS_ASSIGN_OR_RETURN(auto obj, DecodeRow(r.row_kind, kv.value));
              ++decoded_rows;
              decoded_bytes += kv.value.size();
              row = DecodedEntry{std::move(obj.first), kv.value.size()};
              if (decoded_cache_ != nullptr) {
                const size_t row_charge = rkey.size() + obj.second + 64;
                decoded_cache_->Put(rkey, *row, row_charge);
              }
            }
            scan->rows.push_back(std::move(*row));
            out[i].raw_bytes += kv.value.size();
            // Charged at the full row-byte sum even though row-level
            // entries carry the same objects: warm scans touch only this
            // entry, so the row entries age out and it becomes the objects'
            // sole in-cache owner — over- rather than under-charging.
            charge += kv.value.size() + 32;
          }
          out[i].obj = std::move(scan);
        } else if (r.kind == kChainKind) {
          // The placement scan returns every node hashed there (virtually
          // always just this one): keep this node's segments, which arrive
          // in tsid order, concatenated unfiltered so every later time
          // window shares the one cached object.
          auto chain = std::make_shared<MergedVersionChain>();
          for (const KVPair& kv : scans[scan_of[i]].result->pairs) {
            if (!kv.key.starts_with(r.key)) continue;
            HGS_ASSIGN_OR_RETURN(
                tgi::VersionChainSegment seg,
                tgi::VersionChainSegment::Deserialize(kv.value));
            ++chain->segment_count;
            chain->raw_bytes += kv.value.size();
            chain->entries.insert(chain->entries.end(), seg.entries.begin(),
                                  seg.entries.end());
          }
          decoded_rows = chain->segment_count;
          decoded_bytes = chain->raw_bytes;
          charge = 48 + chain->entries.size() * sizeof(tgi::VersionEntry);
          out[i] = DecodedEntry{chain, chain->raw_bytes};
        } else if (raw[i].has_value()) {
          HGS_ASSIGN_OR_RETURN(auto obj, DecodeRow(r.kind, raw[i]->view()));
          decoded_rows = 1;
          decoded_bytes = raw[i]->size();
          out[i] = DecodedEntry{std::move(obj.first), raw[i]->size()};
          charge = obj.second;
        }
        // An absent row is negatively cached: its absence is knowledge too.
        if (decoded_cache_ != nullptr && r.kind != kMicropartKind) {
          decoded_cache_->Put(ckeys[i], out[i], ckeys[i].size() + charge + 64);
        }
        return Status::OK();
      }));
  // Every row a miss consumed counts one value and its bytes; the rows of a
  // scan that the row-level decoded tier served count as decode hits.
  for (size_t m = 0; m < misses.size(); ++m) {
    const size_t i = misses[m];
    const auto [decoded_rows, decoded_bytes] = decoded[m];
    size_t rows = decoded_rows;
    if (reads[i].kind == kScanKind) {
      rows = static_cast<const DecodedScan*>(out[i].obj.get())->rows.size();
    }
    stats->decodes += decoded_rows;
    stats->decoded_bytes += decoded_bytes;
    stats->decode_hits += rows - decoded_rows;
    stats->micro_deltas += rows;
    stats->bytes += out[i].raw_bytes;
  }
  return out;
}

void TGIQueryManager::CountDecodedHit(const Read& read,
                                      const DecodedEntry& entry,
                                      FetchStats* stats) {
  stats->bytes += entry.raw_bytes;
  if (read.kind == kScanKind) {
    const size_t rows =
        static_cast<const DecodedScan*>(entry.obj.get())->rows.size();
    stats->decode_hits += rows;
    stats->micro_deltas += rows;
  } else if (read.kind == kChainKind) {
    ++stats->decode_hits;
    stats->micro_deltas +=
        static_cast<const MergedVersionChain*>(entry.obj.get())->segment_count;
  } else {
    ++stats->kv_requests;
    ++stats->decode_hits;
    if (entry.obj != nullptr) ++stats->micro_deltas;
  }
}

void TGIQueryManager::MergeSlots::Add(const Read& read,
                                      const DecodedEntry& result) {
  auto add = [&](const void* obj) {
    if (obj == nullptr) return;
    if (read.row_kind == kEventListKind) {
      evls.push_back(static_cast<const EventList*>(obj));
    } else {
      deltas.push_back(static_cast<const Delta*>(obj));
    }
  };
  if (read.kind != kScanKind) {
    add(result.obj.get());
    return;
  }
  for (const DecodedEntry& row :
       static_cast<const DecodedScan*>(result.obj.get())->rows) {
    add(row.obj.get());
  }
}

Delta TGIQueryManager::MergeSlots::Materialize(Timestamp t) const {
  Delta acc = Delta::SumAll(deltas);
  acc.ApplyEvents(evls, kMinTimestamp, t);
  return acc;
}

std::vector<TGIQueryManager::Read> TGIQueryManager::PlanDeltaReads(
    const tgi::GraphMeta& graph, const tgi::TimespanMeta& span,
    const std::vector<DeltaId>& dids,
    const std::vector<MicroPartitionId>* pids, bool aux) {
  const size_t ns = graph.num_horizontal_partitions;
  const auto order = static_cast<ClusteringOrder>(graph.clustering_order);
  // Delta-major rows of one did are contiguous, so a whole-span read is one
  // scan per horizontal partition (Section 4.4); partition-major rows are
  // keyed pid-first, so every (did, pid) row is its own point read.
  std::vector<MicroPartitionId> all;
  if (pids == nullptr && order == ClusteringOrder::kPartitionMajor) {
    all.resize(span.num_micro_partitions);
    std::iota(all.begin(), all.end(), MicroPartitionId{0});
    pids = &all;
  }
  std::vector<Read> reads;
  for (bool aux_pass : {false, true}) {
    if (aux_pass && !aux) break;
    for (DeltaId did : dids) {
      const char kind = IsEventlist(did) ? kEventListKind : kDeltaKind;
      if (pids == nullptr) {
        for (size_t sid = 0; sid < ns; ++sid) {
          reads.push_back(Read{
              tgi::kDeltasTable,
              tgi::DeltaPlacement(span.tsid, static_cast<PartitionId>(sid),
                                  ns),
              tgi::DeltaScanPrefix(did), kScanKind, kind});
        }
        continue;
      }
      for (MicroPartitionId pid : *pids) {
        reads.push_back(
            Read{tgi::kDeltasTable,
                 tgi::DeltaPlacement(span.tsid, tgi::SidOf(pid, ns), ns),
                 tgi::DeltaRowKey(order, did, pid, aux_pass), kind, kind});
      }
    }
  }
  return reads;
}

std::vector<TGIQueryManager::Read> TGIQueryManager::PlanRangeEventlistReads(
    const MetaState& meta, Timestamp from, Timestamp to) {
  std::vector<Read> reads;
  for (const auto& span : meta.spans) {
    if (span.end <= from || span.start > to) continue;
    std::vector<DeltaId> dids;
    for (size_t j = 0; j < span.eventlist_bounds.size(); ++j) {
      const auto& [first, last] = span.eventlist_bounds[j];
      if (last > from && first <= to) dids.push_back(tgi::EventlistDid(j));
    }
    for (Read& r : PlanDeltaReads(meta.graph, span, dids, nullptr, false)) {
      reads.push_back(std::move(r));
    }
  }
  return reads;
}

Result<std::vector<MicroPartitionId>> TGIQueryManager::PidsOf(
    const MetaState& meta, const std::vector<NodeId>& ids,
    const tgi::TimespanMeta& span, FetchStats* stats) {
  std::vector<MicroPartitionId> out(ids.size());
  const Partitioning hash = Partitioning::Random(span.num_micro_partitions);
  if (span.strategy == static_cast<uint8_t>(PartitionStrategy::kRandom)) {
    for (size_t i = 0; i < ids.size(); ++i) out[i] = hash.Of(ids[i]);
    return out;
  }
  auto pid_in = [&](const std::unordered_map<NodeId, MicroPartitionId>& map,
                    NodeId id) {
    auto it = map.find(id);
    return it != map.end() ? it->second : hash.HashFallback(id);
  };
  const size_t buckets =
      std::max<uint32_t>(1, meta.graph.micropartition_buckets);
  std::vector<Read> reads;
  std::vector<std::pair<size_t, size_t>> pending;  // (id index, read index)
  {
    std::unordered_map<uint64_t, size_t> read_of;
    std::unordered_set<uint64_t> served;
    FetchStats hits;
    MutexLock lock(micropart_mu_);
    for (size_t i = 0; i < ids.size(); ++i) {
      const uint64_t bucket = tgi::NodePlacement(ids[i]) % buckets;
      const uint64_t part = static_cast<uint64_t>(span.tsid) * buckets + bucket;
      auto it = micropart_cache_.find(part);
      if (it != micropart_cache_.end() &&
          it->second.epoch == meta.SubEpochFor(tgi::kMicropartsTable, part)) {
        // The bucket's decoded node→pid map is already in memory at this
        // scope's sub-epoch: zero fetch and zero deserialization. A stale
        // bucket (filled by an in-flight old-snapshot query) is a miss. A
        // hit counts, once per bucket, what the bucket's cold read counts.
        if (served.insert(part).second) {
          ++hits.kv_requests;
          ++hits.decode_hits;
          hits.bytes += it->second.raw_bytes;
          if (it->second.raw_bytes > 0) ++hits.micro_deltas;
        }
        out[i] = pid_in(it->second.map, ids[i]);
        continue;
      }
      auto [r, inserted] = read_of.emplace(part, reads.size());
      if (inserted) {
        reads.push_back(
            Read{tgi::kMicropartsTable, part,
                 tgi::MicropartBucketRowKey(static_cast<uint32_t>(bucket)),
                 kMicropartKind});
      }
      pending.emplace_back(i, r->second);
    }
    if (stats != nullptr) stats->Merge(hits);
  }
  if (reads.empty()) return out;
  HGS_ASSIGN_OR_RETURN(std::vector<DecodedEntry> rows,
                       Execute(meta, reads, stats));
  std::vector<MicropartBucket> fetched(reads.size());
  for (size_t r = 0; r < reads.size(); ++r) {
    fetched[r].epoch = meta.SubEpochFor(tgi::kMicropartsTable,
                                        reads[r].partition);
    fetched[r].raw_bytes = rows[r].raw_bytes;
    if (rows[r].obj == nullptr) continue;  // no bucket row: all hashed
    const auto& entries =
        *static_cast<const MicropartEntries*>(rows[r].obj.get());
    fetched[r].map.reserve(entries.size());
    for (const auto& [nid, pid] : entries) {
      if (pid >= span.num_micro_partitions) {
        return Status::Corruption(
            "micropartition bucket maps node " + std::to_string(nid) +
            " to pid " + std::to_string(pid) + " of a span with " +
            std::to_string(span.num_micro_partitions) + " micro-partitions");
      }
      fetched[r].map[nid] = pid;
    }
  }
  for (const auto& [i, r] : pending) out[i] = pid_in(fetched[r].map, ids[i]);
  MutexLock lock(micropart_mu_);
  for (size_t r = 0; r < reads.size(); ++r) {
    micropart_cache_[reads[r].partition] = std::move(fetched[r]);
  }
  return out;
}

Result<Delta> TGIQueryManager::GetSnapshotDelta(Timestamp t,
                                                FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta, EnsureFresh(stats));
  return GetSnapshotDeltaWith(*meta, t, stats);
}

Result<Delta> TGIQueryManager::GetSnapshotDeltaWith(const MetaState& meta,
                                                    Timestamp t,
                                                    FetchStats* stats) {
  t = meta.Horizon(t);
  const tgi::TimespanMeta* span = SpanFor(meta, t);
  if (span == nullptr) return Delta();  // before all history
  std::vector<DeltaId> dids = DidPath(*span, t);
  // The root state stands in for the root's rows (dids[0], when the path
  // has a tree part). Without a decoded tier the rows merge as they are.
  std::string root_key;
  std::shared_ptr<const RootState> root;
  if (decoded_cache_ != nullptr && !dids.empty() && !IsEventlist(dids[0])) {
    root_key = RootStateKey(
        *span, meta.graph.num_horizontal_partitions, [&](uint64_t partition) {
          return meta.SubEpochFor(tgi::kDeltasTable, partition);
        });
    if (std::optional<DecodedEntry> hit = decoded_cache_->Get(root_key)) {
      root = std::static_pointer_cast<const RootState>(hit->obj);
      if (stats != nullptr) stats->Merge(root->reads);
      dids.erase(dids.begin());
    }
  }
  const std::vector<Read> reads =
      PlanDeltaReads(meta.graph, *span, dids, nullptr, false);
  HGS_ASSIGN_OR_RETURN(std::vector<DecodedEntry> rows,
                       Execute(meta, reads, stats));
  // The reads are laid out in merge-slot order, [did][partition]. On a
  // miss the root rows are summed into the state only when the tier can
  // keep it: a root of one row would only be copied, and a state whose
  // rows' stored bytes alone exceed a shard would be refused (the tier's
  // oversize rule). Otherwise the rows merge as they are.
  size_t k = 0;
  if (!root_key.empty() && root == nullptr) {
    const size_t root_reads = reads.size() / dids.size();
    MergeSlots root_rows;
    size_t root_bytes = root_key.size() + 64;
    for (size_t i = 0; i < root_reads; ++i) {
      root_rows.Add(reads[i], rows[i]);
      root_bytes += rows[i].raw_bytes;
    }
    if (root_rows.deltas.size() > 1 &&
        root_bytes <= decoded_cache_->capacity_bytes() / kCacheShards) {
      auto built = std::make_shared<RootState>();
      for (; k < root_reads; ++k) {
        CountDecodedHit(reads[k], rows[k], &built->reads);
        if (reads[k].kind == kScanKind) {
          ++built->reads.kv_requests;  // one scan request, served from cache
          ++built->reads.cache_hits;
        }
      }
      built->state = Delta::SumAll(root_rows.deltas);
      const size_t charge =
          root_key.size() + built->state.SerializedSizeBytes() + 64;
      decoded_cache_->Put(root_key, DecodedEntry{built, built->reads.bytes},
                          charge);
      root = std::move(built);
    }
  }
  MergeSlots slots;
  if (root != nullptr) slots.deltas.push_back(&root->state);
  for (; k < reads.size(); ++k) slots.Add(reads[k], rows[k]);
  return slots.Materialize(t);
}

Result<Graph> TGIQueryManager::GetSnapshot(Timestamp t, FetchStats* stats) {
  // Timed end to end: materializing the graph is part of the call.
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta, EnsureFresh(stats));
  HGS_ASSIGN_OR_RETURN(Delta d, GetSnapshotDeltaWith(*meta, t, stats));
  return d.ToGraph();
}

Result<std::vector<Graph>> TGIQueryManager::GetMultipointSnapshots(
    const std::vector<Timestamp>& times, FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta_ref, EnsureFresh(stats));
  const MetaState& meta = *meta_ref;
  std::vector<Timestamp> at(times.size());
  for (size_t i = 0; i < times.size(); ++i) at[i] = meta.Horizon(times[i]);
  std::vector<Timestamp> sorted = at;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  // Chains: runs of points sharing a span and a checkpoint, as [start, end)
  // ranges of `sorted`. A point before all history is a chain of its own.
  std::vector<size_t> chain_start;
  const tgi::TimespanMeta* prev_span = nullptr;
  int32_t prev_cpi = -1;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const tgi::TimespanMeta* span = SpanFor(meta, sorted[i]);
    const int32_t cpi =
        span == nullptr ? -1 : span->CheckpointBefore(sorted[i]);
    if (span == nullptr || span != prev_span || cpi != prev_cpi) {
      chain_start.push_back(i);
    }
    prev_span = span;
    prev_cpi = cpi;
  }
  chain_start.push_back(sorted.size());

  std::vector<Graph> by_sorted_index(sorted.size());
  HGS_RETURN_NOT_OK(RunTasks(
      chain_start.size() - 1, fetch_parallelism(), stats,
      [&](size_t c, FetchStats* local) -> Status {
        const size_t first = chain_start[c];
        HGS_ASSIGN_OR_RETURN(Delta state,
                             GetSnapshotDeltaWith(meta, sorted[first], local));
        by_sorted_index[first] = state.ToGraph();
        const tgi::TimespanMeta* span = SpanFor(meta, sorted[first]);
        for (size_t i = first + 1; i < chain_start[c + 1]; ++i) {
          // Same span, same checkpoint: replay only the eventlists covering
          // (previous point, this point].
          const Timestamp from = sorted[i - 1];
          const Timestamp t = sorted[i];
          std::vector<DeltaId> dids;
          for (int32_t j = std::max(span->EventlistCovering(from), 0);
               j <= span->EventlistCovering(t); ++j) {
            dids.push_back(tgi::EventlistDid(static_cast<size_t>(j)));
          }
          const std::vector<Read> reads =
              PlanDeltaReads(meta.graph, *span, dids, nullptr, false);
          HGS_ASSIGN_OR_RETURN(std::vector<DecodedEntry> rows,
                               Execute(meta, reads, local));
          MergeSlots slots;
          for (size_t k = 0; k < reads.size(); ++k) {
            slots.Add(reads[k], rows[k]);
          }
          state.ApplyEvents(slots.evls, from, t);
          by_sorted_index[i] = state.ToGraph();
        }
        return Status::OK();
      }));

  // Restore the caller's ordering: each materialized graph is moved into
  // its last output slot and copied only for duplicate timestamps.
  std::vector<size_t> slot_of(times.size());
  std::vector<size_t> last_user(by_sorted_index.size());
  for (size_t i = 0; i < times.size(); ++i) {
    auto it = std::lower_bound(sorted.begin(), sorted.end(), at[i]);
    slot_of[i] = static_cast<size_t>(it - sorted.begin());
    last_user[slot_of[i]] = i;
  }
  std::vector<Graph> out(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    const size_t s = slot_of[i];
    if (i == last_user[s]) {
      out[i] = std::move(by_sorted_index[s]);
    } else {
      out[i] = by_sorted_index[s];
    }
  }
  return out;
}

Result<std::vector<Delta>> TGIQueryManager::FetchMicroStatesAt(
    const MetaState& meta, const tgi::TimespanMeta& span,
    const std::vector<MicroPartitionId>& pids, Timestamp t, bool include_aux,
    FetchStats* stats) {
  std::vector<Delta> out(pids.size());
  if (pids.empty()) return out;
  // Every (did, pid) row — and its aux twin — is an independent point
  // read: one batch covers all requested micro-partitions.
  const std::vector<DeltaId> dids = DidPath(span, t);
  const std::vector<Read> reads =
      PlanDeltaReads(meta.graph, span, dids, &pids, include_aux);
  HGS_ASSIGN_OR_RETURN(std::vector<DecodedEntry> rows,
                       Execute(meta, reads, stats));

  // Merge per pid. Rows sit at [aux pass][did][pid], so taking a pid's rows
  // in (did, pass) order keeps its tree rows ahead of its eventlist rows.
  const size_t np = pids.size();
  const size_t nd = dids.size();
  ParallelFor(np, fetch_parallelism(), [&](size_t p) {
    MergeSlots slots;
    for (size_t i = 0; i < nd; ++i) {
      for (size_t pass = 0; pass < (include_aux ? 2u : 1u); ++pass) {
        const size_t k = (pass * nd + i) * np + p;
        slots.Add(reads[k], rows[k]);
      }
    }
    out[p] = slots.Materialize(t);
  });
  return out;
}

Result<Delta> TGIQueryManager::GetNodeStateDelta(NodeId id, Timestamp t,
                                                 FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta, EnsureFresh(stats));
  return GetNodeStateDeltaWith(*meta, id, t, stats);
}

Result<Delta> TGIQueryManager::GetNodeStateDeltaWith(const MetaState& meta,
                                                     NodeId id, Timestamp t,
                                                     FetchStats* stats) {
  t = meta.Horizon(t);
  const tgi::TimespanMeta* span = SpanFor(meta, t);
  if (span == nullptr) return Delta();
  HGS_ASSIGN_OR_RETURN(std::vector<MicroPartitionId> pid,
                       PidsOf(meta, {id}, *span, stats));
  HGS_ASSIGN_OR_RETURN(std::vector<Delta> micro,
                       FetchMicroStatesAt(meta, *span, pid, t, false, stats));
  return micro[0].FilterById(id);
}

Result<NodeHistory> TGIQueryManager::GetNodeHistory(NodeId id, Timestamp from,
                                                    Timestamp to,
                                                    FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta, EnsureFresh(stats));
  return GetNodeHistoryWith(*meta, id, from, to, stats);
}

Result<NodeHistory> TGIQueryManager::GetNodeHistoryWith(const MetaState& meta,
                                                        NodeId id,
                                                        Timestamp from,
                                                        Timestamp to,
                                                        FetchStats* stats) {
  // Single retrieval = bulk retrieval of one id, so the two stay
  // result-identical by construction.
  HGS_ASSIGN_OR_RETURN(
      std::vector<NodeHistory> hists,
      GetNodeHistoriesWith(meta, {id}, from, to, stats));
  return std::move(hists[0]);
}

Result<std::vector<NodeHistory>> TGIQueryManager::GetNodeHistories(
    const std::vector<NodeId>& ids, Timestamp from, Timestamp to,
    FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta, EnsureFresh(stats));
  return GetNodeHistoriesWith(*meta, ids, from, to, stats);
}

Result<std::vector<NodeHistory>> TGIQueryManager::GetNodeHistoriesWith(
    const MetaState& meta, const std::vector<NodeId>& ids, Timestamp from,
    Timestamp to, FetchStats* stats) {
  if (stats != nullptr) stats->node_requests += ids.size();
  if (ids.empty()) return std::vector<NodeHistory>();
  // Work on the deduplicated id set; duplicates share one retrieval.
  std::vector<NodeId> uniq;
  std::unordered_map<NodeId, size_t> uniq_index;
  uniq.reserve(ids.size());
  for (NodeId id : ids) {
    if (uniq_index.emplace(id, uniq.size()).second) uniq.push_back(id);
  }

  // ---- Initial states (node + incident edges at `from`), batched: all
  // requested ids resolve to micro-partitions first, then every touched
  // micro-partition is reconstructed exactly once.
  std::vector<Delta> initials(uniq.size());
  const Timestamp start = meta.Horizon(from);
  const tgi::TimespanMeta* span0 = SpanFor(meta, start);
  if (span0 != nullptr) {
    HGS_ASSIGN_OR_RETURN(std::vector<MicroPartitionId> pid_of_uniq,
                         PidsOf(meta, uniq, *span0, stats));
    std::vector<MicroPartitionId> pids = pid_of_uniq;
    std::sort(pids.begin(), pids.end());
    pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
    HGS_ASSIGN_OR_RETURN(
        std::vector<Delta> states,
        FetchMicroStatesAt(meta, *span0, pids, start, false, stats));
    std::vector<size_t> state_of(uniq.size());
    for (size_t u = 0; u < uniq.size(); ++u) {
      state_of[u] = static_cast<size_t>(
          std::lower_bound(pids.begin(), pids.end(), pid_of_uniq[u]) -
          pids.begin());
    }
    initials = CutStates(states, uniq, state_of);
  }

  HGS_ASSIGN_OR_RETURN(
      std::vector<NodeHistory> hist_of,
      AssembleHistories(meta, uniq, std::move(initials), from, to, stats));
  if (uniq.size() == ids.size()) return hist_of;  // uniq order == input
  std::vector<NodeHistory> out(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    out[i] = hist_of[uniq_index.at(ids[i])];
  }
  return out;
}

Result<std::vector<NodeHistory>> TGIQueryManager::GetNodeHistoriesWhere(
    Timestamp from, Timestamp to,
    const std::function<bool(NodeId, const NodeRecord*)>& keep,
    FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta_ref, EnsureFresh(stats));
  const MetaState& meta = *meta_ref;

  // ---- Every micro-partition of the span covering `from`, rebuilt at
  // `from` once: candidates, presence and initial states all come from
  // these states.
  const Timestamp start = meta.Horizon(from);
  const Timestamp upto = meta.Horizon(to);
  const tgi::TimespanMeta* span0 = SpanFor(meta, start);
  std::vector<Delta> states;
  if (span0 != nullptr) {
    std::vector<MicroPartitionId> all(span0->num_micro_partitions);
    std::iota(all.begin(), all.end(), MicroPartitionId{0});
    HGS_ASSIGN_OR_RETURN(
        states, FetchMicroStatesAt(meta, *span0, all, start, false, stats));
  }
  // (id, micro-partition) of every selected node. A node's record lives in
  // its own micro-partition's rows only.
  std::vector<std::pair<NodeId, size_t>> selected;
  for (size_t p = 0; p < states.size(); ++p) {
    states[p].ForEachNodeEntry(
        [&](NodeId id, const std::optional<NodeRecord>& rec) {
          if (rec.has_value() && keep(id, &*rec)) selected.emplace_back(id, p);
        });
  }

  // ---- Arrivals: nodes a kAddNode in (from, to] adds that are absent at
  // `from`, read straight off the range's decoded eventlist rows.
  if (upto > from) {
    const std::vector<Read> reads = PlanRangeEventlistReads(meta, from, upto);
    HGS_ASSIGN_OR_RETURN(std::vector<DecodedEntry> rows,
                         Execute(meta, reads, stats));
    MergeSlots slots;
    for (size_t k = 0; k < reads.size(); ++k) slots.Add(reads[k], rows[k]);
    std::vector<NodeId> added;
    for (const EventList* evl : slots.evls) {
      for (const Event& e : evl->events()) {
        if (e.type == EventType::kAddNode && e.time > from && e.time <= upto) {
          added.push_back(e.u);
        }
      }
    }
    std::sort(added.begin(), added.end());
    added.erase(std::unique(added.begin(), added.end()), added.end());
    std::vector<MicroPartitionId> pid_of(added.size(), 0);
    if (span0 != nullptr) {
      HGS_ASSIGN_OR_RETURN(pid_of, PidsOf(meta, added, *span0, stats));
    }
    for (size_t i = 0; i < added.size(); ++i) {
      if (!states.empty()) {
        const auto* rec = states[pid_of[i]].FindNode(added[i]);
        if (rec != nullptr && rec->has_value()) continue;  // present
      }
      if (keep(added[i], nullptr)) selected.emplace_back(added[i], pid_of[i]);
    }
  }

  std::sort(selected.begin(), selected.end());
  std::vector<NodeId> ids(selected.size());
  std::vector<size_t> state_of(selected.size());
  for (size_t u = 0; u < selected.size(); ++u) {
    std::tie(ids[u], state_of[u]) = selected[u];
  }
  if (stats != nullptr) stats->node_requests += ids.size();
  std::vector<Delta> initials = states.empty()
                                    ? std::vector<Delta>(ids.size())
                                    : CutStates(states, ids, state_of);
  return AssembleHistories(meta, ids, std::move(initials), from, to, stats);
}

std::vector<Delta> TGIQueryManager::CutStates(
    const std::vector<Delta>& states, const std::vector<NodeId>& ids,
    const std::vector<size_t>& state_of) {
  std::vector<std::vector<size_t>> members(states.size());
  for (size_t u = 0; u < ids.size(); ++u) members[state_of[u]].push_back(u);
  std::vector<Delta> out(ids.size());
  ParallelFor(states.size(), fetch_parallelism(), [&](size_t p) {
    std::vector<size_t>& us = members[p];
    if (us.empty()) return;
    std::sort(us.begin(), us.end(),
              [&](size_t a, size_t b) { return ids[a] < ids[b]; });
    std::vector<NodeId> sorted(us.size());
    for (size_t i = 0; i < us.size(); ++i) sorted[i] = ids[us[i]];
    std::vector<Delta> cut = states[p].FilterByIds(sorted);
    for (size_t i = 0; i < us.size(); ++i) out[us[i]] = std::move(cut[i]);
  });
  return out;
}

Result<std::vector<NodeHistory>> TGIQueryManager::AssembleHistories(
    const MetaState& meta, const std::vector<NodeId>& ids,
    std::vector<Delta> initials, Timestamp from, Timestamp to,
    FetchStats* stats) {
  std::vector<NodeHistory> out(ids.size());
  if (ids.empty()) return out;
  const Timestamp upto = meta.Horizon(to);
  // One merged version chain per node: a warm node — hub or not — costs
  // one decoded probe and no versions-table scan.
  std::vector<Read> chain_reads;
  chain_reads.reserve(ids.size());
  for (NodeId id : ids) {
    chain_reads.push_back(Read{tgi::kVersionsTable, tgi::NodePlacement(id),
                               tgi::VersionScanPrefix(id), kChainKind});
  }
  HGS_ASSIGN_OR_RETURN(std::vector<DecodedEntry> chains,
                       Execute(meta, chain_reads, stats));

  // ---- Every referenced eventlist, fetched once however many of the
  // requested nodes share it. refs_of[u] indexes the deduplicated batch in
  // ids[u]'s chain order, so a per-node replay applies eventlists exactly
  // as a per-node retrieval would.
  const size_t ns = meta.graph.num_horizontal_partitions;
  const auto order = static_cast<ClusteringOrder>(meta.graph.clustering_order);
  std::vector<std::vector<size_t>> refs_of(ids.size());
  std::vector<Read> reads;
  std::unordered_map<std::string, size_t> index;  // placement \0 row key
  uint64_t total_refs = 0;
  for (size_t u = 0; u < ids.size(); ++u) {
    const auto* chain =
        static_cast<const MergedVersionChain*>(chains[u].obj.get());
    for (const tgi::VersionEntry& e : chain->entries) {
      if (e.last_time <= from || e.first_time > upto) continue;
      ++total_refs;
      Read r{tgi::kDeltasTable,
             tgi::DeltaPlacement(e.tsid, tgi::SidOf(e.pid, ns), ns),
             tgi::DeltaRowKey(order, tgi::EventlistDid(e.eventlist_index),
                              e.pid, false),
             kEventListKind, kEventListKind};
      std::string dedup;
      dedup.reserve(8 + 1 + r.key.size());
      AppendOrdered64(&dedup, r.partition);
      dedup.push_back('\0');
      dedup.append(r.key);
      auto [it, inserted] = index.emplace(std::move(dedup), reads.size());
      if (inserted) reads.push_back(std::move(r));
      refs_of[u].push_back(it->second);
    }
  }
  if (stats != nullptr) {
    stats->eventlist_refs += total_refs;
    stats->eventlist_fetches += reads.size();
  }
  // Rows already decoded come straight from the decoded tier; the rest ride
  // one MultiGet and decode exactly once however many nodes share them.
  HGS_ASSIGN_OR_RETURN(std::vector<DecodedEntry> evls,
                       Execute(meta, reads, stats));
  const size_t nk = evls.size();

  // ---- Demultiplex. Each decoded eventlist is scanned once — not once per
  // referencing node — bucketing its in-range events by requested member
  // (members_of[k]); each node then drains its buckets in chain order, so
  // per-node event order matches the per-node path exactly.
  std::vector<std::unordered_map<NodeId, size_t>> members_of(nk);
  for (size_t u = 0; u < ids.size(); ++u) {
    for (size_t k : refs_of[u]) members_of[k].emplace(ids[u], u);
  }
  // buckets[k]: per referencing member, pointers to its events in order.
  std::vector<std::unordered_map<size_t, std::vector<const Event*>>> buckets(
      nk);
  ParallelFor(nk, fetch_parallelism(), [&](size_t k) {
    const auto* evl = static_cast<const EventList*>(evls[k].obj.get());
    if (evl == nullptr) return;
    auto& bucket = buckets[k];
    const auto& members = members_of[k];
    for (const Event& e : evl->events()) {
      if (e.time <= from || e.time > upto) continue;
      auto it = members.find(e.u);
      if (it != members.end()) bucket[it->second].push_back(&e);
      if (e.IsEdgeEvent() && e.v != e.u) {
        it = members.find(e.v);
        if (it != members.end()) bucket[it->second].push_back(&e);
      }
    }
  });

  for (size_t u = 0; u < ids.size(); ++u) {
    NodeHistory& history = out[u];
    history.node = ids[u];
    history.from = from;
    history.to = to;
    history.initial = std::move(initials[u]);
    history.events.SetScope(from, to);
    for (size_t k : refs_of[u]) {
      auto it = buckets[k].find(u);
      if (it == buckets[k].end()) continue;
      for (const Event* e : it->second) history.events.Append(*e);
    }
    history.events.Sort();
  }
  return out;
}

Result<std::vector<std::pair<Timestamp, Delta>>>
TGIQueryManager::GetNodeVersions(NodeId id, Timestamp from, Timestamp to,
                                 FetchStats* stats) {
  // Timed end to end: the replay into versions is part of the call.
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta, EnsureFresh(stats));
  HGS_ASSIGN_OR_RETURN(NodeHistory history,
                       GetNodeHistoryWith(*meta, id, from, to, stats));
  return history.Materialize();
}

Result<Graph> TGIQueryManager::GetKHopNeighborhood(NodeId id, Timestamp t,
                                                   int k, FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta_ref, EnsureFresh(stats));
  const MetaState& meta = *meta_ref;
  t = meta.Horizon(t);
  const tgi::TimespanMeta* span = SpanFor(meta, t);
  if (span == nullptr) return Graph();
  const bool replicated = meta.graph.replicate_one_hop;

  HGS_ASSIGN_OR_RETURN(std::vector<MicroPartitionId> center,
                       PidsOf(meta, {id}, *span, stats));
  HGS_ASSIGN_OR_RETURN(
      std::vector<Delta> center_state,
      FetchMicroStatesAt(meta, *span, center, t, replicated, stats));
  Delta acc = std::move(center_state[0]);

  std::unordered_set<MicroPartitionId> fetched_pids{center[0]};
  std::unordered_set<NodeId> visited{id};
  std::vector<NodeId> frontier{id};  // ascending

  for (int hop = 1; hop <= k && !frontier.empty(); ++hop) {
    // Discover the next ring in one pass over the accumulator's edges.
    auto in_frontier = [&](NodeId n) {
      return std::binary_search(frontier.begin(), frontier.end(), n);
    };
    std::unordered_set<NodeId> next;
    acc.ForEachEdgeEntry(
        [&](const EdgeKey& key, const std::optional<EdgeRecord>& rec) {
          if (!rec.has_value()) return;
          if (in_frontier(key.u) && !visited.contains(key.v)) {
            next.insert(key.v);
          }
          if (in_frontier(key.v) && !visited.contains(key.u)) {
            next.insert(key.u);
          }
        });
    const bool last_hop = hop == k;
    // Records for the new ring. On the last hop, nodes whose records are
    // already known — via their own partition or via aux replication rows —
    // need no further fetches (the paper's early termination).
    std::vector<NodeId> unknown;
    for (NodeId n : next) {
      const auto* rec = acc.FindNode(n);
      if (!(last_hop && rec != nullptr && rec->has_value())) {
        unknown.push_back(n);
      }
    }
    HGS_ASSIGN_OR_RETURN(std::vector<MicroPartitionId> unknown_pids,
                         PidsOf(meta, unknown, *span, stats));
    std::vector<MicroPartitionId> missing;
    for (MicroPartitionId pid : unknown_pids) {
      if (!fetched_pids.contains(pid)) missing.push_back(pid);
    }
    std::sort(missing.begin(), missing.end());
    missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
    // The whole expansion ring is fetched as one batched request.
    HGS_ASSIGN_OR_RETURN(
        std::vector<Delta> fetched,
        FetchMicroStatesAt(meta, *span, missing, t, replicated, stats));
    for (NodeId n : next) visited.insert(n);
    // One k-way pass folds the ring into the accumulator: equal to Adding
    // each partition in turn, without re-merging the accumulator each time.
    if (!fetched.empty()) {
      // The visited set is final after the last hop, and a restriction by
      // key commutes with Sum: there, every operand is cut to it first.
      if (last_hop) {
        acc = acc.FilterByNodes(visited);
        for (Delta& d : fetched) d = d.FilterByNodes(visited);
      }
      std::vector<const Delta*> operands{&acc};
      for (const Delta& d : fetched) operands.push_back(&d);
      acc = Delta::SumAll(operands);
    }
    fetched_pids.insert(missing.begin(), missing.end());
    frontier.assign(next.begin(), next.end());
    std::sort(frontier.begin(), frontier.end());
  }

  // Induced subgraph on the visited set, from whatever the fetch saw.
  return acc.FilterByNodes(visited).ToGraph();
}

Result<std::vector<Event>> TGIQueryManager::GetEventsInRange(
    Timestamp from, Timestamp to, FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta_ref, EnsureFresh(stats));
  const MetaState& meta = *meta_ref;
  to = meta.Horizon(to);

  const std::vector<Read> reads = PlanRangeEventlistReads(meta, from, to);
  HGS_ASSIGN_OR_RETURN(std::vector<DecodedEntry> rows,
                       Execute(meta, reads, stats));
  MergeSlots slots;
  for (size_t k = 0; k < reads.size(); ++k) slots.Add(reads[k], rows[k]);
  std::vector<std::vector<Event>> per_row(slots.evls.size());
  ParallelFor(slots.evls.size(), fetch_parallelism(), [&](size_t k) {
    for (const Event& e : slots.evls[k]->events()) {
      if (e.time > from && e.time <= to) per_row[k].push_back(e);
    }
  });

  std::vector<Event> merged;
  for (auto& part : per_row) {
    merged.insert(merged.end(), part.begin(), part.end());
  }
  // Edge events are stored in both endpoints' partition rows. The total
  // order makes the two copies adjacent even among events sharing a
  // timestamp, so unique drops every duplicate.
  std::sort(merged.begin(), merged.end(), EventTotalOrder);
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

Result<OneHopHistory> TGIQueryManager::GetOneHopHistory(NodeId id,
                                                        Timestamp from,
                                                        Timestamp to,
                                                        FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta_ref, EnsureFresh(stats));
  const MetaState& meta = *meta_ref;
  OneHopHistory out;
  HGS_ASSIGN_OR_RETURN(out.center,
                       GetNodeHistoryWith(meta, id, from, to, stats));

  // Neighbor activity intervals, by id: initial edges are active from
  // `from`; edge events extend / bound them (Algorithm 5's
  // UpdateNeighborInfo).
  std::map<NodeId, std::pair<Timestamp, Timestamp>> active;
  out.center.initial.ForEachEdgeEntry(
      [&](const EdgeKey& key, const std::optional<EdgeRecord>& rec) {
        if (!rec.has_value()) return;
        NodeId nbr = key.u == id ? key.v : key.u;
        active[nbr] = {from, to};
      });
  for (const Event& e : out.center.events.events()) {
    if (!e.IsEdgeEvent()) continue;
    NodeId nbr = e.u == id ? e.v : e.u;
    if (e.type == EventType::kAddEdge) {
      auto it = active.find(nbr);
      if (it == active.end()) {
        active[nbr] = {e.time, to};
      } else {
        it->second.second = to;  // re-activated: extend to the end
      }
    } else if (e.type == EventType::kRemoveEdge) {
      auto it = active.find(nbr);
      if (it != active.end()) it->second.second = e.time;
    }
  }

  // Every neighbor in one set-at-a-time plan over the union of the
  // windows, then each history cut to its own window.
  std::vector<NodeId> ids;
  std::vector<std::pair<Timestamp, Timestamp>> windows;
  Timestamp lo = to;
  Timestamp hi = from;
  for (const auto& [nbr, window] : active) {
    ids.push_back(nbr);
    windows.push_back(window);
    lo = std::min(lo, window.first);
    hi = std::max(hi, window.second);
  }
  HGS_ASSIGN_OR_RETURN(out.neighbors,
                       GetNodeHistoriesWith(meta, ids, lo, hi, stats));
  ParallelFor(ids.size(), fetch_parallelism(), [&](size_t i) {
    CutToWindow(&out.neighbors[i], windows[i].first, windows[i].second);
  });
  return out;
}

}  // namespace hgs
