#include "tgi/builder.h"

#include <algorithm>
#include <map>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "tgi/layout.h"

namespace hgs {

namespace {

// Scratch node of the intersection tree during construction.
struct TreeBuildNode {
  Delta delta;
  int parent = -1;
  int checkpoint_index = -1;
  std::vector<int> children;
};

// Groups a delta's components by micro-partition. Edge components are
// replicated into both endpoints' partitions (partitioned-snapshot semantics,
// Example 5).
std::unordered_map<MicroPartitionId, Delta> SplitDeltaByPid(
    const Delta& d, const std::function<MicroPartitionId(NodeId)>& pid_of) {
  std::unordered_map<MicroPartitionId, Delta> out;
  d.ForEachNodeEntry([&](NodeId id, const std::optional<NodeRecord>& rec) {
    Delta& slot = out[pid_of(id)];
    if (rec.has_value()) {
      slot.PutNode(id, *rec);
    } else {
      slot.TombstoneNode(id);
    }
  });
  d.ForEachEdgeEntry(
      [&](const EdgeKey& key, const std::optional<EdgeRecord>& rec) {
        MicroPartitionId pu = pid_of(key.u);
        MicroPartitionId pv = pid_of(key.v);
        auto put = [&](MicroPartitionId p) {
          Delta& slot = out[p];
          if (rec.has_value()) {
            slot.PutEdge(key, *rec);
          } else {
            slot.TombstoneEdge(key);
          }
        };
        put(pu);
        if (pv != pu) put(pv);
      });
  // The splits were built through O(1) appends; compact once so they
  // serialize and merge off their sorted spans.
  for (auto& [pid, slot] : out) slot.Compact();
  return out;
}

}  // namespace

TGIBuilder::TGIBuilder(Cluster* cluster, TGIOptions options)
    : cluster_(cluster), options_(options) {
  if (options_.eventlist_size == 0) options_.eventlist_size = 1;
  if (options_.micro_delta_size == 0) options_.micro_delta_size = 1;
  if (options_.num_horizontal_partitions == 0) {
    options_.num_horizontal_partitions = 1;
  }
  // The checkpoint interval must be a whole number of eventlists.
  options_.checkpoint_interval = options_.EffectiveCheckpointInterval();
}

size_t TGIBuilder::EffectiveIngestThreads() const {
  size_t n = options_.ingest_threads;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 8;
  }
  return n;
}

Status TGIBuilder::ValidateBatch(const std::vector<Event>& events) const {
  // Equal timestamps are allowed (simultaneous events are routine in real
  // traces); only going backwards in time is rejected. All read-side
  // routing (checkpoint selection, eventlist bounds, ApplyUpTo) treats
  // same-time events consistently via <=/> comparisons. One prepass over
  // the batch keeps this check out of the ingest hot loop and guarantees
  // span builds — including the parallel encode workers — never observe a
  // half-applied invalid batch.
  Timestamp prev = last_time_;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].time < prev) {
      return Status::InvalidArgument(
          "event timestamps must be non-decreasing: batch index " +
          std::to_string(i) + " (t=" + std::to_string(events[i].time) +
          ") precedes t=" + std::to_string(prev));
    }
    prev = events[i].time;
  }
  return Status::OK();
}

Status TGIBuilder::Ingest(const std::vector<Event>& events) {
  HGS_RETURN_NOT_OK(ValidateBatch(events));
  if (events.empty()) return Status::OK();
  if (first_time_ == kMaxTimestamp) first_time_ = events.front().time;
  last_time_ = events.back().time;
  for (const Event& e : events) {
    pending_.push_back(e);
    ++total_events_;
    if (pending_.size() >= options_.events_per_timespan) {
      std::vector<Event> span;
      span.swap(pending_);
      HGS_RETURN_NOT_OK(BuildTimespan(span));
    }
  }
  return Status::OK();
}

Status TGIBuilder::Finish() {
  if (!pending_.empty()) {
    std::vector<Event> span;
    span.swap(pending_);
    HGS_RETURN_NOT_OK(BuildTimespan(span));
  }
  tgi::GraphMeta meta;
  meta.start = first_time_ == kMaxTimestamp ? 0 : first_time_;
  meta.end = last_time_ == kMinTimestamp ? 0 : last_time_;
  meta.event_count = total_events_;
  meta.timespan_count = static_cast<uint32_t>(next_tsid_);
  meta.num_horizontal_partitions =
      static_cast<uint32_t>(options_.num_horizontal_partitions);
  meta.clustering_order = static_cast<uint8_t>(options_.clustering_order);
  meta.replicate_one_hop = options_.replicate_one_hop;
  meta.micropartition_buckets =
      static_cast<uint32_t>(options_.micropartition_buckets);
  HGS_RETURN_NOT_OK(
      cluster_->Put(tgi::kGraphTable, 0, "meta", meta.Serialize()));
  // Signal open query managers that their metadata and the scopes this
  // build wrote are stale; they refresh lazily on their next query,
  // keeping cache entries of untouched scopes warm.
  std::vector<EpochKey> touched;
  {
    MutexLock lock(touched_mu_);
    touched.swap(touched_scopes_);
  }
  touched.push_back(MakeEpochKey(tgi::kGraphTable, 0));
  cluster_->PublishTouched(std::move(touched));
  return Status::OK();
}

Status TGIBuilder::BulkLoad(const std::vector<Event>& events) {
  if (!pending_.empty()) {
    return Status::InvalidArgument(
        "BulkLoad requires timespan-aligned state (no partial span pending)");
  }
  HGS_RETURN_NOT_OK(ValidateBatch(events));
  if (events.empty()) return Finish();
  if (first_time_ == kMaxTimestamp) first_time_ = events.front().time;

  // Span boundaries; the trailing partial span is built exactly as a final
  // Finish() would build it.
  const size_t span_size = options_.events_per_timespan;
  std::vector<std::pair<size_t, size_t>> spans;
  for (size_t s = 0; s < events.size(); s += span_size) {
    spans.emplace_back(s, std::min(events.size(), s + span_size));
  }

  // Bottom-up build in windows of `workers` spans: the window's start
  // states are replayed ahead sequentially (one linear pass over the
  // events), then the member spans — which are independent given their
  // start states — build, encode and group-commit concurrently.
  const size_t workers = std::max<size_t>(1, EffectiveIngestThreads());
  size_t w0 = 0;
  while (w0 < spans.size()) {
    const size_t count = std::min(workers, spans.size() - w0);
    std::vector<Graph> starts;
    starts.reserve(count);
    starts.push_back(std::move(state_));
    for (size_t k = 1; k < count; ++k) {
      Graph g = starts[k - 1];
      for (size_t i = spans[w0 + k - 1].first; i < spans[w0 + k - 1].second;
           ++i) {
        ApplyEventToGraph(events[i], &g);
      }
      starts.push_back(std::move(g));
    }
    Graph window_end;
    HGS_RETURN_NOT_OK(StatusParallelFor(count, workers, [&](size_t k) {
      auto [begin, end] = spans[w0 + k];
      return BuildTimespanFrom(
          std::span<const Event>(events.data() + begin, end - begin),
          static_cast<TimespanId>(next_tsid_ + k), starts[k],
          k + 1 == count ? &window_end : nullptr);
    }));
    state_ = std::move(window_end);
    next_tsid_ += count;
    w0 += count;
  }
  total_events_ += events.size();
  last_time_ = events.back().time;
  // Publish the global metadata once, at the end.
  return Finish();
}

Status TGIBuilder::BuildTimespan(const std::vector<Event>& events) {
  HGS_RETURN_NOT_OK(BuildTimespanFrom(
      events, static_cast<TimespanId>(next_tsid_), state_, &state_));
  ++next_tsid_;
  return Status::OK();
}

Status TGIBuilder::BuildTimespanFrom(std::span<const Event> events,
                                     TimespanId tsid, const Graph& span_start,
                                     Graph* end_state) {
  const size_t l = options_.eventlist_size;
  const size_t cp = options_.checkpoint_interval;
  const size_t ns = options_.num_horizontal_partitions;
  const size_t workers = EffectiveIngestThreads();
  const Timestamp span_start_t = events.front().time;
  const Timestamp span_end_t = events.back().time;

  // ---- 1. Partitioning for this span. -----------------------------------
  // Size the micro-partition count for the node population of the span.
  size_t adds = 0;
  for (const Event& e : events) {
    if (e.type == EventType::kAddNode) ++adds;
  }
  size_t node_population = span_start.NumNodes() + adds;
  uint32_t k_parts = static_cast<uint32_t>(
      std::max<size_t>(1, (node_population + options_.micro_delta_size - 1) /
                              options_.micro_delta_size));

  DynamicPartitionOptions dyn;
  dyn.strategy = options_.partition_strategy;
  dyn.num_partitions = k_parts;
  dyn.collapse = options_.collapse;
  Partitioning partitioning = PartitionTimespan(
      span_start, events, TimeInterval{span_start_t, span_end_t + 1}, dyn);
  auto pid_of = [&partitioning](NodeId id) { return partitioning.Of(id); };

  // ---- 2. Serial streaming phase (ordering-sensitive). -------------------
  // Event routing, checkpoint placement and version-chain accumulation all
  // depend on stream position, so they run on one thread; everything they
  // produce is *deferred work* for the parallel encode phase below.
  Graph working = span_start;

  std::unordered_map<NodeId, size_t> node_first_touch;
  std::unordered_map<EdgeKey, size_t, EdgeKeyHash> edge_first_touch;
  // Capture buffers: checkpoint i's values of every key touched before it.
  // Left uncompacted here; the parallel patch pass compacts each leaf once.
  std::vector<Delta> leaves;  // leaf 0 = span start (filled from patches)
  std::vector<Timestamp> checkpoint_times;
  leaves.emplace_back();
  checkpoint_times.push_back(span_start_t - 1);

  // Micro-eventlists are closed in stream order but serialized later, in
  // parallel: one encode job per (eventlist index, micro-partition).
  struct EvlJob {
    size_t evl_index = 0;
    MicroPartitionId pid = 0;
    EventList evl;
  };
  std::vector<EvlJob> evl_jobs;
  std::vector<std::pair<Timestamp, Timestamp>> eventlist_bounds;
  std::unordered_map<MicroPartitionId, EventList> current_micro_evl;
  // Node events buffered for auxiliary (replication) eventlists; they can
  // only be routed once the span's full cut-edge map is known.
  std::vector<std::pair<size_t, Event>> buffered_node_events;
  size_t current_evl_index = 0;
  Timestamp current_evl_first = 0;

  // Version chains: node -> segment under construction.
  std::unordered_map<NodeId, tgi::VersionChainSegment> chains;

  // Span-wide union adjacency for replication (edge cuts only).
  // ext_nbr_of[n] = micro-partitions that replicate node n.
  std::unordered_map<NodeId, std::vector<MicroPartitionId>> replicated_into;
  auto note_edge_for_replication = [&](NodeId u, NodeId v) {
    if (!options_.replicate_one_hop) return;
    MicroPartitionId pu = pid_of(u);
    MicroPartitionId pv = pid_of(v);
    if (pu == pv) return;
    auto add = [&](NodeId n, MicroPartitionId p) {
      auto& vec = replicated_into[n];
      if (std::find(vec.begin(), vec.end(), p) == vec.end()) vec.push_back(p);
    };
    add(u, pv);
    add(v, pu);
  };
  if (options_.replicate_one_hop) {
    span_start.ForEachEdge([&](const EdgeKey& key, const EdgeRecord&) {
      note_edge_for_replication(key.u, key.v);
    });
  }

  auto flush_eventlist = [&](Timestamp last_t) {
    eventlist_bounds.emplace_back(current_evl_first, last_t);
    for (auto& [pid, evl] : current_micro_evl) {
      evl.SetScope(current_evl_first - 1, last_t);
      evl_jobs.push_back(EvlJob{current_evl_index, pid, std::move(evl)});
    }
    current_micro_evl.clear();
    ++current_evl_index;
  };

  auto record_version = [&](NodeId n, size_t evl_index, Timestamp t) {
    auto& seg = chains[n];
    if (seg.entries.empty()) {
      seg.node = n;
      seg.tsid = tsid;
      seg.pid = pid_of(n);
    }
    if (!seg.entries.empty() &&
        seg.entries.back().eventlist_index == evl_index) {
      seg.entries.back().last_time = t;
      seg.entries.back().event_count++;
      return;
    }
    tgi::VersionEntry entry;
    entry.tsid = tsid;
    entry.eventlist_index = static_cast<uint32_t>(evl_index);
    entry.pid = pid_of(n);
    entry.first_time = t;
    entry.last_time = t;
    entry.event_count = 1;
    seg.entries.push_back(entry);
  };

  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i % l == 0) current_evl_first = e.time;

    // Touched-key tracking.
    if (e.IsNodeEvent()) {
      node_first_touch.try_emplace(e.u, i);
    } else {
      edge_first_touch.try_emplace(EdgeKey(e.u, e.v), i);
      node_first_touch.try_emplace(e.u, i);
      node_first_touch.try_emplace(e.v, i);
      if (e.type == EventType::kAddEdge) {
        note_edge_for_replication(e.u, e.v);
      }
    }

    // Micro-eventlists: the event goes to every touched node's partition.
    MicroPartitionId pu = pid_of(e.u);
    current_micro_evl[pu].Append(e);
    record_version(e.u, current_evl_index, e.time);
    if (e.IsEdgeEvent()) {
      MicroPartitionId pv = pid_of(e.v);
      if (pv != pu) current_micro_evl[pv].Append(e);
      record_version(e.v, current_evl_index, e.time);
    } else if (options_.replicate_one_hop) {
      // Node events must also reach the partitions replicating this node;
      // buffered until the span's replication map is complete.
      buffered_node_events.emplace_back(current_evl_index, e);
    }

    ApplyEventToGraph(e, &working);

    bool end_of_eventlist = (i + 1) % l == 0 || i + 1 == events.size();
    if (end_of_eventlist) {
      flush_eventlist(e.time);
    }
    bool checkpoint_due = (i + 1) % cp == 0 && i + 1 < events.size();
    if (checkpoint_due) {
      // Capture current values of everything touched so far.
      Delta cb;
      for (const auto& [nid, first] : node_first_touch) {
        (void)first;
        const NodeRecord* rec = working.GetNode(nid);
        if (rec != nullptr) cb.PutNode(nid, *rec);
      }
      for (const auto& [key, first] : edge_first_touch) {
        (void)first;
        const EdgeRecord* rec = working.GetEdge(key.u, key.v);
        if (rec != nullptr) cb.PutEdge(key, *rec);
      }
      leaves.push_back(std::move(cb));
      checkpoint_times.push_back(e.time);
    }
  }

  // ---- 3. Parallel encode phase. -----------------------------------------
  // Everything below is deterministic given the stream phase's outputs, so
  // any worker count produces byte-identical rows.

  // 3a. Patch leaves with keys first touched after each checkpoint (their
  // state at the checkpoint equals their span-start state), then compact.
  ParallelFor(leaves.size(), workers, [&](size_t li) {
    size_t boundary = li * cp;  // events applied before checkpoint li
    Delta& leaf = leaves[li];
    for (const auto& [nid, first] : node_first_touch) {
      if (first >= boundary) {
        const NodeRecord* rec = span_start.GetNode(nid);
        if (rec != nullptr) leaf.PutNode(nid, *rec);
      }
    }
    for (const auto& [key, first] : edge_first_touch) {
      if (first >= boundary) {
        const EdgeRecord* rec = span_start.GetEdge(key.u, key.v);
        if (rec != nullptr) leaf.PutEdge(key, *rec);
      }
    }
    leaf.Compact();
  });

  // 3b. Span-stable delta: everything never touched during the span.
  Delta span_stable;
  span_start.ForEachNode([&](NodeId id, const NodeRecord& rec) {
    if (!node_first_touch.contains(id)) span_stable.PutNode(id, rec);
  });
  span_start.ForEachEdge([&](const EdgeKey& key, const EdgeRecord& rec) {
    if (!edge_first_touch.contains(key)) span_stable.PutEdge(key, rec);
  });
  span_stable.Compact();

  // 3c. Intersection tree over the checkpoint residues. Parents within one
  // level are independent, so each level's groups are created serially
  // (stable ids) and their intersection deltas computed in parallel.
  std::vector<TreeBuildNode> pool;
  pool.reserve(leaves.size() * 2);
  std::vector<int> level;
  for (size_t i = 0; i < leaves.size(); ++i) {
    TreeBuildNode node;
    node.delta = std::move(leaves[i]);
    node.checkpoint_index = static_cast<int>(i);
    pool.push_back(std::move(node));
    level.push_back(static_cast<int>(pool.size()) - 1);
  }
  uint32_t arity = std::max<uint32_t>(2, options_.hierarchy_arity);
  while (level.size() > 1) {
    std::vector<int> next;
    std::vector<int> fill;  // parents of this level, delta pending
    for (size_t i = 0; i < level.size(); i += arity) {
      size_t group_end = std::min(level.size(), i + arity);
      if (group_end - i == 1) {
        // Odd child out: promote it unchanged.
        next.push_back(level[i]);
        continue;
      }
      TreeBuildNode parent;
      for (size_t j = i; j < group_end; ++j) {
        parent.children.push_back(level[j]);
      }
      pool.push_back(std::move(parent));
      int parent_id = static_cast<int>(pool.size()) - 1;
      for (size_t j = i; j < group_end; ++j) {
        pool[static_cast<size_t>(level[j])].parent = parent_id;
      }
      fill.push_back(parent_id);
      next.push_back(parent_id);
    }
    // All of the level's nodes exist now, so the pool is stable while the
    // workers read children and write their own parent's delta.
    ParallelFor(fill.size(), workers, [&](size_t g) {
      TreeBuildNode& parent = pool[static_cast<size_t>(fill[g])];
      Delta d = pool[static_cast<size_t>(parent.children[0])].delta;
      for (size_t j = 1; j < parent.children.size(); ++j) {
        d = Delta::Intersect(
            d, pool[static_cast<size_t>(parent.children[j])].delta);
      }
      parent.delta = std::move(d);
    });
    level.swap(next);
  }
  int root_pool_id = level.empty() ? -1 : level[0];

  // BFS numbering: did 0 = root.
  std::vector<int> bfs;
  std::vector<int32_t> did_of_pool(pool.size(), -1);
  if (root_pool_id >= 0) {
    bfs.push_back(root_pool_id);
    for (size_t i = 0; i < bfs.size(); ++i) {
      for (int c : pool[static_cast<size_t>(bfs[i])].children) {
        bfs.push_back(c);
      }
    }
    for (size_t i = 0; i < bfs.size(); ++i) {
      did_of_pool[static_cast<size_t>(bfs[i])] = static_cast<int32_t>(i);
    }
  }

  // 3d. Encode tree deltas micro-partitioned (plus auxiliary replication
  // micro-deltas): one job per tree node, each producing its encoded rows.
  std::vector<tgi::TreeNode> tree_meta(bfs.size());
  std::vector<std::vector<PutRow>> tree_rows(bfs.size());
  ParallelFor(bfs.size(), workers, [&](size_t i) {
    const TreeBuildNode& node = pool[static_cast<size_t>(bfs[i])];
    tree_meta[i].checkpoint_index = node.checkpoint_index;
    tree_meta[i].parent =
        node.parent < 0 ? -1 : did_of_pool[static_cast<size_t>(node.parent)];
    Delta to_store;
    if (node.parent < 0) {
      to_store = Delta::Sum(span_stable, node.delta);
    } else {
      to_store = Delta::Difference(
          node.delta, pool[static_cast<size_t>(node.parent)].delta);
    }
    auto micro = SplitDeltaByPid(to_store, pid_of);
    DeltaId did = static_cast<DeltaId>(i);
    for (auto& [pid, d] : micro) {
      PartitionId sid = tgi::SidOf(pid, ns);
      tree_rows[i].push_back(
          PutRow{tgi::DeltaPlacement(tsid, sid, ns),
                 tgi::DeltaRowKey(options_.clustering_order, did, pid, false),
                 d.Serialize(), ValueSchema::kDelta,
                 options_.row_compression});
    }
    // Auxiliary replication micro-deltas: records of nodes replicated into
    // a partition because they are 1-hop neighbors across the cut.
    if (options_.replicate_one_hop) {
      std::unordered_map<MicroPartitionId, Delta> aux;
      to_store.ForEachNodeEntry(
          [&](NodeId id, const std::optional<NodeRecord>& rec) {
            auto it = replicated_into.find(id);
            if (it == replicated_into.end()) return;
            for (MicroPartitionId p : it->second) {
              if (rec.has_value()) {
                aux[p].PutNode(id, *rec);
              } else {
                aux[p].TombstoneNode(id);
              }
            }
          });
      for (auto& [pid, d] : aux) d.Compact();
      for (auto& [pid, d] : aux) {
        PartitionId sid = tgi::SidOf(pid, ns);
        tree_rows[i].push_back(
            PutRow{tgi::DeltaPlacement(tsid, sid, ns),
                   tgi::DeltaRowKey(options_.clustering_order, did, pid, true),
                   d.Serialize(), ValueSchema::kDelta,
                   options_.row_compression});
      }
    }
  });

  // 3e. Serialize the micro-eventlists closed during streaming.
  std::vector<PutRow> evl_rows(evl_jobs.size());
  ParallelFor(evl_jobs.size(), workers, [&](size_t j) {
    EvlJob& job = evl_jobs[j];
    PartitionId sid = tgi::SidOf(job.pid, ns);
    evl_rows[j] =
        PutRow{tgi::DeltaPlacement(tsid, sid, ns),
               tgi::DeltaRowKey(options_.clustering_order,
                                tgi::EventlistDid(job.evl_index), job.pid,
                                false),
               job.evl.Serialize(), ValueSchema::kEventList,
               options_.eventlist_compression};
  });

  // 3f. Auxiliary (replication) eventlists: routed serially now that the
  // span's replication map is complete, serialized in parallel.
  std::vector<std::pair<std::pair<size_t, MicroPartitionId>, EventList>>
      aux_evl_jobs;
  if (options_.replicate_one_hop && !buffered_node_events.empty()) {
    // (eventlist index, pid) -> events of nodes replicated into pid.
    std::map<std::pair<size_t, MicroPartitionId>, EventList> aux_evls;
    for (const auto& [evl_index, e] : buffered_node_events) {
      auto it = replicated_into.find(e.u);
      if (it == replicated_into.end()) continue;
      for (MicroPartitionId p : it->second) {
        aux_evls[{evl_index, p}].Append(e);
      }
    }
    aux_evl_jobs.assign(std::make_move_iterator(aux_evls.begin()),
                        std::make_move_iterator(aux_evls.end()));
  }
  std::vector<PutRow> aux_evl_rows(aux_evl_jobs.size());
  ParallelFor(aux_evl_jobs.size(), workers, [&](size_t j) {
    auto& [key, evl] = aux_evl_jobs[j];
    auto [evl_index, pid] = key;
    evl.SetScope(eventlist_bounds[evl_index].first - 1,
                 eventlist_bounds[evl_index].second);
    PartitionId sid = tgi::SidOf(pid, ns);
    aux_evl_rows[j] =
        PutRow{tgi::DeltaPlacement(tsid, sid, ns),
               tgi::DeltaRowKey(options_.clustering_order,
                                tgi::EventlistDid(evl_index), pid, true),
               evl.Serialize(), ValueSchema::kEventList,
               options_.eventlist_compression};
  });

  // 3g. Version chains.
  std::vector<tgi::VersionChainSegment*> chain_jobs;
  chain_jobs.reserve(chains.size());
  for (auto& [nid, seg] : chains) chain_jobs.push_back(&seg);
  std::vector<PutRow> version_rows(chain_jobs.size());
  ParallelFor(chain_jobs.size(), workers, [&](size_t j) {
    const tgi::VersionChainSegment& seg = *chain_jobs[j];
    version_rows[j] = PutRow{tgi::NodePlacement(seg.node),
                             tgi::VersionRowKey(seg.node, tsid),
                             seg.Serialize(), ValueSchema::kVersionChain,
                             options_.versions_compression};
  });

  // ---- 4. Group commit. ---------------------------------------------------
  // One batched submission per storage node per table (the MultiGet
  // batching discipline, mirrored for writes), then the span's metadata row
  // as the single sequencing step that completes the span.
  size_t n_delta_rows = evl_rows.size() + aux_evl_rows.size();
  for (const auto& rows : tree_rows) n_delta_rows += rows.size();
  std::vector<PutRow> delta_rows;
  delta_rows.reserve(n_delta_rows);
  for (auto& rows : tree_rows) {
    for (auto& row : rows) delta_rows.push_back(std::move(row));
  }
  for (auto& row : evl_rows) delta_rows.push_back(std::move(row));
  for (auto& row : aux_evl_rows) delta_rows.push_back(std::move(row));
  // Record every (table, partition) scope this span writes; Finish()
  // publishes the set so readers invalidate only these scopes.
  std::vector<EpochKey> touched;
  touched.reserve(delta_rows.size() + version_rows.size() + 2);
  for (const PutRow& row : delta_rows) {
    touched.push_back(MakeEpochKey(tgi::kDeltasTable, row.partition));
  }
  for (const PutRow& row : version_rows) {
    touched.push_back(MakeEpochKey(tgi::kVersionsTable, row.partition));
  }
  HGS_RETURN_NOT_OK(
      cluster_->MultiPut(tgi::kDeltasTable, std::move(delta_rows)));
  HGS_RETURN_NOT_OK(
      cluster_->MultiPut(tgi::kVersionsTable, std::move(version_rows)));

  // Micropartitions table (locality partitioning only). Buckets are few
  // and small; built serially, committed as one batch.
  if (options_.partition_strategy == PartitionStrategy::kLocality) {
    size_t buckets = std::max<size_t>(1, options_.micropartition_buckets);
    std::vector<std::vector<std::pair<NodeId, MicroPartitionId>>> bucketed(
        buckets);
    for (const auto& [nid, pid] : partitioning.assignment()) {
      bucketed[tgi::NodePlacement(nid) % buckets].emplace_back(nid, pid);
    }
    std::vector<PutRow> micropart_rows;
    for (size_t b = 0; b < buckets; ++b) {
      if (bucketed[b].empty()) continue;
      std::sort(bucketed[b].begin(), bucketed[b].end());
      micropart_rows.push_back(
          PutRow{static_cast<uint64_t>(tsid) * buckets + b,
                 tgi::MicropartBucketRowKey(static_cast<uint32_t>(b)),
                 tgi::SerializeMicropartBucket(bucketed[b]),
                 ValueSchema::kOpaque, std::nullopt});
    }
    for (const PutRow& row : micropart_rows) {
      touched.push_back(MakeEpochKey(tgi::kMicropartsTable, row.partition));
    }
    HGS_RETURN_NOT_OK(
        cluster_->MultiPut(tgi::kMicropartsTable, std::move(micropart_rows)));
  }

  // ---- 5. Timespan metadata (the sequencing step). ------------------------
  tgi::TimespanMeta meta;
  meta.tsid = tsid;
  meta.start = span_start_t;
  meta.end = span_end_t;
  meta.event_count = events.size();
  meta.eventlist_size = static_cast<uint32_t>(l);
  meta.checkpoint_interval = static_cast<uint32_t>(cp);
  meta.num_micro_partitions = k_parts;
  meta.strategy = static_cast<uint8_t>(options_.partition_strategy);
  meta.checkpoints = std::move(checkpoint_times);
  meta.eventlist_bounds = std::move(eventlist_bounds);
  meta.tree = std::move(tree_meta);
  HGS_RETURN_NOT_OK(cluster_->Put(tgi::kTimespansTable, 0,
                                  tgi::TimespanRowKey(tsid), meta.Serialize()));
  touched.push_back(MakeEpochKey(tgi::kTimespansTable, 0));
  {
    MutexLock lock(touched_mu_);
    touched_scopes_.insert(touched_scopes_.end(), touched.begin(),
                           touched.end());
  }

  HGS_LOG_INFO("built timespan " << tsid << ": " << events.size()
                                 << " events, " << meta.checkpoints.size()
                                 << " checkpoints, k_parts=" << k_parts);
  if (end_state != nullptr) *end_state = std::move(working);
  return Status::OK();
}

}  // namespace hgs
