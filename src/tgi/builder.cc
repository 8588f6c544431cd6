#include "tgi/builder.h"

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
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

// `child` as stored below a parent whose state is `parent`: the child's
// entries that differ from the parent's, plus a tombstone for each key the
// parent has and the child lacks. Only the top of the hierarchy below an
// open span's root needs the tombstones: that root's residue is the touched
// keys' start values, while inside an intersection hierarchy a parent's
// entries are a subset of its child's and Delta::Difference suffices.
Delta DifferenceWithTombstones(const Delta& child, const Delta& parent) {
  Delta out = Delta::Difference(child, parent);
  parent.ForEachNodeEntry([&](NodeId id, const std::optional<NodeRecord>&) {
    if (child.FindNode(id) == nullptr) out.TombstoneNode(id);
  });
  parent.ForEachEdgeEntry(
      [&](const EdgeKey& key, const std::optional<EdgeRecord>&) {
        if (child.FindEdge(key) == nullptr) out.TombstoneEdge(key);
      });
  out.Compact();
  return out;
}

// Bottom-up intersection hierarchy over the pool nodes `level`: every group
// of `arity` consecutive nodes gets a parent holding their intersection, and
// an odd node out is promoted unchanged. Returns the top node's pool id.
int BuildHierarchy(std::vector<TreeBuildNode>* pool, std::vector<int> level,
                   uint32_t arity, size_t workers) {
  while (level.size() > 1) {
    std::vector<int> next;
    std::vector<int> fill;  // parents of this level, delta pending
    for (size_t i = 0; i < level.size(); i += arity) {
      const size_t group_end = std::min(level.size(), i + arity);
      if (group_end - i == 1) {
        next.push_back(level[i]);
        continue;
      }
      TreeBuildNode parent;
      parent.children.assign(level.begin() + static_cast<long>(i),
                             level.begin() + static_cast<long>(group_end));
      pool->push_back(std::move(parent));
      const int parent_id = static_cast<int>(pool->size()) - 1;
      for (size_t j = i; j < group_end; ++j) {
        (*pool)[static_cast<size_t>(level[j])].parent = parent_id;
      }
      fill.push_back(parent_id);
      next.push_back(parent_id);
    }
    // All of the level's nodes exist now, so the pool is stable while the
    // workers read children and write their own parent's delta.
    ParallelFor(fill.size(), workers, [&](size_t g) {
      TreeBuildNode& parent = (*pool)[static_cast<size_t>(fill[g])];
      Delta d = (*pool)[static_cast<size_t>(parent.children[0])].delta;
      for (size_t j = 1; j < parent.children.size(); ++j) {
        d = Delta::Intersect(
            d, (*pool)[static_cast<size_t>(parent.children[j])].delta);
      }
      parent.delta = std::move(d);
    });
    level.swap(next);
  }
  return level[0];
}

}  // namespace

// One timespan under construction: the serial streaming phase (Route) and
// the parallel encode + group-commit phase (Commit). A whole span is routed
// and committed once, closing; the open span commits once per Finish and
// closes when it fills.
class TGIBuilder::SpanBuild {
 public:
  // Starts span `tsid` at time `start` and state *working. Its partitioning
  // and 1-hop replication set are fixed here, from that state and `known`,
  // the span's events known now (all of them, for a whole span; possibly
  // none, for an open span). Route advances *working, which must outlive
  // this object.
  SpanBuild(const TGIOptions& options, size_t workers, TimespanId tsid,
            Timestamp start, Graph* working, std::span<const Event> known)
      : options_(options),
        workers_(workers),
        tsid_(tsid),
        working_(working),
        start_t_(start) {
    // Size the micro-partition count for the node population of the span.
    size_t adds = 0;
    for (const Event& e : known) {
      if (e.type == EventType::kAddNode) ++adds;
    }
    const size_t population = working->NumNodes() + adds;
    k_parts_ = static_cast<uint32_t>(
        std::max<size_t>(1, (population + options.micro_delta_size - 1) /
                                options.micro_delta_size));
    DynamicPartitionOptions dyn;
    dyn.strategy = options.partition_strategy;
    dyn.num_partitions = k_parts_;
    dyn.collapse = options.collapse;
    const Timestamp known_end = known.empty() ? start : known.back().time;
    partitioning_ = PartitionTimespan(*working, known,
                                      TimeInterval{start, known_end + 1}, dyn);
    // replicated_into_[n] = micro-partitions that replicate node n, for
    // every edge across the cut at the span's start or added by `known`.
    if (options.replicate_one_hop) {
      working->ForEachEdge([&](const EdgeKey& key, const EdgeRecord&) {
        NoteCutEdge(key.u, key.v);
      });
      for (const Event& e : known) {
        if (e.type == EventType::kAddEdge) NoteCutEdge(e.u, e.v);
      }
    }
    leaves_.emplace_back();  // checkpoint 0, filled from the start values
    checkpoint_times_.push_back(start_t_ - 1);
  }

  size_t size() const { return routed_; }

  /// Encodes the root as the state at the span's start (checkpoint 0), for
  /// the first Commit to write. Called before any event is routed, on a
  /// span that stays open; its tree then goes below this root at close.
  void EncodeOpenRoot() {
    root_rows_ = EncodeTreeDelta(0, Delta::FromGraph(*working_));
    root_open_ = true;
  }

  /// The serial streaming phase: event routing, checkpoint placement and
  /// version-chain accumulation, which depend on stream position. What it
  /// produces is deferred work for Commit.
  void Route(std::span<const Event> events) {
    const size_t l = options_.eventlist_size;
    const size_t cp = options_.checkpoint_interval;
    for (const Event& e : events) {
      const size_t i = routed_;
      if (i % l == 0) current_evl_first_ = e.time;

      // Touched-key tracking, each key with its value at the span's start.
      TouchNode(e.u, i);
      if (e.IsEdgeEvent()) {
        TouchEdge(EdgeKey(e.u, e.v), i);
        TouchNode(e.v, i);
      } else if (e.type == EventType::kRemoveNode) {
        NoteIncidentRemovals(e.u);
      }

      // Micro-eventlists: the event goes to every touched node's partition,
      // and a node event also to the partitions replicating the node.
      const MicroPartitionId pu = partitioning_.Of(e.u);
      current_evl_[pu].Append(e);
      RecordVersion(e.u, e.time);
      if (e.IsEdgeEvent()) {
        const MicroPartitionId pv = partitioning_.Of(e.v);
        if (pv != pu) current_evl_[pv].Append(e);
        RecordVersion(e.v, e.time);
      } else if (auto it = replicated_into_.find(e.u);
                 it != replicated_into_.end()) {
        for (MicroPartitionId p : it->second) current_aux_evl_[p].Append(e);
      }

      ApplyEventToGraph(e, working_);
      ++routed_;
      last_t_ = e.time;
      if (routed_ % l == 0) FlushEventlist();
      if (routed_ % cp == 0 && routed_ < options_.events_per_timespan) {
        CaptureCheckpoint(e.time);
      }
    }
  }

  /// The encode phase and group commit of everything routed since the last
  /// commit: the open root on the first commit of an open span, the closed
  /// eventlists, the partial last one (or, when `close`, the span's last
  /// eventlist and its tree), the changed version chains and the span's
  /// TimespanMeta, written last. `touched` receives the scopes of rows a
  /// reader may hold cached: versions, microparts and timespans rows, and
  /// deltas rows rewritten under a did the last written meta lists.
  Status Commit(Cluster* cluster, bool close, std::vector<EpochKey>* touched) {
    const size_t ns = options_.num_horizontal_partitions;
    const ClusteringOrder order = options_.clustering_order;
    tgi::TimespanMeta meta;
    meta.tsid = tsid_;
    meta.start = start_t_;
    meta.end = routed_ > 0 ? last_t_ : start_t_;
    meta.event_count = routed_;
    meta.eventlist_size = static_cast<uint32_t>(options_.eventlist_size);
    meta.checkpoint_interval =
        static_cast<uint32_t>(options_.checkpoint_interval);
    meta.num_micro_partitions = k_parts_;
    meta.strategy = static_cast<uint8_t>(options_.partition_strategy);

    std::vector<PutRow> delta_rows = std::move(root_rows_);
    root_rows_.clear();
    if (close) {
      if (routed_ % options_.eventlist_size != 0) FlushEventlist();
      EncodeTree(&delta_rows, &meta.tree);
      meta.checkpoints = checkpoint_times_;
    } else {
      // Open: the root alone, at checkpoint 0.
      meta.tree.push_back(tgi::TreeNode{.parent = -1, .checkpoint_index = 0});
      meta.checkpoints.push_back(checkpoint_times_[0]);
    }
    meta.eventlist_bounds = eventlist_bounds_;

    // Micro-eventlists: the ones closed since the last commit, then the
    // partial last one, each unless its stored row already holds its
    // events (a later commit rewrites a partial row that gains events).
    struct EvlJob {
      size_t index;
      MicroPartitionId pid;
      bool aux;
      const EventList* evl;
    };
    std::vector<EvlJob> jobs;
    for (const ClosedEventlist& job : evl_jobs_) {
      if (!job.stored) jobs.push_back({job.index, job.pid, job.aux, &job.evl});
    }
    if (!close && routed_ % options_.eventlist_size != 0) {
      const size_t index = eventlist_bounds_.size();
      meta.eventlist_bounds.emplace_back(current_evl_first_, last_t_);
      for (bool aux : {false, true}) {
        for (auto& [pid, evl] : aux ? current_aux_evl_ : current_evl_) {
          size_t& stored = stored_sizes_[{pid, aux}];
          if (stored == evl.size()) continue;
          stored = evl.size();
          evl.SetScope(current_evl_first_ - 1, last_t_);
          jobs.push_back(EvlJob{index, pid, aux, &evl});
        }
      }
    }
    const size_t first_evl_row = delta_rows.size();
    delta_rows.resize(first_evl_row + jobs.size());
    ParallelFor(jobs.size(), workers_, [&](size_t j) {
      const EvlJob& job = jobs[j];
      delta_rows[first_evl_row + j] = PutRow{
          tgi::DeltaPlacement(tsid_, tgi::SidOf(job.pid, ns), ns),
          tgi::DeltaRowKey(order, tgi::EventlistDid(job.index), job.pid,
                           job.aux),
          job.evl->Serialize(), ValueSchema::kEventList,
          options_.eventlist_compression};
    });
    // Only the partial last eventlist of the last written meta can be
    // rewritten; every other did is new to readers.
    for (const EvlJob& job : jobs) {
      if (job.index < listed_eventlists_) {
        touched->push_back(MakeEpochKey(
            tgi::kDeltasTable,
            tgi::DeltaPlacement(tsid_, tgi::SidOf(job.pid, ns), ns)));
      }
    }
    evl_jobs_.clear();

    // Version chains of the nodes touched since the last commit: each row
    // holds every entry of the node in this span.
    std::vector<PutRow> version_rows(dirty_.size());
    ParallelFor(dirty_.size(), workers_, [&](size_t j) {
      const tgi::VersionChainSegment& seg = chains_.at(dirty_[j]).seg;
      version_rows[j] = PutRow{tgi::NodePlacement(seg.node),
                               tgi::VersionRowKey(seg.node, tsid_),
                               seg.Serialize(), ValueSchema::kVersionChain,
                               options_.versions_compression};
    });
    for (NodeId n : dirty_) chains_.at(n).dirty = false;
    dirty_.clear();
    for (const PutRow& row : version_rows) {
      touched->push_back(MakeEpochKey(tgi::kVersionsTable, row.partition));
    }

    // One batched submission per storage node per table (the MultiGet
    // batching discipline, mirrored for writes), then the span's metadata
    // row as the single sequencing step.
    HGS_RETURN_NOT_OK(
        cluster->MultiPut(tgi::kDeltasTable, std::move(delta_rows)));
    HGS_RETURN_NOT_OK(
        cluster->MultiPut(tgi::kVersionsTable, std::move(version_rows)));
    if (!committed_ &&
        options_.partition_strategy == PartitionStrategy::kLocality) {
      std::vector<PutRow> micropart_rows = EncodeMicroparts();
      for (const PutRow& row : micropart_rows) {
        touched->push_back(MakeEpochKey(tgi::kMicropartsTable, row.partition));
      }
      HGS_RETURN_NOT_OK(cluster->MultiPut(tgi::kMicropartsTable,
                                          std::move(micropart_rows)));
    }
    listed_eventlists_ = meta.eventlist_bounds.size();
    HGS_RETURN_NOT_OK(cluster->Put(tgi::kTimespansTable, 0,
                                   tgi::TimespanRowKey(tsid_),
                                   meta.Serialize()));
    touched->push_back(MakeEpochKey(tgi::kTimespansTable, 0));
    committed_ = true;
    if (close) {
      HGS_LOG_INFO("built timespan " << tsid_ << ": " << routed_
                                     << " events, " << meta.checkpoints.size()
                                     << " checkpoints, k_parts=" << k_parts_);
    }
    return Status::OK();
  }

 private:
  // A key touched in the span: the stream position of its first event and
  // its value at the span's start (nullopt: absent).
  template <typename Record>
  struct Touch {
    size_t first = 0;
    std::optional<Record> start;
  };
  struct Chain {
    tgi::VersionChainSegment seg;
    bool dirty = false;
  };
  // A micro-eventlist closed in stream order, serialized at the next
  // commit unless an earlier commit stored it with these events already.
  struct ClosedEventlist {
    size_t index = 0;
    MicroPartitionId pid = 0;
    bool aux = false;
    bool stored = false;
    EventList evl;
  };

  void NoteCutEdge(NodeId u, NodeId v) {
    const MicroPartitionId pu = partitioning_.Of(u);
    const MicroPartitionId pv = partitioning_.Of(v);
    if (pu == pv) return;
    auto add = [&](NodeId n, MicroPartitionId p) {
      auto& vec = replicated_into_[n];
      if (std::find(vec.begin(), vec.end(), p) == vec.end()) vec.push_back(p);
    };
    add(u, pv);
    add(v, pu);
  }

  void TouchNode(NodeId id, size_t i) {
    auto [it, inserted] = node_touch_.try_emplace(id);
    if (!inserted) return;
    it->second.first = i;
    if (const NodeRecord* rec = working_->GetNode(id)) it->second.start = *rec;
  }

  void TouchEdge(const EdgeKey& key, size_t i) {
    auto [it, inserted] = edge_touch_.try_emplace(key);
    if (!inserted) return;
    it->second.first = i;
    if (auto removed = removed_untouched_.find(key);
        removed != removed_untouched_.end()) {
      it->second.start = std::move(removed->second);
      removed_untouched_.erase(removed);
    } else if (const EdgeRecord* rec = working_->GetEdge(key.u, key.v)) {
      it->second.start = *rec;
    }
  }

  // A RemoveNode also drops the node's live edges from the working state
  // without touching them; keep their start values for the span-stable
  // delta and for a later first touch.
  void NoteIncidentRemovals(NodeId id) {
    for (NodeId n : working_->Neighbors(id)) {
      const EdgeKey key(id, n);
      if (!edge_touch_.contains(key)) {
        removed_untouched_.try_emplace(key, *working_->GetEdge(id, n));
      }
    }
  }

  void RecordVersion(NodeId n, Timestamp t) {
    const auto evl_index = static_cast<uint32_t>(eventlist_bounds_.size());
    Chain& chain = chains_[n];
    if (!chain.dirty) {
      chain.dirty = true;
      dirty_.push_back(n);
    }
    tgi::VersionChainSegment& seg = chain.seg;
    if (seg.entries.empty()) {
      seg.node = n;
      seg.tsid = tsid_;
      seg.pid = partitioning_.Of(n);
    } else if (seg.entries.back().eventlist_index == evl_index) {
      seg.entries.back().last_time = t;
      seg.entries.back().event_count++;
      return;
    }
    seg.entries.push_back(tgi::VersionEntry{.tsid = tsid_,
                                            .eventlist_index = evl_index,
                                            .pid = partitioning_.Of(n),
                                            .first_time = t,
                                            .last_time = t,
                                            .event_count = 1});
  }

  void FlushEventlist() {
    const size_t index = eventlist_bounds_.size();
    eventlist_bounds_.emplace_back(current_evl_first_, last_t_);
    for (bool aux : {false, true}) {
      auto& evls = aux ? current_aux_evl_ : current_evl_;
      for (auto& [pid, evl] : evls) {
        auto it = stored_sizes_.find({pid, aux});
        const bool stored =
            it != stored_sizes_.end() && it->second == evl.size();
        evl.SetScope(current_evl_first_ - 1, last_t_);
        evl_jobs_.push_back(
            ClosedEventlist{index, pid, aux, stored, std::move(evl)});
      }
      evls.clear();
    }
    stored_sizes_.clear();
  }

  // Captures the current values of everything touched so far. Left
  // uncompacted here; the encode phase compacts each leaf once.
  void CaptureCheckpoint(Timestamp t) {
    Delta cb;
    for (const auto& [id, touch] : node_touch_) {
      if (const NodeRecord* rec = working_->GetNode(id)) cb.PutNode(id, *rec);
    }
    for (const auto& [key, touch] : edge_touch_) {
      if (const EdgeRecord* rec = working_->GetEdge(key.u, key.v)) {
        cb.PutEdge(key, *rec);
      }
    }
    leaves_.push_back(std::move(cb));
    checkpoint_times_.push_back(t);
  }

  // The rows of tree delta `did`: one micro-delta per micro-partition, plus
  // with 1-hop replication the auxiliary micro-deltas carrying the records
  // of nodes replicated into a partition as 1-hop neighbors across the cut.
  std::vector<PutRow> EncodeTreeDelta(DeltaId did,
                                      const Delta& to_store) const {
    const size_t ns = options_.num_horizontal_partitions;
    const ClusteringOrder order = options_.clustering_order;
    std::vector<std::pair<std::pair<MicroPartitionId, bool>, Delta>> micro;
    for (auto& [pid, d] : SplitDeltaByPid(
             to_store, [this](NodeId id) { return partitioning_.Of(id); })) {
      micro.push_back({{pid, false}, std::move(d)});
    }
    if (options_.replicate_one_hop) {
      std::unordered_map<MicroPartitionId, Delta> aux;
      to_store.ForEachNodeEntry(
          [&](NodeId id, const std::optional<NodeRecord>& rec) {
            auto it = replicated_into_.find(id);
            if (it == replicated_into_.end()) return;
            for (MicroPartitionId p : it->second) {
              if (rec.has_value()) {
                aux[p].PutNode(id, *rec);
              } else {
                aux[p].TombstoneNode(id);
              }
            }
          });
      for (auto& [pid, d] : aux) {
        d.Compact();
        micro.push_back({{pid, true}, std::move(d)});
      }
    }
    std::vector<PutRow> rows(micro.size());
    ParallelFor(micro.size(), workers_, [&](size_t j) {
      const auto& [pid, aux] = micro[j].first;
      rows[j] = PutRow{tgi::DeltaPlacement(tsid_, tgi::SidOf(pid, ns), ns),
                       tgi::DeltaRowKey(order, did, pid, aux),
                       micro[j].second.Serialize(), ValueSchema::kDelta,
                       options_.row_compression};
    });
    return rows;
  }

  // The span's intersection tree over its checkpoints, appended to `rows`
  // and described in `tree`. A whole span's root is the span-stable state
  // plus the intersection of all checkpoints. An open span's root is
  // already stored as checkpoint 0, so the hierarchy over checkpoints 1..m
  // goes below it, each node stored as the difference from its parent
  // (the root's residue being the start values of the touched keys).
  void EncodeTree(std::vector<PutRow>* rows, std::vector<tgi::TreeNode>* tree) {
    const size_t cp = options_.checkpoint_interval;
    // Patch leaves with keys first touched after each checkpoint (their
    // state at the checkpoint equals their start value), then compact.
    ParallelFor(leaves_.size(), workers_, [&](size_t li) {
      const size_t boundary = li * cp;  // events applied before checkpoint li
      Delta& leaf = leaves_[li];
      for (const auto& [id, touch] : node_touch_) {
        if (touch.first >= boundary && touch.start) {
          leaf.PutNode(id, *touch.start);
        }
      }
      for (const auto& [key, touch] : edge_touch_) {
        if (touch.first >= boundary && touch.start) {
          leaf.PutEdge(key, *touch.start);
        }
      }
      leaf.Compact();
    });

    std::vector<TreeBuildNode> pool;
    pool.reserve(leaves_.size() * 2);
    std::vector<int> level;
    for (size_t i = 0; i < leaves_.size(); ++i) {
      TreeBuildNode leaf;
      leaf.delta = std::move(leaves_[i]);
      leaf.checkpoint_index = static_cast<int>(i);
      pool.push_back(std::move(leaf));
      if (i > 0 || !root_open_) level.push_back(static_cast<int>(i));
    }
    int root = 0;
    if (!level.empty()) {
      const int top =
          BuildHierarchy(&pool, std::move(level),
                         std::max<uint32_t>(2, options_.hierarchy_arity),
                         workers_);
      if (root_open_) {
        pool[static_cast<size_t>(top)].parent = 0;
        pool[0].children.push_back(top);
      } else {
        root = top;
      }
    }

    // Span-stable delta: everything never touched during the span, at its
    // (unchanged) start value. Only a whole span's root stores it.
    Delta span_stable;
    if (!root_open_) {
      working_->ForEachNode([&](NodeId id, const NodeRecord& rec) {
        if (!node_touch_.contains(id)) span_stable.PutNode(id, rec);
      });
      working_->ForEachEdge([&](const EdgeKey& key, const EdgeRecord& rec) {
        if (!edge_touch_.contains(key)) span_stable.PutEdge(key, rec);
      });
      for (const auto& [key, rec] : removed_untouched_) {
        span_stable.PutEdge(key, rec);
      }
      span_stable.Compact();
    }

    // BFS numbering: did 0 = root.
    std::vector<int> bfs{root};
    for (size_t i = 0; i < bfs.size(); ++i) {
      for (int c : pool[static_cast<size_t>(bfs[i])].children) {
        bfs.push_back(c);
      }
    }
    std::vector<int32_t> did_of_pool(pool.size(), -1);
    for (size_t i = 0; i < bfs.size(); ++i) {
      did_of_pool[static_cast<size_t>(bfs[i])] = static_cast<int32_t>(i);
    }

    // Encode tree deltas micro-partitioned (plus auxiliary replication
    // micro-deltas): one job per tree node. An open span's root is stored.
    tree->resize(bfs.size());
    std::vector<std::vector<PutRow>> tree_rows(bfs.size());
    ParallelFor(bfs.size(), workers_, [&](size_t i) {
      const TreeBuildNode& node = pool[static_cast<size_t>(bfs[i])];
      (*tree)[i].checkpoint_index = node.checkpoint_index;
      (*tree)[i].parent =
          node.parent < 0 ? -1 : did_of_pool[static_cast<size_t>(node.parent)];
      if (i == 0 && root_open_) return;
      Delta to_store;
      if (node.parent < 0) {
        to_store = Delta::Sum(span_stable, node.delta);
      } else if (root_open_ && node.parent == 0) {
        to_store = DifferenceWithTombstones(node.delta, pool[0].delta);
      } else {
        to_store = Delta::Difference(
            node.delta, pool[static_cast<size_t>(node.parent)].delta);
      }
      tree_rows[i] = EncodeTreeDelta(static_cast<DeltaId>(i), to_store);
    });
    for (auto& node_rows : tree_rows) {
      for (auto& row : node_rows) rows->push_back(std::move(row));
    }
  }

  // Micropartitions table (locality partitioning only): the span's node ->
  // pid map in buckets, written with the span's first commit.
  std::vector<PutRow> EncodeMicroparts() const {
    const size_t buckets = std::max<size_t>(1, options_.micropartition_buckets);
    std::vector<std::vector<std::pair<NodeId, MicroPartitionId>>> bucketed(
        buckets);
    for (const auto& [nid, pid] : partitioning_.assignment()) {
      bucketed[tgi::NodePlacement(nid) % buckets].emplace_back(nid, pid);
    }
    std::vector<PutRow> rows;
    for (size_t b = 0; b < buckets; ++b) {
      if (bucketed[b].empty()) continue;
      std::sort(bucketed[b].begin(), bucketed[b].end());
      rows.push_back(
          PutRow{static_cast<uint64_t>(tsid_) * buckets + b,
                 tgi::MicropartBucketRowKey(static_cast<uint32_t>(b)),
                 tgi::SerializeMicropartBucket(bucketed[b]),
                 ValueSchema::kOpaque, std::nullopt});
    }
    return rows;
  }

  const TGIOptions& options_;
  const size_t workers_;
  const TimespanId tsid_;
  Graph* const working_;
  const Timestamp start_t_;
  uint32_t k_parts_ = 1;
  Partitioning partitioning_;
  std::unordered_map<NodeId, std::vector<MicroPartitionId>> replicated_into_;

  size_t routed_ = 0;
  Timestamp last_t_ = 0;
  std::unordered_map<NodeId, Touch<NodeRecord>> node_touch_;
  std::unordered_map<EdgeKey, Touch<EdgeRecord>, EdgeKeyHash> edge_touch_;
  /// Untouched edges a RemoveNode dropped, with their start values.
  std::unordered_map<EdgeKey, EdgeRecord, EdgeKeyHash> removed_untouched_;
  /// Checkpoint capture buffers; leaf 0 is the span start.
  std::vector<Delta> leaves_;
  std::vector<Timestamp> checkpoint_times_;

  std::vector<std::pair<Timestamp, Timestamp>> eventlist_bounds_;
  Timestamp current_evl_first_ = 0;
  std::unordered_map<MicroPartitionId, EventList> current_evl_;
  std::unordered_map<MicroPartitionId, EventList> current_aux_evl_;
  /// Events each stored row of the current eventlist holds, by (pid, aux).
  std::map<std::pair<MicroPartitionId, bool>, size_t> stored_sizes_;
  std::vector<ClosedEventlist> evl_jobs_;

  std::unordered_map<NodeId, Chain> chains_;
  std::vector<NodeId> dirty_;  // nodes whose chain changed since a commit

  std::vector<PutRow> root_rows_;
  /// The root was encoded at open as the span-start state.
  bool root_open_ = false;
  bool committed_ = false;
  /// Eventlists the last written TimespanMeta of this span lists.
  size_t listed_eventlists_ = 0;
};

TGIBuilder::TGIBuilder(Cluster* cluster, TGIOptions options)
    : cluster_(cluster), options_(options) {
  if (options_.events_per_timespan == 0) options_.events_per_timespan = 1;
  if (options_.eventlist_size == 0) options_.eventlist_size = 1;
  if (options_.micro_delta_size == 0) options_.micro_delta_size = 1;
  if (options_.num_horizontal_partitions == 0) {
    options_.num_horizontal_partitions = 1;
  }
  // The checkpoint interval must be a whole number of eventlists.
  options_.checkpoint_interval = options_.EffectiveCheckpointInterval();
}

TGIBuilder::~TGIBuilder() = default;

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

void TGIBuilder::RecordTouched(const std::vector<EpochKey>& scopes) {
  MutexLock lock(touched_mu_);
  touched_scopes_.insert(touched_scopes_.end(), scopes.begin(), scopes.end());
}

Status TGIBuilder::Ingest(const std::vector<Event>& events) {
  HGS_RETURN_NOT_OK(ValidateBatch(events));
  if (events.empty()) return Status::OK();
  if (first_time_ == kMaxTimestamp) first_time_ = events.front().time;
  last_time_ = events.back().time;
  total_events_ += events.size();
  const size_t span_size = options_.events_per_timespan;
  for (auto next = events.begin(); next != events.end();) {
    const size_t have =
        (open_ != nullptr ? open_->size() : 0) + pending_.size();
    const auto take = static_cast<long>(
        std::min<size_t>(events.end() - next, span_size - have));
    pending_.insert(pending_.end(), next, next + take);
    next += take;
    if (have + static_cast<size_t>(take) == span_size) {
      HGS_RETURN_NOT_OK(CloseSpan());
    }
  }
  return Status::OK();
}

Status TGIBuilder::CloseSpan() {
  std::unique_ptr<SpanBuild> span = std::move(open_);
  if (span == nullptr) {
    span = std::make_unique<SpanBuild>(
        options_, EffectiveIngestThreads(),
        static_cast<TimespanId>(next_tsid_++), pending_.front().time, &state_,
        pending_);
  } else {
    keep_open_ = true;
  }
  span->Route(pending_);
  pending_.clear();
  std::vector<EpochKey> touched;
  HGS_RETURN_NOT_OK(span->Commit(cluster_, /*close=*/true, &touched));
  RecordTouched(touched);
  return Status::OK();
}

Status TGIBuilder::Finish() {
  bool write = !pending_.empty();
  if (open_ == nullptr && (write || keep_open_)) {
    open_ = std::make_unique<SpanBuild>(
        options_, EffectiveIngestThreads(),
        static_cast<TimespanId>(next_tsid_++),
        write ? pending_.front().time : last_time_, &state_, pending_);
    open_->EncodeOpenRoot();
    write = true;
  }
  if (write) {
    open_->Route(pending_);
    pending_.clear();
    std::vector<EpochKey> touched;
    HGS_RETURN_NOT_OK(open_->Commit(cluster_, /*close=*/false, &touched));
    RecordTouched(touched);
  }
  // Publish the data scopes first, then write the graph row that describes
  // them and publish its scope: a reader holding the new graph row has
  // pinned a map that already moved every scope it covers.
  std::vector<EpochKey> touched;
  {
    MutexLock lock(touched_mu_);
    touched.swap(touched_scopes_);
  }
  if (!touched.empty()) cluster_->PublishTouched(std::move(touched));
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
  cluster_->PublishTouched({MakeEpochKey(tgi::kGraphTable, 0)});
  return Status::OK();
}

Status TGIBuilder::BulkLoad(const std::vector<Event>& events) {
  if (!pending_.empty() || open_ != nullptr) {
    return Status::InvalidArgument(
        "BulkLoad requires timespan-aligned state (no partial span pending)");
  }
  HGS_RETURN_NOT_OK(ValidateBatch(events));
  if (events.empty()) return Finish();
  if (first_time_ == kMaxTimestamp) first_time_ = events.front().time;

  // Whole spans build here; the trailing partial span opens in Finish,
  // exactly as after Ingest.
  const size_t span_size = options_.events_per_timespan;
  const size_t whole = events.size() - events.size() % span_size;
  std::vector<std::span<const Event>> spans;
  for (size_t s = 0; s < whole; s += span_size) {
    spans.emplace_back(events.data() + s, span_size);
  }

  // Bottom-up build in windows of `workers` spans: the window's start
  // states are replayed ahead sequentially (one linear pass over the
  // events), then the member spans — which are independent given their
  // start states — build, encode and group-commit concurrently, each
  // advancing its own start state to its end.
  const size_t workers = std::max<size_t>(1, EffectiveIngestThreads());
  for (size_t w0 = 0; w0 < spans.size();) {
    const size_t count = std::min(workers, spans.size() - w0);
    std::vector<Graph> states;
    states.reserve(count);
    states.push_back(std::move(state_));
    for (size_t k = 1; k < count; ++k) {
      Graph g = states[k - 1];
      for (const Event& e : spans[w0 + k - 1]) ApplyEventToGraph(e, &g);
      states.push_back(std::move(g));
    }
    HGS_RETURN_NOT_OK(StatusParallelFor(count, workers, [&](size_t k) {
      SpanBuild span(options_, workers,
                     static_cast<TimespanId>(next_tsid_ + k),
                     spans[w0 + k].front().time, &states[k], spans[w0 + k]);
      span.Route(spans[w0 + k]);
      std::vector<EpochKey> touched;
      Status s = span.Commit(cluster_, /*close=*/true, &touched);
      if (s.ok()) RecordTouched(touched);
      return s;
    }));
    state_ = std::move(states.back());
    next_tsid_ += count;
    w0 += count;
  }
  pending_.assign(events.begin() + static_cast<long>(whole), events.end());
  total_events_ += events.size();
  last_time_ = events.back().time;
  return Finish();
}

}  // namespace hgs
