// TGIBuilder: constructs the Temporal Graph Index from a chronological event
// stream (Section 4.4, "Construction and Update").
//
// Per timespan (a fixed number of events), the builder:
//   1. computes the span's node -> micro-partition assignment (random hash or
//      Ω-collapse + locality min-cut) and, with 1-hop replication, the set
//      of nodes each micro-partition replicates, from the state at the
//      span's start plus the events known when the span starts; nodes that
//      arrive later hash as Partitioning::Of does,
//   2. chunks the events into eventlists of size l, micro-partitioned by the
//      touched nodes' pids (edge events go to both endpoints' pids; node
//      events also go to the partitions replicating the node),
//   3. captures snapshot checkpoints every `checkpoint_interval` events and,
//      when the span closes, compresses them into a DeltaGraph-style
//      intersection tree: the stored deltas are the root (span-stable state
//      plus the intersection of all checkpoint residues) and the derived
//      deltas child - parent,
//   4. accumulates per-node version chains pointing at the eventlists that
//      touch each node,
//   5. when 1-hop replication is on, emits auxiliary micro-deltas carrying
//      the records of out-of-partition neighbors.
//
// The newest timespan stays open (DeltaGraph's right edge). The first
// Finish that finds a partial span pending opens it: it fixes step 1's
// partitioning and replication set and writes the root once, as the
// span-start state at checkpoint 0. Each later Finish writes only the
// batch: its micro-eventlists (rewriting a partial last one), the touched
// nodes' version-chain rows and the span's TimespanMeta. Reads inside the
// open span replay its eventlists from that root. When the span reaches
// events_per_timespan events it closes: the intersection tree over its
// checkpoints 1..m, captured as they fell due, is written *below* the
// stored root under new dids. Nothing already written is rebuilt, because
// the cluster keeps one version per key and a query pinned to the open
// span's TimespanMeta may still fetch any row it lists. Once an open span
// has closed, Finish opens its successor even with no event pending, so
// the newest state is always read from an open root, never from the end of
// a hierarchy under a stored root. A span filled within one call (Ingest,
// BulkLoad) is built whole, root on top. Whole and open spans share one
// event-routing, checkpoint-capture and version-chain path (SpanBuild); the
// tree shape at close is the only difference.
//
// The build of one span is a two-phase pipeline. A serial streaming phase
// performs the order-sensitive work: event routing, checkpoint placement
// and version-chain accumulation. A parallel encode phase then shards the
// hot work — leaf compaction, intersection-tree algebra, micro-partition
// splits, row serialization — across TGIOptions::ingest_threads workers and
// group-commits the encoded rows per storage node through
// Cluster::MultiPut. Parallel ingest produces byte-identical storage
// contents to serial ingest.
//
// Publish (serial). Finish makes the writes visible in two publishes. The
// first names the data scopes written since the last Finish: every
// versions, timespans and micropartitions scope, and a deltas (tsid, sid)
// scope only where a row was rewritten under a did that the span's last
// written TimespanMeta already lists (the partial last eventlist), so the
// open span's root and full eventlists stay cached across appends. Then
// the graph row is written, and the second publish names its scope. A
// reader that loads the new graph row therefore also pins the data scopes
// it describes (TGIQueryManager retries a load the map moved under), and
// every query ignores events after its pinned GraphMeta::end.
//
// Event streams must have non-decreasing timestamps (a transaction-time
// order), and RemoveEdge events must precede the RemoveNode of an endpoint.

#ifndef HGS_TGI_BUILDER_H_
#define HGS_TGI_BUILDER_H_

#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "delta/eventlist.h"
#include "graph/graph.h"
#include "kvstore/cluster.h"
#include "tgi/metadata.h"
#include "tgi/options.h"

namespace hgs {

class TGIBuilder {
 public:
  TGIBuilder(Cluster* cluster, TGIOptions options);
  ~TGIBuilder();

  /// Appends events (chronological, non-decreasing timestamps; must also be
  /// after everything previously ingested). The whole batch is validated up
  /// front — an invalid batch is rejected atomically, before any event is
  /// buffered. A span that fills up is built and persisted at once, and
  /// closed if it was open; the rest waits for Finish.
  Status Ingest(const std::vector<Event>& events);

  /// Routes every pending event into the open span (opening one if none is
  /// open), writes the batch and publishes it together with the global
  /// metadata. Further Ingest calls continue the index (batch updates);
  /// call Finish again to publish them.
  Status Finish();

  /// Backfill path for Friendster-scale histories: validates the whole
  /// stream once, splits it into timespans, builds the whole spans
  /// bottom-up across the worker pool (each span's start state is replayed
  /// ahead sequentially, then the spans encode and group-commit their rows
  /// concurrently), leaves a trailing partial span open as Finish opens
  /// one, and publishes once at the end. Produces byte-identical storage
  /// contents to Ingest + Finish over the same stream. Requires
  /// timespan-aligned state: no span open and no event pending (a fresh
  /// builder, or one whose ingested event count is a multiple of
  /// events_per_timespan). On failure the builder state is unspecified.
  Status BulkLoad(const std::vector<Event>& events);

  /// State of the graph after every event routed into a span: everything
  /// ingested, once Finish has run.
  const Graph& current_state() const { return state_; }

  uint64_t total_events() const { return total_events_; }
  /// Timespans written so far, the open one included.
  uint32_t timespans_built() const {
    return static_cast<uint32_t>(next_tsid_);
  }

 private:
  /// One timespan under construction (builder.cc).
  class SpanBuild;

  /// One prepass over a batch: timestamps must be non-decreasing and start
  /// at or after everything previously ingested. Reports the offending
  /// batch index, so span builds never see invalid input mid-flight.
  Status ValidateBatch(const std::vector<Event>& events) const;

  /// ingest_threads with the 0 = hardware-concurrency default applied.
  size_t EffectiveIngestThreads() const;

  /// Routes pending_ into a span that it fills and closes it: the open span
  /// if there is one, else a whole span built at once.
  Status CloseSpan();

  /// Adds scopes to the set the next Finish publishes.
  void RecordTouched(const std::vector<EpochKey>& scopes);

  Cluster* cluster_;
  TGIOptions options_;
  Graph state_;  // graph state after every routed event
  /// Ingested events not yet routed into a span.
  std::vector<Event> pending_;
  /// The newest span, while it is open; null when none is.
  std::unique_ptr<SpanBuild> open_;
  /// Set once an open span has closed: from then on Finish keeps a span
  /// open, opening the successor even before any event of it arrives, so
  /// the newest state reads from an open root rather than from the end of
  /// a closed span's hierarchy.
  bool keep_open_ = false;
  Timestamp last_time_ = kMinTimestamp;
  Timestamp first_time_ = kMaxTimestamp;
  uint64_t total_events_ = 0;
  size_t next_tsid_ = 0;
  /// Epoch scopes written since the last publish. Every span commit
  /// records the scopes of its rows that readers may hold cached (see
  /// "Publish" above); Finish() publishes the accumulated set through
  /// Cluster::PublishTouched so readers invalidate exactly these scopes.
  /// Guarded because BulkLoad builds spans concurrently.
  Mutex touched_mu_;
  std::vector<EpochKey> touched_scopes_ GUARDED_BY(touched_mu_);
};

}  // namespace hgs

#endif  // HGS_TGI_BUILDER_H_
