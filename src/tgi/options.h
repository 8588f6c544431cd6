// Tuning knobs of the Temporal Graph Index (Section 4.4: "TGI is a tunable
// index structure"). The evaluation sweeps eventlist size (l), micro-delta
// partition size (ps), horizontal partition count, partitioning strategy and
// replication; all are surfaced here.

#ifndef HGS_TGI_OPTIONS_H_
#define HGS_TGI_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/compression.h"
#include "partition/dynamic_partitioner.h"

namespace hgs {

/// Clustering order of micro-delta keys (Section 4.4, item 5).
enum class ClusteringOrder {
  /// did | aux | pid — all micro-partitions of one delta are contiguous;
  /// snapshot scans cost one seek per (delta, storage partition).
  kDeltaMajor,
  /// pid | aux | did — all deltas of one micro-partition are contiguous;
  /// entity-centric fetches cost one seek per micro-partition.
  kPartitionMajor,
};

struct TGIOptions {
  /// Events per timespan (the partitioning is recomputed at span
  /// boundaries; uniform span length "in numbers of events" per §4.5).
  size_t events_per_timespan = 20'000;

  /// Eventlist size l: events per eventlist delta.
  size_t eventlist_size = 250;

  /// Events between snapshot checkpoints (leaves of the temporal
  /// hierarchy). Must be a multiple of eventlist_size; 0 derives
  /// max(eventlist_size, events_per_timespan / 16).
  size_t checkpoint_interval = 0;

  /// Micro-delta partition size ps: target node count per micro-partition.
  size_t micro_delta_size = 500;

  /// Arity of the temporal-compression hierarchy (DeltaGraph's k).
  uint32_t hierarchy_arity = 2;

  /// Horizontal partitions (the paper's ns / sid domain): placement spread.
  size_t num_horizontal_partitions = 4;

  /// Node -> micro-partition strategy (Fig 15a: Random vs "Maxflow").
  PartitionStrategy partition_strategy = PartitionStrategy::kRandom;

  /// Ω-collapse configuration for locality partitioning.
  CollapseOptions collapse;

  /// 1-hop edge-cut replication into auxiliary micro-deltas (Fig 5d).
  bool replicate_one_hop = false;

  ClusteringOrder clustering_order = ClusteringOrder::kDeltaMajor;

  /// Buckets of the Micropartitions table (locality partitioning only).
  size_t micropartition_buckets = 64;

  /// Byte budget of the read-side partition-delta cache used by query
  /// managers opened through TGI::OpenQueryManager. Fetched micro-delta
  /// rows and partition scans are cached keyed by their (table, partition,
  /// row) coordinates, with LRU byte-budget eviction, so repeated and
  /// overlapping retrievals skip the simulated fetch round trips entirely.
  /// A re-publish (BuildFrom / AppendBatch) evicts only the entries of the
  /// (table, partition) scopes it wrote, keeping batched updates correct
  /// while untouched scopes stay warm. 0 disables caching.
  size_t read_cache_bytes = 64ull << 20;

  /// Byte budget of the decoded-object cache (second read-side tier). Where
  /// the partition-delta cache saves round trips, this tier saves CPU: it
  /// holds immutable decoded Delta / EventList / version-chain objects
  /// keyed by the same epoch-scoped row coordinates, so a repeated read
  /// costs neither a fetch nor a Deserialize — the dominant term once
  /// fetches are batched and cached. Budgeted by decoded footprint
  /// (SerializedSizeBytes), swept with the byte cache on republish (same
  /// scoped eviction), sharded like the byte cache. 0 disables the tier.
  size_t decoded_cache_bytes = 32ull << 20;

  /// Worker parallelism of the ingest pipeline. The event stream of a
  /// timespan is still sequenced on one thread (routing, checkpoint
  /// placement, version-chain accumulation are order-sensitive), but the
  /// hot work — leaf compaction, intersection-tree algebra, micro-partition
  /// splits, row serialization — is sharded across this many workers of the
  /// shared pool, and encoded rows are group-committed per storage node via
  /// Cluster::MultiPut. BulkLoad additionally builds this many timespans
  /// concurrently. Parallel ingest produces byte-identical storage contents
  /// to serial ingest (asserted by ingest_determinism_test). 0 = one worker
  /// per hardware thread; 1 = fully serial.
  size_t ingest_threads = 0;

  /// Per-table-family compression overrides. When set, builder writes of
  /// the matching row family are sealed with this codec instead of the
  /// cluster-wide ClusterOptions::compression: `row_compression` covers the
  /// Deltas-table rows (tree deltas and micro-deltas — ValueSchema::kDelta),
  /// `eventlist_compression` the eventlist rows (kEventList) and
  /// `versions_compression` the version-chain rows (kVersionChain).
  /// kColumnar here is always safe: blocks where the columnar form loses
  /// (or that a schema cannot represent) fall back per block to kLz/stored.
  std::optional<CompressionKind> row_compression;
  std::optional<CompressionKind> eventlist_compression;
  std::optional<CompressionKind> versions_compression;

  /// Effective checkpoint interval after defaulting rules.
  size_t EffectiveCheckpointInterval() const {
    size_t cp = checkpoint_interval;
    if (cp == 0) {
      cp = events_per_timespan / 16;
      if (cp < eventlist_size) cp = eventlist_size;
    }
    // Round up to a multiple of the eventlist size.
    size_t l = eventlist_size == 0 ? 1 : eventlist_size;
    cp = ((cp + l - 1) / l) * l;
    return cp;
  }
};

}  // namespace hgs

#endif  // HGS_TGI_OPTIONS_H_
