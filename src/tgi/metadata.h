// Metadata records of the TGI: timespan descriptors (with the temporal
// hierarchy's tree shape), version-chain segments, and the global graph
// descriptor. All are serialized into the corresponding KV tables.

#ifndef HGS_TGI_METADATA_H_
#define HGS_TGI_METADATA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "partition/dynamic_partitioner.h"
#include "tgi/options.h"

namespace hgs::tgi {

/// One node of the temporal-compression tree. Index in TimespanMeta::tree is
/// the node's did. The root has parent == -1; leaves carry the index of the
/// checkpoint they reconstruct.
struct TreeNode {
  int32_t parent = -1;
  int32_t checkpoint_index = -1;  // -1 for internal nodes

  bool operator==(const TreeNode& o) const = default;
};

/// Descriptor of one timespan (row of the paper's Timespans table).
struct TimespanMeta {
  TimespanId tsid = 0;
  Timestamp start = 0;  ///< time of the first event in the span
  Timestamp end = 0;    ///< time of the last event in the span
  uint64_t event_count = 0;
  uint32_t eventlist_size = 0;        ///< l
  uint32_t checkpoint_interval = 0;   ///< events between checkpoints
  uint32_t num_micro_partitions = 0;  ///< k_parts for this span
  uint8_t strategy = 0;               ///< PartitionStrategy
  /// Checkpoint timestamps; checkpoint 0 is the span-start state, checkpoint
  /// i>0 is the state after the first i*checkpoint_interval events.
  std::vector<Timestamp> checkpoints;
  /// (first, last) event time per eventlist, for time -> eventlist routing.
  std::vector<std::pair<Timestamp, Timestamp>> eventlist_bounds;
  /// Temporal-compression tree; indices are dids.
  std::vector<TreeNode> tree;

  /// Dids from the root to the leaf of `checkpoint_index`, root first.
  std::vector<DeltaId> PathToCheckpoint(int32_t checkpoint_index) const;

  /// Largest checkpoint index whose time is <= t (-1 if none).
  int32_t CheckpointBefore(Timestamp t) const;

  /// Index of the last eventlist whose first event time is <= t (-1 if
  /// none).
  int32_t EventlistCovering(Timestamp t) const;

  std::string Serialize() const;
  static Result<TimespanMeta> Deserialize(std::string_view data);

  bool operator==(const TimespanMeta& o) const = default;
};

/// One version-chain segment: the changes a node underwent within one
/// eventlist of one timespan (row fragment of the Versions table).
struct VersionEntry {
  TimespanId tsid = 0;
  uint32_t eventlist_index = 0;
  MicroPartitionId pid = 0;  ///< the node's micro-partition in this span
  Timestamp first_time = 0;
  Timestamp last_time = 0;
  uint32_t event_count = 0;

  bool operator==(const VersionEntry& o) const = default;
};

/// The per-(node, timespan) row: all eventlists of the span that touch the
/// node.
struct VersionChainSegment {
  NodeId node = kInvalidNodeId;
  TimespanId tsid = 0;
  MicroPartitionId pid = 0;
  std::vector<VersionEntry> entries;

  std::string Serialize() const;
  static Result<VersionChainSegment> Deserialize(std::string_view data);

  bool operator==(const VersionChainSegment& o) const = default;
};

/// Global descriptor (row of the paper's Graph table).
struct GraphMeta {
  Timestamp start = 0;
  Timestamp end = 0;
  uint64_t event_count = 0;
  uint32_t timespan_count = 0;
  uint32_t num_horizontal_partitions = 1;
  uint8_t clustering_order = 0;
  bool replicate_one_hop = false;
  uint32_t micropartition_buckets = 64;

  std::string Serialize() const;
  static Result<GraphMeta> Deserialize(std::string_view data);

  bool operator==(const GraphMeta& o) const = default;
};

/// Serialized bucket of the Micropartitions table: (nid, pid) pairs.
std::string SerializeMicropartBucket(
    const std::vector<std::pair<NodeId, MicroPartitionId>>& entries);
Result<std::vector<std::pair<NodeId, MicroPartitionId>>>
DeserializeMicropartBucket(std::string_view data);

}  // namespace hgs::tgi

#endif  // HGS_TGI_METADATA_H_
