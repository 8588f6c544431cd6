#include "tgi/metadata.h"

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>

#include "common/columnar.h"
#include "common/compression.h"

namespace hgs::tgi {

namespace {

// -- kVersionChain columnar schema ------------------------------------------
// All-numeric columns, no dictionaries (see common/columnar.h):
//   0 head   : varint node, varint32 tsid, varint32 pid, varint entry count
//   1 elidx  : zigzag varint deltas of eventlist_index (near-monotone)
//   2 pids   : varint32 per entry
//   3 first  : zigzag varint deltas of first_time (chronological entries)
//   4 last   : zigzag varint (last_time - first_time) per entry
//   5 counts : varint32 event_count per entry
constexpr size_t kVcColHead = 0;
constexpr size_t kVcColElIdx = 1;
constexpr size_t kVcColPids = 2;
constexpr size_t kVcColFirst = 3;
constexpr size_t kVcColLast = 4;
constexpr size_t kVcColCounts = 5;

std::string EncodeColumnarSegmentPayload(const VersionChainSegment& seg) {
  BinaryWriter head;
  head.PutVarint64(seg.node);
  head.PutVarint32(seg.tsid);
  head.PutVarint32(seg.pid);
  head.PutVarint64(seg.entries.size());

  BinaryWriter elidx;
  BinaryWriter pids;
  BinaryWriter firsts;
  BinaryWriter lasts;
  BinaryWriter counts;
  DeltaInt64Encoder el_enc;
  DeltaInt64Encoder first_enc;
  for (const VersionEntry& e : seg.entries) {
    el_enc.Put(&elidx, e.eventlist_index);
    pids.PutVarint32(e.pid);
    first_enc.Put(&firsts, e.first_time);
    lasts.PutSigned64(WrappingSub(e.last_time, e.first_time));
    counts.PutVarint32(e.event_count);
  }

  ColumnarBlockWriter block(ValueSchema::kVersionChain);
  block.AddColumn(head.Finish());
  block.AddColumn(elidx.Finish());
  block.AddColumn(pids.Finish());
  block.AddColumn(firsts.Finish());
  block.AddColumn(lasts.Finish());
  block.AddColumn(counts.Finish());
  return block.Finish();
}

Result<VersionChainSegment> DecodeColumnarSegment(std::string_view payload) {
  HGS_ASSIGN_OR_RETURN(
      ColumnarBlockReader block,
      ColumnarBlockReader::Parse(payload, ValueSchema::kVersionChain));
  HGS_ASSIGN_OR_RETURN(std::string_view head_col, block.Column(kVcColHead));
  HGS_ASSIGN_OR_RETURN(std::string_view el_col, block.Column(kVcColElIdx));
  HGS_ASSIGN_OR_RETURN(std::string_view pid_col, block.Column(kVcColPids));
  HGS_ASSIGN_OR_RETURN(std::string_view first_col,
                       block.Column(kVcColFirst));
  HGS_ASSIGN_OR_RETURN(std::string_view last_col, block.Column(kVcColLast));
  HGS_ASSIGN_OR_RETURN(std::string_view count_col,
                       block.Column(kVcColCounts));

  BinaryReader head(head_col);
  VersionChainSegment seg;
  seg.node = head.ReadVarint64();
  seg.tsid = head.ReadVarint32();
  seg.pid = head.ReadVarint32();
  uint64_t n = head.ReadVarint64();
  if (head.failed()) return head.BulkStatus();

  BinaryReader els(el_col);
  BinaryReader pids(pid_col);
  BinaryReader firsts(first_col);
  BinaryReader lasts(last_col);
  BinaryReader counts(count_col);
  DeltaInt64Decoder el_dec;
  DeltaInt64Decoder first_dec;
  seg.entries.reserve(std::min<uint64_t>(n, payload.size()));
  for (uint64_t i = 0; i < n; ++i) {
    VersionEntry e;
    e.tsid = seg.tsid;
    int64_t el_index = el_dec.Next(&els);
    if (el_index < 0 || el_index > int64_t{UINT32_MAX}) els.MarkFailed();
    e.eventlist_index = static_cast<uint32_t>(el_index);
    e.pid = pids.ReadVarint32();
    e.first_time = first_dec.Next(&firsts);
    e.last_time = WrappingAdd(e.first_time, lasts.ReadSigned64());
    e.event_count = counts.ReadVarint32();
    if (els.failed() || pids.failed() || firsts.failed() || lasts.failed() ||
        counts.failed()) {
      return Status::Corruption("columnar version chain: truncated column");
    }
    seg.entries.push_back(e);
  }
  return seg;
}

std::optional<std::string> ColumnarEncodeSegment(std::string_view payload) {
  Result<VersionChainSegment> parsed =
      VersionChainSegment::Deserialize(payload);
  if (!parsed.ok()) return std::nullopt;
  // Only canonical serializations are eligible (see the eventlist codec).
  if (parsed->Serialize() != payload) return std::nullopt;
  return EncodeColumnarSegmentPayload(*parsed);
}

Result<std::string> ColumnarReencodeSegment(std::string_view payload) {
  HGS_ASSIGN_OR_RETURN(VersionChainSegment seg,
                       VersionChainSegment::Deserialize(payload));
  return seg.Serialize();
}

[[maybe_unused]] const bool kVersionChainCodecRegistered = [] {
  RegisterColumnarCodec(ValueSchema::kVersionChain, &ColumnarEncodeSegment,
                        &ColumnarReencodeSegment);
  return true;
}();

}  // namespace

std::vector<DeltaId> TimespanMeta::PathToCheckpoint(
    int32_t checkpoint_index) const {
  // Locate the leaf for the checkpoint, then climb to the root.
  int32_t leaf = -1;
  for (size_t i = 0; i < tree.size(); ++i) {
    if (tree[i].checkpoint_index == checkpoint_index) {
      leaf = static_cast<int32_t>(i);
      break;
    }
  }
  std::vector<DeltaId> path;
  if (leaf < 0) return path;
  for (int32_t cur = leaf; cur >= 0;
       cur = tree[static_cast<size_t>(cur)].parent) {
    path.push_back(static_cast<DeltaId>(cur));
  }
  std::reverse(path.begin(), path.end());
  return path;
}

int32_t TimespanMeta::CheckpointBefore(Timestamp t) const {
  int32_t best = -1;
  for (size_t i = 0; i < checkpoints.size(); ++i) {
    if (checkpoints[i] <= t) best = static_cast<int32_t>(i);
  }
  return best;
}

int32_t TimespanMeta::EventlistCovering(Timestamp t) const {
  int32_t best = -1;
  for (size_t i = 0; i < eventlist_bounds.size(); ++i) {
    if (eventlist_bounds[i].first <= t) best = static_cast<int32_t>(i);
  }
  return best;
}

std::string TimespanMeta::Serialize() const {
  BinaryWriter w;
  w.PutVarint32(tsid);
  w.PutSigned64(start);
  w.PutSigned64(end);
  w.PutVarint64(event_count);
  w.PutVarint32(eventlist_size);
  w.PutVarint32(checkpoint_interval);
  w.PutVarint32(num_micro_partitions);
  w.PutFixed8(strategy);
  w.PutVarint64(checkpoints.size());
  for (Timestamp c : checkpoints) w.PutSigned64(c);
  w.PutVarint64(eventlist_bounds.size());
  for (const auto& [first, last] : eventlist_bounds) {
    w.PutSigned64(first);
    w.PutSigned64(last);
  }
  w.PutVarint64(tree.size());
  for (const TreeNode& n : tree) {
    w.PutSigned64(n.parent);
    w.PutSigned64(n.checkpoint_index);
  }
  return w.FinishWithChecksum();
}

// Element counts come from the payload, so every reserve is capped by the
// bytes left: each element takes at least one byte. Loops stop as soon as
// the reader fails, and each decoder checks BulkStatus() once at the end.
Result<TimespanMeta> TimespanMeta::Deserialize(std::string_view data) {
  BinaryReader r(data);
  HGS_RETURN_NOT_OK(r.VerifyChecksum());
  TimespanMeta m;
  m.tsid = r.ReadVarint32();
  m.start = r.ReadSigned64();
  m.end = r.ReadSigned64();
  m.event_count = r.ReadVarint64();
  m.eventlist_size = r.ReadVarint32();
  m.checkpoint_interval = r.ReadVarint32();
  m.num_micro_partitions = r.ReadVarint32();
  m.strategy = r.ReadFixed8();
  uint64_t n_cp = r.ReadVarint64();
  m.checkpoints.reserve(std::min<uint64_t>(n_cp, r.remaining()));
  for (uint64_t i = 0; i < n_cp && !r.failed(); ++i) {
    m.checkpoints.push_back(r.ReadSigned64());
  }
  uint64_t n_el = r.ReadVarint64();
  m.eventlist_bounds.reserve(std::min<uint64_t>(n_el, r.remaining()));
  for (uint64_t i = 0; i < n_el && !r.failed(); ++i) {
    Timestamp first = r.ReadSigned64();
    m.eventlist_bounds.emplace_back(first, r.ReadSigned64());
  }
  uint64_t n_tree = r.ReadVarint64();
  m.tree.reserve(std::min<uint64_t>(n_tree, r.remaining()));
  const auto n_checkpoints = static_cast<int64_t>(m.checkpoints.size());
  for (uint64_t i = 0; i < n_tree && !r.failed(); ++i) {
    int64_t parent = r.ReadSigned64();
    int64_t cp = r.ReadSigned64();
    // The builder numbers the tree breadth-first, so a parent precedes its
    // child; PathToCheckpoint relies on that to terminate in range.
    if (parent < -1 || parent >= static_cast<int64_t>(i) || cp < -1 ||
        cp >= n_checkpoints) {
      return Status::Corruption("timespan meta: tree index out of range");
    }
    m.tree.push_back(TreeNode{.parent = static_cast<int32_t>(parent),
                              .checkpoint_index = static_cast<int32_t>(cp)});
  }
  HGS_RETURN_NOT_OK(r.BulkStatus());
  // Readers divide by the eventlist size; the builder never writes 0.
  if (m.eventlist_size == 0) {
    return Status::Corruption("timespan meta: eventlist size is 0");
  }
  return m;
}

std::string VersionChainSegment::Serialize() const {
  BinaryWriter w;
  w.PutVarint64(node);
  w.PutVarint32(tsid);
  w.PutVarint32(pid);
  w.PutVarint64(entries.size());
  for (const VersionEntry& e : entries) {
    w.PutVarint32(e.eventlist_index);
    w.PutVarint32(e.pid);
    w.PutSigned64(e.first_time);
    w.PutSigned64(e.last_time);
    w.PutVarint32(e.event_count);
  }
  return w.FinishWithChecksum();
}

Result<VersionChainSegment> VersionChainSegment::Deserialize(
    std::string_view data) {
  // A columnar payload (alternative serialization; see common/columnar.h)
  // routes on its magic — legacy payloads can never start with those bytes.
  if (IsColumnarPayload(data)) return DecodeColumnarSegment(data);
  BinaryReader r(data);
  HGS_RETURN_NOT_OK(r.VerifyChecksum());
  VersionChainSegment seg;
  seg.node = r.ReadVarint64();
  seg.tsid = r.ReadVarint32();
  seg.pid = r.ReadVarint32();
  uint64_t n = r.ReadVarint64();
  seg.entries.reserve(std::min<uint64_t>(n, r.remaining()));
  for (uint64_t i = 0; i < n && !r.failed(); ++i) {
    VersionEntry& e = seg.entries.emplace_back();
    e.tsid = seg.tsid;
    e.eventlist_index = r.ReadVarint32();
    e.pid = r.ReadVarint32();
    e.first_time = r.ReadSigned64();
    e.last_time = r.ReadSigned64();
    e.event_count = r.ReadVarint32();
  }
  HGS_RETURN_NOT_OK(r.BulkStatus());
  return seg;
}

std::string GraphMeta::Serialize() const {
  BinaryWriter w;
  w.PutSigned64(start);
  w.PutSigned64(end);
  w.PutVarint64(event_count);
  w.PutVarint32(timespan_count);
  w.PutVarint32(num_horizontal_partitions);
  w.PutFixed8(clustering_order);
  w.PutBool(replicate_one_hop);
  w.PutVarint32(micropartition_buckets);
  return w.FinishWithChecksum();
}

Result<GraphMeta> GraphMeta::Deserialize(std::string_view data) {
  BinaryReader r(data);
  HGS_RETURN_NOT_OK(r.VerifyChecksum());
  GraphMeta m;
  m.start = r.ReadSigned64();
  m.end = r.ReadSigned64();
  m.event_count = r.ReadVarint64();
  m.timespan_count = r.ReadVarint32();
  m.num_horizontal_partitions = r.ReadVarint32();
  m.clustering_order = r.ReadFixed8();
  m.replicate_one_hop = r.ReadBool();
  m.micropartition_buckets = r.ReadVarint32();
  HGS_RETURN_NOT_OK(r.BulkStatus());
  return m;
}

std::string SerializeMicropartBucket(
    const std::vector<std::pair<NodeId, MicroPartitionId>>& entries) {
  BinaryWriter w;
  w.PutVarint64(entries.size());
  for (const auto& [nid, pid] : entries) {
    w.PutVarint64(nid);
    w.PutVarint32(pid);
  }
  return w.FinishWithChecksum();
}

Result<std::vector<std::pair<NodeId, MicroPartitionId>>>
DeserializeMicropartBucket(std::string_view data) {
  BinaryReader r(data);
  HGS_RETURN_NOT_OK(r.VerifyChecksum());
  uint64_t n = r.ReadVarint64();
  std::vector<std::pair<NodeId, MicroPartitionId>> out;
  out.reserve(std::min<uint64_t>(n, r.remaining()));
  for (uint64_t i = 0; i < n && !r.failed(); ++i) {
    NodeId nid = r.ReadVarint64();
    out.emplace_back(nid, r.ReadVarint32());
  }
  HGS_RETURN_NOT_OK(r.BulkStatus());
  return out;
}

}  // namespace hgs::tgi
