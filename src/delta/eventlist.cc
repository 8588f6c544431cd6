#include "delta/eventlist.h"

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>

#include "common/columnar.h"
#include "common/compression.h"

namespace hgs {

namespace {

// -- kEventList columnar schema ---------------------------------------------
// Column layout (see common/columnar.h for the container):
//   0 head    : signed(after), signed(upto), varint(event count)
//   1 types   : nibble-packed EventType codes
//   2 times   : zigzag varint deltas, one per event
//   3 u       : zigzag varint deltas, one per event
//   4 v       : zigzag varint deltas, one per *edge* event
//   5 directed: bit column, one per kAddEdge event
//   6 attrids : per attr event: key dict id, [value dict id], prev dict id
//   7 addattrs: per add event: varint count, then (key id, value id) pairs
//   8 keydict : sorted dictionary of attribute keys
//   9 valdict : sorted dictionary of attribute values / prev values
constexpr size_t kEvlColHead = 0;
constexpr size_t kEvlColTypes = 1;
constexpr size_t kEvlColTimes = 2;
constexpr size_t kEvlColU = 3;
constexpr size_t kEvlColV = 4;
constexpr size_t kEvlColDirected = 5;
constexpr size_t kEvlColAttrIds = 6;
constexpr size_t kEvlColAddAttrs = 7;
constexpr size_t kEvlColKeyDict = 8;
constexpr size_t kEvlColValDict = 9;

bool IsSetType(EventType t) {
  return t == EventType::kSetNodeAttr || t == EventType::kSetEdgeAttr;
}
bool IsAttrType(EventType t) {
  return t == EventType::kSetNodeAttr || t == EventType::kDelNodeAttr ||
         t == EventType::kSetEdgeAttr || t == EventType::kDelEdgeAttr;
}
bool IsAddType(EventType t) {
  return t == EventType::kAddNode || t == EventType::kAddEdge;
}

std::string EncodeColumnarEventListPayload(const EventList& el) {
  StringDictBuilder keys;
  StringDictBuilder vals;
  for (const Event& e : el.events()) {
    if (IsAttrType(e.type)) {
      keys.Add(e.key);
      if (IsSetType(e.type)) vals.Add(e.value);
      vals.Add(e.prev_value);
    }
    if (IsAddType(e.type)) {
      for (const auto& [k, v] : e.attrs.entries()) {
        keys.Add(k);
        vals.Add(v);
      }
    }
  }
  keys.Build();
  vals.Build();

  BinaryWriter head;
  head.PutSigned64(el.after());
  head.PutSigned64(el.upto());
  head.PutVarint64(el.size());

  NibbleColumnWriter types;
  BinaryWriter times;
  BinaryWriter us;
  BinaryWriter vs;
  BitColumnWriter directed;
  BinaryWriter attr_ids;
  BinaryWriter add_attrs;
  DeltaInt64Encoder time_enc;
  DeltaInt64Encoder u_enc;
  DeltaInt64Encoder v_enc;
  for (const Event& e : el.events()) {
    types.Append(static_cast<uint8_t>(e.type));
    time_enc.Put(&times, e.time);
    u_enc.Put(&us, static_cast<int64_t>(e.u));
    if (e.IsEdgeEvent()) v_enc.Put(&vs, static_cast<int64_t>(e.v));
    if (e.type == EventType::kAddEdge) directed.Append(e.directed);
    if (IsAttrType(e.type)) {
      attr_ids.PutVarint64(keys.IdOf(e.key));
      if (IsSetType(e.type)) attr_ids.PutVarint64(vals.IdOf(e.value));
      attr_ids.PutVarint64(vals.IdOf(e.prev_value));
    }
    if (IsAddType(e.type)) {
      add_attrs.PutVarint64(e.attrs.size());
      for (const auto& [k, v] : e.attrs.entries()) {
        add_attrs.PutVarint64(keys.IdOf(k));
        add_attrs.PutVarint64(vals.IdOf(v));
      }
    }
  }

  ColumnarBlockWriter block(ValueSchema::kEventList);
  block.AddColumn(head.Finish());
  block.AddColumn(types.Finish());
  block.AddColumn(times.Finish());
  block.AddColumn(us.Finish());
  block.AddColumn(vs.Finish());
  block.AddColumn(directed.Finish());
  block.AddColumn(attr_ids.Finish());
  block.AddColumn(add_attrs.Finish());
  block.AddColumn(keys.Serialize());
  block.AddColumn(vals.Serialize());
  return block.Finish();
}

Result<EventList> DecodeColumnarEventList(std::string_view payload) {
  HGS_ASSIGN_OR_RETURN(
      ColumnarBlockReader block,
      ColumnarBlockReader::Parse(payload, ValueSchema::kEventList));
  HGS_ASSIGN_OR_RETURN(std::string_view head_col,
                       block.Column(kEvlColHead));
  HGS_ASSIGN_OR_RETURN(std::string_view types_col,
                       block.Column(kEvlColTypes));
  HGS_ASSIGN_OR_RETURN(std::string_view times_col,
                       block.Column(kEvlColTimes));
  HGS_ASSIGN_OR_RETURN(std::string_view u_col, block.Column(kEvlColU));
  HGS_ASSIGN_OR_RETURN(std::string_view v_col, block.Column(kEvlColV));
  HGS_ASSIGN_OR_RETURN(std::string_view dir_col,
                       block.Column(kEvlColDirected));
  HGS_ASSIGN_OR_RETURN(std::string_view ids_col,
                       block.Column(kEvlColAttrIds));
  HGS_ASSIGN_OR_RETURN(std::string_view add_col,
                       block.Column(kEvlColAddAttrs));
  HGS_ASSIGN_OR_RETURN(std::string_view keydict_col,
                       block.Column(kEvlColKeyDict));
  HGS_ASSIGN_OR_RETURN(std::string_view valdict_col,
                       block.Column(kEvlColValDict));
  HGS_ASSIGN_OR_RETURN(StringDictView keys, StringDictView::Parse(keydict_col));
  HGS_ASSIGN_OR_RETURN(StringDictView vals, StringDictView::Parse(valdict_col));

  BinaryReader head(head_col);
  Timestamp after = head.ReadSigned64();
  Timestamp upto = head.ReadSigned64();
  uint64_t n = head.ReadVarint64();
  if (head.failed()) return head.BulkStatus();

  // One cursor per column; every cursor shares `r`'s sticky failure flag so
  // a single check per event suffices (bad dict ids, over-consumed bit or
  // nibble columns and truncated varint streams all latch it).
  NibbleColumnReader types = NibbleColumnReader::Bind(types_col);
  BinaryReader times(times_col);
  BinaryReader us(u_col);
  BinaryReader vs(v_col);
  BitColumnReader directed = BitColumnReader::Bind(dir_col);
  BinaryReader ids(ids_col);
  BinaryReader adds(add_col);
  DeltaInt64Decoder time_dec;
  DeltaInt64Decoder u_dec;
  DeltaInt64Decoder v_dec;

  EventList out(after, upto);
  for (uint64_t i = 0; i < n; ++i) {
    Event e;
    uint8_t type_code = types.Next(&times);
    if (type_code > static_cast<uint8_t>(EventType::kDelEdgeAttr)) {
      times.MarkFailed();
    }
    if (times.failed()) return times.BulkStatus();
    e.type = static_cast<EventType>(type_code);
    e.time = time_dec.Next(&times);
    e.u = static_cast<NodeId>(u_dec.Next(&us));
    if (e.IsEdgeEvent()) e.v = static_cast<NodeId>(v_dec.Next(&vs));
    if (e.type == EventType::kAddEdge) e.directed = directed.Next(&vs);
    if (IsAttrType(e.type)) {
      e.key = std::string(keys.Get(ids.ReadVarint64(), &ids));
      if (IsSetType(e.type)) {
        e.value = std::string(vals.Get(ids.ReadVarint64(), &ids));
      }
      e.prev_value = std::string(vals.Get(ids.ReadVarint64(), &ids));
    }
    if (IsAddType(e.type)) {
      uint64_t n_attrs = adds.ReadVarint64();
      for (uint64_t a = 0; a < n_attrs && !adds.failed(); ++a) {
        std::string_view k = keys.Get(adds.ReadVarint64(), &adds);
        std::string_view v = vals.Get(adds.ReadVarint64(), &adds);
        // Dict ids arrive in the event's original sorted-key order.
        e.attrs.AppendSorted(std::string(k), std::string(v));
      }
    }
    if (times.failed() || us.failed() || vs.failed() || ids.failed() ||
        adds.failed()) {
      return Status::Corruption("columnar eventlist: truncated column");
    }
    out.Append(std::move(e));
  }
  return out;
}

std::optional<std::string> ColumnarEncodeEventList(std::string_view payload) {
  Result<EventList> parsed = EventList::Deserialize(payload);
  if (!parsed.ok()) return std::nullopt;
  // Only canonical serializations are eligible: a payload that does not
  // re-serialize byte-identically (non-minimal varints, unsorted attribute
  // stream) would not survive the columnar round trip, so it falls back to
  // the byte codec instead of being silently rewritten.
  if (parsed->Serialize() != payload) return std::nullopt;
  return EncodeColumnarEventListPayload(*parsed);
}

Result<std::string> ColumnarReencodeEventList(std::string_view payload) {
  HGS_ASSIGN_OR_RETURN(EventList el, DecodeColumnarEventList(payload));
  return el.Serialize();
}

[[maybe_unused]] const bool kEventListCodecRegistered = [] {
  RegisterColumnarCodec(ValueSchema::kEventList, &ColumnarEncodeEventList,
                        &ColumnarReencodeEventList);
  return true;
}();

}  // namespace

void EventList::Sort() {
  std::stable_sort(
      events_.begin(), events_.end(),
      [](const Event& a, const Event& b) { return a.time < b.time; });
}

EventList EventList::FilterByTime(Timestamp after, Timestamp upto) const {
  EventList out(after, upto);
  for (const Event& e : events_) {
    if (e.time > after && e.time <= upto) out.Append(e);
  }
  return out;
}

EventList EventList::FilterByNode(NodeId id) const& {
  EventList out(after_, upto_);
  out.events_.reserve(events_.size());
  for (const Event& e : events_) {
    if (e.Touches(id)) out.events_.push_back(e);
  }
  return out;
}

EventList EventList::FilterByNode(NodeId id) && {
  EventList out(after_, upto_);
  out.events_.reserve(events_.size());
  for (Event& e : events_) {
    if (e.Touches(id)) out.events_.push_back(std::move(e));
  }
  events_.clear();
  return out;
}

void EventList::ApplyTo(Graph* g) const {
  for (const Event& e : events_) ApplyEventToGraph(e, g);
}

void EventList::ApplyTo(Delta* d) const {
  d->ApplyEvents(*this, kMinTimestamp, kMaxTimestamp);
}

void EventList::ApplyUpTo(Timestamp t, Graph* g) const {
  for (const Event& e : events_) {
    if (e.time > t) break;  // events_ kept chronological
    ApplyEventToGraph(e, g);
  }
}

void EventList::ApplyUpTo(Timestamp t, Delta* d) const {
  d->ApplyEvents(*this, kMinTimestamp, t);
}

size_t EventList::SerializedSizeBytes() const {
  size_t total = Signed64WireSize(after_) + Signed64WireSize(upto_) +
                 VarintWireSize(events_.size());
  for (const Event& e : events_) total += e.SerializedWireSize();
  return total + kChecksumWireSize;
}

std::string EventList::Serialize() const {
  BinaryWriter w;
  w.PutSigned64(after_);
  w.PutSigned64(upto_);
  w.PutVarint64(events_.size());
  for (const Event& e : events_) e.SerializeTo(&w);
  return w.FinishWithChecksum();
}

Result<EventList> EventList::Deserialize(std::string_view data) {
  // A columnar payload (alternative serialization; see common/columnar.h)
  // routes on its magic — legacy payloads can never start with those bytes.
  if (IsColumnarPayload(data)) return DecodeColumnarEventList(data);
  BinaryReader r(data);
  HGS_RETURN_NOT_OK(r.VerifyChecksum());
  EventList out;
  out.after_ = r.ReadSigned64();
  out.upto_ = r.ReadSigned64();
  uint64_t n = r.ReadVarint64();
  if (r.failed()) return r.BulkStatus();
  out.events_.reserve(std::min<uint64_t>(n, r.remaining()));
  for (uint64_t i = 0; i < n; ++i) {
    Event& e = out.events_.emplace_back();
    Event::DeserializeFrom(&r, &e);
    if (r.failed()) return r.BulkStatus();
  }
  return out;
}

}  // namespace hgs
