// Events: the atomic changes of a temporal graph (Example 1 in the paper).
// An event adds/removes a node or an edge, or changes an attribute value.
// Attribute events carry the previous value so incremental computation
// (TAF's NodeComputeDelta, Fig 8b) can be expressed without re-fetching.

#ifndef HGS_DELTA_EVENT_H_
#define HGS_DELTA_EVENT_H_

#include <string>

#include "common/serde.h"
#include "common/types.h"
#include "graph/attributes.h"
#include "graph/graph.h"

namespace hgs {

enum class EventType : uint8_t {
  kAddNode = 0,
  kRemoveNode = 1,
  kAddEdge = 2,
  kRemoveEdge = 3,
  kSetNodeAttr = 4,
  kDelNodeAttr = 5,
  kSetEdgeAttr = 6,
  kDelEdgeAttr = 7,
};

const char* EventTypeToString(EventType type);

struct Event {
  Timestamp time = 0;
  EventType type = EventType::kAddNode;
  NodeId u = kInvalidNodeId;  ///< node id, or edge source
  NodeId v = kInvalidNodeId;  ///< edge destination (edge events only)
  bool directed = false;      ///< edge orientation flag (edge events only)
  std::string key;            ///< attribute key (attr events only)
  std::string value;          ///< new attribute value (set events only)
  std::string prev_value;     ///< previous value (attr change/delete events)
  Attributes attrs;           ///< initial attributes (add events only)

  bool IsNodeEvent() const {
    return type == EventType::kAddNode || type == EventType::kRemoveNode ||
           type == EventType::kSetNodeAttr || type == EventType::kDelNodeAttr;
  }
  bool IsEdgeEvent() const { return !IsNodeEvent(); }

  /// True when the event changes the state of node `id` or an edge incident
  /// to it. Edge events touch both endpoints (the paper replicates edge
  /// information with both endpoints for entity-centric access).
  bool Touches(NodeId id) const {
    return u == id || (IsEdgeEvent() && v == id);
  }

  // -- factories ---------------------------------------------------------
  static Event AddNode(Timestamp t, NodeId id, Attributes attrs = {});
  static Event RemoveNode(Timestamp t, NodeId id);
  static Event AddEdge(Timestamp t, NodeId u, NodeId v, bool directed = false,
                       Attributes attrs = {});
  static Event RemoveEdge(Timestamp t, NodeId u, NodeId v);
  static Event SetNodeAttr(Timestamp t, NodeId id, std::string key,
                           std::string value, std::string prev = "");
  static Event DelNodeAttr(Timestamp t, NodeId id, std::string key,
                           std::string prev = "");
  static Event SetEdgeAttr(Timestamp t, NodeId u, NodeId v, std::string key,
                           std::string value, std::string prev = "");
  static Event DelEdgeAttr(Timestamp t, NodeId u, NodeId v, std::string key,
                           std::string prev = "");

  void SerializeTo(BinaryWriter* w) const;
  /// Decodes what SerializeTo wrote into `e`. On corruption the reader's
  /// failed() flag latches and `e` is meaningless.
  static void DeserializeFrom(BinaryReader* r, Event* e);

  /// Exact number of bytes SerializeTo writes for this event.
  size_t SerializedWireSize() const;

  bool operator==(const Event& o) const = default;
};

/// Applies one event to a materialized snapshot. RemoveNode also removes
/// incident edges (generators emit explicit RemoveEdge events first, but the
/// apply path is defensive).
void ApplyEventToGraph(const Event& e, Graph* g);

/// Total order over events, refining time order. Sorting by time alone
/// leaves same-timestamp events in arbitrary relative order, so duplicates
/// (an internal edge event arrives once per endpoint's micro-partition row)
/// may end up non-adjacent and survive std::unique. Ordering on every field
/// that participates in Event equality — including the initial attributes
/// of add events (sorted flat vectors, so lexicographically comparable) —
/// guarantees equal events are adjacent after the sort.
bool EventTotalOrder(const Event& a, const Event& b);

void SerializeAttributes(const Attributes& attrs, BinaryWriter* w);
/// Exact number of bytes SerializeAttributes writes.
size_t AttributesWireSize(const Attributes& attrs);
/// Decodes what SerializeAttributes wrote; latches r->failed() on
/// corruption.
Attributes DeserializeAttributes(BinaryReader* r);

}  // namespace hgs

#endif  // HGS_DELTA_EVENT_H_
