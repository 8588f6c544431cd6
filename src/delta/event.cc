#include "delta/event.h"

#include <string_view>
#include <tuple>

namespace hgs {

const char* EventTypeToString(EventType type) {
  switch (type) {
    case EventType::kAddNode:
      return "AddNode";
    case EventType::kRemoveNode:
      return "RemoveNode";
    case EventType::kAddEdge:
      return "AddEdge";
    case EventType::kRemoveEdge:
      return "RemoveEdge";
    case EventType::kSetNodeAttr:
      return "SetNodeAttr";
    case EventType::kDelNodeAttr:
      return "DelNodeAttr";
    case EventType::kSetEdgeAttr:
      return "SetEdgeAttr";
    case EventType::kDelEdgeAttr:
      return "DelEdgeAttr";
  }
  return "Unknown";
}

Event Event::AddNode(Timestamp t, NodeId id, Attributes attrs) {
  Event e;
  e.time = t;
  e.type = EventType::kAddNode;
  e.u = id;
  e.attrs = std::move(attrs);
  return e;
}

Event Event::RemoveNode(Timestamp t, NodeId id) {
  Event e;
  e.time = t;
  e.type = EventType::kRemoveNode;
  e.u = id;
  return e;
}

Event Event::AddEdge(Timestamp t, NodeId u, NodeId v, bool directed,
                     Attributes attrs) {
  Event e;
  e.time = t;
  e.type = EventType::kAddEdge;
  e.u = u;
  e.v = v;
  e.directed = directed;
  e.attrs = std::move(attrs);
  return e;
}

Event Event::RemoveEdge(Timestamp t, NodeId u, NodeId v) {
  Event e;
  e.time = t;
  e.type = EventType::kRemoveEdge;
  e.u = u;
  e.v = v;
  return e;
}

Event Event::SetNodeAttr(Timestamp t, NodeId id, std::string key,
                         std::string value, std::string prev) {
  Event e;
  e.time = t;
  e.type = EventType::kSetNodeAttr;
  e.u = id;
  e.key = std::move(key);
  e.value = std::move(value);
  e.prev_value = std::move(prev);
  return e;
}

Event Event::DelNodeAttr(Timestamp t, NodeId id, std::string key,
                         std::string prev) {
  Event e;
  e.time = t;
  e.type = EventType::kDelNodeAttr;
  e.u = id;
  e.key = std::move(key);
  e.prev_value = std::move(prev);
  return e;
}

Event Event::SetEdgeAttr(Timestamp t, NodeId u, NodeId v, std::string key,
                         std::string value, std::string prev) {
  Event e;
  e.time = t;
  e.type = EventType::kSetEdgeAttr;
  e.u = u;
  e.v = v;
  e.key = std::move(key);
  e.value = std::move(value);
  e.prev_value = std::move(prev);
  return e;
}

Event Event::DelEdgeAttr(Timestamp t, NodeId u, NodeId v, std::string key,
                         std::string prev) {
  Event e;
  e.time = t;
  e.type = EventType::kDelEdgeAttr;
  e.u = u;
  e.v = v;
  e.key = std::move(key);
  e.prev_value = std::move(prev);
  return e;
}

void SerializeAttributes(const Attributes& attrs, BinaryWriter* w) {
  w->PutVarint64(attrs.size());
  for (const auto& [k, v] : attrs.entries()) {
    w->PutString(k);
    w->PutString(v);
  }
}

size_t AttributesWireSize(const Attributes& attrs) {
  size_t total = VarintWireSize(attrs.size());
  for (const auto& [k, v] : attrs.entries()) {
    total += StringWireSize(k) + StringWireSize(v);
  }
  return total;
}

void Event::SerializeTo(BinaryWriter* w) const {
  w->PutSigned64(time);
  w->PutFixed8(static_cast<uint8_t>(type));
  w->PutVarint64(u);
  switch (type) {
    case EventType::kAddNode:
      SerializeAttributes(attrs, w);
      break;
    case EventType::kRemoveNode:
      break;
    case EventType::kAddEdge:
      w->PutVarint64(v);
      w->PutBool(directed);
      SerializeAttributes(attrs, w);
      break;
    case EventType::kRemoveEdge:
      w->PutVarint64(v);
      break;
    case EventType::kSetNodeAttr:
      w->PutString(key);
      w->PutString(value);
      w->PutString(prev_value);
      break;
    case EventType::kDelNodeAttr:
      w->PutString(key);
      w->PutString(prev_value);
      break;
    case EventType::kSetEdgeAttr:
      w->PutVarint64(v);
      w->PutString(key);
      w->PutString(value);
      w->PutString(prev_value);
      break;
    case EventType::kDelEdgeAttr:
      w->PutVarint64(v);
      w->PutString(key);
      w->PutString(prev_value);
      break;
  }
}

size_t Event::SerializedWireSize() const {
  size_t total = Signed64WireSize(time) + 1 + VarintWireSize(u);
  switch (type) {
    case EventType::kAddNode:
      total += AttributesWireSize(attrs);
      break;
    case EventType::kRemoveNode:
      break;
    case EventType::kAddEdge:
      total += VarintWireSize(v) + 1 + AttributesWireSize(attrs);
      break;
    case EventType::kRemoveEdge:
      total += VarintWireSize(v);
      break;
    case EventType::kSetNodeAttr:
      total += StringWireSize(key) + StringWireSize(value) +
               StringWireSize(prev_value);
      break;
    case EventType::kDelNodeAttr:
      total += StringWireSize(key) + StringWireSize(prev_value);
      break;
    case EventType::kSetEdgeAttr:
      total += VarintWireSize(v) + StringWireSize(key) +
               StringWireSize(value) + StringWireSize(prev_value);
      break;
    case EventType::kDelEdgeAttr:
      total += VarintWireSize(v) + StringWireSize(key) +
               StringWireSize(prev_value);
      break;
  }
  return total;
}

Attributes DeserializeAttributes(BinaryReader* r) {
  uint64_t n = r->ReadVarint64();
  Attributes attrs;
  for (uint64_t i = 0; i < n && !r->failed(); ++i) {
    std::string_view k = r->ReadBytesView();
    std::string_view v = r->ReadBytesView();
    // Serialized attribute streams are written in sorted key order, so the
    // append path avoids the per-entry binary search of Set().
    attrs.AppendSorted(std::string(k), std::string(v));
  }
  return attrs;
}

void Event::DeserializeFrom(BinaryReader* r, Event* e) {
  e->time = r->ReadSigned64();
  uint8_t type_byte = r->ReadFixed8();
  if (type_byte > static_cast<uint8_t>(EventType::kDelEdgeAttr)) {
    r->MarkFailed();
    return;
  }
  e->type = static_cast<EventType>(type_byte);
  e->u = r->ReadVarint64();
  switch (e->type) {
    case EventType::kAddNode:
      e->attrs = DeserializeAttributes(r);
      break;
    case EventType::kRemoveNode:
      break;
    case EventType::kAddEdge:
      e->v = r->ReadVarint64();
      e->directed = r->ReadBool();
      e->attrs = DeserializeAttributes(r);
      break;
    case EventType::kRemoveEdge:
      e->v = r->ReadVarint64();
      break;
    case EventType::kSetNodeAttr:
      e->key = r->ReadBytesView();
      e->value = r->ReadBytesView();
      e->prev_value = r->ReadBytesView();
      break;
    case EventType::kDelNodeAttr:
      e->key = r->ReadBytesView();
      e->prev_value = r->ReadBytesView();
      break;
    case EventType::kSetEdgeAttr:
      e->v = r->ReadVarint64();
      e->key = r->ReadBytesView();
      e->value = r->ReadBytesView();
      e->prev_value = r->ReadBytesView();
      break;
    case EventType::kDelEdgeAttr:
      e->v = r->ReadVarint64();
      e->key = r->ReadBytesView();
      e->prev_value = r->ReadBytesView();
      break;
  }
}

void ApplyEventToGraph(const Event& e, Graph* g) {
  switch (e.type) {
    case EventType::kAddNode:
      g->AddNode(e.u, e.attrs);
      break;
    case EventType::kRemoveNode:
      g->RemoveNode(e.u);
      break;
    case EventType::kAddEdge:
      g->AddEdge(e.u, e.v, e.directed, e.attrs);
      break;
    case EventType::kRemoveEdge:
      g->RemoveEdge(e.u, e.v);
      break;
    case EventType::kSetNodeAttr: {
      if (!g->HasNode(e.u)) g->AddNode(e.u);
      g->GetMutableNode(e.u)->attrs.Set(e.key, e.value);
      break;
    }
    case EventType::kDelNodeAttr: {
      NodeRecord* rec = g->GetMutableNode(e.u);
      if (rec != nullptr) rec->attrs.Erase(e.key);
      break;
    }
    case EventType::kSetEdgeAttr: {
      EdgeRecord* rec = g->GetMutableEdge(e.u, e.v);
      if (rec != nullptr) rec->attrs.Set(e.key, e.value);
      break;
    }
    case EventType::kDelEdgeAttr: {
      EdgeRecord* rec = g->GetMutableEdge(e.u, e.v);
      if (rec != nullptr) rec->attrs.Erase(e.key);
      break;
    }
  }
}

bool EventTotalOrder(const Event& a, const Event& b) {
  auto key = [](const Event& e) {
    return std::tuple(e.time, static_cast<uint8_t>(e.type), e.u, e.v,
                      e.directed, std::string_view(e.key),
                      std::string_view(e.value),
                      std::string_view(e.prev_value));
  };
  auto ka = key(a);
  auto kb = key(b);
  if (ka != kb) return ka < kb;
  return a.attrs.entries() < b.attrs.entries();
}

}  // namespace hgs
