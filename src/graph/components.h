// Static graph components (Definition 1 in the paper): the state of a vertex
// or an edge at one point in time. Deltas are keyed collections of these.
//
// Following the paper's node-centric logical model, a node's edge list is not
// embedded in the node record; edges are separate components keyed by their
// canonical endpoint pair, and partitioned snapshots replicate an edge into
// every partition holding one of its endpoints (Example 5).
//
// A record's attributes are one pointer to a shared, immutable block (see
// attributes.h), so copying a record — into a sum, a filter, a Graph, a
// decoded-cache row or a TAF view — copies a pointer: a NodeRecord is 8 B
// and an EdgeRecord 32 B, and a Delta's node and edge entries (key plus
// optional record) take 24 B and 56 B.

#ifndef HGS_GRAPH_COMPONENTS_H_
#define HGS_GRAPH_COMPONENTS_H_

#include <optional>

#include "common/types.h"
#include "graph/attributes.h"

namespace hgs {

/// State of a vertex: its attributes. Identity is the NodeId key under which
/// the record is stored.
struct NodeRecord {
  Attributes attrs;

  bool operator==(const NodeRecord& o) const = default;
};

/// State of an edge: actual direction plus attributes. Stored under the
/// canonical (min,max) EdgeKey; `src` preserves the real orientation.
struct EdgeRecord {
  NodeId src = kInvalidNodeId;
  NodeId dst = kInvalidNodeId;
  bool directed = false;
  Attributes attrs;

  bool operator==(const EdgeRecord& o) const = default;
};

static_assert(sizeof(NodeRecord) == sizeof(void*));
static_assert(sizeof(std::optional<NodeRecord>) == 16);
static_assert(sizeof(EdgeRecord) == 32);

}  // namespace hgs

#endif  // HGS_GRAPH_COMPONENTS_H_
