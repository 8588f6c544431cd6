// NodeT (Definition 6): the sequence of states of one node over a time
// range, stored — exactly as Section 5.2 prescribes — as an initial snapshot
// of the node followed by chronologically sorted events, with iterator-style
// access to versions and events. Versions come from one Iterator, which
// builds a StaticNodeView from the initial snapshot once and then updates
// that view in place for each event.

#ifndef HGS_TAF_TEMPORAL_NODE_H_
#define HGS_TAF_TEMPORAL_NODE_H_

#include <string>
#include <vector>

#include "tgi/query.h"

namespace hgs::taf {

/// The state of a node at one timepoint: record plus incident edges.
/// `neighbors[i]` is the other endpoint of `edges[i]` (the node's own id
/// for a self-loop). Both run in ascending neighbor id, which for one
/// node's incident edges is also canonical EdgeKey order.
struct StaticNodeView {
  NodeId id = kInvalidNodeId;
  bool exists = false;
  Attributes attrs;  ///< empty while !exists
  std::vector<NodeId> neighbors;
  std::vector<EdgeRecord> edges;

  size_t Degree() const { return neighbors.size(); }
};

class NodeT {
 public:
  NodeT() = default;
  explicit NodeT(NodeHistory history) : history_(std::move(history)) {}

  NodeId id() const { return history_.node; }
  Timestamp GetStartTime() const { return history_.from; }
  Timestamp GetEndTime() const { return history_.to; }
  const NodeHistory& history() const { return history_; }

  /// Number of change points in the range.
  size_t VersionCount() const { return history_.events.size(); }

  /// Timestamps at which this node changed, ascending.
  std::vector<Timestamp> ChangePoints() const;

  /// State of the node as of time t (GetVersionAt in the paper).
  StaticNodeView GetStateAt(Timestamp t) const;

  /// All versions in order: the initial state plus one per event.
  std::vector<std::pair<Timestamp, StaticNodeView>> GetVersions() const;

  /// Neighbor ids as of t (getNeighborIDsAt in the paper).
  std::vector<NodeId> GetNeighborIDsAt(Timestamp t) const;

  /// Chronological iteration over versions without materializing them all.
  /// The iterator owns one view, built from the initial snapshot once and
  /// updated in place per event: an edit of the node's record, or a binary
  /// search on `neighbors` plus one insert, overwrite or erase at that
  /// index in both vectors. The views it returns are that one object, so
  /// one holds the version just reached only until the iterator next
  /// advances (which may also reallocate its vectors); copy it to keep it.
  class Iterator {
   public:
    explicit Iterator(const NodeT* node);
    bool HasNextEvent() const { return next_ < node_->history_.events.size(); }
    /// The event that produces the next version.
    const Event& PeekNextEvent() const;
    /// Advances past one event and returns the resulting version.
    const StaticNodeView& GetNextVersion();
    /// Advances past one event and returns it.
    const Event& GetNextEvent();
    /// Current (already reached) version.
    const StaticNodeView& CurrentVersion() const { return view_; }
    Timestamp CurrentTime() const { return time_; }

   private:
    friend class NodeT;
    /// Updates `view_` as Delta::ApplyEvent followed by ViewFromDelta would.
    void Apply(const Event& e);

    const NodeT* node_;
    StaticNodeView view_;
    Timestamp time_;
    size_t next_ = 0;
  };

  Iterator GetIterator() const { return Iterator(this); }

 private:
  static StaticNodeView ViewFromDelta(NodeId id, const Delta& d);

  NodeHistory history_;
};

}  // namespace hgs::taf

#endif  // HGS_TAF_TEMPORAL_NODE_H_
