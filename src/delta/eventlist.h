// EventList (Example 2): a chronologically sorted run of events scoped to a
// time range, and its node-scoped variant PartitionedEventList (Example 3).
//
// Time semantics: an EventList with scope (after, upto] contains events e
// with  after < e.time <= upto. These are the "changes that happened since
// the checkpoint at `after`, up to and including time `upto`", which is how
// snapshot reconstruction composes a checkpoint with subsequent eventlists
// (Algorithm 1).

#ifndef HGS_DELTA_EVENTLIST_H_
#define HGS_DELTA_EVENTLIST_H_

#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "delta/delta.h"
#include "delta/event.h"

namespace hgs {

class EventList {
 public:
  EventList() = default;
  EventList(Timestamp after, Timestamp upto) : after_(after), upto_(upto) {}

  /// Appends an event; caller keeps chronological order (Sort() otherwise).
  void Append(Event e) { events_.push_back(std::move(e)); }

  /// Stable-sorts events by timestamp (preserving intra-tick order).
  void Sort();

  const std::vector<Event>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  Timestamp after() const { return after_; }
  Timestamp upto() const { return upto_; }
  void SetScope(Timestamp after, Timestamp upto) {
    after_ = after;
    upto_ = upto;
  }

  /// Events with after < time <= upto, as a new list.
  EventList FilterByTime(Timestamp after, Timestamp upto) const;

  /// Events touching node `id` (edge events touch both endpoints). The
  /// rvalue overload moves matching events out instead of copying them
  /// (and leaves this list empty).
  EventList FilterByNode(NodeId id) const&;
  EventList FilterByNode(NodeId id) &&;

  /// Applies all events in order to a snapshot / an accumulating delta. The
  /// delta overload runs the batched Delta::ApplyEvents path (per-key
  /// grouping) rather than a per-event loop.
  void ApplyTo(Graph* g) const;
  void ApplyTo(Delta* d) const;

  /// Applies only events with time <= t. The Delta overload batches
  /// through Delta::ApplyEvents.
  void ApplyUpTo(Timestamp t, Graph* g) const;
  void ApplyUpTo(Timestamp t, Delta* d) const;

  /// Exact wire size of Serialize() (payload + checksum).
  size_t SerializedSizeBytes() const;

  std::string Serialize() const;
  static Result<EventList> Deserialize(std::string_view data);

  bool operator==(const EventList& o) const = default;

 private:
  Timestamp after_ = kMinTimestamp;
  Timestamp upto_ = kMaxTimestamp;
  std::vector<Event> events_;
};

}  // namespace hgs

#endif  // HGS_DELTA_EVENTLIST_H_
