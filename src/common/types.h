// Fundamental identifier and time types shared across the Historical Graph
// Store. The paper's model is a discrete-time evolving property graph: every
// change (event) carries an integer timestamp; nodes have stable integer ids.

#ifndef HGS_COMMON_TYPES_H_
#define HGS_COMMON_TYPES_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>

namespace hgs {

/// Stable identifier of a vertex across the whole history.
using NodeId = uint64_t;

/// Discrete timestamp. The unit is workload-defined (the built-in generators
/// use abstract ticks; real traces would use epoch seconds).
using Timestamp = int64_t;

/// Identifier of a horizontal partition (the paper's `sid`).
using PartitionId = uint32_t;

/// Identifier of a micro-delta partition within a delta (the paper's `pid`).
using MicroPartitionId = uint32_t;

/// Identifier of a delta within a timespan (the paper's `did`).
using DeltaId = uint32_t;

/// Identifier of a timespan (the paper's `tsid`).
using TimespanId = uint32_t;

inline constexpr Timestamp kMinTimestamp =
    std::numeric_limits<Timestamp>::min();
inline constexpr Timestamp kMaxTimestamp =
    std::numeric_limits<Timestamp>::max();
inline constexpr NodeId kInvalidNodeId =
    std::numeric_limits<NodeId>::max();

/// A half-open time interval [start, end).
struct TimeInterval {
  Timestamp start = kMinTimestamp;
  Timestamp end = kMaxTimestamp;

  bool Contains(Timestamp t) const { return t >= start && t < end; }
  bool Overlaps(const TimeInterval& o) const {
    return start < o.end && o.start < end;
  }
  bool Empty() const { return start >= end; }
  bool operator==(const TimeInterval& o) const = default;
};

/// An undirected edge key with canonical (smaller id first) ordering, used
/// wherever edges index maps independently of their stored direction.
struct EdgeKey {
  NodeId u = kInvalidNodeId;
  NodeId v = kInvalidNodeId;

  EdgeKey() = default;
  EdgeKey(NodeId a, NodeId b) : u(a < b ? a : b), v(a < b ? b : a) {}

  bool operator==(const EdgeKey& o) const = default;
  auto operator<=>(const EdgeKey& o) const = default;
};

/// splitmix64's finalizer: every input bit reaches every output bit, so
/// the low bits are well mixed even for dense ids.
inline constexpr uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct EdgeKeyHash {
  size_t operator()(const EdgeKey& k) const {
    // splitmix-style combiner; edges ids are dense so mix well.
    uint64_t x = k.u * 0x9E3779B97F4A7C15ull ^ (k.v + 0x7F4A7C15ull);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    return static_cast<size_t>(x);
  }
};

}  // namespace hgs

#endif  // HGS_COMMON_TYPES_H_
