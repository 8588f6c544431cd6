// Counter lists: a stats record names its counters once, in an X-macro
// LIST(X) that applies X to each counter's name, and expands that list into
// its fields and into every fold over them (merge, reset, atomic
// accumulate), so no fold can miss a counter. Levels, values that are set
// rather than counted (a resident size, requests in service), stay outside
// a record's list.

#ifndef HGS_COMMON_COUNTERS_H_
#define HGS_COMMON_COUNTERS_H_

#include <atomic>
#include <cstdint>

/// Declares a plain counter field.
#define HGS_COUNTER_FIELD(name) uint64_t name = 0;
/// Declares an atomic counter field.
#define HGS_ATOMIC_COUNTER_FIELD(name) std::atomic<uint64_t> name{0};
/// In a member taking `o`: adds o's count to this record's.
#define HGS_MERGE_COUNTER(name) name += o.name;
/// In a member taking `o`: adds o's count to this record's atomic one.
#define HGS_ACCUMULATE_COUNTER(name) \
  if (o.name != 0) name.fetch_add(o.name, std::memory_order_relaxed);
/// Zeroes an atomic counter.
#define HGS_ZERO_COUNTER(name) name.store(0, std::memory_order_relaxed);

#endif  // HGS_COMMON_COUNTERS_H_
