// Property maps for nodes and edges: small ordered key-value collections.
//
// Stored as a sorted flat vector — graph components typically carry a handful
// of attributes, where a flat vector beats a hash map on both memory and
// lookup cost, and sortedness gives deterministic serialization (important
// for delta intersection/equality).

#ifndef HGS_GRAPH_ATTRIBUTES_H_
#define HGS_GRAPH_ATTRIBUTES_H_

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hgs {

class Attributes {
 public:
  using Entry = std::pair<std::string, std::string>;

  Attributes() = default;
  Attributes(std::initializer_list<Entry> init) {
    for (const auto& e : init) Set(e.first, e.second);
  }

  /// Inserts or overwrites `key`.
  void Set(std::string_view key, std::string_view value);

  /// Appends an entry expected to sort after every existing key — the shape
  /// of a serialized attribute stream, which is written in sorted order.
  /// Falls back to Set() when the precondition does not hold, so the sorted
  /// invariant survives malformed input.
  void AppendSorted(std::string key, std::string value);

  /// Removes `key`; returns true if it existed.
  bool Erase(std::string_view key);

  /// Value for `key`, or nullopt.
  std::optional<std::string_view> Get(std::string_view key) const;

  bool Has(std::string_view key) const { return Get(key).has_value(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const std::vector<Entry>& entries() const { return entries_; }

  /// Keeps only the entries present-and-equal in both; used by delta
  /// intersection (DeltaGraph-style temporal compression).
  static Attributes Intersect(const Attributes& a, const Attributes& b);

  bool operator==(const Attributes& o) const = default;

 private:
  std::vector<Entry> entries_;  // sorted by key
};

}  // namespace hgs

#endif  // HGS_GRAPH_ATTRIBUTES_H_
