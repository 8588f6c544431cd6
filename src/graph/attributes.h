// Property maps for nodes and edges: small ordered key-value collections.
//
// An Attributes is one pointer to an immutable, shared block of entries
// sorted by key, with an atomic reference count; an empty map holds no
// block and allocates nothing. Copies share the block (a pointer copy plus
// one atomic increment), so a record copied through the delta algebra, a
// decoded-cache row, a Graph or a TAF view keeps its attributes once — the
// GraphPool idea of DeltaGraph ("Efficient Snapshot Retrieval over
// Historical Graph Data") at record level. Set, Erase and AppendSorted copy
// the block first unless this object is its only owner (copy-on-write), so
// a block that another object can see never changes: shared blocks are
// safe to read from any thread.
//
// Graph components typically carry a handful of attributes, where a sorted
// flat vector beats a hash map on both memory and lookup cost, and
// sortedness gives deterministic serialization (important for delta
// intersection/equality).

#ifndef HGS_GRAPH_ATTRIBUTES_H_
#define HGS_GRAPH_ATTRIBUTES_H_

#include <atomic>
#include <cstddef>
#include <initializer_list>
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
  Attributes(const Attributes& o) noexcept : block_(o.block_) {
    if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Attributes(Attributes&& o) noexcept : block_(std::exchange(o.block_, {})) {}
  Attributes& operator=(const Attributes& o) noexcept {
    Attributes(o).swap(*this);
    return *this;
  }
  Attributes& operator=(Attributes&& o) noexcept {
    Attributes(std::move(o)).swap(*this);
    return *this;
  }
  ~Attributes() { Unref(block_); }

  void swap(Attributes& o) noexcept { std::swap(block_, o.block_); }

  /// Inserts or overwrites `key`.
  void Set(std::string_view key, std::string_view value);

  /// Appends an entry expected to sort after every existing key — the shape
  /// of a serialized attribute stream, which is written in sorted order.
  /// Falls back to Set() when the precondition does not hold, so the sorted
  /// invariant survives malformed input.
  void AppendSorted(std::string key, std::string value);

  /// Removes `key`; returns true if it existed. Erasing the last key drops
  /// the block.
  bool Erase(std::string_view key);

  /// Value for `key`, or nullopt.
  std::optional<std::string_view> Get(std::string_view key) const;

  bool Has(std::string_view key) const { return Get(key).has_value(); }
  size_t size() const { return entries().size(); }
  bool empty() const { return block_ == nullptr; }

  /// Entries in ascending key order; none when empty.
  const std::vector<Entry>& entries() const {
    return block_ != nullptr ? block_->entries : kNoEntries;
  }

  /// Number of Attributes sharing this block; 0 when empty.
  size_t use_count() const {
    return block_ != nullptr ? block_->refs.load(std::memory_order_relaxed)
                             : 0;
  }

  /// Keeps only the entries present-and-equal in both; used by delta
  /// intersection (DeltaGraph-style temporal compression).
  static Attributes Intersect(const Attributes& a, const Attributes& b);

  bool operator==(const Attributes& o) const {
    return block_ == o.block_ ||
           (block_ != nullptr && o.block_ != nullptr &&
            block_->entries == o.block_->entries);
  }

 private:
  // Never empty: the last Erase drops it.
  struct Block {
    std::atomic<size_t> refs{1};
    std::vector<Entry> entries;  // sorted by key
  };

  static const std::vector<Entry> kNoEntries;

  static void Unref(Block* b) {
    if (b != nullptr && b->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete b;
    }
  }

  /// The entries, after copying the block unless this is its only owner
  /// (the acquire load sees every write of an owner that dropped it).
  std::vector<Entry>& Mutable();

  Block* block_ = nullptr;
};

static_assert(sizeof(Attributes) == sizeof(void*));

}  // namespace hgs

#endif  // HGS_GRAPH_ATTRIBUTES_H_
