#include "graph/attributes.h"

#include <algorithm>

namespace hgs {

const std::vector<Attributes::Entry> Attributes::kNoEntries;

namespace {
struct KeyLess {
  bool operator()(const Attributes::Entry& e, std::string_view key) const {
    return e.first < key;
  }
};

auto FindKey(const std::vector<Attributes::Entry>& entries,
             std::string_view key) {
  auto it = std::lower_bound(entries.begin(), entries.end(), key, KeyLess{});
  return std::pair(it, it != entries.end() && it->first == key);
}
}  // namespace

std::vector<Attributes::Entry>& Attributes::Mutable() {
  if (block_ == nullptr) {
    block_ = new Block;
  } else if (block_->refs.load(std::memory_order_acquire) != 1) {
    Block* copy = new Block;
    copy->entries = block_->entries;
    Unref(std::exchange(block_, copy));
  }
  return block_->entries;
}

void Attributes::Set(std::string_view key, std::string_view value) {
  auto [it, found] = FindKey(entries(), key);
  if (found && it->second == value) return;
  const size_t at = static_cast<size_t>(it - entries().begin());
  std::vector<Entry>& v = Mutable();
  if (found) {
    v[at].second.assign(value);
  } else {
    v.emplace(v.begin() + static_cast<ptrdiff_t>(at), std::string(key),
              std::string(value));
  }
}

void Attributes::AppendSorted(std::string key, std::string value) {
  if (empty() || entries().back().first < key) {
    Mutable().emplace_back(std::move(key), std::move(value));
  } else {
    Set(key, value);
  }
}

bool Attributes::Erase(std::string_view key) {
  auto [it, found] = FindKey(entries(), key);
  if (!found) return false;
  if (size() == 1) {
    Unref(std::exchange(block_, nullptr));
    return true;
  }
  const size_t at = static_cast<size_t>(it - entries().begin());
  std::vector<Entry>& v = Mutable();
  v.erase(v.begin() + static_cast<ptrdiff_t>(at));
  return true;
}

std::optional<std::string_view> Attributes::Get(std::string_view key) const {
  auto [it, found] = FindKey(entries(), key);
  if (found) return std::string_view(it->second);
  return std::nullopt;
}

Attributes Attributes::Intersect(const Attributes& a, const Attributes& b) {
  if (a.block_ == b.block_) return a;
  Attributes out;
  auto ia = a.entries().begin();
  auto ib = b.entries().begin();
  while (ia != a.entries().end() && ib != b.entries().end()) {
    if (ia->first < ib->first) {
      ++ia;
    } else if (ib->first < ia->first) {
      ++ib;
    } else {
      if (ia->second == ib->second) out.Mutable().push_back(*ia);
      ++ia;
      ++ib;
    }
  }
  return out;
}

}  // namespace hgs
