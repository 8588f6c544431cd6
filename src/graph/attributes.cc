#include "graph/attributes.h"

namespace hgs {

namespace {
struct KeyLess {
  bool operator()(const Attributes::Entry& e, std::string_view key) const {
    return e.first < key;
  }
};
}  // namespace

void Attributes::Set(std::string_view key, std::string_view value) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), key, KeyLess{});
  if (it != entries_.end() && it->first == key) {
    it->second.assign(value);
  } else {
    entries_.insert(it, Entry(std::string(key), std::string(value)));
  }
}

void Attributes::AppendSorted(std::string key, std::string value) {
  if (entries_.empty() || entries_.back().first < key) {
    entries_.emplace_back(std::move(key), std::move(value));
  } else {
    Set(key, value);
  }
}

bool Attributes::Erase(std::string_view key) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), key, KeyLess{});
  if (it != entries_.end() && it->first == key) {
    entries_.erase(it);
    return true;
  }
  return false;
}

std::optional<std::string_view> Attributes::Get(std::string_view key) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), key, KeyLess{});
  if (it != entries_.end() && it->first == key) {
    return std::string_view(it->second);
  }
  return std::nullopt;
}

Attributes Attributes::Intersect(const Attributes& a, const Attributes& b) {
  Attributes out;
  auto ia = a.entries_.begin();
  auto ib = b.entries_.begin();
  while (ia != a.entries_.end() && ib != b.entries_.end()) {
    if (ia->first < ib->first) {
      ++ia;
    } else if (ib->first < ia->first) {
      ++ib;
    } else {
      if (ia->second == ib->second) out.entries_.push_back(*ia);
      ++ia;
      ++ib;
    }
  }
  return out;
}

}  // namespace hgs
