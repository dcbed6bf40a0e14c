#include "algebra/mapping.h"

#include <algorithm>
#include <memory>

namespace rdfql {
namespace {

using Binding = Mapping::Binding;

// |dom(µ1) ∪ dom(µ2)| for two sorted binding lists.
size_t UnionSize(std::span<const Binding> a, std::span<const Binding> b) {
  size_t n = a.size() + b.size();
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      ++i;
    } else if (a[i].first > b[j].first) {
      ++j;
    } else {
      --n;
      ++i;
      ++j;
    }
  }
  return n;
}

}  // namespace

Mapping& Mapping::operator=(const Mapping& other) {
  if (this == &other) return *this;
  if (other.size_ <= capacity_) {
    // The current storage fits: no allocation, keep any heap block.
    std::uninitialized_copy_n(other.data(), other.size_, data());
    size_ = other.size_;
    return *this;
  }
  Release();
  CopyFrom(other.data(), other.size_);
  return *this;
}

Mapping& Mapping::operator=(Mapping&& other) noexcept {
  if (this == &other) return *this;
  Release();
  StealFrom(other);
  return *this;
}

void Mapping::Grow(size_t n) {
  RDFQL_CHECK_MSG(n <= UINT32_MAX, "mapping too large");
  Binding* block = std::allocator<Binding>().allocate(n);
  std::uninitialized_copy_n(data(), size_, block);
  if (spilled()) FreeHeap();
  heap_ = block;
  capacity_ = static_cast<uint32_t>(n);
}

void Mapping::FreeHeap() {
  std::allocator<Binding>().deallocate(heap_, capacity_);
}

Mapping Mapping::FromBindings(std::vector<Binding> bindings) {
  std::sort(bindings.begin(), bindings.end());
  // Drop repeated variables first, so the mapping is sized to its domain.
  size_t n = 0;
  for (const Binding& b : bindings) {
    if (n > 0 && bindings[n - 1].first == b.first) {
      RDFQL_CHECK_MSG(bindings[n - 1].second == b.second,
                      "conflicting duplicate binding");
      continue;
    }
    bindings[n++] = b;
  }
  Mapping m;
  m.CopyFrom(bindings.data(), n);
  return m;
}

void Mapping::Set(VarId v, TermId t) {
  Binding* begin = data();
  Binding* it = std::lower_bound(
      begin, begin + size_, v,
      [](const Binding& b, VarId key) { return b.first < key; });
  if (it != begin + size_ && it->first == v) {
    it->second = t;
    return;
  }
  size_t pos = it - begin;
  if (size_ == capacity_) Reserve(2 * size_t{capacity_});
  begin = data();
  // Open a slot at pos: the last binding moves into the fresh slot, the
  // rest shift up by one.
  if (pos < size_) {
    std::construct_at(begin + size_, begin[size_ - 1]);
    std::copy_backward(begin + pos, begin + size_ - 1, begin + size_);
    begin[pos] = {v, t};
  } else {
    std::construct_at(begin + size_, v, t);
  }
  ++size_;
}

std::optional<TermId> Mapping::Get(VarId v) const {
  const Binding* begin = data();
  const Binding* it = std::lower_bound(
      begin, begin + size_, v,
      [](const Binding& b, VarId key) { return b.first < key; });
  if (it != begin + size_ && it->first == v) return it->second;
  return std::nullopt;
}

std::vector<VarId> Mapping::Domain() const {
  std::vector<VarId> out;
  out.reserve(size_);
  for (const auto& [v, t] : bindings()) out.push_back(v);
  return out;
}

bool Mapping::CompatibleWith(const Mapping& other) const {
  std::span<const Binding> a = bindings();
  std::span<const Binding> b = other.bindings();
  // Disjoint VarId ranges (common under INL joins, where one side binds a
  // low prefix of variables and the other a high suffix) share no
  // variables, hence are vacuously compatible — skip the merge walk.
  if (a.empty() || b.empty() || a.back().first < b.front().first ||
      b.back().first < a.front().first) {
    return true;
  }
  // Merge walk over two sorted binding lists.
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      ++i;
    } else if (a[i].first > b[j].first) {
      ++j;
    } else {
      if (a[i].second != b[j].second) return false;
      ++i;
      ++j;
    }
  }
  return true;
}

Mapping Mapping::UnionWith(const Mapping& other) const {
  std::span<const Binding> a = bindings();
  std::span<const Binding> b = other.bindings();
  Mapping out;
  // Non-overlapping VarId ranges concatenate without a merge walk.
  if (a.empty() || b.empty() || a.back().first < b.front().first ||
      b.back().first < a.front().first) {
    if (!a.empty() && !b.empty() && b.back().first < a.front().first) {
      std::swap(a, b);
    }
    out.Reserve(a.size() + b.size());
    Binding* dst = std::uninitialized_copy(a.begin(), a.end(), out.data());
    std::uninitialized_copy(b.begin(), b.end(), dst);
    out.size_ = static_cast<uint32_t>(a.size() + b.size());
    return out;
  }
  // Sized exactly, so two inline inputs whose union fits stay inline.
  out.Reserve(a.size() + b.size() <= kInlineBindings ? a.size() + b.size()
                                                     : UnionSize(a, b));
  Binding* dst = out.data();
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i].first < b[j].first)) {
      std::construct_at(dst++, a[i++]);
    } else if (i >= a.size() || a[i].first > b[j].first) {
      std::construct_at(dst++, b[j++]);
    } else {
      RDFQL_CHECK_MSG(a[i].second == b[j].second,
                      "UnionWith on incompatible mappings");
      std::construct_at(dst++, a[i]);
      ++i;
      ++j;
    }
  }
  out.size_ = static_cast<uint32_t>(dst - out.data());
  return out;
}

bool Mapping::SubsumedBy(const Mapping& other) const {
  if (size() > other.size()) return false;
  std::span<const Binding> b = other.bindings();
  size_t j = 0;
  for (const auto& [v, t] : bindings()) {
    while (j < b.size() && b[j].first < v) ++j;
    if (j >= b.size() || b[j].first != v || b[j].second != t) return false;
    ++j;
  }
  return true;
}

bool Mapping::SameKey(const Mapping& other,
                      std::span<const VarId> vars) const {
  const Binding* x = data();
  const Binding* y = other.data();
  for (VarId v : vars) {
    while (x->first < v) ++x;
    while (y->first < v) ++y;
    if (x->second != y->second) return false;
  }
  return true;
}

Mapping Mapping::RestrictTo(const std::vector<VarId>& vars) const {
  Mapping out;
  for (const auto& [v, t] : bindings()) {
    if (std::find(vars.begin(), vars.end(), v) != vars.end()) {
      out.Append(v, t);
    }
  }
  return out;
}

std::string Mapping::ToString(const Dictionary& dict) const {
  std::string out = "[";
  bool first = true;
  for (const auto& [v, t] : bindings()) {
    if (!first) out += ", ";
    first = false;
    out += "?" + dict.VarName(v) + " -> " + dict.IriName(t);
  }
  out += "]";
  return out;
}

bool operator==(const Mapping& a, const Mapping& b) {
  std::span<const Mapping::Binding> x = a.bindings();
  std::span<const Mapping::Binding> y = b.bindings();
  return std::equal(x.begin(), x.end(), y.begin(), y.end());
}

bool operator<(const Mapping& a, const Mapping& b) {
  std::span<const Mapping::Binding> x = a.bindings();
  std::span<const Mapping::Binding> y = b.bindings();
  return std::lexicographical_compare(x.begin(), x.end(), y.begin(), y.end());
}

}  // namespace rdfql
