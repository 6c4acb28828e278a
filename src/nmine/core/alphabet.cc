#include "nmine/core/alphabet.h"

#include <cassert>
#include <cstdio>
#include <utility>

namespace nmine {
namespace {

const std::string kWildcardName = "*";

}  // namespace

Alphabet::Alphabet(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    Intern(name);
  }
}

Alphabet Alphabet::Anonymous(size_t m) {
  std::vector<std::string> names;
  names.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    std::string name = "d";
    name += std::to_string(i + 1);
    names.push_back(std::move(name));
  }
  return Alphabet(names);
}

SymbolId Alphabet::Intern(std::string_view name) {
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) {
    return it->second;
  }
  SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::optional<SymbolId> Alphabet::Id(std::string_view name) const {
  auto it = ids_.find(std::string(name));
  if (it == ids_.end()) {
    return std::nullopt;
  }
  return it->second;
}

const std::string& Alphabet::Name(SymbolId id) const {
  if (IsWildcard(id)) {
    return kWildcardName;
  }
  assert(id >= 0 && static_cast<size_t>(id) < names_.size());
  return names_[static_cast<size_t>(id)];
}

}  // namespace nmine
