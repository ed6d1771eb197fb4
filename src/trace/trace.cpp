#include "trace/trace.h"

#include <atomic>

#include "util/assert.h"

namespace il {

std::uint64_t Trace::next_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

const State& Trace::at(std::size_t k) const {
  IL_REQUIRE(!states_.empty(), "trace must contain at least one state");
  if (k >= states_.size()) return states_.back();
  return states_[k];
}

const State& Trace::back() const {
  IL_REQUIRE(!states_.empty());
  return states_.back();
}

State& Trace::back_mut() {
  IL_REQUIRE(!states_.empty());
  id_ = next_id();  // the caller may mutate through the reference
  return states_.back();
}

State& Trace::state_mut(std::size_t k) {
  IL_REQUIRE(k < states_.size());
  id_ = next_id();  // the caller may mutate through the reference
  return states_[k];
}

std::size_t Trace::last_index() const {
  IL_REQUIRE(!states_.empty());
  return states_.size() - 1;
}

std::string Trace::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    out += std::to_string(i) + ": " + states_[i].to_string() + "\n";
  }
  return out;
}

}  // namespace il
