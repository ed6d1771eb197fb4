#include "core/monitor.h"

#include "core/incremental.h"
#include "util/assert.h"
#include "util/fault.h"

namespace il {

Monitor::Monitor(Spec spec, Env env) : spec_(std::move(spec)), env_(std::move(env)) {}

void Monitor::observe(const State& s) {
  IL_INJECT_FAULT("monitor.append");
  trace_.push(s);
}

CheckResult Monitor::append(const State& s) {
  observe(s);
  return current();
}

void Monitor::append_block(const State* const* states, std::size_t count, CheckResult* out) {
  if (count == 0) return;
  for (std::size_t i = 0; i < count; ++i) observe(*states[i]);
  // One epoch for the whole block (plus any states observe()d since the
  // last verdict): the invalidation pass and the settled-cache reuse run
  // once, and the per-prefix verdicts come from virtual horizons.
  sync_epoch();
  const std::size_t base = trace_.size() - count;
  for (std::size_t i = 0; i < count; ++i) out[i] = verdict_at(base + i);
}

CheckResult Monitor::current() const {
  IL_REQUIRE(!trace_.empty(), "no states observed yet");
  sync_epoch();
  return verdict_at(trace_.last_index());
}

void Monitor::sync_epoch() const {
  // The trace is owned by this monitor and only ever grows through
  // observe(), so its size says whether states arrived since the last
  // verdict.  One epoch per verdict refresh: several appends between
  // verdicts fold into one invalidation pass (the scan frontiers cover the
  // gap).
  if (trace_.size() == seen_states_) return;
  graph_.begin_epoch();
  seen_states_ = trace_.size();
}

void Monitor::reserve(std::size_t states) { trace_.reserve(states); }

CheckResult Monitor::verdict_at(std::size_t horizon) const {
  IL_INJECT_FAULT("monitor.verdict");
  IncrementalEvaluator ev(trace_, &graph_, &cache_, horizon);
  CheckResult result;
  for (const Axiom* axiom : spec_.all()) {
    if (!ev.sat_root(*axiom->formula, env_)) {
      result.ok = false;
      result.failed.push_back(spec_.name + "." + axiom->name);
    }
  }
  // End of the pass: no evaluation holds an ObId, so the records no open
  // record reads any more can be freed.
  graph_.collect();
  return result;
}

}  // namespace il
