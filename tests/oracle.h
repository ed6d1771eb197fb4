// The reference verdict stream for the differential suites: the uncached
// evaluator (check_spec_cached with no cache) run on every prefix of a
// trace.  It shares no state with the monitor, the obligation graph or the
// memo tables, so agreement with it is the ground truth every streaming
// path is held to.
#pragma once

#include <cstddef>
#include <vector>

#include "core/check.h"
#include "trace/trace.h"

namespace il {

/// oracle[k] is the verdict for the prefix run[0..k] — what a monitor that
/// has observed k + 1 states must report.
inline std::vector<CheckResult> prefix_oracle(const Spec& spec, const Trace& run,
                                              const Env& env = {}) {
  std::vector<CheckResult> oracle;
  oracle.reserve(run.size());
  Trace prefix;
  for (const State& s : run.states()) {
    prefix.push(s);
    oracle.push_back(check_spec_cached(spec, prefix, env, nullptr));
  }
  return oracle;
}

/// Prefixes on which the reference reports a failure: the differential
/// suites assert this is non-zero, or agreement would prove little.
inline std::size_t count_failing(const std::vector<CheckResult>& oracle) {
  std::size_t n = 0;
  for (const CheckResult& r : oracle) n += r.ok ? 0 : 1;
  return n;
}

}  // namespace il
