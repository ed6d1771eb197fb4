// Per-layer metrics of the traced run: the layer probes, and the service
// metrics of a traced fleet run.
#pragma once

#include <cstdint>

#include "fleet.h"
#include "gen.h"
#include "report.h"
#include "span.h"

namespace perfbench {

/// The single-threaded probes of every traced run, on the seed's own
/// inputs: core.monitor replays a seeded sample of each family's monitors
/// through standalone Monitor::append_block on their streams' sessions;
/// core.parser times parse_formula over the generated axiom texts; ltl and
/// lll decide corpus formulas one at a time; engine.decision runs one epoch
/// through a one-thread BatchDecider.
void probe_layers(const FleetInputs& saturate, std::uint64_t seed, SpanRecorder& spans,
                  Report& report);

/// engine.service, core.obligation and core.memo metrics of a traced fleet
/// run.
void report_service(const FleetRun& run, const SpanRecorder& spans, Report& report);

}  // namespace perfbench
