// Fault-isolation coverage for MonitorService: a monitor whose evaluation
// throws is quarantined — its row slots render Verdict::Faulted carrying the
// captured exception — while every other monitor's verdict stream stays
// bit-identical to the uncached evaluator at every prefix (tests/oracle.h),
// across batch sizes 1/4/16 x pool widths 1/2/4.  The organic
// thrower needs no build flag: `[] (boom = 1 -> $unbound > 0)` evaluates its
// unbound meta variable (std::invalid_argument) exactly when a state with
// boom=1 arrives, and short-circuits safely on every other state.  On top
// of that: the reinstate lifecycle (backoff gate, retry budget, rebuild
// failure), the byte budget (quarantine once the live set is over it),
// fault payloads in rank order when several slots fault in one row, and —
// under IL_FAULT_INJECTION — per-site differentials for the injected
// harness plus a seeded soak (IL_FAULT_SOAK_SECONDS bounds it).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "il.h"
#include "oracle.h"
#include "systems/mutex.h"
#include "systems/queue_system.h"
#include "util/fault.h"

namespace il {
namespace {

/// A spec that throws organically: the implication short-circuits until a
/// state carries `key`=1, whereupon the unbound meta variable $unbound
/// throws std::invalid_argument from predicate evaluation.
Spec boom_spec(const std::string& key = "boom") {
  Spec s;
  s.name = key;
  s.axioms.push_back(Axiom{"no_" + key, parse_formula("[] (" + key + " = 1 -> $unbound > 0)")});
  return s;
}

/// The misbehaving mutex run — so the survivors' reference verdicts include
/// failures — with boom=1 spliced onto state `boom_at` (absent keys read 0,
/// so every other state is safe for the boom spec).
Trace boom_trace(std::size_t boom_at, std::size_t entries = 4) {
  sys::MutexRunConfig mc;
  mc.seed = 1;
  mc.entries = entries;
  const Trace base = sys::run_mutex_buggy(mc);
  std::vector<State> states = base.states();
  if (boom_at < states.size()) states[boom_at].set("boom", 1);
  return Trace(std::move(states));
}

struct FleetResult {
  std::vector<VerdictRow> rows;
  ServiceStats stats;
};

/// Runs `trace` through a fleet of three mutex monitors and a boom monitor
/// registered second, so the victim sits between survivors in rank order.
FleetResult run_fleet(const Trace& trace, std::size_t batch, std::size_t threads,
                      MonitorId* victim_out) {
  const Spec mutex_spec = sys::mutex_spec(3);
  const Spec victim_spec = boom_spec();
  Options opts;
  opts.num_threads = threads;
  opts.max_epoch_batch = batch;
  opts.queue_capacity = trace.size() + 8;
  FleetResult out;
  MonitorService service(opts);
  service.pause();
  service.register_spec(mutex_spec);
  *victim_out = service.register_spec(victim_spec);
  service.register_spec(mutex_spec);
  service.register_spec(mutex_spec);
  for (const State& s : trace.states()) service.append(s);
  service.resume();
  service.flush();
  out.stats = service.stats();
  out.rows = service.drain();
  return out;
}

/// Asserts that `got` has `survivors` non-victim slots per row and that
/// each carries the reference verdict for its prefix (oracle[k]): the
/// victim's fault must be invisible to everyone else.
void expect_survivors_match(const std::vector<VerdictRow>& got, MonitorId victim,
                            std::size_t survivors, const std::vector<CheckResult>& oracle,
                            const std::string& label) {
  ASSERT_EQ(got.size(), oracle.size()) << label;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].seq, k) << label << " row " << k;
    std::size_t seen = 0;
    for (std::size_t i = 0; i < got[k].verdicts.size(); ++i) {
      const ServiceVerdict& v = got[k].verdicts[i];
      if (v.id == victim) continue;
      ++seen;
      ASSERT_NE(got[k].verdict_at(i), Verdict::Faulted) << label << " row " << k << " slot " << i;
      ASSERT_EQ(v.result.ok, oracle[k].ok) << label << " row " << k << " slot " << i;
      ASSERT_EQ(v.result.failed, oracle[k].failed) << label << " row " << k << " slot " << i;
    }
    ASSERT_EQ(seen, survivors) << label << " row " << k;
  }
}

TEST(ServiceFault, QuarantineIsolatesTheFaultyMonitorAcrossGrids) {
  const Trace trace = boom_trace(3);
  ASSERT_GE(trace.size(), 6u);
  const std::vector<CheckResult> oracle = prefix_oracle(sys::mutex_spec(3), trace);
  EXPECT_GT(count_failing(oracle), 0u);

  for (const std::size_t batch : {1u, 4u, 16u}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      MonitorId victim = 0;
      const FleetResult got = run_fleet(trace, batch, threads, &victim);
      const std::string label =
          "batch " + std::to_string(batch) + " threads " + std::to_string(threads);
      expect_survivors_match(got.rows, victim, 3, oracle, label);
      EXPECT_EQ(got.stats.quarantines, 1u) << label;
      EXPECT_EQ(got.stats.monitors_quarantined, 1u) << label;
      EXPECT_EQ(got.stats.monitors_resident, 4u) << label;
      // Every row still carries the victim's slot, and from the faulting
      // block on it renders Faulted.
      for (const VerdictRow& row : got.rows) {
        ASSERT_EQ(row.verdicts.size(), 4u) << label;
      }
      EXPECT_EQ(got.rows.back().verdicts[1].id, victim) << label;
      EXPECT_EQ(got.rows.back().verdict_at(1), Verdict::Faulted) << label;
    }
  }
}

TEST(ServiceFault, FaultedRowsCarryTheQuarantiningException) {
  const Trace trace = boom_trace(2);
  MonitorId victim = 0;
  const FleetResult got = run_fleet(trace, 1, 1, &victim);

  // With per-state epochs the victim's rows are Ok before the boom state
  // and Faulted from it on; the parked exception rides every Faulted row.
  bool saw_faulted = false;
  for (std::size_t k = 0; k < got.rows.size(); ++k) {
    const ServiceVerdict& v = got.rows[k].verdicts[1];
    ASSERT_EQ(v.id, victim);
    if (k < 2) {
      EXPECT_EQ(got.rows[k].verdict_at(1), Verdict::Ok) << "row " << k;
      EXPECT_EQ(got.rows[k].fault_at(1), nullptr) << "row " << k;
      continue;
    }
    saw_faulted = true;
    EXPECT_EQ(got.rows[k].verdict_at(1), Verdict::Faulted) << "row " << k;
    EXPECT_FALSE(v.result.ok) << "row " << k;
    const std::exception_ptr fault = got.rows[k].fault_at(1);
    ASSERT_NE(fault, nullptr) << "row " << k;
    try {
      std::rethrow_exception(fault);
      FAIL() << "fault did not rethrow";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unbound meta variable"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_faulted);
}

TEST(ServiceFault, ThrowAtEveryBatchPositionNeverTearsTheFleet) {
  // The boom state walks every offset of a 4-state block: wherever the
  // throw lands inside append_block, the survivors are untouched and the
  // victim's whole failing block renders Faulted.
  // The boom key is invisible to the mutex spec, so one reference covers
  // every placement of the boom state.
  const std::vector<CheckResult> oracle = prefix_oracle(sys::mutex_spec(3), boom_trace(0, 6));
  EXPECT_GT(count_failing(oracle), 0u);
  for (std::size_t boom_at = 0; boom_at < 8; ++boom_at) {
    const Trace trace = boom_trace(boom_at, 6);
    ASSERT_GT(trace.size(), boom_at);
    MonitorId victim = 0;
    const FleetResult got = run_fleet(trace, 4, 2, &victim);
    const std::string label = "boom at " + std::to_string(boom_at);
    expect_survivors_match(got.rows, victim, 3, oracle, label);
    EXPECT_EQ(got.stats.quarantines, 1u) << label;
    // From the block containing the boom state on, the victim's slot is
    // Faulted; the block boundary is boom_at rounded down to a multiple of
    // the batch (the queue was fully loaded under pause()).
    const std::size_t block_start = (boom_at / 4) * 4;
    for (std::size_t k = 0; k < got.rows.size(); ++k) {
      EXPECT_EQ(got.rows[k].verdict_at(1) == Verdict::Faulted, k >= block_start)
          << label << " row " << k;
    }
  }
}

TEST(ServiceFault, ReinstateRebuildsAfterBackoffAndHonorsTheRetryBudget) {
  const Spec victim_spec = boom_spec();
  Options opts;
  opts.num_threads = 1;
  opts.max_epoch_batch = 1;
  opts.max_reinstate_attempts = 2;
  MonitorService service(opts);
  const MonitorId victim = service.register_spec(victim_spec);

  const Trace trace = boom_trace(0, 2);
  State safe = trace.states()[1];  // no boom key
  State boom = trace.states()[0];  // boom=1

  // Fault 1: quarantined with zero stream states since the fault.
  service.append(boom);
  service.flush();
  EXPECT_EQ(service.stats().quarantines, 1u);
  EXPECT_EQ(service.stats().monitors_quarantined, 1u);

  // Immediate reinstate: the backoff clock (2^0 = 1 state) has not run.
  service.reinstate(victim);
  service.flush();
  EXPECT_EQ(service.stats().reinstate_refused, 1u);
  EXPECT_EQ(service.stats().reinstates, 0u);

  // One quarantined state later the clock has run; the rebuild succeeds
  // and the fresh monitor verdicts normally from the next state on.
  service.append(safe);
  service.reinstate(victim);
  service.append(safe);
  service.flush();
  EXPECT_EQ(service.stats().reinstates, 1u);
  EXPECT_EQ(service.stats().monitors_quarantined, 0u);
  {
    const std::vector<VerdictRow> rows = service.drain();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].verdict_at(0), Verdict::Faulted);
    EXPECT_EQ(rows[1].verdict_at(0), Verdict::Faulted);  // pre-reinstate
    EXPECT_EQ(rows[2].verdict_at(0), Verdict::Ok);       // rebuilt
  }

  // Fault 2: backoff doubles (2^1 = 2 states).
  service.append(boom);
  service.append(safe);
  service.reinstate(victim);  // only 1 state since fault: refused
  service.append(safe);
  service.reinstate(victim);  // 2 states since fault: accepted
  service.flush();
  EXPECT_EQ(service.stats().quarantines, 2u);
  EXPECT_EQ(service.stats().reinstate_refused, 2u);
  EXPECT_EQ(service.stats().reinstates, 2u);

  // Fault 3 exceeds max_reinstate_attempts = 2: refused forever.
  service.append(boom);
  for (int k = 0; k < 8; ++k) service.append(safe);
  service.reinstate(victim);
  service.flush();
  EXPECT_EQ(service.stats().quarantines, 3u);
  EXPECT_EQ(service.stats().reinstate_refused, 3u);
  EXPECT_EQ(service.stats().reinstates, 2u);
  EXPECT_EQ(service.stats().monitors_quarantined, 1u);

  // Unknown and not-quarantined ids are counted misses, never errors.
  service.reinstate(9999);
  service.flush();
  EXPECT_EQ(service.stats().reinstate_misses, 1u);

  // A quarantined monitor retires like any other.
  service.retire(victim);
  service.flush();
  EXPECT_EQ(service.stats().monitors_quarantined, 0u);
  EXPECT_EQ(service.stats().monitors_retired, 1u);
}

TEST(ServiceFault, OverBudgetMonitorIsCollectedThenQuarantined) {
  sys::MutexRunConfig mc;
  mc.seed = 1;
  mc.entries = 4;
  const Trace run = sys::run_mutex_buggy(mc);
  ASSERT_GE(run.size(), 3u);
  const std::vector<CheckResult> oracle = prefix_oracle(sys::mutex_spec(3), run);

  Options opts;
  opts.num_threads = 1;
  opts.max_epoch_batch = 1;
  opts.obligation_byte_budget = 1;  // no live monitor fits under this
  MonitorService service(opts);
  service.register_spec(sys::mutex_spec(3));
  for (const State& s : run.states()) service.append(s);
  service.flush();

  // Epoch 1 ended over budget — its footprint is already the live set, the
  // verdict pass having freed every record no open record reads — so the
  // monitor is quarantined.  The row of that epoch was already evaluated
  // (the quarantine applies from the next epoch on) and matches the
  // reference.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.budget_quarantines, 1u);
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.monitors_quarantined, 1u);

  const std::vector<VerdictRow> rows = service.drain();
  ASSERT_EQ(rows.size(), run.size());
  EXPECT_NE(rows[0].verdict_at(0), Verdict::Faulted);
  EXPECT_EQ(rows[0].verdicts[0].result.ok, oracle[0].ok);
  EXPECT_EQ(rows[0].verdicts[0].result.failed, oracle[0].failed);
  for (std::size_t k = 1; k < rows.size(); ++k) {
    EXPECT_EQ(rows[k].verdict_at(0), Verdict::Faulted) << "row " << k;
    const std::exception_ptr fault = rows[k].fault_at(0);
    ASSERT_NE(fault, nullptr) << "row " << k;
    try {
      std::rethrow_exception(fault);
      FAIL() << "fault did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("obligation_byte_budget"), std::string::npos);
    }
  }

  // The budget quarantine feeds the same reinstate machinery.
  service.reinstate(rows[0].verdicts[0].id);
  service.flush();
  EXPECT_EQ(service.stats().reinstates, 1u);
}

TEST(ServiceFault, BudgetAtThePeakFootprintKeepsTheMonitor) {
  // A budget equal to the largest footprint a private monitor reaches over
  // the run: the service's monitor runs the same passes, so it never goes
  // over, is never quarantined, and every row matches the reference.
  sys::MutexRunConfig mc;
  mc.seed = 1;
  mc.entries = 4;
  const Trace run = sys::run_mutex_buggy(mc);
  const std::vector<CheckResult> oracle = prefix_oracle(sys::mutex_spec(3), run);
  EXPECT_GT(count_failing(oracle), 0u);

  std::size_t budget = 0;
  {
    Monitor m(sys::mutex_spec(3));
    for (const State& s : run.states()) {
      m.append(s);
      budget = std::max(budget, m.footprint_bytes());
    }
  }
  ASSERT_GT(budget, 0u);

  Options opts;
  opts.num_threads = 1;
  opts.max_epoch_batch = 1;
  opts.obligation_byte_budget = budget;
  MonitorService service(opts);
  service.register_spec(sys::mutex_spec(3));
  for (const State& s : run.states()) service.append(s);
  service.flush();
  EXPECT_EQ(service.stats().budget_quarantines, 0u);
  EXPECT_EQ(service.stats().quarantines, 0u);
  expect_survivors_match(service.drain(), ~MonitorId{0}, 1, oracle, "budget " + std::to_string(budget));
}

TEST(ServiceFault, FaultPayloadsAscendInRankOrderAcrossSources) {
  // One row with Faulted slots from both sources: the highest-id monitor
  // was quarantined in an earlier block, and two lower-id monitors throw in
  // this block.  The fold walks the table in id order, so every row's
  // payloads must ascend and name exactly its Faulted ranks — at any pool
  // width.
  const Trace base = boom_trace(~std::size_t{0});
  ASSERT_GE(base.size(), 4u);
  std::vector<State> states(base.states().begin(), base.states().begin() + 4);
  states[0].set("early", 1);
  states[2].set("late", 1);
  const Trace trace(std::move(states));

  for (const std::size_t threads : {1u, 2u, 4u}) {
    const std::string label = "threads " + std::to_string(threads);
    Options opts;
    opts.num_threads = threads;
    opts.max_epoch_batch = 2;
    opts.queue_capacity = trace.size() + 8;
    MonitorService service(opts);
    service.pause();
    service.register_spec(sys::mutex_spec(3));                          // rank 0
    const MonitorId late_a = service.register_spec(boom_spec("late"));  // rank 1
    service.register_spec(sys::mutex_spec(3));                          // rank 2
    const MonitorId late_b = service.register_spec(boom_spec("late"));  // rank 3
    const MonitorId early = service.register_spec(boom_spec("early"));  // rank 4
    // Blocks of two: {0, 1} quarantines `early`; {2, 3} throws in both
    // `late` monitors.
    for (const State& s : trace.states()) service.append(s);
    service.resume();
    service.flush();
    EXPECT_EQ(service.stats().quarantines, 3u) << label;

    const std::vector<VerdictRow> rows = service.drain();
    ASSERT_EQ(rows.size(), 4u) << label;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const VerdictRow& row = rows[k];
      ASSERT_EQ(row.verdicts.size(), 5u) << label << " row " << k;
      std::vector<std::uint32_t> faulted;
      for (std::size_t i = 0; i < row.verdicts.size(); ++i) {
        if (row.verdict_at(i) == Verdict::Faulted) {
          faulted.push_back(static_cast<std::uint32_t>(i));
        }
      }
      std::vector<std::uint32_t> indices;
      for (const auto& entry : row.faults) indices.push_back(entry.first);
      EXPECT_EQ(indices, faulted) << label << " row " << k;
      EXPECT_TRUE(std::is_sorted(indices.begin(), indices.end())) << label << " row " << k;
      const std::vector<std::uint32_t> want =
          k < 2 ? std::vector<std::uint32_t>{4} : std::vector<std::uint32_t>{1, 3, 4};
      EXPECT_EQ(indices, want) << label << " row " << k;
    }
    EXPECT_EQ(rows[3].verdicts[1].id, late_a) << label;
    EXPECT_EQ(rows[3].verdicts[3].id, late_b) << label;
    EXPECT_EQ(rows[3].verdicts[4].id, early) << label;
  }
}

TEST(ServiceFault, RegistrationAroundAQuarantineStaysSequenced) {
  // Registering after a quarantine must keep the sequenced-membership
  // contract: the late monitor observes exactly the states appended after
  // its registration, and the quarantined slot keeps its rank.
  const Trace trace = boom_trace(1);
  Options opts;
  opts.num_threads = 2;
  MonitorService service(opts);
  const MonitorId victim = service.register_spec(boom_spec());
  const MonitorId survivor = service.register_spec(sys::mutex_spec(3));
  for (const State& s : trace.states()) service.append(s);
  service.flush();
  EXPECT_EQ(service.stats().quarantines, 1u);
  // Registering *after* the quarantine still works and the new monitor
  // verdicts from its registration point on.
  const MonitorId late = service.register_spec(sys::mutex_spec(3));
  service.append(trace.states()[0]);
  service.flush();
  const std::vector<VerdictRow> rows = service.drain();
  ASSERT_FALSE(rows.empty());
  const VerdictRow& last = rows.back();
  ASSERT_EQ(last.verdicts.size(), 3u);
  EXPECT_EQ(last.verdicts[0].id, victim);
  EXPECT_EQ(last.verdict_at(0), Verdict::Faulted);
  EXPECT_EQ(last.verdicts[1].id, survivor);
  EXPECT_NE(last.verdict_at(1), Verdict::Faulted);
  EXPECT_EQ(last.verdicts[2].id, late);
  EXPECT_NE(last.verdict_at(2), Verdict::Faulted);
}

#ifdef IL_FAULT_INJECTION

using util::FaultInjector;

/// Disarms everything on scope exit so one test's arms never leak into the
/// next (the injector is process-wide).
struct ArmGuard {
  ~ArmGuard() { FaultInjector::instance().disarm_all(); }
};

TEST(ServiceFaultInjection, PerSiteFaultsQuarantineOnlyTheVictim) {
  ArmGuard guard;
  sys::MutexRunConfig mc;
  mc.seed = 1;
  mc.entries = 4;
  const Trace trace = sys::run_mutex_buggy(mc);

  const std::vector<CheckResult> oracle = prefix_oracle(sys::mutex_spec(3), trace);
  EXPECT_GT(count_failing(oracle), 0u);

  for (const char* site : {"monitor.append", "monitor.verdict", "incremental.expand"}) {
    for (const std::size_t batch : {1u, 4u, 16u}) {
      for (const std::size_t threads : {1u, 2u, 4u}) {
        const std::string label = std::string(site) + " batch " + std::to_string(batch) +
                                  " threads " + std::to_string(threads);
        Options opts;
        opts.num_threads = threads;
        opts.max_epoch_batch = batch;
        opts.queue_capacity = trace.size() + 8;
        MonitorService service(opts);
        service.pause();
        service.register_spec(sys::mutex_spec(3));
        const MonitorId victim = service.register_spec(sys::mutex_spec(3));
        service.register_spec(sys::mutex_spec(3));
        // Key the site to the victim's id: at any pool width only hits
        // made while a worker advances the victim count, so the fault
        // lands at the same logical point on every run.
        const std::uint64_t fired_before = FaultInjector::instance().fired(site);
        FaultInjector::instance().arm_nth(site, 3, victim);
        for (const State& s : trace.states()) service.append(s);
        service.resume();
        service.flush();
        FaultInjector::instance().disarm_all();

        const ServiceStats stats = service.stats();
        const std::vector<VerdictRow> rows = service.drain();
        // Skip only if this run never reached the armed trigger (fired()
        // is a lifetime counter; compare against the pre-run snapshot).
        if (FaultInjector::instance().fired(site) == fired_before) continue;
        EXPECT_EQ(stats.quarantines, 1u) << label;
        EXPECT_FALSE(service.poisoned()) << label;
        expect_survivors_match(rows, victim, 2, oracle, label);
        EXPECT_EQ(rows.back().verdict_at(1), Verdict::Faulted) << label;
        const std::exception_ptr fault = rows.back().fault_at(1);
        ASSERT_NE(fault, nullptr) << label;
        try {
          std::rethrow_exception(fault);
          FAIL() << label;
        } catch (const util::FaultError& e) {
          EXPECT_NE(std::string(e.what()).find(site), std::string::npos) << label;
        }
      }
    }
  }
}

TEST(ServiceFaultInjection, PoolDispatchFaultPoisonsTheServiceCleanly) {
  ArmGuard guard;
  sys::MutexRunConfig mc;
  const Trace trace = sys::run_mutex(mc);
  Options opts;
  opts.num_threads = 4;
  opts.queue_capacity = trace.size() + 8;
  MonitorService service(opts);
  service.pause();
  for (int k = 0; k < 4; ++k) service.register_spec(sys::mutex_spec(3));
  for (const State& s : trace.states()) service.append(s);
  FaultInjector::instance().arm_nth("pool.dispatch", 1);
  service.resume();
  EXPECT_THROW(service.flush(), ServiceFault);
  FaultInjector::instance().disarm_all();

  // Every producer-facing entry fails fast with the stable wrapper; the
  // non-blocking probe reports the distinct status instead of throwing.
  EXPECT_TRUE(service.poisoned());
  EXPECT_EQ(service.try_append(trace.states()[0]), AppendStatus::Poisoned);
  EXPECT_THROW(service.append(trace.states()[0]), ServiceFault);
  EXPECT_THROW(service.pause(), ServiceFault);
  try {
    service.flush();
    FAIL() << "flush on a poisoned service must throw";
  } catch (const ServiceFault& e) {
    EXPECT_NE(std::string(e.what()).find("pool.dispatch"), std::string::npos);
  }
  // Destructor joins cleanly (no hang, no leaked workers): end of scope.
}

TEST(ServiceFaultInjection, CommandLoopFaultPoisonsTheServiceCleanly) {
  ArmGuard guard;
  sys::MutexRunConfig mc;
  const Trace trace = sys::run_mutex(mc);
  Options opts;
  opts.num_threads = 2;
  MonitorService service(opts);
  service.register_spec(sys::mutex_spec(3));
  service.flush();
  FaultInjector::instance().arm_nth("service.command", 1);
  service.append(trace.states()[0]);
  EXPECT_THROW(service.flush(), ServiceFault);
  FaultInjector::instance().disarm_all();
  EXPECT_TRUE(service.poisoned());
  EXPECT_EQ(service.try_append(trace.states()[0]), AppendStatus::Poisoned);
}

TEST(ServiceFaultInjection, RegisterFaultQuarantinesAtBirth) {
  ArmGuard guard;
  sys::MutexRunConfig mc;
  const Trace trace = sys::run_mutex(mc);
  Options opts;
  opts.num_threads = 1;
  opts.max_epoch_batch = 1;
  MonitorService service(opts);
  const MonitorId survivor = service.register_spec(sys::mutex_spec(3));
  // Drain the survivor's Register barrier before arming: the nth=1 trigger
  // must land on the victim's build, not a still-queued survivor's.
  service.flush();
  FaultInjector::instance().arm_nth("service.register", 1);
  const MonitorId victim = service.register_spec(sys::mutex_spec(3));
  service.append(trace.states()[0]);
  service.flush();
  FaultInjector::instance().disarm_all();

  // The build failed at the barrier: quarantined at birth, fleet intact.
  EXPECT_FALSE(service.poisoned());
  EXPECT_EQ(service.stats().quarantines, 1u);
  EXPECT_EQ(service.stats().monitors_quarantined, 1u);
  {
    const std::vector<VerdictRow> rows = service.drain();
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].verdicts.size(), 2u);
    EXPECT_EQ(rows[0].verdicts[0].id, survivor);
    EXPECT_NE(rows[0].verdict_at(0), Verdict::Faulted);
    EXPECT_EQ(rows[0].verdicts[1].id, victim);
    EXPECT_EQ(rows[0].verdict_at(1), Verdict::Faulted);
  }

  // With the arm gone and the backoff (1 state) elapsed, reinstate builds
  // the monitor for real.
  service.reinstate(victim);
  service.append(trace.states()[1]);
  service.flush();
  EXPECT_EQ(service.stats().reinstates, 1u);
  const std::vector<VerdictRow> rows = service.drain();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0].verdict_at(1), Verdict::Faulted);
}

TEST(ServiceFaultInjection, SeededSoakSurvivesRandomFaults) {
  ArmGuard guard;
  // Bounded by wall clock: ~2s locally, longer in CI via the env knob.
  double seconds = 2.0;
  if (const char* env = std::getenv("IL_FAULT_SOAK_SECONDS")) {
    seconds = std::atof(env);
    if (seconds <= 0.0) seconds = 2.0;
  }
  sys::MutexRunConfig mc;
  mc.seed = 1;
  mc.entries = 4;
  const Trace mutex_run = sys::run_mutex_buggy(mc);
  sys::QueueRunConfig qc;
  qc.seed = 1;
  qc.values = 3;
  const Trace queue_run = sys::run_swapping_queue(qc);
  const Spec specs[] = {sys::mutex_spec(3), sys::queue_spec(std::vector<std::int64_t>{1, 2, 3})};
  const Trace* traces[] = {&mutex_run, &queue_run};
  const std::vector<CheckResult> oracles[] = {prefix_oracle(specs[0], mutex_run),
                                              prefix_oracle(specs[1], queue_run)};
  const char* sites[] = {"monitor.append", "monitor.verdict", "incremental.expand",
                         "service.register"};

  std::mt19937_64 rng(20260808);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(static_cast<long>(seconds * 1000));
  std::size_t iterations = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    ++iterations;
    const std::size_t which = rng() % 2;
    const Trace& trace = *traces[which];
    Options opts;
    opts.num_threads = 1 + rng() % 4;
    opts.max_epoch_batch = 1 + rng() % 16;
    opts.queue_capacity = trace.size() + 8;

    std::vector<MonitorId> ids;
    MonitorService service(opts);
    service.pause();
    for (int m = 0; m < 3; ++m) ids.push_back(service.register_spec(specs[which]));
    const MonitorId victim = ids[rng() % ids.size()];
    const char* site = sites[rng() % 4];
    if (rng() % 2 == 0) {
      FaultInjector::instance().arm_nth(site, 1 + rng() % 8, victim);
    } else {
      FaultInjector::instance().arm_probability(site, 0.05, rng(), victim);
    }
    for (const State& s : trace.states()) service.append(s);
    service.resume();
    service.flush();
    FaultInjector::instance().disarm_all();

    ASSERT_FALSE(service.poisoned());
    // The victim's slots may be Faulted; the two survivors must carry the
    // reference verdicts.
    expect_survivors_match(service.drain(), victim, 2, oracles[which],
                           "iteration " + std::to_string(iterations));
  }
  EXPECT_GT(iterations, 0u);
}

#endif  // IL_FAULT_INJECTION

}  // namespace
}  // namespace il
