// Differential suite for the incremental obligation-graph monitor: on every
// case-study specification (mutex, queue, AB protocol, self-timed, arbiter)
// the append()-driven verdict stream must be bit-identical — the same
// axioms fail, reported in the same order, at *every* prefix of the trace —
// to a from-scratch uncached check of each prefix (tests/oracle.h).  Good
// and misbehaving runs are both streamed, one Monitor at a time and through
// a MonitorService fleet at several pool widths.  Two synthetic families
// ride along: an event-search matrix (forward and backward searches on
// suffix-insensitive and suffix-sensitive events) and a spec whose
// suffix-sensitive bodies read more bindings than a key holds inline.
#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "core/ast.h"
#include "core/check.h"
#include "core/monitor.h"
#include "engine/service.h"
#include "oracle.h"
#include "systems/ab_protocol.h"
#include "systems/arbiter.h"
#include "systems/mutex.h"
#include "systems/queue_system.h"
#include "systems/selftimed.h"

namespace il {
namespace {

std::vector<std::int64_t> domain(std::size_t n) {
  std::vector<std::int64_t> d;
  for (std::size_t i = 1; i <= n; ++i) d.push_back(static_cast<std::int64_t>(i));
  return d;
}

/// Forward (`[ E => ]`) or backward (`[ E <= ]`) event searches on the
/// event E = {p} (suffix-insensitive) or E = {[] q} (suffix-sensitive: its
/// changeset moves as the trace grows).  The outer [] starts a search at
/// every position; the starred arm also exercises the requiredness path.
Spec event_search_spec(bool backward, bool sensitive) {
  const TermPtr event = t::event(sensitive ? f::always(f::atom("q")) : f::atom("p"));
  const auto search = [&](TermPtr e) {
    return backward ? t::bwd(std::move(e), nullptr) : t::fwd(std::move(e), nullptr);
  };
  Spec spec;
  spec.name = std::string(backward ? "bwd" : "fwd") + (sensitive ? "_sensitive" : "_plain");
  const FormulaPtr answered = f::eventually(f::atom("r"));
  spec.axioms.push_back({"every", f::always(f::interval(search(event), answered))});
  spec.axioms.push_back({"required", f::interval(search(t::star(event)), answered)});
  return spec;
}

/// Seeded random boolean trace over p (rare), q (mostly true) and r (rare).
Trace random_pqr_trace(std::uint32_t seed, std::size_t n) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution p(0.3), q(0.8), r(0.15);
  Trace trace;
  for (std::size_t k = 0; k < n; ++k) {
    State s;
    s.set_bool("p", p(rng));
    s.set_bool("q", q(rng));
    s.set_bool("r", r(rng));
    trace.push(s);
  }
  return trace;
}

/// Quantifies a, b, c, d, e over {0, 1}: bodies that read all five carry
/// more bindings than EvalCache::kMaxEnv.  The "narrow" axiom reads one.
Spec wide_env_spec() {
  const std::string sum = "$a + $b + $c + $d + $e";
  const auto quantify = [](FormulaPtr body) {
    for (const char* v : {"e", "d", "c", "b", "a"}) body = f::forall(v, {0, 1}, std::move(body));
    return body;
  };
  const TermPtr settle = t::event(f::always(f::atom("x != " + sum)));
  const FormulaPtr answered = f::eventually(f::atom("y = " + sum));
  Spec spec;
  spec.name = "wide_env";
  const FormulaPtr narrow =
      f::always(f::implies(f::atom("x = $a"), f::eventually(f::atom("y = $a"))));
  spec.axioms.push_back({"narrow", f::forall("a", {0, 1}, narrow)});
  spec.axioms.push_back(
      {"resp", quantify(f::always(f::implies(f::atom("x = " + sum), answered)))});
  spec.axioms.push_back({"fwd", quantify(f::interval(t::fwd(settle, nullptr), answered))});
  spec.axioms.push_back({"bwd", quantify(f::interval(t::bwd(settle, nullptr), answered))});
  return spec;
}

/// Seeded random trace of two integers x, y in 0..5.
Trace random_xy_trace(std::uint32_t seed, std::size_t n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::int64_t> v(0, 5);
  Trace trace;
  for (std::size_t k = 0; k < n; ++k) {
    State s;
    s.set("x", v(rng));
    s.set("y", v(rng));
    trace.push(s);
  }
  return trace;
}

/// Every case-study spec paired with good and misbehaving recorded runs —
/// the same corpus the offline differential test uses, replayed as streams —
/// plus the synthetic families, each of whose traces must reach a failing
/// prefix (`must_fail`).
struct StreamCases {
  std::deque<Spec> specs;  ///< deque: spec_of pointers survive growth
  std::vector<const Spec*> spec_of;  ///< per trace
  std::vector<Trace> traces;
  std::vector<bool> must_fail;  ///< per trace

  StreamCases() {
    traces.reserve(32);

    specs.push_back(sys::mutex_spec(3));
    const Spec* mutex = &specs.back();
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      sys::MutexRunConfig mc;
      mc.seed = seed;
      mc.entries = 4;
      add(mutex, sys::run_mutex(mc));
      add(mutex, sys::run_mutex_buggy(mc));
    }

    specs.push_back(sys::queue_spec(domain(3)));
    const Spec* queue = &specs.back();
    sys::QueueRunConfig qc;
    qc.seed = 1;
    qc.values = 3;
    add(queue, sys::run_fifo_queue(qc));
    add(queue, sys::run_swapping_queue(qc));
    add(queue, sys::run_lifo_stack(qc));

    sys::AbRunConfig ac;
    ac.seed = 7;
    specs.push_back(sys::ab_sender_spec(domain(3)));
    const Spec* ab = &specs.back();
    add(ab, sys::run_ab_protocol(ac).trace);
    add(ab, sys::run_ab_protocol_stuck_bit(ac).trace);

    specs.push_back(sys::request_ack_spec());
    const Spec* selftimed = &specs.back();
    sys::SelfTimedRunConfig sc;
    add(selftimed, sys::run_request_ack(sc));
    add(selftimed, sys::run_request_ack_buggy(sc));

    specs.push_back(sys::arbiter_spec());
    const Spec* arbiter = &specs.back();
    sys::ArbiterRunConfig arc;
    add(arbiter, sys::run_arbiter(arc));
    add(arbiter, sys::run_arbiter_buggy(arc));

    for (const bool backward : {false, true}) {
      for (const bool sensitive : {false, true}) {
        specs.push_back(event_search_spec(backward, sensitive));
        for (std::uint32_t seed = 1; seed <= 2; ++seed) {
          add(&specs.back(), random_pqr_trace(seed, 48), true);
        }
      }
    }

    specs.push_back(wide_env_spec());
    add(&specs.back(), random_xy_trace(1, 40), true);
  }

  void add(const Spec* spec, Trace trace, bool fails = false) {
    traces.push_back(std::move(trace));
    spec_of.push_back(spec);
    must_fail.push_back(fails);
  }
};

TEST(MonitorIncremental, BitIdenticalToUncachedAtEveryPrefix) {
  StreamCases cases;
  std::size_t failing_prefixes = 0;
  for (std::size_t c = 0; c < cases.traces.size(); ++c) {
    const Spec& spec = *cases.spec_of[c];
    const Trace& run = cases.traces[c];
    const std::vector<CheckResult> oracle = prefix_oracle(spec, run);
    Monitor inc(spec);
    for (std::size_t k = 0; k < run.size(); ++k) {
      const CheckResult got = inc.append(run.states()[k]);
      ASSERT_EQ(got.ok, oracle[k].ok) << "case " << c << " prefix " << k;
      ASSERT_EQ(got.failed, oracle[k].failed) << "case " << c << " prefix " << k;
    }
    if (cases.must_fail[c]) {
      EXPECT_GT(count_failing(oracle), 0u) << "case " << c;
    }
    failing_prefixes += count_failing(oracle);
  }
  // The corpus must actually exercise failures, or agreement proves little.
  EXPECT_GT(failing_prefixes, 0u);
}

TEST(MonitorIncremental, RepeatedVerdictIsPureReuse) {
  StreamCases cases;
  const Spec& spec = *cases.spec_of[0];
  const Trace& run = cases.traces[0];
  Monitor inc(spec);
  for (const State& s : run.states()) inc.append(s);
  const CheckResult first = inc.current();
  const std::size_t recomputes = inc.obligations().recomputes();
  const std::size_t inserts = inc.cache().inserts();
  const CheckResult second = inc.current();  // no append in between
  EXPECT_EQ(second.ok, first.ok);
  EXPECT_EQ(second.failed, first.failed);
  EXPECT_EQ(inc.obligations().recomputes(), recomputes);
  EXPECT_EQ(inc.cache().inserts(), inserts);
}

TEST(MonitorIncremental, ObligationGraphTracksSettlement) {
  StreamCases cases;
  std::size_t all_settled = 0;  // prefixes whose graph had no open record
  for (std::size_t c = 0; c < cases.traces.size(); ++c) {
    Monitor inc(*cases.spec_of[c]);
    for (const State& s : cases.traces[c].states()) {
      inc.append(s);
      // Only open records hold edges: a settled record drops its own at once.
      const ObligationGraph& g = inc.obligations();
      if (g.open_count() != 0) continue;
      EXPECT_EQ(g.edges(), 0u) << "case " << c;
      ++all_settled;
    }
    const ObligationGraph& g = inc.obligations();
    EXPECT_GT(g.size(), 0u) << "case " << c;
    EXPECT_EQ(g.epoch(), cases.traces[c].size()) << "case " << c;
    EXPECT_EQ(g.settled_count() + g.open_count(), g.size()) << "case " << c;
  }
  EXPECT_GT(all_settled, 0u);
}

/// The wide spec's bodies read five bindings, more than a key holds
/// inline: they still get obligation records, through the span table.
TEST(MonitorIncremental, WideBindingsGetObligationRecords) {
  const Spec spec = wide_env_spec();
  Monitor inc(spec);
  const Trace run = random_xy_trace(1, 40);
  for (const State& s : run.states()) inc.append(s);
  EXPECT_GT(inc.obligations().spans(), 0u);
}

TEST(MonitorIncremental, ServiceFleetsMatchUncachedAtEveryPrefix) {
  StreamCases cases;
  constexpr std::size_t kSubscribers = 4;
  std::size_t failing_prefixes = 0;
  for (std::size_t c = 0; c < cases.traces.size(); ++c) {
    const Spec& spec = *cases.spec_of[c];
    const Trace& run = cases.traces[c];
    const std::vector<CheckResult> oracle = prefix_oracle(spec, run);
    failing_prefixes += count_failing(oracle);
    // Several subscribers to one stream at pool widths 1, 2 and 4: every
    // row slot must carry the reference verdict for its prefix.
    for (const std::size_t threads : {1u, 2u, 4u}) {
      engine::Options opts;
      opts.num_threads = threads;
      engine::MonitorService service(opts);
      for (std::size_t j = 0; j < kSubscribers; ++j) service.register_spec(spec);
      for (const State& s : run.states()) service.append(s);
      service.flush();
      const std::vector<engine::VerdictRow> rows = service.drain();
      ASSERT_EQ(rows.size(), run.size()) << "case " << c << " threads " << threads;
      for (std::size_t k = 0; k < rows.size(); ++k) {
        ASSERT_EQ(rows[k].verdicts.size(), kSubscribers);
        for (std::size_t j = 0; j < kSubscribers; ++j) {
          const CheckResult& got = rows[k].verdicts[j].result;
          ASSERT_EQ(got.ok, oracle[k].ok)
              << "case " << c << " threads " << threads << " state " << k << " job " << j;
          ASSERT_EQ(got.failed, oracle[k].failed)
              << "case " << c << " threads " << threads << " state " << k << " job " << j;
        }
      }
      const engine::StreamStats stats = service.stats().totals;
      EXPECT_EQ(stats.verdicts, run.size() * kSubscribers);
      EXPECT_GT(stats.obligation_entries, 0u);
      EXPECT_GT(stats.obligation_recomputed, 0u);
    }
  }
  EXPECT_GT(failing_prefixes, 0u);
}

}  // namespace
}  // namespace il
