// Tests for the obligation graph's open-reader list: the reader-list epoch
// invalidation must be verdict-identical to the uncached evaluator at every
// prefix; the list must track exactly the open readers through settlement
// and freeing; an epoch must touch a handful of records, not the graph;
// relocating open event searches must unlink the obligation records they
// supersede; a settled record must drop its resume state; reclaim must be
// exact — after every append the resident records are precisely those a
// root reaches through open records — without changing a single verdict;
// and a long-run monitor's graph footprint must plateau instead of growing
// with the trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <random>
#include <vector>

#include "core/ast.h"
#include "core/check.h"
#include "core/memo.h"
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

/// The case-study corpus from tests/test_monitor_incremental.cpp, reused
/// here to exercise the reader list on realistic graphs.
struct StreamCases {
  std::deque<Spec> specs;  ///< deque: spec_of pointers survive growth
  std::vector<const Spec*> spec_of;
  std::vector<Trace> traces;

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
  }

  void add(const Spec* spec, Trace trace) {
    traces.push_back(std::move(trace));
    spec_of.push_back(spec);
  }
};

/// One axiom whose interval start is an open forward event search that
/// relocates: the event is []q, which under stuttering extension holds from
/// the position after the *last* !q pulse onward — so every new !q pulse
/// moves the found edge forward and supersedes the previous body obligation.
/// The body <>r stays open while r never occurs.
Spec relocating_spec() {
  Spec spec;
  spec.name = "reloc";
  spec.axioms.push_back(
      {"tail", f::interval(t::fwd(t::event(f::always(f::atom("q"))), nullptr),
                           f::eventually(f::atom("r")))});
  return spec;
}

State qr(bool q, bool r) {
  State s;
  s.set_bool("q", q);
  s.set_bool("r", r);
  return s;
}

/// A relocating open event find must unlink the obligation
/// record it supersedes immediately, so the graph's resident entry count
/// stays flat across arbitrarily many relocations.
TEST(ObligationIndex, RelocatingEventFindKeepsEntriesFlat) {
  Monitor m(relocating_spec());
  constexpr std::size_t kTotal = 1024;
  constexpr std::size_t kPulse = 64;  // q drops every kPulse-th state
  std::vector<std::size_t> phase_entries;  // sampled at a fixed pulse phase
  for (std::size_t k = 0; k < kTotal; ++k) {
    m.append(qr(k % kPulse != kPulse - 1, false));
    if (k >= 4 * kPulse && k % kPulse == 0) {
      phase_entries.push_back(m.obligations().size());
    }
  }
  ASSERT_GE(phase_entries.size(), 8u);
  const auto [lo, hi] = std::minmax_element(phase_entries.begin(), phase_entries.end());
  // ~16 relocations happened; without the unlink each leaves an orphaned
  // body obligation behind and the count climbs monotonically.
  EXPECT_LE(*hi, *lo + 4) << "obligation entries grew across relocations";
  EXPECT_GT(m.obligations().orphan_unlinks(), 0u);
  EXPECT_GT(m.obligations().gc_freed(), 0u);  // superseded records were freed
}

/// The reader-list invalidation must produce the reference verdict stream
/// at every prefix, on every case-study spec plus the relocating one.
TEST(ObligationIndex, IndexedMatchesUncachedAtEveryPrefix) {
  StreamCases cases;
  {
    cases.specs.push_back(relocating_spec());
    Trace t;
    for (std::size_t k = 0; k < 256; ++k) t.push(qr(k % 32 != 31, k % 97 == 96));
    cases.add(&cases.specs.back(), std::move(t));
  }
  std::size_t failing_prefixes = 0;
  for (std::size_t c = 0; c < cases.traces.size(); ++c) {
    const Spec& spec = *cases.spec_of[c];
    const Trace& run = cases.traces[c];
    const std::vector<CheckResult> oracle = prefix_oracle(spec, run);
    Monitor m(spec);
    for (std::size_t k = 0; k < run.size(); ++k) {
      const CheckResult got = m.append(run.states()[k]);
      ASSERT_EQ(got.ok, oracle[k].ok) << "case " << c << " prefix " << k;
      ASSERT_EQ(got.failed, oracle[k].failed) << "case " << c << " prefix " << k;
    }
    EXPECT_GT(m.obligations().epoch(), 0u) << "case " << c;
    failing_prefixes += count_failing(oracle);
  }
  EXPECT_GT(failing_prefixes, 0u);  // the corpus must exercise failures
}

/// The whole point of the reader list: an epoch touches the open readers of
/// the horizon, not the graph.  On a long steady-state stream (2048 states,
/// a !q pulse every 64) the per-epoch seed count and the resident
/// record count must both stay at a handful, independent of the trace
/// length.  The resident count spikes for one epoch at each pulse — the
/// pulse settles one period's worth of []q probes at once, and the find
/// prunes them at its next recomputation — so the steady-state bound is
/// read just before the last pulse and the spike gets its own bound.
TEST(ObligationIndex, EpochTouchesAHandfulOfRecords) {
  constexpr std::size_t kTotal = 2048;
  constexpr std::size_t kPulse = 64;
  Monitor m(relocating_spec());
  std::size_t steady = 0;
  std::size_t peak = 0;
  for (std::size_t k = 0; k < kTotal; ++k) {
    m.append(qr(k % kPulse != kPulse - 1, false));
    if (k == kTotal - 2) steady = m.obligations().size();
    peak = std::max(peak, m.obligations().size());
  }
  const ObligationGraph& g = m.obligations();
  ASSERT_GT(g.epoch(), 0u);
  const std::size_t avg_touched = g.touched_total() / g.epoch();
  EXPECT_LE(avg_touched, 8u);  // measured 3
  // Reclamation keeps the graph itself small: the walk could not be
  // selective if every record it ever made stayed resident.
  EXPECT_LE(steady, 64u);          // measured 5
  EXPECT_LE(peak, kPulse + 8);     // measured 67, at every pulse
}

/// The reader list at the graph level: a record joins once when it reads
/// the horizon, leaves when it settles or is freed (the swap-removal must
/// fix up the moved record's position), and an epoch dirties exactly the
/// records still on it.
TEST(ObligationIndex, ReaderListTracksOpenReaders) {
  ObligationGraph g;
  ObligationGraph::ObId id[3];
  for (std::uint32_t i = 0; i < 3; ++i) {
    ObligationGraph::Key key;
    key.node = i + 1;
    key.lo = i;
    id[i] = g.obtain(key);
    g.touch_horizon(id[i]);
    EXPECT_EQ(g.index_nodes(), i + 1);
  }
  g.touch_horizon(id[0]);  // already registered: no second entry
  EXPECT_EQ(g.index_nodes(), 3u);
  const auto clean_all = [&]() {
    for (const ObligationGraph::ObId r : id) g.at(r).dirty = false;
  };

  // Settling the middle reader removes it; the epoch dirties the other two.
  g.at(id[1]).settled = true;
  g.on_settle(id[1]);
  EXPECT_EQ(g.index_nodes(), 2u);
  clean_all();
  g.begin_epoch();
  EXPECT_TRUE(g.at(id[0]).dirty);
  EXPECT_FALSE(g.at(id[1]).dirty);
  EXPECT_TRUE(g.at(id[2]).dirty);
  EXPECT_EQ(g.last_dirtied(), 2u);
  EXPECT_EQ(g.last_touched(), 2u);

  // Freeing the first reader moves the last one into its place.  It is
  // freed the way the evaluator frees: its only parent settles, which drops
  // the edge, and the next collect() finds it unread and not a root.
  ObligationGraph::Key parent_key;
  parent_key.node = 10;
  const ObligationGraph::ObId parent = g.obtain(parent_key);
  g.mark_root(parent);
  g.add_dep(parent, id[0]);
  g.mark_root(id[1]);
  g.mark_root(id[2]);
  EXPECT_EQ(g.collect(), 0u);  // still read by an open parent
  g.at(parent).settled = true;
  g.on_settle(parent);
  EXPECT_EQ(g.edges(), 0u);
  EXPECT_EQ(g.collect(), 1u);
  EXPECT_TRUE(g.at(id[0]).freed);
  EXPECT_EQ(g.index_nodes(), 1u);
  clean_all();
  g.begin_epoch();
  EXPECT_TRUE(g.at(id[2]).dirty);
  EXPECT_EQ(g.last_dirtied(), 1u);

  // The moved reader's position was fixed up: settling it empties the list.
  g.at(id[2]).settled = true;
  g.on_settle(id[2]);
  EXPECT_EQ(g.index_nodes(), 0u);
  g.begin_epoch();
  EXPECT_EQ(g.last_dirtied(), 0u);
  EXPECT_EQ(g.touched_total(), 3u);
  EXPECT_EQ(g.epoch(), 3u);
}

/// A record that settles while its open-position list is non-empty (a []
/// pinned false part-way through rechecking its open positions) must free
/// that list on the spot: settlement is permanent and a settled root is
/// never freed, so nothing else would ever reclaim it.
TEST(ObligationIndex, SettlingFreesOpenPositions) {
  ObligationGraph g;
  ObligationGraph::Key key;
  key.node = 7;
  key.lo = 3;
  const ObligationGraph::ObId id = g.obtain(key);
  g.mark_root(id);
  ObligationGraph::Obligation& ob = g.at(id);
  ob.open_positions = {3, 4, 5, 9};
  ob.settled = true;
  g.on_settle(id);
  EXPECT_TRUE(g.at(id).open_positions.empty());
  EXPECT_EQ(g.at(id).open_positions.capacity(), 0u);
  EXPECT_TRUE(g.at(id).settled);
}

/// Footprint honesty — the graph's byte gauge must cover the open-reader
/// list, and the monitor's footprint must cover both stores.
TEST(ObligationIndex, FootprintAccountsForIndexNodes) {
  StreamCases cases;
  Monitor m(*cases.spec_of[0]);
  for (const State& s : cases.traces[0].states()) m.append(s);
  const ObligationGraph& g = m.obligations();
  EXPECT_GT(g.index_nodes(), 0u);
  EXPECT_GE(g.bytes(), g.index_nodes() * sizeof(ObligationGraph::ObId));
  EXPECT_GE(m.footprint_bytes(), g.bytes() + m.cache().bytes());
}

/// Keys never overflow: a query observing more bindings than a key holds
/// inline interns them into the graph's span table and keys by the table
/// id, so equal bindings share one record and different ones get their
/// own.  Up to EvalCache::kMaxEnv bindings stay inline, and bytes() counts
/// the table.
TEST(ObligationIndex, WideBindingsSpillIntoTheSpanTable) {
  using Op = ObligationGraph::Op;
  ObligationGraph g;
  Env env{{"w1", 1}, {"w2", 2}, {"w3", 3}, {"w4", 4}, {"w5", 5}};
  std::vector<std::uint32_t> metas;
  for (const Env::Binding& b : env.bindings()) metas.push_back(b.first);

  const std::size_t without_spans = g.bytes();
  const ObligationGraph::Key wide = g.key(7, Op::Sat, 0, metas, env);
  EXPECT_GT(g.bytes(), without_spans);
  EXPECT_GT(wide.n_env, EvalCache::kMaxEnv);
  EXPECT_EQ(g.spans(), 1u);
  EXPECT_TRUE(g.key(7, Op::Sat, 0, metas, env) == wide);
  EXPECT_EQ(g.spans(), 1u);
  Env other = env;
  other.bind(metas.back(), 6);
  const ObligationGraph::Key wide2 = g.key(7, Op::Sat, 0, metas, other);
  EXPECT_FALSE(wide2 == wide);
  EXPECT_EQ(g.spans(), 2u);
  EXPECT_NE(g.obtain(wide), g.obtain(wide2));
  EXPECT_EQ(g.obtain(g.key(7, Op::Sat, 0, metas, env)), g.obtain(wide));

  metas.pop_back();  // four observed bindings fit inline
  const ObligationGraph::Key narrow = g.key(7, Op::Sat, 0, metas, env);
  EXPECT_EQ(narrow.n_env, EvalCache::kMaxEnv);
  EXPECT_EQ(g.spans(), 2u);
}

/// A seeded randomized soak on the corpus and on a noisy relocating run:
/// records are freed along the way, and verdicts must stay bit-identical to
/// the reference at every prefix.
TEST(ObligationIndex, SoakGcPreservesVerdicts) {
  std::mt19937 rng(0xC0FFEEu);
  StreamCases cases;
  {
    cases.specs.push_back(relocating_spec());
    Trace t;
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (std::size_t k = 0; k < 768; ++k) t.push(qr(u(rng) < 0.95, u(rng) < 0.02));
    cases.add(&cases.specs.back(), std::move(t));
  }
  std::size_t freed = 0;
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
    freed += inc.obligations().gc_freed();
    failing_prefixes += count_failing(oracle);
  }
  EXPECT_GT(freed, 0u);
  EXPECT_GT(failing_prefixes, 0u);
}

/// The same soak through a MonitorService fleet at pool widths 1, 2 and 4:
/// records are freed fleet-wide, and every subscriber's row slot must carry
/// the reference verdict for its prefix.
TEST(ObligationIndex, SoakPoolWidthsMatchUncachedUnderGc) {
  std::mt19937 rng(0xB0BACAFEu);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const Spec spec = relocating_spec();
  Trace run;
  for (std::size_t k = 0; k < 512; ++k) run.push(qr(u(rng) < 0.95, u(rng) < 0.02));
  const std::vector<CheckResult> oracle = prefix_oracle(spec, run);
  EXPECT_GT(count_failing(oracle), 0u);

  constexpr std::size_t kSubscribers = 4;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    engine::Options opts;
    opts.num_threads = threads;
    engine::MonitorService service(opts);
    for (std::size_t j = 0; j < kSubscribers; ++j) service.register_spec(spec);
    for (const State& s : run.states()) service.append(s);
    service.flush();
    const std::vector<engine::VerdictRow> rows = service.drain();
    ASSERT_EQ(rows.size(), run.size()) << "threads " << threads;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      ASSERT_EQ(rows[k].verdicts.size(), kSubscribers);
      for (std::size_t j = 0; j < kSubscribers; ++j) {
        const CheckResult& got = rows[k].verdicts[j].result;
        ASSERT_EQ(got.ok, oracle[k].ok) << "threads " << threads << " state " << k;
        ASSERT_EQ(got.failed, oracle[k].failed) << "threads " << threads << " state " << k;
      }
    }
    EXPECT_GT(service.stats().totals.gc_freed, 0u) << "threads " << threads;
  }
}

/// A long-lived monitor's obligation-graph footprint plateaus — the max
/// over the final quarter of the run stays within 1.5x the max over the
/// second quarter, instead of tracking the trace length.  (The settled
/// closed-world cache is uncapped and grows with the trace by design.)
TEST(ObligationIndex, FootprintPlateausUnderGc) {
  std::mt19937 rng(7u);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  Monitor m(relocating_spec());
  constexpr std::size_t kTotal = 4096;
  std::vector<std::size_t> footprint;
  footprint.reserve(kTotal);
  for (std::size_t k = 0; k < kTotal; ++k) {
    m.append(qr(u(rng) < 0.95, u(rng) < 0.02));
    footprint.push_back(m.obligations().bytes());
  }
  const auto quarter_max = [&](std::size_t q) {
    const std::size_t lo = q * kTotal / 4;
    const std::size_t hi = (q + 1) * kTotal / 4;
    return *std::max_element(footprint.begin() + lo, footprint.begin() + hi);
  };
  const std::size_t second = quarter_max(1);
  const std::size_t last = quarter_max(3);
  EXPECT_LE(last, second + second / 2) << "footprint still growing after 4x the states";
  EXPECT_GT(m.obligations().gc_sweeps(), 0u);
}

/// Records reached from the roots through the dependency lists of OPEN
/// records only — what a tracing collector would keep.  A settled record
/// never recomputes, so it never re-reads its children.
std::size_t reachable_from_roots(const ObligationGraph& g) {
  std::vector<bool> seen;
  std::vector<ObligationGraph::ObId> stack;
  const auto visit = [&](ObligationGraph::ObId id) {
    if (id >= seen.size()) seen.resize(id + 1, false);
    if (seen[id]) return;
    seen[id] = true;
    stack.push_back(id);
  };
  for (const ObligationGraph::ObId r : g.roots()) visit(r);
  std::size_t reached = 0;
  while (!stack.empty()) {
    const ObligationGraph::Obligation& ob = g.at(stack.back());
    stack.pop_back();
    ++reached;
    if (ob.settled) continue;
    for (const ObligationGraph::ObId d : ob.deps) visit(d);
  }
  return reached;
}

/// Reclaim is exact: after every append — the end of a verdict pass — the
/// resident records are precisely those a root reaches through open
/// records.  Nothing unreachable survives, so a tracing sweep would find
/// nothing to free; nothing reachable is freed.  Runs the corpus plus a
/// relocating spec, whose superseded body records must go too.
TEST(ObligationIndex, ReclaimIsExact) {
  StreamCases cases;
  {
    cases.specs.push_back(relocating_spec());
    Trace t;
    for (std::size_t k = 0; k < 256; ++k) t.push(qr(k % 32 != 31, k % 97 == 96));
    cases.add(&cases.specs.back(), std::move(t));
  }
  std::size_t freed = 0;
  for (std::size_t c = 0; c < cases.traces.size(); ++c) {
    Monitor m(*cases.spec_of[c]);
    const std::vector<State>& states = cases.traces[c].states();
    for (std::size_t k = 0; k < states.size(); ++k) {
      m.append(states[k]);
      ASSERT_EQ(reachable_from_roots(m.obligations()), m.obligations().size())
          << "case " << c << " prefix " << k;
    }
    freed += m.obligations().gc_freed();
  }
  EXPECT_GT(freed, 0u);
}

}  // namespace
}  // namespace il
