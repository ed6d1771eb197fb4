#include "gen.h"

#include <map>
#include <set>
#include <stdexcept>

#include "core/intern.h"
#include "core/parser.h"
#include "systems/ab_protocol.h"
#include "systems/arbiter.h"
#include "systems/mutex.h"
#include "systems/queue_system.h"
#include "systems/selftimed.h"

namespace perfbench {

namespace {

/// Simulator sizes of one fleet workload.
struct SystemSize {
  std::size_t mutex_processes;
  std::size_t mutex_entries;
  std::size_t queue_values;
  std::size_t ab_messages;
  std::size_t ab_buggy_steps;  ///< the stuck-bit sender never finishes; cap its session
  std::size_t handshakes;
  std::size_t grants;
};

struct FleetShape {
  SystemSize size;
  std::size_t streams;
  std::size_t sessions_per_stream;
  bool buggy_sessions;            ///< one session in eight from the buggy variant
  bool case_study_monitors;
  std::size_t generated_pool;         ///< generated monitor sources per stream
  std::size_t generated_per_session;  ///< of which each session registers
  std::size_t generated_axioms;       ///< per generated monitor
  bool safety_only;                ///< generated formulas are [] (P -> Q) / [] !(P /\ Q)
};

// Monitor counts per case-study family are sized so that no family takes
// more than half of the fleet's monitor time (monitor.append_us.<family>
// times the count; see README.md).  Generated formulas differ in cost by
// two orders of magnitude; rotating each stream through a pool of them
// keeps the fleet's total cost nearly the same from seed to seed.
constexpr FleetShape kSaturate{{3, 6, 8, 4, 120, 12, 9}, kSystems, 64, true, true, 96, 6, 2, false};
constexpr FleetShape kOpen{{3, 3, 3, 2, 60, 3, 3}, 16, 8, false, false, 16, 4, 1, true};

struct FamilyCount {
  Family family;
  std::size_t count;
};

std::vector<FamilyCount> case_study_monitors(System s) {
  switch (s) {
    case System::Mutex: return {{Family::Mutex, 2}};
    case System::Queue: return {{Family::Queue, 3}};
    case System::Ab: return {{Family::AbSend, 1}, {Family::AbRecv, 1}};
    case System::SelfTimed: return {{Family::SelfTimed, 4}};
    case System::Arbiter: return {{Family::Arbiter, 2}};
  }
  return {};
}

std::size_t system_domain(System s, const SystemSize& z) {
  switch (s) {
    case System::Mutex: return z.mutex_processes;
    case System::Queue: return z.queue_values;
    case System::Ab: return z.ab_messages;
    default: return 0;
  }
}

std::vector<std::int64_t> values_1_to(std::size_t n) {
  std::vector<std::int64_t> d;
  for (std::size_t i = 1; i <= n; ++i) d.push_back(static_cast<std::int64_t>(i));
  return d;
}

std::vector<il::State> simulate(System s, const SystemSize& z, std::uint64_t seed, bool buggy) {
  namespace sys = il::sys;
  switch (s) {
    case System::Mutex: {
      sys::MutexRunConfig c;
      c.seed = seed;
      c.processes = z.mutex_processes;
      c.entries = z.mutex_entries;
      return (buggy ? sys::run_mutex_buggy(c) : sys::run_mutex(c)).states();
    }
    case System::Queue: {
      sys::QueueRunConfig c;
      c.seed = seed;
      c.values = z.queue_values;
      return (buggy ? sys::run_swapping_queue(c) : sys::run_fifo_queue(c)).states();
    }
    case System::Ab: {
      sys::AbRunConfig c;
      c.seed = seed;
      c.messages = z.ab_messages;
      if (!buggy) return sys::run_ab_protocol(c).trace.states();
      c.max_steps = z.ab_buggy_steps;
      return sys::run_ab_protocol_stuck_bit(c).trace.states();
    }
    case System::SelfTimed: {
      sys::SelfTimedRunConfig c;
      c.seed = seed;
      c.handshakes = z.handshakes;
      return (buggy ? sys::run_request_ack_buggy(c) : sys::run_request_ack(c)).states();
    }
    case System::Arbiter: {
      sys::ArbiterRunConfig c;
      c.seed = seed;
      c.grants = z.grants;
      return (buggy ? sys::run_arbiter_buggy(c) : sys::run_arbiter(c)).states();
    }
  }
  return {};
}

/// True iff every case-study monitor of the stream reports its family's
/// known violation on the whole session.
bool shows_known_violations(const StreamPlan& plan, const std::vector<il::State>& states) {
  const il::Trace trace(states);
  std::set<Family> checked;
  for (const MonitorSource& m : plan.monitors) {
    if (m.family == Family::Generated || !checked.insert(m.family).second) continue;
    const il::CheckResult r = il::check_spec(build_spec(m, plan), trace);
    bool seen = false;
    for (const std::string& name : r.failed) {
      if (name.rfind(known_violation(m.family), 0) == 0) seen = true;
    }
    if (!seen) return false;
  }
  return true;
}

/// The atomic state predicates a stream's generated formulas draw from:
/// every variable that changes value somewhere in the session pool.
std::vector<std::string> stream_atoms(const std::vector<Session>& sessions) {
  std::map<std::string, std::set<std::int64_t>> seen;
  const il::SymbolTable& symbols = il::SymbolTable::global();
  for (const Session& session : sessions) {
    for (const il::State& s : session.states) {
      for (const auto& [id, v] : s.vars()) seen[symbols.name(id)].insert(v);
    }
  }
  std::vector<std::string> atoms;
  for (const auto& [name, values] : seen) {
    if (values.size() < 2) continue;
    const bool boolean = *values.begin() >= 0 && *values.rbegin() <= 1;
    if (boolean) {
      atoms.push_back(name);
      continue;
    }
    std::size_t taken = 0;
    for (const std::int64_t v : values) {
      if (taken++ == 3) break;
      atoms.push_back("(" + name + " = " + std::to_string(v) + ")");
    }
  }
  if (atoms.empty()) throw std::logic_error("stream has no varying variable");
  return atoms;
}

std::string gen_atom(Rng& rng, const std::vector<std::string>& atoms) {
  const std::string& a = atoms[rng.below(atoms.size())];
  return rng.chance(1, 3) ? "!" + a : a;
}

std::string gen_prop(Rng& rng, const std::vector<std::string>& atoms) {
  if (rng.chance(2, 3)) return gen_atom(rng, atoms);
  const char* op = rng.chance(1, 2) ? " /\\ " : " \\/ ";
  return "(" + gen_atom(rng, atoms) + op + gen_atom(rng, atoms) + ")";
}

/// One generated interval-logic axiom of the given shape.  The shapes are
/// the case studies' own: invariants, interval-bounded eventualities in
/// both arrow directions, an interval eventuality, and a held-until-event
/// interval.  Shapes cost very different amounts per append, so each
/// stream gets every shape equally often and only the atoms are random.
constexpr std::size_t kShapes = 6;
constexpr std::size_t kSafetyShapes = 2;

std::string gen_axiom(Rng& rng, const std::vector<std::string>& atoms, std::size_t shape) {
  const auto p = [&]() { return gen_prop(rng, atoms); };
  const auto ev = [&]() { return "{" + gen_prop(rng, atoms) + "}"; };
  switch (shape) {
    case 0: return "[] (" + p() + " -> " + p() + ")";
    case 1: return "[] !(" + p() + " /\\ " + p() + ")";
    case 2: return "[] [ " + ev() + " => " + ev() + " ] <> " + p();
    case 3: return "[] [ " + ev() + " <= " + ev() + " ] <> " + p();
    case 4: return "[ " + ev() + " => ] *" + ev();
    default: return "[] [ " + ev() + " => *" + ev() + " ] [] " + p();
  }
}

FleetInputs make_fleet(std::uint64_t seed, const FleetShape& shape, std::uint64_t tag) {
  Rng root = Rng(seed).fork(tag);
  FleetInputs out;
  out.streams.resize(shape.streams);
  for (std::size_t k = 0; k < shape.streams; ++k) {
    StreamPlan& plan = out.streams[k];
    Rng rng = root.fork(k);
    plan.system = static_cast<System>(k % kSystems);
    plan.name = std::string(system_name(plan.system)) + "_" + std::to_string(k);
    plan.domain = system_domain(plan.system, shape.size);
    if (shape.case_study_monitors) {
      for (const FamilyCount& fc : case_study_monitors(plan.system)) {
        for (std::size_t i = 0; i < fc.count; ++i) plan.monitors.push_back({fc.family, "", {}});
      }
    }
    const std::uint64_t buggy_offset = rng.below(8);
    for (std::size_t i = 0; i < shape.sessions_per_stream; ++i) {
      Session session;
      session.buggy = shape.buggy_sessions && (i + buggy_offset) % 8 == 0;
      // A buggy simulator run need not misbehave; draw until it does, so
      // every buggy session has a violation the oracle can demand.
      for (int attempt = 0;; ++attempt) {
        if (attempt == 64) throw std::runtime_error("no buggy run shows its known violation");
        session.states = simulate(plan.system, shape.size, rng.next(), session.buggy);
        if (!session.buggy || shows_known_violations(plan, session.states)) break;
      }
      plan.sessions.push_back(std::move(session));
    }
    const std::vector<std::string> atoms = stream_atoms(plan.sessions);
    plan.generated_per_session = shape.generated_per_session;
    for (std::size_t g = 0; g < shape.generated_pool; ++g) {
      MonitorSource m{Family::Generated, "gen." + plan.name + "." + std::to_string(g), {}};
      for (std::size_t a = 0; a < shape.generated_axioms; ++a) {
        const std::size_t slot = g * shape.generated_axioms + a;
        m.axioms.push_back(
            gen_axiom(rng, atoms, slot % (shape.safety_only ? kSafetyShapes : kShapes)));
      }
      plan.monitors.push_back(std::move(m));
    }
  }
  Digest d;
  for (const StreamPlan& plan : out.streams) {
    d.add(plan.name);
    for (const MonitorSource& m : plan.monitors) {
      d.add(family_name(m.family));
      for (const std::string& a : m.axioms) d.add(a);
    }
    for (const Session& session : plan.sessions) {
      d.add(session.buggy ? 1 : 0);
      for (const il::State& s : session.states) d.add(s.to_string());
    }
  }
  out.digest = d.value();
  return out;
}

}  // namespace

const char* system_name(System s) {
  switch (s) {
    case System::Mutex: return "mutex";
    case System::Queue: return "queue";
    case System::Ab: return "ab";
    case System::SelfTimed: return "selftimed";
    case System::Arbiter: return "arbiter";
  }
  return "?";
}

const char* family_name(Family f) {
  switch (f) {
    case Family::Mutex: return "mutex";
    case Family::Queue: return "queue";
    case Family::AbSend: return "ab_send";
    case Family::AbRecv: return "ab_recv";
    case Family::SelfTimed: return "selftimed";
    case Family::Arbiter: return "arbiter";
    case Family::Generated: return "generated";
  }
  return "?";
}

const char* known_violation(Family f) {
  switch (f) {
    case Family::Mutex: return "mutex.A1_scan";
    case Family::Queue: return "queue.fifo";
    case Family::AbSend: return "ab_sender.A1_exp_alternates";
    case Family::AbRecv: return "ab_receiver.A3_ack_implies_delivery";
    case Family::SelfTimed: return "request_ack.A2_ack_holds";
    case Family::Arbiter: return "arbiter.A1a_user";
    case Family::Generated: return "";
  }
  return "";
}

std::vector<std::size_t> session_monitors(const StreamPlan& plan, std::size_t session) {
  std::vector<std::size_t> out;
  std::vector<std::size_t> pool;
  for (std::size_t i = 0; i < plan.monitors.size(); ++i) {
    (plan.monitors[i].family == Family::Generated ? pool : out).push_back(i);
  }
  for (std::size_t k = 0; k < plan.generated_per_session && !pool.empty(); ++k) {
    out.push_back(pool[(session * plan.generated_per_session + k) % pool.size()]);
  }
  return out;
}

FleetInputs saturate_inputs(std::uint64_t seed) { return make_fleet(seed, kSaturate, 1); }
FleetInputs open_inputs(std::uint64_t seed) { return make_fleet(seed, kOpen, 2); }

il::Spec build_spec(const MonitorSource& source, const StreamPlan& plan) {
  namespace sys = il::sys;
  switch (source.family) {
    case Family::Mutex: return sys::mutex_spec(plan.domain);
    case Family::Queue: return sys::queue_spec(values_1_to(plan.domain));
    case Family::AbSend: return sys::ab_sender_spec(values_1_to(plan.domain));
    case Family::AbRecv: return sys::ab_receiver_spec(values_1_to(plan.domain));
    case Family::SelfTimed: return sys::request_ack_spec();
    case Family::Arbiter: return sys::arbiter_spec();
    case Family::Generated: break;
  }
  il::Spec spec;
  spec.name = source.name;
  for (std::size_t a = 0; a < source.axioms.size(); ++a) {
    spec.axioms.push_back({"a" + std::to_string(a), il::parse_formula(source.axioms[a])});
  }
  return spec;
}

LtlCorpus::LtlCorpus(std::uint64_t seed) : rng_(Rng(seed).fork(3)) {
  std::set<std::string> seen;
  while (universe_.size() < kCorpusUniverse) {
    std::string f = formula();
    if (seen.insert(f).second) universe_.push_back(std::move(f));
  }
}

std::vector<std::string> LtlCorpus::next_batch() {
  if (at_epoch_start()) epoch_.clear();
  std::vector<std::string> batch;
  batch.reserve(kCorpusBatch);
  for (std::size_t i = 0; i < kCorpusBatch; ++i) {
    if (!epoch_.empty() && batches_ % kEpochBatches > 0 && rng_.chance(1, 2)) {
      batch.push_back(universe_[epoch_[rng_.below(epoch_.size())]]);
    } else {
      epoch_.push_back(rng_.below(universe_.size()));
      batch.push_back(universe_[epoch_.back()]);
    }
  }
  ++batches_;
  return batch;
}

/// A temporal leaf, its negation, or one Boolean connective joining it to
/// a literal or a next-step; the operands of [], <>, U and SU are
/// literals.  The LLL encoding turns each of those operators into an
/// iteration, and the graph multiplies with every iteration and every
/// connective around or inside one: a second iteration in a formula spreads
/// decision cost over three orders of magnitude, and wider formulas blow
/// through the graph's edge budget.
std::string LtlCorpus::formula() {
  static const char* const kAtoms[] = {"p", "q", "r", "s", "t", "u"};
  const auto literal = [&]() {
    const std::string a = kAtoms[rng_.below(6)];
    return rng_.chance(1, 3) ? "!" + a : a;
  };
  const auto next = [&]() {
    return "o (" + literal() + (rng_.chance(1, 2) ? " /\\ " : " \\/ ") + literal() + ")";
  };
  const auto leaf = [&]() -> std::string {
    switch (rng_.below(5)) {
      case 0: return "[](" + literal() + ")";
      case 1: return "<>(" + literal() + ")";
      case 2: return "U(" + literal() + ", " + literal() + ")";
      case 3: return "SU(" + literal() + ", " + literal() + ")";
      default: return next();
    }
  };
  const std::string a = leaf();
  const std::string b = rng_.chance(1, 2) ? literal() : next();
  const bool swap = rng_.chance(1, 2);
  const std::string& x = swap ? b : a;
  const std::string& y = swap ? a : b;
  switch (rng_.below(5)) {
    case 0: return a;
    case 1: return "!(" + a + ")";
    case 2: return "(" + x + " /\\ " + y + ")";
    case 3: return "(" + x + " \\/ " + y + ")";
    default: return "(" + x + " -> " + y + ")";
  }
}

std::uint64_t corpus_digest(std::uint64_t seed, std::size_t batches) {
  LtlCorpus corpus(seed);
  Digest d;
  for (std::size_t b = 0; b < batches; ++b) {
    for (const std::string& f : corpus.next_batch()) d.add(f);
  }
  return d.value();
}

}  // namespace perfbench
