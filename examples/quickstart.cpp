// Quickstart: parse interval-logic formulas, build a trace, locate interval
// terms with the F function, and check satisfaction.
//
//   ./quickstart
#include <cstdio>
#include <sstream>

#include "il.h"

int main() {
  using namespace il;

  // A computation: x approaches y, they meet, then y jumps to 16.
  TraceBuilder tb;
  tb.set("x", 5);
  tb.set("y", 3);
  tb.set("z", 0);
  tb.commit();
  tb.set("x", 7);
  tb.set("y", 7);
  tb.set("z", 1);
  tb.commit();  // x = y becomes true here
  tb.set("x", 9);
  tb.set("y", 9);
  tb.commit();
  tb.set("y", 16);
  tb.set("z", 2);
  tb.commit();  // y = 16 becomes true here
  const Trace trace = tb.take();

  // The paper's first worked example (Chapter 2):
  //   [ x = y  =>  y = 16 ]  [] x > z
  // "For the interval from x becoming equal to y until y becoming 16,
  //  x stays greater than z."
  FormulaPtr spec = parse_formula("[ {x = y} => {y = 16} ] [] x > z");
  std::printf("formula: %s\n", spec->to_string().c_str());
  std::printf("holds on trace: %s\n", holds(*spec, trace) ? "yes" : "no");

  // Locate the interval the F function constructs.
  Interval where = locate(*parse_term("{x = y} => {y = 16}"), trace);
  std::printf("interval selected: %s\n", where.to_string().c_str());

  // The paper's pictorial notation, mechanized (Section 9's "graphical
  // representation" direction): signal waveforms with the located interval.
  TraceBuilder sig;
  sig.set_bool("A", false);
  sig.set_bool("B", false);
  sig.commit();
  sig.set_bool("A", true);
  sig.commit();
  sig.commit();
  sig.set_bool("B", true);
  sig.commit();
  sig.commit();
  std::printf("\n%s", draw_term(sig.trace(), {"A", "B"}, parse_term("A => B")).c_str());

  // Vacuous satisfaction: an interval that cannot be constructed satisfies
  // anything; the * modifier turns that into a requirement.
  std::printf("[ {x = 99} => ] false (vacuous): %s\n",
              holds(*parse_formula("[ {x = 99} => ] false"), trace) ? "yes" : "no");
  std::printf("*{x = 99} (occurrence required): %s\n",
              holds(*parse_formula("*{x = 99}"), trace) ? "yes" : "no");

  // Validity checking by exhaustive bounded enumeration: V9 of Chapter 4.
  auto v9 = parse_formula("[ a => begin(!(a)) ] [] a");
  auto result = check_valid_bounded(v9, {"a"}, 5);
  std::printf("V9 valid on all traces up to length 5: %s (%zu traces)\n",
              result.valid ? "yes" : "no", result.traces_checked);

  // Batch checking: the engine fans a specification over many traces at
  // once (here: the worked-example trace and a variant that violates it),
  // with deterministic, input-ordered results.
  Spec batch_spec;
  batch_spec.name = "worked_example";
  batch_spec.axioms.push_back({"x_gt_z", spec});

  TraceBuilder bad;
  bad.set("x", 5);
  bad.set("y", 3);
  bad.set("z", 0);
  bad.commit();
  bad.set("x", 7);
  bad.set("y", 7);
  bad.set("z", 9);  // z overtakes x inside the interval
  bad.commit();
  bad.set("y", 16);
  bad.commit();
  const std::vector<Trace> fleet = {trace, bad.take()};

  engine::BatchChecker checker;  // one worker per hardware thread
  auto verdicts = checker.run(engine::jobs_for_traces(batch_spec, fleet));
  // check_stats().threads counts spawned workers; 0 means the batch ran inline.
  std::printf("\nbatch of %zu traces (%zu worker threads, %zu memo hits):\n", verdicts.size(),
              checker.check_stats().threads == 0 ? 1 : checker.check_stats().threads,
              checker.check_stats().memo_hits);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    std::printf("  trace %zu: %s\n", i, verdicts[i].to_string().c_str());
  }

  // Streaming: feed states one at a time to an incremental monitor and
  // read verdicts as they settle.  The response axiom fails *provisionally*
  // while a request is outstanding (the stuttering extension has no grant
  // yet) and recovers the moment the grant arrives; under the hood only the
  // open obligations re-settle — verdicts for closed intervals are pinned.
  Spec stream_spec;
  stream_spec.name = "stream";
  stream_spec.axioms.push_back({"response", parse_formula("[] [ req => ] *grant")});
  Monitor monitor(stream_spec);

  struct Step {
    bool req, grant;
    const char* note;
  };
  const Step steps[] = {
      {false, false, "quiet"},
      {true, false, "req rises: grant now owed"},
      {true, false, "still waiting"},
      {true, true, "grant rises: obligation settles"},
  };
  std::printf("\nstreaming %s:\n", stream_spec.axioms[0].formula->to_string().c_str());
  for (const Step& step : steps) {
    State s;
    s.set_bool("req", step.req);
    s.set_bool("grant", step.grant);
    const CheckResult verdict = monitor.append(s);  // observe + delta pass
    std::printf("  %-32s -> %s\n", step.note, verdict.to_string().c_str());
  }
  const auto& graph = monitor.obligations();
  std::printf("  obligations: %zu tracked, %zu settled, %zu re-settlements total\n",
              graph.size(), graph.settled_count(), graph.recomputes());

  // Monitoring as a service: a resident MonitorService owns a parked worker
  // pool; monitors register and retire at runtime while states stream in
  // through a bounded queue, and dump() renders the live counters as
  // debugfs-style `key value` text.
  MonitorService service;
  const MonitorId id = service.register_spec(stream_spec);
  for (const Step& step : steps) {
    State s;
    s.set_bool("req", step.req);
    s.set_bool("grant", step.grant);
    service.append(s);
  }
  service.flush();
  std::printf("\nservice: monitor %llu saw %zu rows; final verdict %s\n",
              static_cast<unsigned long long>(id), service.drain().size(),
              service.stats().totals.axioms_failed == 0 ? "clean" : "had failures");
  std::printf("--- service.dump() ---\n");
  std::ostringstream dump;
  service.dump(dump);
  std::printf("%s", dump.str().c_str());
  return 0;
}
