// perfbench: the end-to-end benchmark of the monitoring service and the
// decision path.  See ../README.md for the workloads and metrics.
//
//   perfbench --workload <fleet_saturate|fleet_open|decide_corpus>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// --trace 0 prints the end-to-end metrics of one untraced run.  --trace 1
// runs the workload untraced and then traced for half the time each,
// reports the per-layer metrics (from the traced half and the layer
// probes), and writes every span to --spans.  The last line of standard
// output is the result object; the exit code is 0 iff every output
// matched the oracle.
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "decide.h"
#include "fleet.h"
#include "gen.h"
#include "probes.h"
#include "report.h"
#include "span.h"
#include "stats.h"

namespace perfbench {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 9;
/// Length of the traced fleet_open segment that gives decide_corpus its
/// service metrics.
constexpr double kServiceProbeSeconds = 1.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans_path;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = std::stoi(value);
    else if (key == "--spans") a.spans_path = value;
    else return false;
  }
  return argc % 2 == 1 && a.seconds > 0 && (a.trace == 0 || a.trace == 1) &&
         (a.workload == "fleet_saturate" || a.workload == "fleet_open" ||
          a.workload == "decide_corpus");
}

struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add(std::size_t tried, std::size_t failures, std::size_t mismatches) {
    attempted += tried;
    failed += failures;
    if (mismatches > 0) correct = false;
  }
  void add(const FleetRun& r) {
    add(r.states + r.missed + r.barriers + r.checkpoints, r.refused + r.missed + r.mismatches,
        r.mismatches);
  }
  void add(const DecideRun& r) { add(r.jobs, r.failed_jobs, r.mismatches); }
};

void write_spans(const Args& args, const std::vector<const SpanRecorder*>& recorders) {
  if (args.spans_path.empty()) return;
  std::ofstream os(args.spans_path);
  for (const SpanRecorder* r : recorders) r->write(os);
  if (!os) throw std::runtime_error("cannot write spans to " + args.spans_path);
}

template <typename Make>
auto timed_setups(Make&& make, std::vector<double>& setup_s) {
  decltype(make()) last;
  for (int i = 0; i < kSetupRepeats; ++i) {
    last.reset();  // teardown is not set-up time
    const std::int64_t t = now_ns();
    last = make();
    setup_s.push_back(static_cast<double>(now_ns() - t) / 1e9);
  }
  return last;
}

/// End-to-end figures are medians of many small measurements, so a stall
/// of the shared machine moves one of them, not the result: throughput is
/// the median over one-second windows, a latency percentile the median over
/// consecutive blocks of kLatencyBlock samples (the smallest block in which
/// p99 has ten samples beyond it).
constexpr double kWindowSeconds = 1;
constexpr std::size_t kLatencyBlock = 1000;

struct EndToEnd {
  std::vector<double> throughput;  ///< per window
  std::vector<double> latency_us;  ///< completed inside the timed window, in order
  std::size_t work = 0;            ///< units the throughput counts
};

std::vector<double> inside(const std::vector<std::int64_t>& t_ns, const std::vector<double>& v,
                           std::int64_t t0_ns, double seconds) {
  std::vector<double> out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (static_cast<double>(t_ns[i] - t0_ns) < seconds * 1e9) out.push_back(v[i]);
  }
  return out;
}

/// In the open loop the send rate is fixed, so throughput is the rate
/// achieved over the whole run, the final drain included: below the rate
/// only when the service fell behind.
EndToEnd fleet_end_to_end(const FleetRun& r, double seconds, bool open_loop) {
  EndToEnd e;
  e.latency_us = inside(r.row_ns, r.latency_us, r.t0_ns, seconds);
  if (open_loop) {
    e.throughput.push_back(static_cast<double>(r.monitor_appends) / r.wall_s);
  } else {
    for (const std::vector<double>& w :
         windows(r.row_ns, r.row_appends, r.t0_ns, seconds, kWindowSeconds)) {
      double appends = 0;
      for (const double a : w) appends += a;
      e.throughput.push_back(appends / kWindowSeconds);
    }
  }
  e.work = r.monitor_appends;
  return e;
}

EndToEnd decide_end_to_end(const DecideRun& r, double seconds) {
  EndToEnd e;
  e.latency_us = inside(r.batch_end_ns, r.latency_us, r.t0_ns, seconds);
  const auto jobs = windows(r.batch_end_ns, r.batch_jobs, r.t0_ns, seconds, kWindowSeconds);
  const auto busy = windows(r.batch_end_ns, r.latency_us, r.t0_ns, seconds, kWindowSeconds);
  for (std::size_t w = 0; w < jobs.size(); ++w) {
    double n = 0;
    double busy_us = 0;
    for (const double j : jobs[w]) n += j;
    for (const double l : busy[w]) busy_us += l;
    e.throughput.push_back(busy_us > 0 ? n / (busy_us / 1e6) : 0);
  }
  e.work = r.jobs;
  return e;
}

double latency_p50(const EndToEnd& e) {
  std::vector<double> per_block;
  for (const std::vector<double>& b : blocks(e.latency_us, kLatencyBlock)) {
    per_block.push_back(median(b));
  }
  return median(per_block);
}

void add_end_to_end(Report& report, const EndToEnd& e, const std::string& throughput_note,
                    const std::string& latency_note, const std::vector<double>& setup_s,
                    const Outcome& outcome) {
  const std::vector<std::vector<double>> latency_blocks = blocks(e.latency_us, kLatencyBlock);
  std::vector<double> p99;
  double lowest = 100;
  for (const std::vector<double>& b : latency_blocks) {
    const Tail t = tail(b, 99);
    p99.push_back(t.value);
    if (t.percentile < lowest) lowest = t.percentile;
  }
  const std::string blocks_note = " (median over " + std::to_string(latency_blocks.size()) +
                                  " blocks of " + std::to_string(kLatencyBlock) + ")";
  report.add("throughput_per_s", median(e.throughput), "1/s", e.work,
             throughput_note + (e.throughput.size() > 1
                                    ? " (median over " + std::to_string(e.throughput.size()) +
                                          " one-second windows)"
                                    : " (whole run)"));
  report.add("latency_p50_us", latency_p50(e), "us", e.latency_us.size(),
             "p50 " + latency_note + blocks_note);
  std::ostringstream pct;
  pct << "p" << lowest << ' ' << latency_note << blocks_note;
  report.add("latency_p99_us", median(p99), "us", e.latency_us.size(), pct.str());
  report.add("peak_rss_mb", peak_rss_mb(), "MB", 1, "VmHWM");
  report.add("setup_s", median(setup_s), "s", setup_s.size(), "median of set-ups");
  report.add_info("failed_frac",
                  outcome.attempted ? static_cast<double>(outcome.failed) / outcome.attempted : 0,
                  "ratio", outcome.attempted, "failed operations / operations attempted");
}

void fleet_info(Report& report, const FleetRun& r) {
  report.add_info("states_sent", static_cast<double>(r.states), "count", 1);
  report.add_info("barriers", static_cast<double>(r.barriers), "count", 1, "register + retire calls");
  report.add_info("queue_full", static_cast<double>(r.refused), "count", r.states);
  report.add_info("missed", static_cast<double>(r.missed), "count", 1,
                  "open loop: states still due when the window closed");
  report.add_info("oracle_checkpoints", static_cast<double>(r.checkpoints), "count", 1,
                  "(row, monitor) verdicts checked against check_spec");
  report.add_info("oracle_buggy_sessions", static_cast<double>(r.buggy_sessions), "count", 1,
                  "buggy sessions whose last row showed the known violation");
}

void run_fleet(const Args& args, Report& report, Outcome& outcome) {
  const bool open_loop = args.workload == "fleet_open";
  const double rate = open_loop ? kOpenRate : 0;
  const std::size_t threads = open_loop ? kOpenThreads : kSaturateThreads;
  const std::int64_t g = now_ns();
  const FleetInputs inputs = open_loop ? open_inputs(args.seed) : saturate_inputs(args.seed);
  std::size_t sessions = 0;
  std::size_t monitors = 0;
  for (const StreamPlan& p : inputs.streams) {
    sessions += p.sessions.size();
    monitors += p.monitors.size();
  }
  std::cout << "inputs digest=" << std::hex << std::setw(16) << std::setfill('0') << inputs.digest
            << std::dec << std::setfill(' ') << " streams=" << inputs.streams.size()
            << " session_pool=" << sessions << " monitors=" << monitors
            << " generation_s=" << static_cast<double>(now_ns() - g) / 1e9 << '\n';
  SpanRecorder untraced(false);
  if (args.trace == 0) {
    std::vector<double> setup_s;
    std::unique_ptr<Fleet> fleet =
        timed_setups([&] { return std::make_unique<Fleet>(inputs, threads); }, setup_s);
    const FleetRun r = fleet->run(args.seconds, rate, args.seed, untraced);
    fleet.reset();
    outcome.add(r);
    add_end_to_end(report, fleet_end_to_end(r, args.seconds, open_loop),
                   "monitor-appends per wall second (appends_per_s)",
                   open_loop ? "row latency from due time to drain (row_latency_*)"
                             : "row latency from append call to drain",
                   setup_s, outcome);
    fleet_info(report, r);
    return;
  }

  const double half = args.seconds / 2;
  FleetRun reference;
  {
    Fleet fleet(inputs, threads);
    reference = fleet.run(half, rate, args.seed, untraced);
  }
  SpanRecorder spans(true);
  FleetRun traced;
  {
    Fleet fleet(inputs, threads);
    traced = fleet.run(half, rate, args.seed, spans);
  }
  outcome.add(reference);
  outcome.add(traced);
  report_service(traced, spans, report);

  SpanRecorder probe_spans(true);
  probe_layers(open_loop ? saturate_inputs(args.seed) : inputs, args.seed, probe_spans, report);

  report.add_tail("bench.gen_lag_us.p99", tail(traced.gen_lag_us, 99), "us",
                  open_loop ? "send time - due time" : "gap between append calls");
  // The headline figure: appends_per_s in the closed loop, row latency in
  // the open loop (where throughput is the fixed rate).
  const EndToEnd ref_e = fleet_end_to_end(reference, half, open_loop);
  const EndToEnd tr_e = fleet_end_to_end(traced, half, open_loop);
  const double ref = open_loop ? latency_p50(ref_e) : median(ref_e.throughput);
  const double tr = open_loop ? latency_p50(tr_e) : median(tr_e.throughput);
  report.add("trace.overhead_frac", open_loop ? tr / ref - 1 : ref / tr - 1, "ratio", 2,
             open_loop ? "traced / untraced row latency p50 - 1"
                       : "untraced / traced appends_per_s - 1");
  report.add("trace.accounted_frac", spans.self_seconds_excluding("bench.") / traced.wall_s,
             "ratio", spans.spans().size(), "span self time / (wall x 1 generator thread)");
  write_spans(args, {&spans, &probe_spans});
}

void run_decide(const Args& args, Report& report, Outcome& outcome) {
  std::cout << "inputs digest=" << std::hex << std::setw(16) << std::setfill('0')
            << corpus_digest(args.seed, 256) << std::dec << std::setfill(' ')
            << " (first 256 batches of " << kCorpusBatch << " formulas)\n";
  SpanRecorder untraced(false);
  if (args.trace == 0) {
    std::vector<double> setup_s;
    std::unique_ptr<Decider> decider =
        timed_setups([] { return std::make_unique<Decider>(); }, setup_s);
    const DecideRun r = decider->run(args.seconds, args.seed, untraced);
    outcome.add(r);
    add_end_to_end(report, decide_end_to_end(r, args.seconds),
                   "decisions per busy second (decisions_per_s)",
                   "batch latency, parse start to results (decide_batch_*)", setup_s, outcome);
    report.add_info("batches", static_cast<double>(r.batches), "count", 1);
    return;
  }

  const double half = args.seconds / 2;
  const DecideRun reference = Decider().run(half, args.seed, untraced);
  SpanRecorder spans(true);
  const DecideRun traced = Decider().run(half, args.seed, spans);
  outcome.add(reference);
  outcome.add(traced);

  // decide_corpus calls no service: its service, obligation and memo
  // metrics come from a short traced fleet_open segment on this seed.
  SpanRecorder service_spans(true);
  const FleetInputs open = open_inputs(args.seed);
  FleetRun service_run;
  {
    Fleet fleet(open, kOpenThreads);
    service_run = fleet.run(kServiceProbeSeconds, kOpenRate, args.seed, service_spans);
  }
  outcome.add(service_run);
  report_service(service_run, service_spans, report);

  SpanRecorder probe_spans(true);
  probe_layers(saturate_inputs(args.seed), args.seed, probe_spans, report);

  report.add_tail("bench.gen_lag_us.p99", tail(traced.gen_lag_us, 99), "us",
                  "gap between batches");
  const double ref = median(decide_end_to_end(reference, half).throughput);
  const double tr = median(decide_end_to_end(traced, half).throughput);
  report.add("trace.overhead_frac", ref / tr - 1, "ratio", 2,
             "untraced / traced decisions_per_s - 1");
  const double wall_s =
      traced.batches ? static_cast<double>(traced.batch_end_ns.back() - traced.t0_ns) / 1e9 : half;
  report.add("trace.accounted_frac", spans.self_seconds_excluding("bench.") / wall_s, "ratio",
             spans.spans().size(), "span self time / (wall x 1 generator thread)");
  write_spans(args, {&spans, &service_spans, &probe_spans});
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    if (!parse_args(argc, argv, args)) throw std::invalid_argument("bad arguments");
  } catch (const std::exception&) {
    std::cerr << "usage: perfbench --workload <fleet_saturate|fleet_open|decide_corpus> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n";
    return 2;
  }
  std::cout << "perfbench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << '\n';
  Report report;
  Outcome outcome;
  try {
    if (args.workload == "decide_corpus") {
      run_decide(args, report, outcome);
    } else {
      run_fleet(args, report, outcome);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  report.print_lines(std::cout);
  report.print_json(std::cout, outcome.correct, outcome.attempted, outcome.failed);
  return outcome.correct ? 0 : 1;
}
