#include "decide.h"

#include <exception>
#include <iostream>
#include <string>

#include "gen.h"
#include "lll/encode.h"

namespace perfbench {

Decider::Decider(std::size_t threads) {
  il::engine::Options options;
  options.num_threads = threads;
  decider_ = std::make_unique<il::engine::BatchDecider>(options);
  il::ltl::Arena arena;
  decider_->run({il::engine::tableau_sat_job(arena, arena.parse("p"))});
}

namespace {

/// Decision jobs for one batch of NNF formulas: per formula tableau-sat,
/// LLL-sat, tableau-valid, and LLL-sat of the negation, in that order.
std::vector<il::engine::DecisionJob> decision_jobs(il::ltl::Arena& arena,
                                                   const std::vector<il::ltl::Id>& nnf,
                                                   SpanRecorder& spans) {
  std::vector<il::lll::ExprId> exprs;
  {
    SpanRecorder::Scope span(spans, spans.name_id("lll.encode"), 0);
    for (const il::ltl::Id f : nnf) {
      exprs.push_back(il::lll::encode_ltl(arena, f));
      exprs.push_back(il::lll::encode_ltl(arena, arena.nnf_not(f)));
    }
  }
  std::vector<il::engine::DecisionJob> jobs;
  for (std::size_t i = 0; i < nnf.size(); ++i) {
    jobs.push_back(il::engine::tableau_sat_job(arena, nnf[i]));
    jobs.push_back(il::engine::lll_sat_job(exprs[2 * i]));
    jobs.push_back(il::engine::tableau_valid_job(arena, nnf[i]));
    jobs.push_back(il::engine::lll_sat_job(exprs[2 * i + 1]));
  }
  return jobs;
}

/// Number of formulas in `results` (four jobs each) whose verdicts
/// disagree: tableau-sat vs LLL-sat, or valid(f) vs !sat(!f).
std::size_t disagreements(const std::vector<il::engine::DecisionResult>& results) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i + 3 < results.size(); i += 4) {
    const bool tableau_sat = results[i].verdict;
    const bool lll_sat = results[i + 1].verdict;
    const bool valid = results[i + 2].verdict;
    const bool negation_sat = results[i + 3].verdict;
    if (tableau_sat != lll_sat || valid != !negation_sat) ++bad;
  }
  return bad;
}

}  // namespace

DecideRun Decider::run(double seconds, std::uint64_t seed, SpanRecorder& spans,
                       std::size_t batches_limit) {
  const std::uint32_t batch_span = spans.name_id("bench.batch");
  const std::uint32_t parse_span = spans.name_id("ltl.parse");
  const std::uint32_t nnf_span = spans.name_id("ltl.nnf");
  const std::uint32_t run_span = spans.name_id("engine.decision.run");
  DecideRun out;
  LtlCorpus corpus(seed);
  // One arena per epoch: a formula repeated within the epoch interns to its
  // old id, so the DecisionCache answers it.
  std::unique_ptr<il::ltl::Arena> arena;
  const std::int64_t t0 = now_ns();
  out.t0_ns = t0;
  const std::int64_t window = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t last_return = t0;
  while (now_ns() - t0 < window && (batches_limit == 0 || out.batches < batches_limit)) {
    if (corpus.at_epoch_start()) {
      arena = std::make_unique<il::ltl::Arena>();
      decider_->clear_cache();
    }
    const std::vector<std::string> texts = corpus.next_batch();
    const std::int64_t start = now_ns();
    out.gen_lag_us.push_back(static_cast<double>(start - last_return) / 1e3);
    std::vector<il::engine::DecisionResult> results;
    std::size_t jobs = 0;
    bool threw = false;
    {
      SpanRecorder::Scope batch(spans, batch_span, out.batches);
      std::vector<il::ltl::Id> ids;
      {
        SpanRecorder::Scope span(spans, parse_span, out.batches);
        for (const std::string& text : texts) ids.push_back(arena->parse(text));
      }
      {
        SpanRecorder::Scope span(spans, nnf_span, out.batches);
        for (il::ltl::Id& id : ids) id = arena->nnf(id);
      }
      const std::vector<il::engine::DecisionJob> batch_jobs = decision_jobs(*arena, ids, spans);
      jobs = batch_jobs.size();
      SpanRecorder::Scope span(spans, run_span, out.batches);
      try {
        results = decider_->run(batch_jobs);
      } catch (const std::exception& e) {
        threw = true;
        std::cout << "mismatch: batch " << out.batches << " threw: " << e.what() << '\n';
      }
    }
    last_return = now_ns();
    out.latency_us.push_back(static_cast<double>(last_return - start) / 1e3);
    out.batch_end_ns.push_back(last_return);
    out.batch_jobs.push_back(static_cast<double>(jobs));
    out.jobs += jobs;
    const il::engine::DecisionStats& stats = decider_->stats();
    out.cache_hits += stats.decision_hits;
    out.cache_misses += stats.decision_misses;
    out.unique_jobs += stats.unique_jobs;
    if (threw) {
      ++out.mismatches;
      out.failed_jobs += jobs;
    } else if (const std::size_t bad = disagreements(results); bad > 0) {
      out.mismatches += bad;
      out.failed_jobs += 4 * bad;
      std::cout << "mismatch: batch " << out.batches << " has " << bad
                << " formulas whose tableau and LLL verdicts disagree\n";
    }
    ++out.batches;
  }
  return out;
}

}  // namespace perfbench
