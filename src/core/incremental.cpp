#include "core/incremental.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/assert.h"
#include "util/fault.h"

namespace il {

IncrementalEvaluator::IncrementalEvaluator(const Trace& trace, ObligationGraph* graph,
                                           EvalCache* settled_cache, std::uint64_t horizon)
    : trace_(trace),
      graph_(graph),
      horizon_(horizon),
      delegate_(trace, settled_cache, trace.stable_id()) {
  IL_REQUIRE(graph != nullptr, "IncrementalEvaluator requires an obligation graph");
  IL_REQUIRE(horizon <= trace.last_index(), "virtual horizon beyond the trace");
}

bool IncrementalEvaluator::sat_root(const Formula& formula, const Env& env) {
  IL_INJECT_FAULT("incremental.expand");
  IL_REQUIRE(!trace_.empty(), "evaluation requires a non-empty trace");
  return sat_inc(formula, Interval::make(0, Interval::INF), env, kNoOb).value;
}

// ---------------------------------------------------------------------------
// Dispatch: closed world -> delegate; open world -> obligation record.
// ---------------------------------------------------------------------------

template <typename R, typename Node, typename Compute>
R IncrementalEvaluator::memoized(const Node& node, ObligationGraph::Op op, std::uint64_t lo,
                                 const Env& env, ObId dep_to, Compute&& compute) {
  const ObId self = graph_->obtain(graph_->key(node.id(), op, lo, node.free_meta_ids(), env));
  if (dep_to != kNoOb) {
    graph_->add_dep(dep_to, self);
  } else {
    graph_->mark_root(self);
  }
  {
    const ObligationGraph::Obligation& ob = graph_->at(self);
    if (ob.settled) {
      graph_->note_settled_hit();
      return R::load(ob.result, true);
    }
    // Fresh means recomputed at THIS horizon: inside a batched epoch the
    // dirty bit was cleared once for the whole block, so the horizon stamp
    // is what forces re-settlement between the block's virtual horizons.
    if (!ob.dirty && ob.epoch > 0 && ob.horizon == horizon_) {
      graph_->note_fresh_hit();
      return R::load(ob.result, false);
    }
  }
  graph_->note_recompute();
  graph_->begin_recompute(self);
  const R r = compute(self);
  ObligationGraph::Obligation& ob = graph_->at(self);  // re-fetch: recursion reallocates
  r.store(ob.result);
  ob.settled = r.settled;
  ob.dirty = false;
  ob.epoch = graph_->epoch();
  ob.horizon = horizon_;
  if (r.settled) graph_->on_settle(self);
  return r;
}

IncrementalEvaluator::Val IncrementalEvaluator::sat_inc(const Formula& f, Interval iv,
                                                        const Env& env, ObId dep_to) {
  IL_CHECK(!iv.null);
  if (iv.hi != Interval::INF || !f.suffix_sensitive()) {
    // Closed world: the answer reads only positions the appends never touch
    // (finite intervals stay below the horizon by construction; insensitive
    // nodes read exactly iv.lo).  Settled forever.
    return {delegate_.sat(f, iv, env), true};
  }
  return memoized<Val>(f, ObligationGraph::Op::Sat, iv.lo, env, dep_to,
                       [&](ObId self) { return sat_compute(f, iv.lo, env, self); });
}

IncrementalEvaluator::Found IncrementalEvaluator::find_inc(const Term& t, Interval ctx,
                                                           Dir dir, const Env& env,
                                                           ObId dep_to) {
  if (ctx.null) return {Interval::none(), true};  // strictness: nothing to re-settle
  if (ctx.hi != Interval::INF || !t.suffix_sensitive()) {
    return {delegate_.find(t, ctx, dir, env), true};
  }
  const ObligationGraph::Op op =
      dir == Dir::Forward ? ObligationGraph::Op::FindFwd : ObligationGraph::Op::FindBwd;
  return memoized<Found>(t, op, ctx.lo, env, dep_to,
                         [&](ObId self) { return find_compute(t, ctx.lo, dir, env, self); });
}

IncrementalEvaluator::Val IncrementalEvaluator::stars_inc(const Term& t, Interval ctx,
                                                          Dir dir, const Env& env,
                                                          ObId dep_to) {
  if (!t.has_star_modifier()) return {true, true};  // O(1), as in the scratch path
  if (ctx.null) return {true, true};                // sub-context not establishable: vacuous
  if (ctx.hi != Interval::INF || !t.suffix_sensitive()) {
    return {delegate_.star_requirements(t, ctx, dir, env), true};
  }
  const ObligationGraph::Op op =
      dir == Dir::Forward ? ObligationGraph::Op::StarsFwd : ObligationGraph::Op::StarsBwd;
  return memoized<Val>(t, op, ctx.lo, env, dep_to,
                       [&](ObId self) { return stars_compute(t, ctx.lo, dir, env, self); });
}

// ---------------------------------------------------------------------------
// Open-world recomputation: formulas.
// ---------------------------------------------------------------------------

IncrementalEvaluator::Val IncrementalEvaluator::sat_compute(const Formula& f,
                                                            std::uint64_t lo, const Env& env,
                                                            ObId self) {
  const Interval iv = Interval::make(lo, Interval::INF);
  switch (f.kind()) {
    case Formula::Kind::Not: {
      const Val c = sat_inc(*f.lhs(), iv, env, self);
      return {!c.value, c.settled};
    }
    case Formula::Kind::And: {
      // Value matches the scratch short-circuit; a conjunct that settled
      // false pins the conjunction no matter what the other side does.
      const Val l = sat_inc(*f.lhs(), iv, env, self);
      if (!l.value) return {false, l.settled};
      const Val r = sat_inc(*f.rhs(), iv, env, self);
      if (!r.value) return {false, r.settled};
      return {true, l.settled && r.settled};
    }
    case Formula::Kind::Or: {
      const Val l = sat_inc(*f.lhs(), iv, env, self);
      if (l.value) return {true, l.settled};
      const Val r = sat_inc(*f.rhs(), iv, env, self);
      if (r.value) return {true, r.settled};
      return {false, l.settled && r.settled};
    }
    case Formula::Kind::Implies: {
      const Val l = sat_inc(*f.lhs(), iv, env, self);
      if (!l.value) return {true, l.settled};
      const Val r = sat_inc(*f.rhs(), iv, env, self);
      if (r.value) return {true, r.settled};
      return {false, l.settled && r.settled};
    }
    case Formula::Kind::Iff: {
      const Val l = sat_inc(*f.lhs(), iv, env, self);
      const Val r = sat_inc(*f.rhs(), iv, env, self);
      return {l.value == r.value, l.settled && r.settled};
    }
    case Formula::Kind::Always:
    case Formula::Kind::Eventually:
      return scan_compute(f, lo, env, self);
    case Formula::Kind::Interval: {
      const Val s = stars_inc(*f.term(), iv, Dir::Forward, env, self);
      if (!s.value) return {false, s.settled};
      const Found fnd = find_inc(*f.term(), iv, Dir::Forward, env, self);
      // Orphan fix: when the find relocates, the body obligation the
      // previous recomputation attached (recorded in aux_lo) is superseded —
      // unlink it now so the record is reclaimed at the end of the pass
      // instead of lingering.  Only open-ended, suffix-sensitive bodies are
      // obligation-keyed at all (everything else went to the settled cache),
      // so only those are tracked.
      const bool body_open =
          !fnd.iv.null && fnd.iv.hi == Interval::INF && f.lhs()->suffix_sensitive();
      ObligationGraph::Obligation& ob = graph_->at(self);
      if (ob.have_aux && (!body_open || ob.aux_lo != fnd.iv.lo)) {
        graph_->unlink_superseded(self, graph_->key(f.lhs()->id(), ObligationGraph::Op::Sat,
                                                    ob.aux_lo, f.lhs()->free_meta_ids(), env));
        ob.have_aux = false;
      }
      if (body_open) {
        ob.have_aux = true;
        ob.aux_lo = fnd.iv.lo;
      }
      if (fnd.iv.null) return {true, s.settled && fnd.settled};
      const Val b = sat_inc(*f.lhs(), fnd.iv, env, self);
      // An open find may relocate the interval later, so the verdict is only
      // pinned once the location itself is.
      return {b.value, s.settled && fnd.settled && b.settled};
    }
    case Formula::Kind::Occurs: {
      const Val s = stars_inc(*f.term(), iv, Dir::Forward, env, self);
      if (!s.value) return {false, s.settled};
      const Found fnd = find_inc(*f.term(), iv, Dir::Forward, env, self);
      return {!fnd.iv.null, s.settled && fnd.settled};
    }
    case Formula::Kind::Forall: {
      Env e = env;
      bool all_settled = true;
      for (std::int64_t v : f.quant_domain()) {
        e.bind(f.quant_var_id(), v);
        const Val c = sat_inc(*f.lhs(), iv, e, self);
        if (!c.value) return {false, c.settled};
        all_settled = all_settled && c.settled;
      }
      return {true, all_settled};
    }
    case Formula::Kind::Exists: {
      Env e = env;
      bool all_settled = true;
      for (std::int64_t v : f.quant_domain()) {
        e.bind(f.quant_var_id(), v);
        const Val c = sat_inc(*f.lhs(), iv, e, self);
        if (c.value) return {true, c.settled};
        all_settled = all_settled && c.settled;
      }
      return {false, all_settled};
    }
    case Formula::Kind::Atom:
      break;  // atoms are suffix-insensitive: closed world, unreachable here
  }
  IL_CHECK(false, "unreachable");
}

IncrementalEvaluator::Val IncrementalEvaluator::scan_compute(const Formula& f,
                                                             std::uint64_t lo, const Env& env,
                                                             ObId self) {
  // <lo,inf> |= []a  iff  forall k in [lo, horizon] : <k,inf> |= a, and
  // <lo,inf> |= <>a  iff  some such k satisfies a.  One scan serves both:
  // `decisive` is the body verdict that decides the operator (false for [],
  // true for <>).  A settled decisive verdict pins the operator; an open one
  // decides it only for now.  The horizon grows with every append, so the
  // obligation always reads it.
  const bool decisive = f.kind() == Formula::Kind::Eventually;
  graph_->touch_horizon(self);
  const std::uint64_t h = horizon_;
  std::uint64_t frontier = lo;
  std::vector<std::uint64_t> opens;
  {
    ObligationGraph::Obligation& ob = graph_->at(self);
    frontier = std::max<std::uint64_t>(ob.frontier, lo);
    opens = std::move(ob.open_positions);
    ob.open_positions.clear();
  }
  // Invariant: every k in [lo, frontier) has a body verdict that is either
  // settled and not decisive, or listed in `opens`.
  bool value = !decisive;
  bool pinned = false;
  std::vector<std::uint64_t> keep;
  keep.reserve(opens.size());
  for (const std::uint64_t k : opens) {
    const Val c = sat_inc(*f.lhs(), Interval::make(k, Interval::INF), env, self);
    if (c.settled) {
      if (c.value == decisive) {
        pinned = true;
        value = decisive;
        break;
      }
      continue;  // settled and not decisive: never recheck again
    }
    keep.push_back(k);
    if (c.value == decisive) value = decisive;
  }
  if (value != decisive) {
    // Nothing in the known prefix decides: extend the scan to the new
    // horizon.  (When an open position decides, the scratch value is
    // already determined and the frontier waits — the invariant keeps the
    // unscanned gap covered next epoch.)
    std::uint64_t k = frontier;
    for (; k <= h; ++k) {
      const Val c = sat_inc(*f.lhs(), Interval::make(k, Interval::INF), env, self);
      if (!c.settled) keep.push_back(k);
      if (c.value == decisive) {
        value = decisive;
        pinned = c.settled;
        ++k;
        break;
      }
    }
    frontier = k;
  }
  ObligationGraph::Obligation& ob = graph_->at(self);  // re-fetch: recursion reallocates
  ob.frontier = frontier;
  ob.open_positions = std::move(keep);
  return {value, pinned};
}

// ---------------------------------------------------------------------------
// Open-world recomputation: terms.
// ---------------------------------------------------------------------------

IncrementalEvaluator::Val IncrementalEvaluator::probe(const Formula& defining,
                                                      std::uint64_t k, const Env& env,
                                                      ObId self) {
  return sat_inc(defining, Interval::make(k, Interval::INF), env, self);
}

IncrementalEvaluator::Found IncrementalEvaluator::find_compute(const Term& t,
                                                               std::uint64_t lo, Dir dir,
                                                               const Env& env, ObId self) {
  const Interval ctx = Interval::make(lo, Interval::INF);
  switch (t.kind()) {
    case Term::Kind::Event:
      return dir == Dir::Forward ? find_event_fwd(t, lo, env, self)
                                 : find_event_bwd(t, lo, env, self);

    case Term::Kind::Begin: {
      const Found inner = find_inc(*t.arg(), ctx, dir, env, self);
      if (inner.iv.null) return {Interval::none(), inner.settled};
      return {Interval::make(inner.iv.lo, inner.iv.lo), inner.settled};
    }
    case Term::Kind::End: {
      const Found inner = find_inc(*t.arg(), ctx, dir, env, self);
      if (inner.iv.null || inner.iv.hi == Interval::INF) {
        return {Interval::none(), inner.settled};
      }
      return {Interval::make(inner.iv.hi, inner.iv.hi), inner.settled};
    }
    case Term::Kind::Star:
      // The modifier affects requiredness only (stars_compute), not location.
      return find_inc(*t.arg(), ctx, dir, env, self);

    case Term::Kind::Fwd: {
      Interval mid = ctx;
      bool settled = true;
      if (t.left()) {
        const Found l = find_inc(*t.left(), ctx, dir, env, self);
        if (l.iv.null || l.iv.hi == Interval::INF) return {Interval::none(), l.settled};
        settled = l.settled;
        mid = Interval::make(l.iv.hi, ctx.hi);
      }
      if (!t.right()) return {mid, settled};
      const Found r = find_inc(*t.right(), mid, Dir::Forward, env, self);
      settled = settled && r.settled;
      if (r.iv.null || r.iv.hi == Interval::INF) return {Interval::none(), settled};
      return {Interval::make(mid.lo, r.iv.hi), settled};
    }
    case Term::Kind::Bwd: {
      Interval mid = ctx;
      bool settled = true;
      if (t.right()) {
        const Found r = find_inc(*t.right(), ctx, dir, env, self);
        if (r.iv.null || r.iv.hi == Interval::INF) return {Interval::none(), r.settled};
        settled = r.settled;
        mid = Interval::make(ctx.lo, r.iv.hi);  // finite: the left search is closed world
      }
      if (!t.left()) return {mid, settled};
      const Found l = find_inc(*t.left(), mid, Dir::Backward, env, self);
      settled = settled && l.settled;
      if (l.iv.null || l.iv.hi == Interval::INF) return {Interval::none(), settled};
      return {Interval::make(l.iv.hi, mid.hi), settled};
    }
  }
  IL_CHECK(false, "unreachable");
}

IncrementalEvaluator::Found IncrementalEvaluator::find_event_fwd(const Term& t,
                                                                 std::uint64_t lo,
                                                                 const Env& env, ObId self) {
  // min changeset(a, <lo,inf>): the first k with <k-1,inf> |/= a and
  // <k,inf> |= a.  A settled probe is pinned forever, so once the pair
  // (k-1, k) is settled with no rising edge, position k can never become the
  // first change — the frontier skips it in every later epoch.  The resumed
  // scan is value-identical to a full rescan: the skipped prefix contributes
  // no edge and ends in a known settled probe value.  A suffix-insensitive
  // defining formula probes settled everywhere, so its frontier reaches the
  // horizon and a found change settles the search.
  graph_->touch_horizon(self);
  const Formula& defining = *t.event();
  const std::uint64_t h = horizon_;
  const std::uint64_t first_k = lo + 1;
  std::uint64_t sf = first_k;
  bool have_prev = false;
  bool prev_val = false;
  {
    const ObligationGraph::Obligation& ob = graph_->at(self);
    sf = std::max<std::uint64_t>(ob.frontier, first_k);
    have_prev = ob.have_prev;
    prev_val = ob.prev;
  }
  if (sf > h) return {Interval::none(), false};  // settled prefix covers everything
  Val prev = have_prev ? Val{prev_val, true} : probe(defining, sf - 1, env, self);
  bool all_settled = prev.settled;  // over [first_k-1, k]: the skipped prefix is settled
  bool advancing = prev.settled;    // still extending the settled no-edge prefix?
  Found found{Interval::none(), false};
  for (std::uint64_t k = sf; k <= h; ++k) {
    const Val cur = probe(defining, k, env, self);
    all_settled = all_settled && cur.settled;
    if (!prev.value && cur.value) {
      found = {Interval::make(k - 1, k), all_settled};
      break;
    }
    if (advancing && prev.settled && cur.settled) {
      sf = k + 1;
      have_prev = true;
      prev_val = cur.value;
    } else {
      advancing = false;
    }
    prev = cur;
  }
  ObligationGraph::Obligation& ob = graph_->at(self);  // re-fetch: probes recurse
  ob.frontier = sf;
  ob.have_prev = have_prev;
  ob.prev = prev_val;
  return found;
}

IncrementalEvaluator::Found IncrementalEvaluator::find_event_bwd(const Term& t,
                                                                 std::uint64_t lo,
                                                                 const Env& env, ObId self) {
  // max changeset(a, <lo,inf>).  A later append can always introduce a
  // *later* change that supersedes the current maximum, so a backward
  // search over an open context never settles.  Edges inside the settled
  // prefix [first_k, sb) are permanent, so only the maximum of them needs to
  // be remembered (aux_lo/aux_hi); each epoch extends the prefix bottom-up
  // while the probes stay settled, then scans only the open region [sb, h]
  // top-down — an edge there supersedes any prefix edge.  A suffix-
  // insensitive defining formula probes settled everywhere, so its prefix
  // absorbs every position.
  graph_->touch_horizon(self);
  const Formula& defining = *t.event();
  const std::uint64_t h = horizon_;
  const std::uint64_t first_k = lo + 1;
  if (first_k > h) return {Interval::none(), false};
  std::uint64_t sb = first_k;
  Interval best_prefix = Interval::none();
  {
    const ObligationGraph::Obligation& ob = graph_->at(self);
    sb = std::max<std::uint64_t>(ob.frontier, first_k);
    if (ob.have_aux) best_prefix = Interval::make(ob.aux_lo, ob.aux_hi);
  }
  Val below = probe(defining, sb - 1, env, self);
  while (sb <= h && below.settled) {
    const Val at = probe(defining, sb, env, self);
    if (!at.settled) break;
    if (!below.value && at.value) best_prefix = Interval::make(sb - 1, sb);
    below = at;
    ++sb;
  }
  Found res{best_prefix, false};
  if (h >= sb) {
    Val at_k = probe(defining, h, env, self);
    for (std::uint64_t k = h; k >= sb; --k) {
      const Val at_km1 = probe(defining, k - 1, env, self);
      if (!at_km1.value && at_k.value) {
        res.iv = Interval::make(k - 1, k);
        break;
      }
      at_k = at_km1;
      if (k == sb) break;  // guard size_t underflow
    }
  }
  ObligationGraph::Obligation& ob = graph_->at(self);  // re-fetch: probes recurse
  ob.frontier = sb;
  ob.have_aux = !best_prefix.null;
  if (ob.have_aux) {
    ob.aux_lo = best_prefix.lo;
    ob.aux_hi = best_prefix.hi;
  }
  return res;
}

IncrementalEvaluator::Val IncrementalEvaluator::stars_compute(const Term& t, std::uint64_t lo,
                                                              Dir dir, const Env& env,
                                                              ObId self) {
  const Interval ctx = Interval::make(lo, Interval::INF);
  switch (t.kind()) {
    case Term::Kind::Event:
      // Requirements inside the defining formula travel through formula
      // evaluation; the event term itself contributes none.
      return {true, true};

    case Term::Kind::Begin:
    case Term::Kind::End:
      return stars_inc(*t.arg(), ctx, dir, env, self);

    case Term::Kind::Star: {
      // *I: I must be constructible here, and nested stars must hold too.
      const Found f = find_inc(*t.arg(), ctx, dir, env, self);
      if (f.iv.null) return {false, f.settled};
      const Val nested = stars_inc(*t.arg(), ctx, dir, env, self);
      return {nested.value, f.settled && nested.settled};
    }

    case Term::Kind::Fwd: {
      Val ls{true, true};
      if (t.left()) {
        ls = stars_inc(*t.left(), ctx, dir, env, self);
        if (!ls.value) return {false, ls.settled};
      }
      if (!t.right()) return {true, ls.settled};
      Interval mid = ctx;
      bool mid_settled = true;
      if (t.left()) {
        const Found l = find_inc(*t.left(), ctx, dir, env, self);
        mid_settled = l.settled;
        if (l.iv.null || l.iv.hi == Interval::INF) {
          return {true, ls.settled && mid_settled};  // context fails: vacuous
        }
        mid = Interval::make(l.iv.hi, ctx.hi);
      }
      const Val rs = stars_inc(*t.right(), mid, Dir::Forward, env, self);
      return {rs.value, ls.settled && mid_settled && rs.settled};
    }

    case Term::Kind::Bwd: {
      Val rs{true, true};
      if (t.right()) {
        rs = stars_inc(*t.right(), ctx, dir, env, self);
        if (!rs.value) return {false, rs.settled};
      }
      if (!t.left()) return {true, rs.settled};
      Interval mid = ctx;
      bool mid_settled = true;
      if (t.right()) {
        const Found r = find_inc(*t.right(), ctx, dir, env, self);
        mid_settled = r.settled;
        if (r.iv.null || r.iv.hi == Interval::INF) {
          return {true, rs.settled && mid_settled};  // context fails: vacuous
        }
        mid = Interval::make(ctx.lo, r.iv.hi);
      }
      const Val ls = stars_inc(*t.left(), mid, Dir::Backward, env, self);
      return {ls.value, rs.settled && mid_settled && ls.settled};
    }
  }
  IL_CHECK(false, "unreachable");
}

}  // namespace il
