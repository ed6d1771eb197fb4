// Tests for the online runtime monitor.
#include <gtest/gtest.h>

#include "core/monitor.h"
#include "core/parser.h"

namespace il {
namespace {

Spec simple_spec() {
  Spec spec;
  spec.name = "demo";
  spec.axioms.push_back({"safety", parse_formula("[] (cs -> x)")});
  spec.axioms.push_back({"response", parse_formula("[] [ req => ] *grant")});
  return spec;
}

State st(bool req, bool grant, bool x, bool cs) {
  State s;
  s.set_bool("req", req);
  s.set_bool("grant", grant);
  s.set_bool("x", x);
  s.set_bool("cs", cs);
  return s;
}

TEST(Monitor, RequiresObservationBeforeVerdict) {
  Monitor m(simple_spec());
  EXPECT_THROW(m.current(), std::invalid_argument);
}

TEST(Monitor, TracksSafetyOnline) {
  Monitor m(simple_spec());
  m.observe(st(false, false, false, false));
  EXPECT_TRUE(m.current().ok);
  m.observe(st(false, false, true, true));  // cs with x: fine
  EXPECT_TRUE(m.current().ok);
  m.observe(st(false, false, false, true));  // cs without x: violation
  auto r = m.current();
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failed.size(), 1u);
  EXPECT_EQ(r.failed[0], "demo.safety");
}

TEST(Monitor, ProvisionalVerdictsRecover) {
  // A pending response obligation fails provisionally (stuttering
  // extension has no grant) and recovers when the grant arrives.
  Monitor m(simple_spec());
  m.observe(st(false, false, false, false));
  m.observe(st(true, false, false, false));  // req rises: grant required
  EXPECT_FALSE(m.current().ok);              // provisional: no grant yet
  m.observe(st(true, true, false, false));   // grant rises
  EXPECT_TRUE(m.current().ok);
}

TEST(Monitor, StatesSeenAndTrace) {
  Monitor m(simple_spec());
  m.observe(st(false, false, false, false));
  m.observe(st(false, false, false, false));
  EXPECT_EQ(m.states_seen(), 2u);
  EXPECT_EQ(m.trace().size(), 2u);
}

TEST(Monitor, AppendIsObservePlusCurrent) {
  Monitor appended(simple_spec());
  Monitor observed(simple_spec());
  Trace prefix;
  const State states[] = {
      st(false, false, false, false), st(true, false, false, false),
      st(true, false, false, true),  // cs without x: safety violation
      st(true, true, false, false),  st(false, false, true, true),
  };
  std::size_t failing = 0;
  for (const State& s : states) {
    const CheckResult a = appended.append(s);
    observed.observe(s);
    const CheckResult b = observed.current();
    prefix.push(s);
    const CheckResult want = check_spec_cached(simple_spec(), prefix, {}, nullptr);
    EXPECT_EQ(a.ok, want.ok);
    EXPECT_EQ(a.failed, want.failed);
    EXPECT_EQ(b.ok, want.ok);
    EXPECT_EQ(b.failed, want.failed);
    failing += want.ok ? 0 : 1;
  }
  EXPECT_GT(failing, 0u);
  EXPECT_EQ(appended.states_seen(), 5u);
}

TEST(Monitor, IncrementalSettlesAndPinsObligations) {
  Monitor m(simple_spec());
  m.append(st(false, false, false, false));
  m.append(st(true, false, false, false));   // req rises: response pending
  EXPECT_FALSE(m.current().ok);              // provisional failure
  const std::size_t recomputes_pending = m.obligations().recomputes();
  EXPECT_GT(m.obligations().size(), 0u);

  m.append(st(true, true, false, false));    // grant arrives
  EXPECT_TRUE(m.current().ok);
  // The grant settled obligations (the located request interval and its
  // grant occurrence are pinned); later quiet states re-settle only the
  // live suffix, not the settled prefix.
  EXPECT_GT(m.obligations().settled_count(), 0u);
  const std::size_t recomputes_settled = m.obligations().recomputes() - recomputes_pending;
  EXPECT_GT(recomputes_settled, 0u);

  // A repeated current() with no new state re-reads fresh results only.
  const std::size_t recomputes_before = m.obligations().recomputes();
  EXPECT_TRUE(m.current().ok);
  EXPECT_EQ(m.obligations().recomputes(), recomputes_before);
  EXPECT_GT(m.obligations().fresh_hits() + m.obligations().settled_hits(), 0u);
}

TEST(Monitor, IncrementalSettledCacheSurvivesAppends) {
  // The closed-world cache is keyed by the stable lineage id: appends never
  // evict it, so resident entries only grow.
  Monitor m(simple_spec());
  m.append(st(false, false, true, true));
  m.append(st(true, false, true, true));
  const std::size_t entries_two = m.cache().size();
  m.append(st(true, true, true, true));
  EXPECT_GE(m.cache().size(), entries_two);
  // And the obligation graph saw one invalidation pass per append epoch.
  EXPECT_EQ(m.obligations().epoch(), 3u);
}

}  // namespace
}  // namespace il
