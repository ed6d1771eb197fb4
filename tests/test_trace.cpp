// Unit tests for states, traces, stuttering extension, and TraceBuilder.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/memo.h"
#include "trace/trace.h"

namespace il {
namespace {

TEST(State, DefaultsToZero) {
  State s;
  EXPECT_EQ(s.get("x"), 0);
  EXPECT_FALSE(s.truthy("x"));
}

TEST(State, SetAndGet) {
  State s;
  s.set("x", 42);
  s.set_bool("b", true);
  EXPECT_EQ(s.get("x"), 42);
  EXPECT_TRUE(s.truthy("b"));
}

TEST(State, EqualityAndOrdering) {
  State a, b;
  a.set("x", 1);
  b.set("x", 1);
  EXPECT_EQ(a, b);
  b.set("y", 2);
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
}

TEST(State, ToStringIsDeterministic) {
  State s;
  s.set("b", 2);
  s.set("a", 1);
  EXPECT_EQ(s.to_string(), "{a=1, b=2}");
}

TEST(Trace, StutteringExtension) {
  Trace tr;
  State s0, s1;
  s0.set("x", 0);
  s1.set("x", 7);
  tr.push(s0);
  tr.push(s1);
  EXPECT_EQ(tr.size(), 2u);
  EXPECT_EQ(tr.at(0).get("x"), 0);
  EXPECT_EQ(tr.at(1).get("x"), 7);
  // Indices past the end read the final state forever.
  EXPECT_EQ(tr.at(2).get("x"), 7);
  EXPECT_EQ(tr.at(1000).get("x"), 7);
}

TEST(Trace, EmptyTraceAccessThrows) {
  Trace tr;
  EXPECT_THROW(tr.at(0), std::invalid_argument);
  EXPECT_THROW(tr.back(), std::invalid_argument);
  EXPECT_THROW(tr.last_index(), std::invalid_argument);
}

TEST(TraceBuilder, CommitsSnapshots) {
  TraceBuilder tb;
  tb.set("x", 1);
  tb.commit();
  tb.set("x", 2);
  tb.commit();
  const Trace& tr = tb.trace();
  ASSERT_EQ(tr.size(), 2u);
  EXPECT_EQ(tr.at(0).get("x"), 1);
  EXPECT_EQ(tr.at(1).get("x"), 2);
}

TEST(TraceBuilder, SnapshotsAreIndependent) {
  TraceBuilder tb;
  tb.set("x", 1);
  tb.commit();
  tb.set("x", 2);  // not yet committed
  EXPECT_EQ(tb.trace().at(0).get("x"), 1);
}

TEST(TraceBuilder, StepHelper) {
  TraceBuilder tb;
  tb.step([](State& s) { s.set("y", 5); });
  EXPECT_EQ(tb.trace().at(0).get("y"), 5);
}

TEST(Trace, AppendDeltaNotification) {
  // The lineage identity: push() keeps stable_id() while the memoization
  // identity id() refreshes.
  Trace tr;
  const std::uint64_t lineage = tr.stable_id();
  const std::uint64_t id0 = tr.id();

  State s;
  s.set("x", 1);
  tr.push(s);
  tr.push(s);
  EXPECT_EQ(tr.stable_id(), lineage);
  EXPECT_NE(tr.id(), id0);

  // In-place mutation refreshes id() too, under the same lineage.
  const std::uint64_t id2 = tr.id();
  tr.back_mut().set("x", 9);
  EXPECT_NE(tr.id(), id2);
  tr.state_mut(0).set("x", 3);
  EXPECT_EQ(tr.stable_id(), lineage);

  // Copies are a fresh lineage; moves keep it.
  Trace copy = tr;
  EXPECT_NE(copy.stable_id(), lineage);
  Trace moved = std::move(tr);
  EXPECT_EQ(moved.stable_id(), lineage);
}

TEST(Trace, IdentitiesAreSixtyFourBit) {
  // Every push draws a fresh process-wide id: a 32-bit counter wraps to 0
  // (the reserved "no override" value) and aliases cache keys after 2^32
  // appends.  The ids, and the cache key field that carries them, are
  // 64-bit.
  Trace tr;
  EXPECT_TRUE((std::is_same_v<decltype(tr.id()), std::uint64_t>));
  EXPECT_TRUE((std::is_same_v<decltype(tr.stable_id()), std::uint64_t>));
  EXPECT_TRUE((std::is_same_v<decltype(EvalCache::Key::trace), std::uint64_t>));
  EXPECT_EQ(sizeof(EvalCache::Key), 80u);
}

}  // namespace
}  // namespace il
