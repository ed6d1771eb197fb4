// Tests of the benchmark's own code: the percentile rule, self-time
// arithmetic, and generator determinism.  Run: perfbench/run.py --selftest
#include <cmath>
#include <iostream>
#include <limits>
#include <vector>

#include "gen.h"
#include "span.h"
#include "stats.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ++failures;                                                        \
      std::cerr << __FILE__ << ':' << __LINE__ << ": CHECK(" #cond ")\n"; \
    }                                                                    \
  } while (0)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_rule() {
  using perfbench::tail;
  // 1000 samples: exactly ten lie beyond p99.
  perfbench::Tail t = tail(one_to(1000), 99);
  CHECK(t.percentile == 99 && t.value == 990 && t.samples == 1000);
  // 500 samples: p99 has five beyond, p95 twenty-five.
  t = tail(one_to(500), 99);
  CHECK(t.percentile == 95 && t.value == 475 && t.samples == 500);
  // 100 samples: p90 is the highest rung with ten beyond.
  t = tail(one_to(100), 99);
  CHECK(t.percentile == 90 && t.value == 90);
  // Fewer than twenty samples: no rung qualifies, the median is reported.
  t = tail(one_to(15), 99);
  CHECK(t.percentile == 50 && t.value == 8 && t.samples == 15);
  // p99.9 needs 10000 samples.
  t = tail(one_to(10000), 99.9);
  CHECK(t.percentile == 99.9 && t.value == 9990);
  // Refused requests (infinite latency) rank beyond every finite sample.
  std::vector<double> v = one_to(1000);
  for (int i = 0; i < 20; ++i) v[static_cast<std::size_t>(i)] = std::numeric_limits<double>::infinity();
  t = tail(v, 99);
  CHECK(std::isinf(t.value));
  CHECK(perfbench::median(one_to(9)) == 5);
}

void self_time_arithmetic() {
  using perfbench::Span;
  // root [0,100]: A [10,40] with grandchild [15,20]; B [30,60] overlaps A;
  // C [90,120] runs past the root's end and is clipped to it.
  const std::vector<Span> spans = {
      {0, 0, 100, -1, 1},   // 0 root
      {1, 10, 40, 0, 1},    // 1 A
      {2, 15, 20, 1, 1},    // 2 grandchild of A
      {3, 30, 60, 0, 1},    // 3 B
      {4, 90, 120, 0, 1},   // 4 C
      {5, 200, 210, -1, 2}  // 5 another root
  };
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  CHECK(self[0] == 100 - (60 - 10) - (100 - 90));  // covered: [10,60] u [90,100]
  CHECK(self[1] == 30 - 5);
  CHECK(self[2] == 5);
  CHECK(self[3] == 30);
  CHECK(self[4] == 30);
  CHECK(self[5] == 10);

  // Scopes nest: the recorder wires parents and drops discarded spans.
  perfbench::SpanRecorder r(true);
  const std::uint32_t outer = r.name_id("bench.outer");
  const std::uint32_t inner = r.name_id("layer.inner");
  {
    perfbench::SpanRecorder::Scope a(r, outer, 7);
    { perfbench::SpanRecorder::Scope b(r, inner, 7); }
    {
      perfbench::SpanRecorder::Scope c(r, inner, 8);
      c.discard();
    }
  }
  CHECK(r.spans().size() == 2);
  CHECK(r.spans()[1].parent == 0 && r.spans()[0].parent == -1);
  CHECK(r.durations_us("layer.inner").size() == 1);
  perfbench::SpanRecorder off(false);
  { perfbench::SpanRecorder::Scope a(off, off.name_id("x"), 1); }
  CHECK(off.spans().empty());
}

void generator_determinism() {
  using namespace perfbench;
  const FleetInputs a = saturate_inputs(7);
  CHECK(a.digest == saturate_inputs(7).digest);
  CHECK(a.digest != saturate_inputs(8).digest);
  CHECK(open_inputs(7).digest == open_inputs(7).digest);
  CHECK(open_inputs(7).digest != open_inputs(8).digest);
  CHECK(corpus_digest(7, 64) == corpus_digest(7, 64));
  CHECK(corpus_digest(7, 64) != corpus_digest(8, 64));
  // About one session in eight is buggy, and every stream has monitors.
  std::size_t sessions = 0, buggy = 0;
  for (const StreamPlan& p : a.streams) {
    CHECK(!p.monitors.empty());
    for (const Session& s : p.sessions) {
      ++sessions;
      buggy += s.buggy ? 1 : 0;
    }
  }
  CHECK(buggy * 8 == sessions);
}

}  // namespace

int main() {
  percentile_rule();
  self_time_arithmetic();
  generator_determinism();
  if (failures == 0) std::cout << "perfbench selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
