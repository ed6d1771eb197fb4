// Batched-epoch and multi-stream differential coverage for MonitorService:
// folding queued appends into multi-state epochs (Options::max_epoch_batch)
// must be invisible in the verdict stream.  Rows are pinned bit-identical
// to the uncached evaluator at every prefix across batch sizes 1/4/16 x
// pool widths 1/2/4 on the five case studies; Register/Retire barriers
// mid-stream keep their sequenced semantics at any batch size and pool
// width; two interleaved streams produce exactly their single-stream rows
// while their states coalesce into shared batches; and tombstone
// compaction frees retired slots once the table passes the 1/4 retired
// fraction.
#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "il.h"
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

/// The five case-study specs with good and misbehaving recorded runs — the
/// PR 5 differential corpus, replayed through batched service epochs.
struct StreamCases {
  std::deque<Spec> specs;  ///< deque: spec_of pointers survive growth
  std::vector<const Spec*> spec_of;  ///< per trace
  std::vector<Trace> traces;

  StreamCases() {
    traces.reserve(16);

    specs.push_back(sys::mutex_spec(3));
    const Spec* mutex = &specs.back();
    sys::MutexRunConfig mc;
    mc.seed = 1;
    mc.entries = 4;
    add(mutex, sys::run_mutex(mc));
    add(mutex, sys::run_mutex_buggy(mc));

    specs.push_back(sys::queue_spec(domain(3)));
    const Spec* queue = &specs.back();
    sys::QueueRunConfig qc;
    qc.seed = 1;
    qc.values = 3;
    add(queue, sys::run_fifo_queue(qc));
    add(queue, sys::run_swapping_queue(qc));

    sys::AbRunConfig ac;
    ac.seed = 7;
    specs.push_back(sys::ab_sender_spec(domain(3)));
    const Spec* ab = &specs.back();
    add(ab, sys::run_ab_protocol(ac).trace);

    specs.push_back(sys::request_ack_spec());
    const Spec* selftimed = &specs.back();
    sys::SelfTimedRunConfig sc;
    add(selftimed, sys::run_request_ack_buggy(sc));

    specs.push_back(sys::arbiter_spec());
    const Spec* arbiter = &specs.back();
    sys::ArbiterRunConfig arc;
    add(arbiter, sys::run_arbiter(arc));
  }

  void add(const Spec* spec, Trace trace) {
    traces.push_back(std::move(trace));
    spec_of.push_back(spec);
  }
};

/// Subscribers per run_service() fleet; ids are minted from 1, so theirs
/// are 1..kSubscribers.
constexpr std::size_t kSubscribers = 3;

/// Runs one trace through a service configured with (batch, threads):
/// pause first so every append is queued before the coordinator
/// moves, which forces real max_epoch_batch-sized blocks instead of
/// whatever the producer/coordinator race happens to leave in the queue.
std::vector<VerdictRow> run_service(const Spec& spec, const Trace& run, std::size_t batch,
                                    std::size_t threads, engine::ServiceStats& stats_out) {
  Options opts;
  opts.num_threads = threads;
  opts.max_epoch_batch = batch;
  opts.queue_capacity = run.size() + 8;
  MonitorService service(opts);
  service.pause();
  for (std::size_t j = 0; j < kSubscribers; ++j) service.register_spec(spec);
  for (const State& s : run.states()) service.append(s);
  service.resume();
  service.flush();
  stats_out = service.stats();
  return service.drain();
}

void expect_same_rows(const std::vector<VerdictRow>& got, const std::vector<VerdictRow>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].stream, want[k].stream) << label << " row " << k;
    ASSERT_EQ(got[k].seq, want[k].seq) << label << " row " << k;
    ASSERT_EQ(got[k].verdicts.size(), want[k].verdicts.size()) << label << " row " << k;
    for (std::size_t j = 0; j < got[k].verdicts.size(); ++j) {
      ASSERT_EQ(got[k].verdicts[j].id, want[k].verdicts[j].id)
          << label << " row " << k << " slot " << j;
      ASSERT_EQ(got[k].verdicts[j].result.ok, want[k].verdicts[j].result.ok)
          << label << " row " << k << " slot " << j;
      ASSERT_EQ(got[k].verdicts[j].result.failed, want[k].verdicts[j].result.failed)
          << label << " row " << k << " slot " << j;
    }
  }
}

TEST(ServiceBatch, BatchedEpochsMatchUncachedAtEveryPrefix) {
  StreamCases cases;
  std::size_t failing_prefixes = 0;
  for (std::size_t c = 0; c < cases.traces.size(); ++c) {
    const Spec& spec = *cases.spec_of[c];
    const Trace& run = cases.traces[c];
    const std::vector<CheckResult> oracle = prefix_oracle(spec, run);
    failing_prefixes += count_failing(oracle);

    for (const std::size_t batch : {1u, 4u, 16u}) {
      for (const std::size_t threads : {1u, 2u, 4u}) {
        engine::ServiceStats stats;
        const std::vector<VerdictRow> rows = run_service(spec, run, batch, threads, stats);
        const std::string label = "case " + std::to_string(c) + " batch " +
                                  std::to_string(batch) + " threads " + std::to_string(threads);
        ASSERT_EQ(rows.size(), run.size()) << label;
        for (std::size_t k = 0; k < rows.size(); ++k) {
          ASSERT_EQ(rows[k].seq, k) << label;
          ASSERT_EQ(rows[k].verdicts.size(), kSubscribers) << label << " row " << k;
          for (std::size_t j = 0; j < kSubscribers; ++j) {
            const ServiceVerdict& v = rows[k].verdicts[j];
            ASSERT_EQ(v.id, j + 1) << label << " row " << k;
            ASSERT_EQ(v.result.ok, oracle[k].ok) << label << " row " << k << " slot " << j;
            ASSERT_EQ(v.result.failed, oracle[k].failed)
                << label << " row " << k << " slot " << j;
          }
        }
        // The queue was fully loaded before the coordinator moved, so the
        // first block is exactly min(batch, trace size) states — batching
        // really happened and the gauges saw it.
        const std::size_t want_max = std::min<std::size_t>(batch, run.size());
        EXPECT_EQ(stats.states_per_batch_max, want_max) << label;
        EXPECT_GE(stats.queue_peak, run.size()) << label;
        EXPECT_EQ(stats.states_applied, run.size()) << label;
        if (batch >= run.size()) {
          EXPECT_EQ(stats.epoch_batches, 1u) << label;
        }
      }
    }
  }
  EXPECT_GT(failing_prefixes, 0u);
}

TEST(ServiceBatch, RegisterRetireBarriersMidStreamMatchPerState) {
  const Spec spec = sys::mutex_spec(3);
  sys::MutexRunConfig mc;
  mc.seed = 1;
  mc.entries = 4;
  const Trace run = sys::run_mutex(mc);
  ASSERT_GE(run.size(), 6u);

  // One scripted lifecycle: monitors join and leave between appends, so
  // the coordinator must split the append stream at every barrier.
  const auto script = [&](std::size_t batch, std::size_t threads) -> std::vector<VerdictRow> {
    Options opts;
    opts.num_threads = threads;
    opts.max_epoch_batch = batch;
    opts.queue_capacity = 2 * run.size() + 16;
    MonitorService service(opts);
    service.pause();
    const MonitorId first = service.register_spec(spec);
    for (std::size_t k = 0; k < 3; ++k) service.append(run.states()[k]);
    service.register_spec(spec);
    for (std::size_t k = 3; k < 5; ++k) service.append(run.states()[k]);
    service.retire(first);
    for (std::size_t k = 5; k < run.size(); ++k) service.append(run.states()[k]);
    service.resume();
    service.flush();
    return service.drain();
  };

  const std::vector<VerdictRow> reference = script(1, 1);
  ASSERT_EQ(reference.size(), run.size());
  ASSERT_EQ(reference[0].verdicts.size(), 1u);   // only `first`
  ASSERT_EQ(reference[4].verdicts.size(), 2u);   // both resident
  ASSERT_EQ(reference[5].verdicts.size(), 1u);   // first retired
  for (const std::size_t batch : {1u, 4u, 16u}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      const std::string label =
          "batch " + std::to_string(batch) + " threads " + std::to_string(threads);
      expect_same_rows(script(batch, threads), reference, label);
    }
  }
}

TEST(ServiceBatch, InterleavedStreamsMatchSingleStreamRuns) {
  StreamCases cases;
  const Spec& spec_a = *cases.spec_of[0];
  const Trace& run_a = cases.traces[0];  // mutex, good
  const Spec& spec_b = *cases.spec_of[2];
  const Trace& run_b = cases.traces[2];  // queue, fifo
  const std::size_t n = std::min(run_a.size(), run_b.size());
  ASSERT_GE(n, 4u);

  // Single-stream references via the default stream.
  const std::vector<VerdictRow> ref_a = [&]() {
    Options opts;
    opts.num_threads = 2;
    opts.max_epoch_batch = 1;
    MonitorService service(opts);
    service.register_spec(spec_a);
    for (std::size_t k = 0; k < n; ++k) service.append(run_a.states()[k]);
    service.flush();
    return service.drain();
  }();
  const std::vector<VerdictRow> ref_b = [&]() {
    Options opts;
    opts.num_threads = 2;
    opts.max_epoch_batch = 1;
    MonitorService service(opts);
    service.register_spec(spec_b);
    for (std::size_t k = 0; k < n; ++k) service.append(run_b.states()[k]);
    service.flush();
    return service.drain();
  }();

  for (const std::size_t batch : {1u, 4u, 16u}) {
    Options opts;
    opts.num_threads = 2;
    opts.max_epoch_batch = batch;
    opts.queue_capacity = 2 * n + 8;
    MonitorService service(opts);
    const StreamId stream_a = service.open_stream("mutex");
    const StreamId stream_b = service.open_stream("queue");
    service.pause();
    const MonitorId id_a = service.register_spec(stream_a, spec_a);
    const MonitorId id_b = service.register_spec(stream_b, spec_b);
    for (std::size_t k = 0; k < n; ++k) {
      service.append(stream_a, run_a.states()[k]);
      service.append(stream_b, run_b.states()[k]);
    }
    service.resume();
    service.flush();
    const engine::ServiceStats stats = service.stats();
    const std::vector<VerdictRow> rows = service.drain();
    ASSERT_EQ(rows.size(), 2 * n);

    // Per-stream projections must match the single-stream runs row for row
    // (ids differ by registration order, so compare verdict payloads).
    std::vector<const VerdictRow*> got_a, got_b;
    for (const VerdictRow& row : rows) {
      if (row.stream == stream_a) got_a.push_back(&row);
      if (row.stream == stream_b) got_b.push_back(&row);
    }
    ASSERT_EQ(got_a.size(), n);
    ASSERT_EQ(got_b.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(got_a[k]->seq, k);
      ASSERT_EQ(got_b[k]->seq, k);
      ASSERT_EQ(got_a[k]->verdicts.size(), 1u);
      ASSERT_EQ(got_b[k]->verdicts.size(), 1u);
      EXPECT_EQ(got_a[k]->verdicts[0].id, id_a);
      EXPECT_EQ(got_b[k]->verdicts[0].id, id_b);
      EXPECT_EQ(got_a[k]->verdicts[0].result.ok, ref_a[k].verdicts[0].result.ok)
          << "batch " << batch << " state " << k;
      EXPECT_EQ(got_a[k]->verdicts[0].result.failed, ref_a[k].verdicts[0].result.failed)
          << "batch " << batch << " state " << k;
      EXPECT_EQ(got_b[k]->verdicts[0].result.ok, ref_b[k].verdicts[0].result.ok)
          << "batch " << batch << " state " << k;
      EXPECT_EQ(got_b[k]->verdicts[0].result.failed, ref_b[k].verdicts[0].result.failed)
          << "batch " << batch << " state " << k;
    }

    // Distinct streams coalesce: with the queue fully loaded and a batch
    // bound above one stream's share, some block held both streams' states.
    if (batch > 1) {
      EXPECT_GT(stats.states_per_batch_max, 1u) << "batch " << batch;
      EXPECT_EQ(stats.states_per_batch_max, std::min<std::size_t>(batch, 2 * n))
          << "batch " << batch;
    }
    EXPECT_EQ(stats.streams, 3u);  // default + mutex + queue
  }
}

TEST(ServiceBatch, AppendToStreamWithoutMonitorsYieldsEmptyRows) {
  Options opts;
  opts.num_threads = 1;
  MonitorService service(opts);
  const StreamId idle = service.open_stream("idle");
  sys::MutexRunConfig mc;
  const Trace run = sys::run_mutex(mc);
  service.append(idle, run.states()[0]);
  service.flush();
  const std::vector<VerdictRow> rows = service.drain();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].stream, idle);
  EXPECT_EQ(rows[0].seq, 0u);
  EXPECT_TRUE(rows[0].verdicts.empty());
}

TEST(ServiceBatch, RetireCompactsTombstonesPastQuarterFraction) {
  const Spec spec = sys::mutex_spec(2);
  sys::MutexRunConfig mc;
  mc.entries = 2;
  const Trace run = sys::run_mutex(mc);

  Options opts;
  opts.num_threads = 1;
  MonitorService service(opts);
  std::vector<MonitorId> ids;
  for (std::size_t i = 0; i < 8; ++i) ids.push_back(service.register_spec(spec));
  service.flush();

  // 1/8 and 2/8 retired: at or below the 1/4 fraction, no sweep yet.
  service.retire(ids[0]);
  service.retire(ids[2]);
  service.flush();
  EXPECT_EQ(service.stats().retired_compactions, 0u);

  // 3/8 retired: exceeds 1/4, one sweep reclaims every tombstone.
  service.retire(ids[4]);
  service.flush();
  const engine::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retired_compactions, 1u);
  EXPECT_EQ(stats.monitors_resident, 5u);
  EXPECT_EQ(stats.monitors_retired, 3u);

  std::ostringstream os;
  service.dump(os);
  EXPECT_NE(os.str().find("service.retired_compactions 1\n"), std::string::npos);

  // The survivors still monitor: a post-compaction append produces rows for
  // exactly the five residents, in id order.
  for (const State& s : run.states()) service.append(s);
  service.flush();
  const std::vector<VerdictRow> rows = service.drain();
  ASSERT_FALSE(rows.empty());
  ASSERT_EQ(rows.back().verdicts.size(), 5u);
  const std::vector<MonitorId> want = {ids[1], ids[3], ids[5], ids[6], ids[7]};
  for (std::size_t j = 0; j < want.size(); ++j) {
    EXPECT_EQ(rows.back().verdicts[j].id, want[j]);
  }
}

}  // namespace
}  // namespace il
