// The fleet workloads: seeded simulator sessions driven through one
// resident MonitorService from a single generator thread, with every
// drained row checked for shape and a seeded sample checked against
// check_spec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/service.h"
#include "gen.h"
#include "span.h"

namespace perfbench {

/// fleet_open's send rate in states per second, summed over its streams.
/// A constant, recorded in BENCHMARK.json: never derived from the machine.
constexpr double kOpenRate = 16000;

/// MonitorService::Options::num_threads per fleet.  fleet_saturate: two
/// pool workers, the coordinator (which claims epoch work too) and the
/// generator thread keep four threads busy.  fleet_open: no pool, so each
/// state costs one cross-CPU wake-up (the coordinator's), not two; on a
/// virtual machine sharing its host, the pool worker's wake-up made the
/// open-loop p99 swing several-fold from run to run.  Epoch fan-out is
/// measured on fleet_saturate.
constexpr std::size_t kSaturateThreads = 2;
constexpr std::size_t kOpenThreads = 1;

struct FleetRun {
  std::size_t states = 0;           ///< states sent
  std::size_t barriers = 0;         ///< register + retire calls
  std::size_t refused = 0;          ///< try_append() calls that reported QueueFull
  std::size_t missed = 0;           ///< open loop: states due but unsent when the window closed
  std::size_t monitor_appends = 0;  ///< verdicts in drained rows
  double wall_s = 0;                ///< first timed append .. last row drained
  std::int64_t t0_ns = 0;           ///< start of the timed window
  std::vector<double> latency_us;   ///< one per row; +inf for a refused send
  std::vector<std::int64_t> row_ns; ///< when each row was drained
  std::vector<double> row_appends;  ///< verdicts in each row
  std::vector<double> gen_lag_us;   ///< how late each send was
  std::size_t drains_with_rows = 0;
  std::size_t rows_drained = 0;
  std::size_t rows_per_drain_peak = 0;
  std::size_t checkpoints = 0;      ///< (row, monitor) verdicts checked against check_spec
  std::size_t buggy_sessions = 0;   ///< buggy sessions whose last row was checked
  std::size_t mismatches = 0;       ///< oracle mismatches, malformed rows, faulted slots
  il::engine::ServiceStats stats;   ///< read after the last drain, before teardown
};

class Fleet {
 public:
  /// Set-up: builds (parses) every spec, starts the service with
  /// `service_threads` as Options::num_threads, opens the streams,
  /// registers each stream's first session, and flushes.
  Fleet(const FleetInputs& inputs, std::size_t service_threads);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Drives the fleet for `seconds`: closed loop (blocking append(),
  /// round-robin) when rate is 0, otherwise open loop at `rate` states/s
  /// with try_append().  Spans go to `spans` when it is enabled.  The
  /// oracle runs after the timed window.
  FleetRun run(double seconds, double rate, std::uint64_t seed, SpanRecorder& spans);

 private:
  struct Stream;
  struct Checkpoint;
  struct SpanNames {
    std::uint32_t append = 0, drain = 0, reg = 0, retire = 0, flush = 0;
  };

  void send(Stream& st, std::int64_t reference_ns, bool open_loop, FleetRun& out);
  void next_session(Stream& st, FleetRun& out);
  bool drain(FleetRun& out);
  void check_row(const il::engine::VerdictRow& row, std::int64_t drained_ns, FleetRun& out);
  void check_checkpoints(FleetRun& out);

  const FleetInputs& inputs_;
  std::vector<std::vector<il::Spec>> specs_;  ///< [stream][monitor source]
  std::unique_ptr<il::engine::MonitorService> service_;
  std::vector<Stream> streams_;
  std::vector<std::size_t> stream_index_;  ///< StreamId -> index into streams_
  std::vector<Checkpoint> checkpoints_;
  SpanRecorder no_spans_{false};
  SpanRecorder* spans_ = &no_spans_;  ///< the recorder of the current run()
  SpanNames names_;
  std::uint64_t seed_ = 0;
};

}  // namespace perfbench
