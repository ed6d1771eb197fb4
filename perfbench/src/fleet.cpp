#include "fleet.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <map>
#include <tuple>

#include "core/check.h"

namespace perfbench {

namespace {

/// One row in this many (per stream, chosen by hash of the seed, stream and
/// seq) is a checkpoint, up to kCheckpointCap rows per stream.
constexpr std::uint64_t kCheckpointEvery = 256;
constexpr std::size_t kCheckpointCap = 12;

std::uint64_t request_id(std::size_t stream, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(stream) << 40) | seq;
}

bool failed_with_prefix(const il::CheckResult& r, const char* prefix) {
  for (const std::string& name : r.failed) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

}  // namespace

struct Fleet::Stream {
  std::size_t index = 0;
  il::engine::StreamId id = 0;
  std::size_t sessions_started = 0;
  std::size_t offset = 0;  ///< next state of the current session
  std::uint64_t seq = 0;   ///< next seq to send
  std::uint64_t expect_seq = 0;  ///< next row seq the drain must see
  std::vector<il::engine::MonitorId> ids;  ///< monitors of the current session

  struct SessionRecord {
    std::uint64_t start_seq;
    std::size_t pool_index;
    std::vector<std::size_t> sources;  ///< monitor source per verdict slot
    std::vector<il::engine::MonitorId> ids;
  };
  std::vector<SessionRecord> history;
  std::size_t cursor = 0;  ///< history entry of the row being checked
  std::vector<std::int64_t> reference_ns;  ///< per seq: send or due time; -1 = refused
  std::size_t checkpoints = 0;

  std::size_t pool_index(const FleetInputs& in) const {
    return (sessions_started - 1) % in.streams[index].sessions.size();
  }
};

struct Fleet::Checkpoint {
  std::size_t stream;
  std::size_t pool_index;
  std::size_t offset;
  std::uint64_t seq;
  std::vector<std::size_t> sources;       ///< monitor source per verdict
  std::vector<il::CheckResult> verdicts;
};

Fleet::Fleet(const FleetInputs& inputs, std::size_t service_threads) : inputs_(inputs) {
  specs_.resize(inputs.streams.size());
  for (std::size_t s = 0; s < inputs.streams.size(); ++s) {
    for (const MonitorSource& m : inputs.streams[s].monitors) {
      specs_[s].push_back(build_spec(m, inputs.streams[s]));
    }
  }
  il::engine::Options options;
  options.num_threads = service_threads;
  service_ = std::make_unique<il::engine::MonitorService>(options);
  streams_.resize(inputs.streams.size());
  FleetRun unused;
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    Stream& st = streams_[s];
    st.index = s;
    st.id = service_->open_stream(inputs.streams[s].name);
    if (stream_index_.size() <= st.id) stream_index_.resize(st.id + 1, 0);
    stream_index_[st.id] = s;
    next_session(st, unused);
  }
  service_->flush();
}

Fleet::~Fleet() = default;

void Fleet::next_session(Stream& st, FleetRun& out) {
  for (const il::engine::MonitorId id : st.ids) {
    SpanRecorder::Scope span(*spans_, names_.retire, request_id(st.index, st.seq));
    service_->retire(id);
    ++out.barriers;
  }
  st.ids.clear();
  const std::vector<std::size_t> sources =
      session_monitors(inputs_.streams[st.index], st.sessions_started);
  ++st.sessions_started;
  for (const std::size_t source : sources) {
    SpanRecorder::Scope span(*spans_, names_.reg, request_id(st.index, st.seq));
    st.ids.push_back(service_->register_spec(st.id, specs_[st.index][source]));
    ++out.barriers;
  }
  st.history.push_back({st.seq, st.pool_index(inputs_), sources, st.ids});
  st.offset = 0;
}

void Fleet::send(Stream& st, std::int64_t reference_ns, bool open_loop, FleetRun& out) {
  const StreamPlan& plan = inputs_.streams[st.index];
  if (st.offset == plan.sessions[st.pool_index(inputs_)].states.size()) next_session(st, out);
  const il::State& state = plan.sessions[st.pool_index(inputs_)].states[st.offset];
  st.reference_ns.push_back(reference_ns);
  {
    SpanRecorder::Scope span(*spans_, names_.append, request_id(st.index, st.seq));
    if (!open_loop) {
      service_->append(st.id, state);
    } else if (service_->try_append(st.id, state) == il::engine::AppendStatus::QueueFull) {
      // Refused: a failure that misses any latency limit.  The state is then
      // sent blocking so the stream still carries its session.
      ++out.refused;
      st.reference_ns.back() = -1;
      service_->append(st.id, state);
    }
  }
  ++st.offset;
  ++st.seq;
  ++out.states;
}

bool Fleet::drain(FleetRun& out) {
  std::vector<il::engine::VerdictRow> rows;
  {
    SpanRecorder::Scope span(*spans_, names_.drain, 0);
    rows = service_->drain();
    if (rows.empty()) span.discard();
  }
  if (rows.empty()) return false;
  const std::int64_t t = now_ns();
  ++out.drains_with_rows;
  out.rows_drained += rows.size();
  if (rows.size() > out.rows_per_drain_peak) out.rows_per_drain_peak = rows.size();
  for (const il::engine::VerdictRow& row : rows) check_row(row, t, out);
  return true;
}

void Fleet::check_row(const il::engine::VerdictRow& row, std::int64_t drained_ns, FleetRun& out) {
  if (row.stream >= stream_index_.size()) {
    ++out.mismatches;
    std::cout << "mismatch: row for unknown stream " << row.stream << '\n';
    return;
  }
  Stream& st = streams_[stream_index_[row.stream]];
  if (row.seq != st.expect_seq || row.seq >= st.seq) {
    ++out.mismatches;
    std::cout << "mismatch: stream " << st.index << " row seq " << row.seq << ", expected "
              << st.expect_seq << '\n';
    return;
  }
  ++st.expect_seq;
  while (st.cursor + 1 < st.history.size() && st.history[st.cursor + 1].start_seq <= row.seq) {
    ++st.cursor;
  }
  const Stream::SessionRecord& rec = st.history[st.cursor];
  const std::size_t offset = row.seq - rec.start_seq;
  bool ids_match = row.verdicts.size() == rec.ids.size();
  for (std::size_t i = 0; ids_match && i < rec.ids.size(); ++i) {
    ids_match = row.verdicts[i].id == rec.ids[i];
  }
  if (!ids_match || !row.faults.empty()) {
    ++out.mismatches;
    std::cout << "mismatch: stream " << st.index << " seq " << row.seq
              << (ids_match ? " has faulted slots" : " has the wrong monitors") << '\n';
    return;
  }
  out.monitor_appends += row.verdicts.size();
  out.row_ns.push_back(drained_ns);
  out.row_appends.push_back(static_cast<double>(row.verdicts.size()));
  const std::int64_t ref = st.reference_ns[row.seq];
  out.latency_us.push_back(ref < 0 ? std::numeric_limits<double>::infinity()
                                   : static_cast<double>(drained_ns - ref) / 1e3);

  const StreamPlan& plan = inputs_.streams[st.index];
  const Session& session = plan.sessions[rec.pool_index];
  if (session.buggy && offset + 1 == session.states.size()) {
    ++out.buggy_sessions;
    for (std::size_t i = 0; i < rec.sources.size(); ++i) {
      const Family f = plan.monitors[rec.sources[i]].family;
      if (f == Family::Generated || failed_with_prefix(row.verdicts[i].result, known_violation(f))) {
        continue;
      }
      ++out.mismatches;
      std::cout << "mismatch: buggy session of stream " << st.index << " ends without "
                << known_violation(f) << " (monitor " << i << ": "
                << row.verdicts[i].result.to_string() << ")\n";
    }
  }
  const std::uint64_t h = mix64(seed_ ^ mix64(request_id(st.index, row.seq)));
  if (st.checkpoints < kCheckpointCap && h % kCheckpointEvery == 0) {
    ++st.checkpoints;
    Checkpoint cp{st.index, rec.pool_index, offset, row.seq, rec.sources, {}};
    for (const il::engine::ServiceVerdict& v : row.verdicts) cp.verdicts.push_back(v.result);
    checkpoints_.push_back(std::move(cp));
  }
}

void Fleet::check_checkpoints(FleetRun& out) {
  // Case-study duplicates on one stream share a spec: check each once.
  std::map<std::tuple<std::size_t, std::size_t, std::size_t, Family, std::size_t>, il::CheckResult>
      expected;
  for (const Checkpoint& cp : checkpoints_) {
    const StreamPlan& plan = inputs_.streams[cp.stream];
    const std::vector<il::State>& states = plan.sessions[cp.pool_index].states;
    const il::Trace prefix(std::vector<il::State>(states.begin(), states.begin() + cp.offset + 1));
    for (std::size_t i = 0; i < cp.verdicts.size(); ++i) {
      const std::size_t source = cp.sources[i];
      const Family f = plan.monitors[source].family;
      const auto key = std::make_tuple(cp.stream, cp.pool_index, cp.offset, f,
                                       f == Family::Generated ? source : 0);
      auto it = expected.find(key);
      if (it == expected.end()) {
        it = expected.emplace(key, il::check_spec(specs_[cp.stream][source], prefix)).first;
      }
      ++out.checkpoints;
      const il::CheckResult& got = cp.verdicts[i];
      if (got.ok == it->second.ok && got.failed == it->second.failed) continue;
      ++out.mismatches;
      std::cout << "mismatch: stream " << cp.stream << " seq " << cp.seq << " monitor " << source
                << " service=" << got.to_string() << " check_spec=" << it->second.to_string()
                << '\n';
    }
  }
}

FleetRun Fleet::run(double seconds, double rate, std::uint64_t seed, SpanRecorder& spans) {
  spans_ = &spans;
  seed_ = seed;
  names_ = SpanNames{spans.name_id("engine.service.append"), spans.name_id("engine.service.drain"),
                     spans.name_id("engine.service.register"),
                     spans.name_id("engine.service.retire"), spans.name_id("engine.service.flush")};
  FleetRun out;
  const bool open_loop = rate > 0;
  const std::int64_t t0 = now_ns();
  out.t0_ns = t0;
  const std::int64_t window = static_cast<std::int64_t>(seconds * 1e9);
  if (!open_loop) {
    std::int64_t last_return = t0;
    while (now_ns() - t0 < window) {
      for (Stream& st : streams_) {
        const std::int64_t t = now_ns();
        out.gen_lag_us.push_back(static_cast<double>(t - last_return) / 1e3);
        send(st, t, false, out);
        last_return = now_ns();
      }
      drain(out);
    }
  } else {
    const double period_ns = 1e9 / rate;
    const std::uint64_t scheduled = static_cast<std::uint64_t>(std::ceil(window / period_ns));
    for (std::uint64_t k = 0; k < scheduled; ++k) {
      const std::int64_t due = t0 + static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
      if (now_ns() - t0 >= window) {
        // Too far behind to send the rest inside the window: every state
        // still due is a failure that misses any latency limit.
        out.missed = scheduled - k;
        out.latency_us.insert(out.latency_us.end(), out.missed,
                              std::numeric_limits<double>::infinity());
        out.row_ns.insert(out.row_ns.end(), out.missed, t0 + window - 1);
        out.row_appends.insert(out.row_appends.end(), out.missed, 0.0);
        break;
      }
      // Ahead of schedule: drain, and between empty drains wait a few µs.
      for (std::int64_t t = now_ns(); t < due; t = now_ns()) {
        if (drain(out)) continue;
        const std::int64_t until = std::min(due, t + 5000);
        while (now_ns() < until) {
        }
      }
      out.gen_lag_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
      send(streams_[k % streams_.size()], due, true, out);
    }
  }
  {
    SpanRecorder::Scope span(spans, names_.flush, 0);
    service_->flush();
  }
  drain(out);
  out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  out.stats = service_->stats();
  for (const Stream& st : streams_) {
    if (st.expect_seq == st.seq) continue;
    out.mismatches += st.seq - st.expect_seq;
    std::cout << "mismatch: stream " << st.index << " is missing " << st.seq - st.expect_seq
              << " rows\n";
  }
  check_checkpoints(out);
  spans_ = &no_spans_;
  return out;
}

}  // namespace perfbench
