#include "engine/service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "engine/introspect.h"
#include "engine/pool.h"
#include "util/assert.h"
#include "util/fault.h"

namespace il {
namespace engine {

/// One command on the ingest queue.  Register/Retire ride the same queue as
/// Append, which is what makes lifecycle interleavings deterministic: a
/// monitor observes exactly the states enqueued after its registration and
/// before its retirement.  They are also the *batch barriers*: the
/// coordinator folds consecutive Appends into one epoch, so membership is
/// fixed within a block.
struct MonitorService::Command {
  enum class Kind : std::uint8_t { Append, Register, Retire, Reinstate };

  Kind kind = Kind::Append;
  State state;            ///< Append
  StreamId stream = kDefaultStream;  ///< Append / Register
  std::uint64_t seq = 0;  ///< Append: per-stream sequence number
  MonitorId id = 0;       ///< Register / Retire / Reinstate
  Spec spec;              ///< Register (owned copy)
  Env env;                ///< Register
};

/// Slot lifecycle.  Retired slots are tombstones awaiting the compaction
/// sweep and drop out of every epoch plan.  Quarantined slots also hold no
/// monitor, but they stay in the plan — their row slots render
/// Verdict::Faulted — and may be reinstate()d.
enum class MonitorService::SlotState : std::uint8_t { Active, Quarantined, Retired };

/// One row of the monitor table.  The table is id-ascending by
/// construction: ids are minted monotonically and Register commands apply
/// in queue (= mint) order.  retire() tombstones the slot in place (binary
/// search by id) instead of erasing, so the table never shifts under an id
/// lookup; once tombstones exceed 1/4 of the slots the table is compacted
/// in one sweep (retired_compactions).
struct MonitorService::Slot {
  MonitorId id = 0;
  StreamId stream = kDefaultStream;
  std::unique_ptr<Monitor> monitor;  ///< null unless Active
  SlotState state = SlotState::Active;
  // Registration-time inputs, kept so reinstate() rebuilds the monitor
  // from scratch after its stores were freed by the quarantine.
  Spec spec;
  Env env;
  std::exception_ptr fault;  ///< set while Quarantined
  std::uint32_t faults = 0;  ///< quarantine events on this slot, lifetime
  /// States of the slot's stream applied since the last fault — the
  /// deterministic backoff clock gating reinstate().
  std::uint64_t states_since_fault = 0;

  /// Builds the Monitor from the registration inputs — the
  /// "service.register" fault site, shared by Register and Reinstate.
  /// Throws if the spec fails to build; the slot is then left without one.
  void build_monitor() {
    IL_FAULT_SCOPE(id);
    IL_INJECT_FAULT("service.register");
    monitor = std::make_unique<Monitor>(spec, env);
  }
};

MonitorService::MonitorService(Options options) : options_(options) {
  IL_REQUIRE(options_.queue_capacity >= 1, "MonitorService needs a queue capacity of at least 1");
  IL_REQUIRE(options_.max_epoch_batch >= 1, "MonitorService needs max_epoch_batch >= 1");
  max_batch_ = options_.max_epoch_batch;
  const std::size_t threads = detail::effective_pool(~std::size_t{0}, options_.num_threads);
  streams_.push_back(StreamInfo{"default", 0});
  if (threads > 1) pool_ = std::make_unique<detail::ParkedPool>(threads);
  coordinator_ = std::thread([this]() { coordinator_loop(); });
}

MonitorService::~MonitorService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_ready_.notify_all();
  queue_space_.notify_all();
  applied_.notify_all();
  coordinator_.join();
}

std::size_t MonitorService::threads() const { return pool_ ? pool_->size() : 1; }

std::size_t MonitorService::resident() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_;
}

bool MonitorService::poisoned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return poisoned_;
}

StreamId MonitorService::open_stream(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  const StreamId id = static_cast<StreamId>(streams_.size());
  streams_.push_back(StreamInfo{std::move(name), 0});
  return id;
}

// ---------------------------------------------------------------------------
// Ingest side: every public mutation is an enqueue under backpressure.
// ---------------------------------------------------------------------------

void MonitorService::enqueue(Command cmd) {
  std::unique_lock<std::mutex> lock(mu_);
  queue_space_.wait(lock, [&]() {
    return poisoned_ || stopping_ || queue_.size() < options_.queue_capacity;
  });
  // The captured exception itself is never handed out: every producer gets
  // its own ServiceFault built from the once-extracted message, so
  // concurrent throwers share no exception state.
  if (poisoned_) throw ServiceFault(fault_message_);
  IL_REQUIRE(!stopping_, "MonitorService is shutting down");
  if (cmd.kind == Command::Kind::Append) {
    IL_REQUIRE(cmd.stream < streams_.size(), "append to an unopened stream");
    cmd.seq = streams_[cmd.stream].next_seq++;
  }
  queue_.push_back(std::move(cmd));
  if (queue_.size() > queue_peak_) queue_peak_ = queue_.size();
  ++submitted_;
  queue_ready_.notify_one();
}

MonitorId MonitorService::register_spec(StreamId stream, const Spec& spec, Env env) {
  MonitorId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    IL_REQUIRE(stream < streams_.size(), "register on an unopened stream");
    id = next_id_++;
    ++registered_;
    ++resident_;
  }
  Command cmd;
  cmd.kind = Command::Kind::Register;
  cmd.stream = stream;
  cmd.id = id;
  cmd.spec = spec;
  cmd.env = std::move(env);
  enqueue(std::move(cmd));
  return id;
}

MonitorId MonitorService::register_spec(const Spec& spec, Env env) {
  return register_spec(kDefaultStream, spec, std::move(env));
}

void MonitorService::retire(MonitorId id) {
  Command cmd;
  cmd.kind = Command::Kind::Retire;
  cmd.id = id;
  enqueue(std::move(cmd));
}

void MonitorService::reinstate(MonitorId id) {
  Command cmd;
  cmd.kind = Command::Kind::Reinstate;
  cmd.id = id;
  enqueue(std::move(cmd));
}

void MonitorService::append(StreamId stream, const State& s) {
  Command cmd;
  cmd.kind = Command::Kind::Append;
  cmd.stream = stream;
  cmd.state = s;
  enqueue(std::move(cmd));
}

void MonitorService::append(const State& s) { append(kDefaultStream, s); }

AppendStatus MonitorService::try_append(StreamId stream, const State& s) {
  Command cmd;
  cmd.kind = Command::Kind::Append;
  cmd.stream = stream;
  cmd.state = s;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Distinct statuses instead of throws: a non-blocking producer polls —
    // it should learn *why* the enqueue failed, not unwind.
    if (poisoned_) return AppendStatus::Poisoned;
    if (stopping_) return AppendStatus::Stopped;
    IL_REQUIRE(stream < streams_.size(), "append to an unopened stream");
    if (queue_.size() >= options_.queue_capacity) return AppendStatus::QueueFull;
    cmd.seq = streams_[stream].next_seq++;
    queue_.push_back(std::move(cmd));
    if (queue_.size() > queue_peak_) queue_peak_ = queue_.size();
    ++submitted_;
  }
  queue_ready_.notify_one();
  return AppendStatus::Ok;
}

AppendStatus MonitorService::try_append(const State& s) {
  return try_append(kDefaultStream, s);
}

void MonitorService::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t target = submitted_;
  applied_.wait(lock, [&]() { return poisoned_ || stopping_ || applied_count_ >= target; });
  if (poisoned_) throw ServiceFault(fault_message_);
}

void MonitorService::pause() {
  std::unique_lock<std::mutex> lock(mu_);
  // Fail fast: a poisoned coordinator is gone, so "pause" can never mean
  // anything again — surface the fault instead of silently succeeding.
  if (poisoned_) throw ServiceFault(fault_message_);
  paused_ = true;
  applied_.wait(lock, [&]() { return poisoned_ || !in_flight_; });
  if (poisoned_) throw ServiceFault(fault_message_);
}

void MonitorService::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  queue_ready_.notify_all();
}

std::vector<VerdictRow> MonitorService::drain() {
  std::lock_guard<std::mutex> lock(out_mu_);
  std::vector<VerdictRow> rows;
  rows.swap(rows_);
  return rows;
}

// ---------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------

void MonitorService::coordinator_loop() {
  std::vector<Command> block;
  for (;;) {
    block.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_ready_.wait(lock,
                        [&]() { return stopping_ || (!paused_ && !queue_.empty()); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      // Shutdown drains the queue (stopping_ overrides paused_), so a
      // destructor never abandons accepted commands.
      //
      // Batch assembly: greedily fold consecutive Appends — whatever
      // streams they belong to — into one block, up to max_epoch_batch.
      // A Register/Retire at the queue head is a barrier and goes alone.
      if (queue_.front().kind == Command::Kind::Append) {
        while (!queue_.empty() && queue_.front().kind == Command::Kind::Append &&
               block.size() < max_batch_) {
          block.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      } else {
        block.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ = true;
      queue_space_.notify_all();
    }
    // Monitor-evaluation throws are caught *inside* the epoch (quarantine);
    // anything escaping to here — a barrier that failed an invariant, a
    // fault injected into the command loop or the pool dispatch itself —
    // is a coordinator-level violation and poisons the service.  The
    // message is extracted exactly once, here, so the producer-facing
    // ServiceFault never touches the captured exception again.
    try {
      IL_INJECT_FAULT("service.command");
      if (block.front().kind != Command::Kind::Append) {
        apply_barrier(block.front());
      } else {
        run_epoch_batch(block);
        std::lock_guard<std::mutex> lock(mu_);
        states_applied_ += block.size();
        ++epoch_batches_;
        if (block.size() > states_per_batch_max_) states_per_batch_max_ = block.size();
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu_);
      poisoned_ = true;
      error_ = std::current_exception();
      fault_message_ = e.what();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      poisoned_ = true;
      error_ = std::current_exception();
      fault_message_ = "unknown coordinator fault";
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ = false;
      applied_count_ += block.size();
      if (poisoned_) {
        // Wake everyone so blocked producers observe the stored exception.
        applied_.notify_all();
        queue_space_.notify_all();
        return;
      }
    }
    applied_.notify_all();
  }
}

void MonitorService::apply_barrier(Command& cmd) {
  if (cmd.kind == Command::Kind::Register) {
    Slot slot;
    slot.id = cmd.id;
    slot.stream = cmd.stream;
    slot.spec = std::move(cmd.spec);
    slot.env = std::move(cmd.env);
    try {
      slot.build_monitor();
    } catch (...) {
      // Quarantined at birth: the spec failed to build.  The slot still
      // exists — its row slots render Faulted, and reinstate() may retry
      // the build later — and nothing else about the fleet changes.
      slot.state = SlotState::Quarantined;
      slot.fault = std::current_exception();
      slot.faults = 1;
    }
    std::lock_guard<std::mutex> lock(fleet_mu_);
    if (slot.state == SlotState::Quarantined) {
      ++quarantined_;
      ++quarantines_;
    } else {
      ++live_;
    }
    // Ids are minted monotonically and applied in mint order: push_back
    // keeps the table id-ascending.
    slots_.push_back(std::move(slot));
    return;
  }
  const auto find = [&]() {
    return std::lower_bound(slots_.begin(), slots_.end(), cmd.id,
                            [](const Slot& slot, MonitorId id) { return slot.id < id; });
  };
  if (cmd.kind == Command::Kind::Reinstate) {
    enum class Outcome : std::uint8_t { Miss, Refused, Reinstated, Requarantined };
    Outcome outcome = Outcome::Miss;
    {
      std::lock_guard<std::mutex> lock(fleet_mu_);
      const auto it = find();
      if (it != slots_.end() && it->id == cmd.id && it->state == SlotState::Quarantined) {
        Slot& slot = *it;
        // Backoff gate: after the k-th fault the monitor must have sat out
        // 2^(k-1) states of its stream (capped at 2^16), and the retry
        // budget must not be exhausted.
        const std::uint64_t backoff =
            std::uint64_t{1} << std::min<std::uint32_t>(slot.faults > 0 ? slot.faults - 1 : 0, 16);
        if (slot.faults > options_.max_reinstate_attempts ||
            slot.states_since_fault < backoff) {
          outcome = Outcome::Refused;
        } else {
          try {
            slot.build_monitor();
            slot.state = SlotState::Active;
            slot.fault = nullptr;
            slot.states_since_fault = 0;
            ++live_;
            --quarantined_;
            outcome = Outcome::Reinstated;
          } catch (...) {
            // The rebuild itself failed: stay quarantined with the new
            // fault and restart the backoff clock.
            slot.fault = std::current_exception();
            ++slot.faults;
            slot.states_since_fault = 0;
            ++quarantines_;
            outcome = Outcome::Requarantined;
          }
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    switch (outcome) {
      case Outcome::Miss: ++reinstate_misses_; break;
      case Outcome::Refused: ++reinstate_refused_; break;
      case Outcome::Reinstated: ++reinstates_; break;
      case Outcome::Requarantined: break;  // counted as a quarantine above
    }
    return;
  }
  IL_CHECK(cmd.kind == Command::Kind::Retire);
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(fleet_mu_);
    const auto it = find();
    if (it != slots_.end() && it->id == cmd.id && it->state != SlotState::Retired) {
      found = true;
      if (it->state == SlotState::Active) {
        release_monitor_locked(*it);  // tombstone: ranks/lookups stay stable
        --live_;
      } else {
        // Quarantined: stores already freed and counters already folded.
        --quarantined_;
      }
      it->state = SlotState::Retired;
      it->fault = nullptr;
      ++tombstones_;
      if (tombstones_ * 4 > slots_.size()) {
        // Retired fraction exceeds 1/4: sweep the tombstones so a
        // retire-heavy fleet does not hold dead slots forever.
        slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                                    [](const Slot& slot) {
                                      return slot.state == SlotState::Retired;
                                    }),
                     slots_.end());
        tombstones_ = 0;
        ++retired_compactions_;
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (found) {
    ++retired_;
    --resident_;
  } else {
    ++retire_misses_;
  }
}

void MonitorService::release_monitor_locked(Slot& slot) {
  const EvalCache& c = slot.monitor->cache();
  lifetime_.memo_hits += c.hits();
  lifetime_.memo_misses += c.misses();
  lifetime_.memo_inserts += c.inserts();
  const ObligationGraph& g = slot.monitor->obligations();
  lifetime_.obligation_dirtied += g.total_dirtied();
  lifetime_.obligation_recomputed += g.recomputes();
  slot.monitor.reset();
}

void MonitorService::quarantine_locked(Slot& slot, std::exception_ptr fault) {
  release_monitor_locked(slot);  // the retire path's accounting
  slot.state = SlotState::Quarantined;
  slot.fault = std::move(fault);
  ++slot.faults;
  slot.states_since_fault = 0;
  --live_;
  ++quarantined_;
  ++quarantines_;
}

void MonitorService::run_epoch_batch(std::vector<Command>& block) {
  const std::size_t nstates = block.size();

  // Group the block's states by stream, preserving block (= ingest) order.
  // A batch touches few distinct streams, so a linear scan beats a map.
  std::vector<StreamId> batch_streams;
  std::vector<std::vector<std::size_t>> positions;  ///< block indices per stream
  std::vector<std::size_t> stream_of(nstates);      ///< block index -> batch stream index
  for (std::size_t j = 0; j < nstates; ++j) {
    std::size_t si = 0;
    for (; si < batch_streams.size(); ++si) {
      if (batch_streams[si] == block[j].stream) break;
    }
    if (si == batch_streams.size()) {
      batch_streams.push_back(block[j].stream);
      positions.emplace_back();
    }
    positions[si].push_back(j);
    stream_of[j] = si;
  }
  std::vector<std::vector<const State*>> sub_block(batch_streams.size());
  for (std::size_t si = 0; si < batch_streams.size(); ++si) {
    sub_block[si].reserve(positions[si].size());
    for (const std::size_t j : positions[si]) sub_block[si].push_back(&block[j].state);
  }

  std::vector<VerdictRow> rows(nstates);
  {
    std::lock_guard<std::mutex> lock(fleet_mu_);

    // Plan: one pass over the id-ordered table.  Ids ascend, so a running
    // per-stream counter is each subscribed slot's rank — its verdict slot
    // in every row of its stream.  Quarantined slots stay in the plan: they
    // hold their rank and their row slots render Faulted, so every *other*
    // monitor's verdict stream is bit-identical to a fleet that never
    // contained the faulty spec.  The Active slots are the work items.
    struct Planned {
      Slot* slot;
      std::size_t si;    ///< batch stream index
      std::size_t rank;  ///< id-ascending rank within the stream
    };
    std::vector<Planned> plan;
    std::vector<std::size_t> items;  ///< plan indices of the Active slots
    std::vector<std::size_t> stream_live(batch_streams.size(), 0);
    for (Slot& slot : slots_) {
      if (slot.state == SlotState::Retired) continue;
      for (std::size_t si = 0; si < batch_streams.size(); ++si) {
        if (batch_streams[si] != slot.stream) continue;
        if (slot.state == SlotState::Active) items.push_back(plan.size());
        plan.push_back(Planned{&slot, si, stream_live[si]++});
        break;
      }
    }
    for (std::size_t j = 0; j < nstates; ++j) {
      rows[j].stream = block[j].stream;
      rows[j].seq = block[j].seq;
      rows[j].verdicts.resize(stream_live[stream_of[j]]);
    }

    // Fan-out: one work item per Active monitor.  An item writes only its
    // monitor's preassigned row slots and its own outcome — no lock, no
    // shared counter; the fold below does all the bookkeeping.
    struct Outcome {
      std::exception_ptr fault;  ///< append_block threw: quarantine
      std::size_t axioms_failed = 0;
      bool over_budget = false;  ///< footprint over obligation_byte_budget
    };
    std::vector<Outcome> outcomes(items.size());
    const std::size_t budget = options_.obligation_byte_budget;
    const auto body = [&](std::size_t k) {
      const Planned& p = plan[items[k]];
      Monitor& monitor = *p.slot->monitor;
      const std::vector<const State*>& states = sub_block[p.si];
      std::vector<CheckResult> column(states.size());
      {
        // Scope injected faults to this monitor's id, so a site armed with
        // key == MonitorId fires deterministically at any pool width.
        IL_FAULT_SCOPE(p.slot->id);
        try {
          // The whole sub-block in one call: one begin_epoch() pass, one
          // settled-cache pass, per-state verdicts at virtual horizons.
          monitor.append_block(states.data(), states.size(), column.data());
        } catch (...) {
          // Per-monitor fault isolation: the throw stops at the epoch
          // boundary and the fold quarantines the monitor.
          outcomes[k].fault = std::current_exception();
          return;
        }
      }
      for (std::size_t t = 0; t < states.size(); ++t) {
        outcomes[k].axioms_failed += column[t].failed.size();
        // In place: the slot was value-initialized by the row build, so
        // only id/result need stores and no temporary is built.
        ServiceVerdict& v = rows[positions[p.si][t]].verdicts[p.rank];
        v.id = p.slot->id;
        v.result = std::move(column[t]);
      }
      // Byte budget: each verdict pass ended by freeing the records no
      // open record reads, so the footprint is the live set.
      outcomes[k].over_budget = budget != 0 && monitor.footprint_bytes() > budget;
    };
    if (pool_ != nullptr) {
      pool_->run(items.size(), body);
    } else {
      for (std::size_t k = 0; k < items.size(); ++k) body(k);
    }

    // Fold, in id order.  Within a stream that is rank order, so every
    // row's fault payloads come out index-ascending without a sort.
    std::size_t next_item = 0;
    for (const Planned& p : plan) {
      Slot& slot = *p.slot;
      const std::size_t count = sub_block[p.si].size();
      lifetime_.verdicts += count;
      if (slot.state == SlotState::Active) {
        Outcome& outcome = outcomes[next_item++];
        if (outcome.fault == nullptr) {
          lifetime_.axioms_failed += outcome.axioms_failed;
          lifetime_.axioms_checked += slot.monitor->spec().all().size() * count;
          if (outcome.over_budget) {
            // The rows of this epoch are already written, so the
            // quarantine applies from the next epoch on.
            quarantine_locked(slot, std::make_exception_ptr(std::runtime_error(
                                        "monitor exceeded obligation_byte_budget")));
            ++budget_quarantines_;
          }
          continue;
        }
        // Free the stores, park the fault, render the whole failing block
        // Faulted — nobody else notices.
        quarantine_locked(slot, std::move(outcome.fault));
      } else {
        // Quarantined in an earlier epoch: the stream advances without the
        // monitor, so tick the backoff clock.
        slot.states_since_fault += count;
      }
      for (std::size_t t = 0; t < count; ++t) {
        VerdictRow& row = rows[positions[p.si][t]];
        ServiceVerdict& v = row.verdicts[p.rank];
        v.id = slot.id;
        v.result.ok = false;
        row.faults.emplace_back(static_cast<std::uint32_t>(p.rank), slot.fault);
      }
    }
  }

  std::lock_guard<std::mutex> lock(out_mu_);
  rows_.reserve(rows_.size() + rows.size());
  for (VerdictRow& row : rows) rows_.push_back(std::move(row));
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

ServiceStats MonitorService::stats() const {
  ServiceStats out;
  out.threads = threads();
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.streams = streams_.size();
    out.queue_capacity = options_.queue_capacity;
    out.queue_depth = queue_.size();
    out.queue_peak = queue_peak_;
    for (const StreamInfo& stream : streams_) {
      out.states_ingested += static_cast<std::size_t>(stream.next_seq);
    }
    out.states_applied = static_cast<std::size_t>(states_applied_);
    out.epoch_batches = epoch_batches_;
    out.states_per_batch_max = states_per_batch_max_;
    out.monitors_registered = registered_;
    out.monitors_resident = resident_;
    out.monitors_retired = retired_;
    out.retire_misses = retire_misses_;
    out.reinstates = reinstates_;
    out.reinstate_misses = reinstate_misses_;
    out.reinstate_refused = reinstate_refused_;
  }
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    out.rows_pending = rows_.size();
  }
  std::lock_guard<std::mutex> lock(fleet_mu_);
  out.retired_compactions = retired_compactions_;
  out.monitors_quarantined = quarantined_;
  out.quarantines = quarantines_;
  out.budget_quarantines = budget_quarantines_;
  StreamStats& t = out.totals;
  t = lifetime_;
  t.monitors = live_;
  t.threads = out.threads;
  t.states = out.states_applied;
  for (const Slot& slot : slots_) {
    if (slot.monitor == nullptr) continue;
    const EvalCache& c = slot.monitor->cache();
    t.memo_hits += c.hits();
    t.memo_misses += c.misses();
    t.memo_inserts += c.inserts();
    t.memo_entries += c.size();
    t.memo_bytes += c.bytes();
    const ObligationGraph& g = slot.monitor->obligations();
    t.obligation_entries += g.size();
    t.obligation_settled += g.settled_count();
    t.obligation_open += g.open_count();
    t.obligation_edges += g.edges();
    t.obligation_bytes += g.bytes();
    t.obligation_dirtied += g.total_dirtied();
    t.obligation_recomputed += g.recomputes();
    t.obligation_index_nodes += g.index_nodes();
    t.obligation_index_stabs += g.epoch();
    t.obligation_index_visited += g.touched_total();
    t.obligation_index_touched += g.touched_total();
    t.gc_sweeps += g.gc_sweeps();
    t.gc_freed += g.gc_freed();
    t.gc_freed_bytes += g.gc_freed_bytes();
    t.gc_orphans += g.orphan_unlinks();
  }
  return out;
}

void MonitorService::dump(std::ostream& os) const {
  const ServiceStats s = stats();
  KvWriter kv(os);
  KvWriter service = kv.scoped("service");
  service.emit("threads", s.threads);
  service.emit("streams", s.streams);
  service.emit("queue_capacity", s.queue_capacity);
  service.emit("queue_depth", s.queue_depth);
  service.emit("queue_peak", s.queue_peak);
  service.emit("states_ingested", s.states_ingested);
  service.emit("states_applied", s.states_applied);
  service.emit("epoch_batches", s.epoch_batches);
  service.emit("states_per_batch_max", s.states_per_batch_max);
  service.emit("rows_pending", s.rows_pending);
  service.emit("monitors_registered", s.monitors_registered);
  service.emit("monitors_resident", s.monitors_resident);
  service.emit("monitors_retired", s.monitors_retired);
  service.emit("retire_misses", s.retire_misses);
  service.emit("retired_compactions", s.retired_compactions);
  service.emit("monitors_quarantined", s.monitors_quarantined);
  service.emit("quarantines", s.quarantines);
  service.emit("reinstates", s.reinstates);
  service.emit("reinstate_misses", s.reinstate_misses);
  service.emit("reinstate_refused", s.reinstate_refused);
  service.emit("budget_quarantines", s.budget_quarantines);
  dump_counters(kv.scoped("fleet"), s.totals);
}

}  // namespace engine
}  // namespace il
