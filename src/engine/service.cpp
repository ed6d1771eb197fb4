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

/// Monitors live in the shard owning their id (id % shards).  The shard
/// mutex covers the slot vector and the counters, so a dump_shard() between
/// epochs reads one consistent snapshot.
///
/// Slots are id-ascending by construction: ids are minted monotonically and
/// Register commands apply in queue (= mint) order.  retire() tombstones
/// the slot in place (binary search by id) instead of erasing, so the
/// vector never shifts under an id lookup; once tombstones exceed 1/4 of
/// the slots the vector is compacted in one sweep (retired_compactions).
struct MonitorService::Shard {
  /// Slot lifecycle.  Retired slots are tombstones awaiting the compaction
  /// sweep and drop out of every epoch plan.  Quarantined slots also hold
  /// no monitor, but they stay in the plan — their row slots render
  /// Verdict::Faulted — and may be reinstate()d.
  enum class SlotState : std::uint8_t { Active, Quarantined, Retired };

  struct Slot {
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
  };

  mutable std::mutex mu;
  std::vector<Slot> monitors;  ///< id order = deterministic row order
  std::size_t live = 0;        ///< slots with a resident monitor
  std::size_t tombstones = 0;
  std::size_t retired_compactions = 0;  ///< tombstone sweeps, lifetime
  std::size_t quarantined = 0;  ///< slots in SlotState::Quarantined (gauge)
  std::size_t quarantines = 0;  ///< quarantine events, lifetime
  std::size_t budget_quarantines = 0;  ///< over the byte budget

  // Stream counters (lifetime; survive retirement).
  std::size_t states = 0;
  std::size_t verdicts = 0;
  std::size_t axioms_checked = 0;
  std::size_t axioms_failed = 0;

  // Lifetime cache/graph counters inherited from retired monitors, so the
  // shard's hit/miss history is monotone while the resident entries
  // (gauges) drop to zero with the retirement.
  std::size_t retired_memo_hits = 0;
  std::size_t retired_memo_misses = 0;
  std::size_t retired_memo_inserts = 0;
  std::size_t retired_obligation_dirtied = 0;
  std::size_t retired_obligation_recomputed = 0;

  /// Builds the slot's Monitor from its registration inputs — the
  /// "service.register" fault site, shared by Register and Reinstate.
  /// Throws if the spec fails to build; the slot is then left without one.
  static void build_monitor(Slot& slot) {
    IL_FAULT_SCOPE(slot.id);
    IL_INJECT_FAULT("service.register");
    slot.monitor = std::make_unique<Monitor>(slot.spec, slot.env);
  }

  /// Folds the slot's monitor's lifetime cache/graph counters into the
  /// retired_* accumulators, then frees the monitor (its obligation graph
  /// and settled cache).  The counters stay monotone while the resident
  /// gauges drop with the freed stores.  Caller holds mu.
  void release_monitor(Slot& slot) {
    const EvalCache& c = slot.monitor->cache();
    retired_memo_hits += c.hits();
    retired_memo_misses += c.misses();
    retired_memo_inserts += c.inserts();
    const ObligationGraph& g = slot.monitor->obligations();
    retired_obligation_dirtied += g.total_dirtied();
    retired_obligation_recomputed += g.recomputes();
    slot.monitor.reset();
  }
};

MonitorService::MonitorService(Options options) : options_(options) {
  IL_REQUIRE(options_.queue_capacity >= 1, "MonitorService needs a queue capacity of at least 1");
  IL_REQUIRE(options_.max_epoch_batch >= 1, "MonitorService needs max_epoch_batch >= 1");
  max_batch_ = options_.max_epoch_batch;
  const std::size_t threads = detail::effective_pool(~std::size_t{0}, options_.num_threads);
  std::size_t shards = options_.num_shards;
  if (shards == 0) shards = threads;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
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
    Shard& sh = *shards_[cmd.id % shards_.size()];
    Shard::Slot slot;
    slot.id = cmd.id;
    slot.stream = cmd.stream;
    slot.spec = std::move(cmd.spec);
    slot.env = std::move(cmd.env);
    try {
      Shard::build_monitor(slot);
    } catch (...) {
      // Quarantined at birth: the spec failed to build.  The slot still
      // exists — its row slots render Faulted, and reinstate() may retry
      // the build later — and nothing else about the fleet changes.
      slot.state = Shard::SlotState::Quarantined;
      slot.fault = std::current_exception();
      slot.faults = 1;
    }
    const bool born_quarantined = slot.state == Shard::SlotState::Quarantined;
    std::lock_guard<std::mutex> lock(sh.mu);
    // Ids are minted monotonically and applied in mint order: push_back
    // keeps the vector id-ascending.
    sh.monitors.push_back(std::move(slot));
    if (born_quarantined) {
      ++sh.quarantined;
      ++sh.quarantines;
    } else {
      ++sh.live;
    }
    return;
  }
  if (cmd.kind == Command::Kind::Reinstate) {
    Shard& sh = *shards_[cmd.id % shards_.size()];
    enum class Outcome : std::uint8_t { Miss, Refused, Reinstated, Requarantined };
    Outcome outcome = Outcome::Miss;
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      auto it = std::lower_bound(
          sh.monitors.begin(), sh.monitors.end(), cmd.id,
          [](const Shard::Slot& slot, MonitorId id) { return slot.id < id; });
      if (it != sh.monitors.end() && it->id == cmd.id &&
          it->state == Shard::SlotState::Quarantined) {
        Shard::Slot& slot = *it;
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
            Shard::build_monitor(slot);
            slot.state = Shard::SlotState::Active;
            slot.fault = nullptr;
            slot.states_since_fault = 0;
            ++sh.live;
            --sh.quarantined;
            outcome = Outcome::Reinstated;
          } catch (...) {
            // The rebuild itself failed: stay quarantined with the new
            // fault and restart the backoff clock.
            slot.fault = std::current_exception();
            ++slot.faults;
            slot.states_since_fault = 0;
            ++sh.quarantines;
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
  Shard& sh = *shards_[cmd.id % shards_.size()];
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = std::lower_bound(
        sh.monitors.begin(), sh.monitors.end(), cmd.id,
        [](const Shard::Slot& slot, MonitorId id) { return slot.id < id; });
    if (it != sh.monitors.end() && it->id == cmd.id &&
        it->state != Shard::SlotState::Retired) {
      found = true;
      if (it->state == Shard::SlotState::Active) {
        sh.release_monitor(*it);  // tombstone: ranks/lookups stay stable
        --sh.live;
      } else {
        // Quarantined: stores already freed and counters already folded.
        --sh.quarantined;
      }
      it->state = Shard::SlotState::Retired;
      it->fault = nullptr;
      ++sh.tombstones;
      if (sh.tombstones * 4 > sh.monitors.size()) {
        // Retired fraction exceeds 1/4: sweep the tombstones so a
        // retire-heavy fleet does not hold dead slots forever.
        sh.monitors.erase(
            std::remove_if(sh.monitors.begin(), sh.monitors.end(),
                           [](const Shard::Slot& slot) {
                             return slot.state == Shard::SlotState::Retired;
                           }),
            sh.monitors.end());
        sh.tombstones = 0;
        ++sh.retired_compactions;
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

void MonitorService::quarantine_slot_locked(Shard& sh, std::size_t slot_index,
                                            std::exception_ptr fault) {
  Shard::Slot& slot = sh.monitors[slot_index];
  sh.release_monitor(slot);  // the retire path's accounting
  slot.state = Shard::SlotState::Quarantined;
  slot.fault = std::move(fault);
  ++slot.faults;
  slot.states_since_fault = 0;
  --sh.live;
  ++sh.quarantined;
  ++sh.quarantines;
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

  // Membership snapshot and row-slot ranks.  Only the coordinator mutates
  // shard membership (Register/Retire are barriers applied on this thread),
  // so the slot vectors can be read without the shard locks here; the
  // ranks fix each monitor's verdict slot in every row of its stream, so
  // the shard tasks below write disjoint slots concurrently and no
  // post-epoch sort is needed.
  struct WorkItem {
    std::size_t slot = 0;  ///< index into the shard's monitor vector
    std::size_t si = 0;    ///< batch stream index
    std::size_t rank = 0;  ///< id-ascending rank within the stream
  };
  struct Candidate {
    MonitorId id;
    std::size_t shard;
    std::size_t slot;
    std::size_t si;
  };
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = *shards_[i];
    for (std::size_t k = 0; k < sh.monitors.size(); ++k) {
      const Shard::Slot& slot = sh.monitors[k];
      // Quarantined slots stay in the plan: they hold their rank and their
      // row slots render Faulted, so every *other* monitor's verdict stream
      // is bit-identical to a fleet that never contained the faulty spec.
      if (slot.state == Shard::SlotState::Retired) continue;
      for (std::size_t si = 0; si < batch_streams.size(); ++si) {
        if (batch_streams[si] == slot.stream) {
          candidates.push_back(Candidate{slot.id, i, k, si});
          break;
        }
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.id < b.id; });
  std::vector<std::size_t> stream_live(batch_streams.size(), 0);
  std::vector<std::vector<WorkItem>> plan(shards_.size());
  for (const Candidate& c : candidates) {
    plan[c.shard].push_back(WorkItem{c.slot, c.si, stream_live[c.si]++});
  }

  std::vector<VerdictRow> rows(nstates);
  for (std::size_t j = 0; j < nstates; ++j) {
    rows[j].stream = block[j].stream;
    rows[j].seq = block[j].seq;
    rows[j].verdicts.resize(stream_live[stream_of[j]]);
  }

  // One work item per *dirty* shard: a shard with no monitor on any of the
  // block's streams is never locked, never woken for, never touched.
  std::vector<std::size_t> dirty;
  dirty.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!plan[i].empty()) dirty.push_back(i);
  }

  const std::size_t budget = options_.obligation_byte_budget;
  // Fault payloads are collected per dirty shard and folded into the rows
  // after the epoch: the shard tasks keep writing disjoint preassigned row
  // slots, and the (rare) exception_ptr traffic stays off the healthy path.
  struct FaultMark {
    std::size_t row;      ///< index into rows
    std::uint32_t rank;   ///< index into that row's verdicts
    std::exception_ptr fault;
  };
  std::vector<std::vector<FaultMark>> marks(dirty.size());
  const auto body = [&](std::size_t k) {
    Shard& sh = *shards_[dirty[k]];
    std::lock_guard<std::mutex> lock(sh.mu);
    std::vector<CheckResult> column;
    std::vector<char> touched(batch_streams.size(), 0);
    // Fills every row slot of a (possibly mid-block) faulted monitor.
    const auto emit_faulted = [&](const Shard::Slot& slot, const WorkItem& w,
                                  std::size_t count) {
      for (std::size_t t = 0; t < count; ++t) {
        ServiceVerdict& v = rows[positions[w.si][t]].verdicts[w.rank];
        v.id = slot.id;
        v.result.ok = false;
        marks[k].push_back(FaultMark{positions[w.si][t],
                                     static_cast<std::uint32_t>(w.rank),
                                     slot.fault});
      }
      sh.verdicts += count;
    };
    for (const WorkItem& w : plan[dirty[k]]) {
      Shard::Slot& slot = sh.monitors[w.slot];
      const std::vector<const State*>& states = sub_block[w.si];
      touched[w.si] = 1;
      if (slot.state == Shard::SlotState::Quarantined) {
        // The stream advances without the monitor: tick the backoff clock
        // and render the slot's rows as Faulted.
        slot.states_since_fault += states.size();
        emit_faulted(slot, w, states.size());
        continue;
      }
      column.clear();
      column.resize(states.size());
      bool threw = false;
      {
        // Scope injected faults to this monitor's id, so a site armed with
        // key == MonitorId fires deterministically at any pool width.
        IL_FAULT_SCOPE(slot.id);
        try {
          // The whole sub-block in one call: one begin_epoch() pass, one
          // settled-cache pass, per-state verdicts at virtual horizons.
          slot.monitor->append_block(states.data(), states.size(), column.data());
        } catch (...) {
          // Per-monitor fault isolation: the throw stops at the epoch
          // boundary.  Free the stores, park the fault, render the whole
          // failing block Faulted — nobody else notices.
          threw = true;
          quarantine_slot_locked(sh, w.slot, std::current_exception());
        }
      }
      if (threw) {
        emit_faulted(slot, w, states.size());
        continue;
      }
      for (std::size_t t = 0; t < states.size(); ++t) {
        sh.axioms_failed += column[t].failed.size();
        // In place: the slot was value-initialized by the row build, so
        // only id/result need stores and no temporary is built.
        ServiceVerdict& v = rows[positions[w.si][t]].verdicts[w.rank];
        v.id = slot.id;
        v.result = std::move(column[t]);
      }
      sh.axioms_checked += slot.monitor->spec().all().size() * states.size();
      sh.verdicts += states.size();
      // Byte budget: each verdict pass ended by freeing the records no
      // open record reads, so the footprint is the live set and a monitor
      // over budget is quarantined.  The rows of this epoch are already
      // written, so the quarantine applies from the next epoch on.
      if (budget != 0 && slot.monitor->footprint_bytes() > budget) {
        quarantine_slot_locked(sh, w.slot,
                               std::make_exception_ptr(std::runtime_error(
                                   "monitor exceeded obligation_byte_budget")));
        ++sh.budget_quarantines;
      }
    }
    for (std::size_t si = 0; si < batch_streams.size(); ++si) {
      if (touched[si]) sh.states += sub_block[si].size();
    }
  };
  if (pool_ != nullptr && dirty.size() > 1) {
    pool_->run(dirty.size(), body);
  } else {
    // Inline: in-order execution, so the first throw is the lowest index —
    // the same contract the pool provides.
    for (std::size_t k = 0; k < dirty.size(); ++k) body(k);
  }

  // Fold the per-shard fault marks into their rows, then order each touched
  // row's payloads rank-ascending so drain() output is independent of shard
  // layout and pool width.
  for (std::vector<FaultMark>& list : marks) {
    for (FaultMark& m : list) {
      rows[m.row].faults.emplace_back(m.rank, std::move(m.fault));
    }
  }
  for (VerdictRow& row : rows) {
    if (row.faults.size() > 1) {
      std::sort(row.faults.begin(), row.faults.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
    }
  }

  std::lock_guard<std::mutex> lock(out_mu_);
  rows_.reserve(rows_.size() + rows.size());
  for (VerdictRow& row : rows) rows_.push_back(std::move(row));
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

StreamStats MonitorService::shard_stats_locked(const Shard& sh) const {
  StreamStats out;
  out.monitors = sh.live;
  out.threads = threads();
  out.states = sh.states;
  out.verdicts = sh.verdicts;
  out.axioms_checked = sh.axioms_checked;
  out.axioms_failed = sh.axioms_failed;
  out.memo_hits = sh.retired_memo_hits;
  out.memo_misses = sh.retired_memo_misses;
  out.memo_inserts = sh.retired_memo_inserts;
  out.obligation_dirtied = sh.retired_obligation_dirtied;
  out.obligation_recomputed = sh.retired_obligation_recomputed;
  for (const Shard::Slot& slot : sh.monitors) {
    if (slot.monitor == nullptr) continue;
    const EvalCache& c = slot.monitor->cache();
    out.memo_hits += c.hits();
    out.memo_misses += c.misses();
    out.memo_inserts += c.inserts();
    out.memo_entries += c.size();
    out.memo_bytes += c.bytes();
    const ObligationGraph& g = slot.monitor->obligations();
    out.obligation_entries += g.size();
    out.obligation_settled += g.settled_count();
    out.obligation_open += g.open_count();
    out.obligation_edges += g.edges();
    out.obligation_bytes += g.bytes();
    out.obligation_dirtied += g.total_dirtied();
    out.obligation_recomputed += g.recomputes();
    out.obligation_index_nodes += g.index_nodes();
    out.obligation_index_stabs += g.epoch();
    out.obligation_index_visited += g.touched_total();
    out.obligation_index_touched += g.touched_total();
    out.gc_sweeps += g.gc_sweeps();
    out.gc_freed += g.gc_freed();
    out.gc_freed_bytes += g.gc_freed_bytes();
    out.gc_orphans += g.orphan_unlinks();
  }
  return out;
}

StreamStats MonitorService::shard_stats(std::size_t shard) const {
  IL_REQUIRE(shard < shards_.size(), "shard index out of range");
  const Shard& sh = *shards_[shard];
  std::lock_guard<std::mutex> lock(sh.mu);
  return shard_stats_locked(sh);
}

ServiceStats MonitorService::stats() const {
  ServiceStats out;
  out.shards = shards_.size();
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
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = *shards_[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    const StreamStats ss = shard_stats_locked(sh);
    out.retired_compactions += sh.retired_compactions;
    out.monitors_quarantined += sh.quarantined;
    out.quarantines += sh.quarantines;
    out.budget_quarantines += sh.budget_quarantines;
    out.totals.monitors += ss.monitors;
    out.totals.verdicts += ss.verdicts;
    out.totals.axioms_checked += ss.axioms_checked;
    out.totals.axioms_failed += ss.axioms_failed;
    out.totals.memo_hits += ss.memo_hits;
    out.totals.memo_misses += ss.memo_misses;
    out.totals.memo_inserts += ss.memo_inserts;
    out.totals.memo_entries += ss.memo_entries;
    out.totals.memo_bytes += ss.memo_bytes;
    out.totals.obligation_entries += ss.obligation_entries;
    out.totals.obligation_settled += ss.obligation_settled;
    out.totals.obligation_open += ss.obligation_open;
    out.totals.obligation_edges += ss.obligation_edges;
    out.totals.obligation_bytes += ss.obligation_bytes;
    out.totals.obligation_dirtied += ss.obligation_dirtied;
    out.totals.obligation_recomputed += ss.obligation_recomputed;
    out.totals.obligation_index_nodes += ss.obligation_index_nodes;
    out.totals.obligation_index_stabs += ss.obligation_index_stabs;
    out.totals.obligation_index_visited += ss.obligation_index_visited;
    out.totals.obligation_index_touched += ss.obligation_index_touched;
    out.totals.gc_sweeps += ss.gc_sweeps;
    out.totals.gc_freed += ss.gc_freed;
    out.totals.gc_freed_bytes += ss.gc_freed_bytes;
    out.totals.gc_orphans += ss.gc_orphans;
  }
  // A shard's `states` gauge counts the states that actually touched it, so
  // the fleet-level figure is the service's own applied count.
  out.totals.threads = out.threads;
  out.totals.states = out.states_applied;
  return out;
}

void MonitorService::dump(std::ostream& os) const {
  const ServiceStats s = stats();
  KvWriter kv(os);
  KvWriter service = kv.scoped("service");
  service.emit("shards", s.shards);
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
  for (std::size_t i = 0; i < shards_.size(); ++i) dump_shard(i, os);
}

void MonitorService::dump_shard(std::size_t shard, std::ostream& os) const {
  IL_REQUIRE(shard < shards_.size(), "shard index out of range");
  const Shard& sh = *shards_[shard];
  // One lock for the whole section: a shard dump is a consistent snapshot
  // taken between epochs touching this shard.
  std::lock_guard<std::mutex> lock(sh.mu);
  const StreamStats ss = shard_stats_locked(sh);
  KvWriter kv(os, "shard" + std::to_string(shard) + ".");
  dump_counters(kv, ss);
  kv.emit("retired_compactions", sh.retired_compactions);
  kv.emit("quarantined", sh.quarantined);
  kv.emit("quarantines", sh.quarantines);
  kv.emit("budget_quarantines", sh.budget_quarantines);
}

}  // namespace engine
}  // namespace il
