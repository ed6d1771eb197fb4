// The seeded input generator: every input the benchmark feeds the library
// is a pure function of the --seed argument.
//
//   Fleet inputs — streams of case-study systems (mutex, queue,
//   alternating-bit, self-timed request/ack, arbiter), each a pool of
//   simulator sessions (about one in eight from the system's buggy variant)
//   and a pool of monitor sources: case-study specs plus generated
//   interval-logic formulas over the stream's own variables.  Every session
//   starts a fresh monitor set: the case-study specs and the next slice of
//   the generated pool.  Streams cycle through their session pool; a replayed
//   session is an independent input with known verdicts.
//
//   LTL corpus — batches of propositional temporal formulas drawn from a
//   fixed universe of distinct generated formulas.  Batches come in epochs;
//   about half of each batch repeats formulas of earlier batches of its
//   epoch.  The bounded universe keeps memory independent of how many
//   batches a run gets through.
//
// Formulas are produced as text: parsing them is work the benchmark times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/check.h"
#include "rng.h"
#include "trace/state.h"

namespace perfbench {

enum class System : std::uint8_t { Mutex, Queue, Ab, SelfTimed, Arbiter };
constexpr std::size_t kSystems = 5;

/// Monitor families: one per case-study spec, plus generated formulas.
enum class Family : std::uint8_t { Mutex, Queue, AbSend, AbRecv, SelfTimed, Arbiter, Generated };
constexpr std::size_t kFamilies = 7;

const char* system_name(System s);
const char* family_name(Family f);

/// Prefix of the axiom a buggy session of a case-study family must violate
/// ("" for Family::Generated, which has no known violation).
const char* known_violation(Family f);

/// One monitor registered at every session start of a stream.
struct MonitorSource {
  Family family = Family::Generated;
  std::string name;                 ///< spec name
  std::vector<std::string> axioms;  ///< formula texts (generated family only)
};

struct Session {
  std::vector<il::State> states;
  bool buggy = false;
};

struct StreamPlan {
  System system = System::Mutex;
  std::string name;
  std::size_t domain = 0;  ///< processes / values / messages of the case-study spec
  std::vector<MonitorSource> monitors;  ///< case-study sources, then the generated pool
  std::size_t generated_per_session = 0;
  std::vector<Session> sessions;  ///< cycled in order
};

/// Indices into plan.monitors of the monitors registered at the start of
/// the stream's `session`-th session (counting from 0, across pool cycles):
/// every case-study source, then the next slice of the generated pool.
std::vector<std::size_t> session_monitors(const StreamPlan& plan, std::size_t session);

struct FleetInputs {
  std::vector<StreamPlan> streams;
  std::uint64_t digest = 0;
};

/// Five streams of longer sessions; case-study specs plus two-axiom
/// generated specs.
FleetInputs saturate_inputs(std::uint64_t seed);
/// Sixteen streams of short sessions, a few one-axiom safety specs each.
FleetInputs open_inputs(std::uint64_t seed);

/// The Spec a monitor source denotes.  Parses: the benchmark calls it
/// during set-up, never inside a timed window.
il::Spec build_spec(const MonitorSource& source, const StreamPlan& plan);

/// Formulas per decide_corpus batch (four decision jobs each).
constexpr std::size_t kCorpusBatch = 64;
/// Distinct formulas the corpus draws from.
constexpr std::size_t kCorpusUniverse = 4096;
/// Batches per epoch.
constexpr std::size_t kEpochBatches = 64;

/// Generated LTL formula texts, batch by batch.  Deterministic in the seed
/// and the batch index.
class LtlCorpus {
 public:
  explicit LtlCorpus(std::uint64_t seed);

  /// True when the next batch opens an epoch: the workload starts a fresh
  /// arena and an empty decision cache there.
  bool at_epoch_start() const { return batches_ % kEpochBatches == 0; }
  std::vector<std::string> next_batch();

  const std::vector<std::string>& universe() const { return universe_; }

 private:
  std::string formula();

  Rng rng_;
  std::vector<std::string> universe_;
  std::size_t batches_ = 0;
  std::vector<std::size_t> epoch_;  ///< universe indices drawn fresh this epoch
};

/// Digest of the first `batches` corpus batches for `seed`.
std::uint64_t corpus_digest(std::uint64_t seed, std::size_t batches);

}  // namespace perfbench
