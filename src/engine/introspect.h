// Debugfs-style introspection for the engine: every counter family renders
// as stable `key value` lines an operator (or a script) can watch live, in
// the spirit of the mv88e6xxx register dumps — one counter per line, dotted
// hierarchical keys, values in decimal, nothing else.  The format is a
// contract: keys are emitted in a fixed order, every line matches
// `^[a-z0-9_.]+ [0-9]+$`, and tests/test_monitor_service.cpp pins it with a
// golden dump.
//
// The source is the fleet's StreamStats snapshot (engine.h,
// ServiceStats::totals), which MonitorService::dump() renders under
// `fleet.`.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "engine/engine.h"

namespace il::engine {

/// Writes `key value` lines under a dotted prefix.  Copyable and cheap:
/// scoped("memo") returns a writer whose lines read `<prefix>memo.<key>`.
class KvWriter {
 public:
  explicit KvWriter(std::ostream& os, std::string prefix = "");

  /// A writer for the nested group `<prefix><group>.`.
  KvWriter scoped(const std::string& group) const;

  void emit(const std::string& key, std::uint64_t value);

 private:
  std::ostream* os_;
  std::string prefix_;
};

/// Renders a fleet's stream counters (fixed key order, one key per field).
void dump_counters(KvWriter kv, const StreamStats& stats);

}  // namespace il::engine
