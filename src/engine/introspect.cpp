#include "engine/introspect.h"

namespace il::engine {

KvWriter::KvWriter(std::ostream& os, std::string prefix) : os_(&os), prefix_(std::move(prefix)) {}

KvWriter KvWriter::scoped(const std::string& group) const {
  return KvWriter(*os_, prefix_ + group + ".");
}

void KvWriter::emit(const std::string& key, std::uint64_t value) {
  *os_ << prefix_ << key << ' ' << value << '\n';
}

void dump_counters(KvWriter kv, const StreamStats& stats) {
  KvWriter eng = kv.scoped("engine");
  eng.emit("monitors", stats.monitors);
  eng.emit("threads", stats.threads);
  eng.emit("states", stats.states);
  eng.emit("verdicts", stats.verdicts);
  eng.emit("axioms_checked", stats.axioms_checked);
  eng.emit("axioms_failed", stats.axioms_failed);
  KvWriter memo = kv.scoped("memo");
  memo.emit("hits", stats.memo_hits);
  memo.emit("misses", stats.memo_misses);
  memo.emit("inserts", stats.memo_inserts);
  memo.emit("entries", stats.memo_entries);
  memo.emit("bytes", stats.memo_bytes);
  KvWriter ob = kv.scoped("obligation");
  ob.emit("entries", stats.obligation_entries);
  ob.emit("settled", stats.obligation_settled);
  ob.emit("open", stats.obligation_open);
  ob.emit("edges", stats.obligation_edges);
  ob.emit("bytes", stats.obligation_bytes);
  ob.emit("dirtied", stats.obligation_dirtied);
  ob.emit("recomputed", stats.obligation_recomputed);
  KvWriter idx = kv.scoped("obligation_index");
  idx.emit("nodes", stats.obligation_index_nodes);
  idx.emit("touched", stats.obligation_index_touched);
  KvWriter gc = kv.scoped("gc");
  gc.emit("sweeps", stats.gc_sweeps);
  gc.emit("freed", stats.gc_freed);
  gc.emit("freed_bytes", stats.gc_freed_bytes);
  gc.emit("orphans", stats.gc_orphans);
}

}  // namespace il::engine
