#include "core/memo.h"

#include <algorithm>
#include <iterator>

#include "core/intern.h"
#include "util/assert.h"

namespace il {

namespace {

constexpr std::size_t kInitialSlots = 1u << 10;
/// Maximum load factor: the table doubles once count exceeds 70% of slots.
constexpr std::size_t kLoadNum = 7;
constexpr std::size_t kLoadDen = 10;

inline std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer: cheap and well distributed for packed keys.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Calls fn(meta, value) for each binding of `env` on one of the sorted
/// `metas` (a linear merge), while fn returns true.  Returns false if fn
/// stopped the walk.
template <typename Fn>
bool for_each_observed(const std::vector<std::uint32_t>& metas, const Env& env, Fn&& fn) {
  if (metas.empty() || env.empty()) return true;
  const auto& bound = env.bindings();
  std::size_t bi = 0;
  for (std::uint32_t meta : metas) {
    while (bi < bound.size() && bound[bi].first < meta) ++bi;
    if (bi == bound.size()) break;
    if (bound[bi].first != meta) continue;
    if (!fn(meta, bound[bi].second)) return false;
  }
  return true;
}

}  // namespace

// The slot array is allocated lazily on the first store: short-lived caches
// (e.g. one Monitor::current() call) should not pay for zeroing a table.
EvalCache::EvalCache() = default;

std::size_t EvalCache::hash_key(const Key& k) {
  std::uint64_t h = mix64((static_cast<std::uint64_t>(k.node) << 32) ^ k.trace);
  h ^= mix64(k.lo + 0x100000001b3ull * k.hi);
  h ^= mix64((static_cast<std::uint64_t>(k.op) << 8) | k.n_env);
  for (std::uint8_t i = 0; i < k.n_env; ++i) {
    h ^= mix64((static_cast<std::uint64_t>(k.metas[i]) << 32) ^
               static_cast<std::uint64_t>(k.values[i]));
  }
  return static_cast<std::size_t>(h);
}

std::size_t EvalCache::probe(const Key& key) const {
  std::size_t i = hash_key(key) & mask_;
  for (;;) {
    const Slot& slot = slots_[i];
    if (!slot.used || slot.key == key) return i;
    i = (i + 1) & mask_;
  }
}

const EvalCache::Entry* EvalCache::lookup(const Key& key) {
  if (slots_.empty()) {
    ++misses_;
    return nullptr;
  }
  const std::size_t i = probe(key);
  if (!slots_[i].used) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &slots_[i].entry;
}

void EvalCache::store(const Key& key, const Entry& entry) {
  if (capacity_ != 0 && count_ >= capacity_) return;
  if (slots_.empty()) {
    slots_.assign(kInitialSlots, Slot{});
    mask_ = kInitialSlots - 1;
  }
  if ((count_ + 1) * kLoadDen > slots_.size() * kLoadNum) grow();
  Slot& slot = slots_[probe(key)];
  if (slot.used) return;  // already present (racing store after a hit)
  slot.key = key;
  slot.entry = entry;
  slot.used = true;
  ++count_;
  ++inserts_;
}

void EvalCache::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (Slot& slot : old) {
    if (!slot.used) continue;
    slots_[probe(slot.key)] = std::move(slot);
  }
}

void EvalCache::clear() {
  slots_.clear();
  slots_.shrink_to_fit();
  mask_ = 0;
  count_ = 0;
  hits_ = 0;
  misses_ = 0;
  inserts_ = 0;
  env_overflows_ = 0;
}

bool restrict_env_span(const std::vector<std::uint32_t>& metas, const Env& env,
                       std::uint8_t& n_env, std::uint32_t* metas_out,
                       std::int64_t* values_out) {
  n_env = 0;
  return for_each_observed(metas, env, [&](std::uint32_t meta, std::int64_t value) {
    if (n_env == EvalCache::kMaxEnv) return false;
    metas_out[n_env] = meta;
    values_out[n_env] = value;
    ++n_env;
    return true;
  });
}

// ---------------------------------------------------------------------------
// ObligationGraph
// ---------------------------------------------------------------------------

std::size_t ObligationGraph::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = mix64((static_cast<std::uint64_t>(k.node) << 8) |
                          static_cast<std::uint64_t>(k.op));
  h ^= mix64(k.lo + 0x9e3779b97f4a7c15ull * k.n_env);
  for (std::size_t i = 0; i < k.inline_len(); ++i) {
    h ^= mix64((static_cast<std::uint64_t>(k.metas[i]) << 32) ^
               static_cast<std::uint64_t>(k.values[i]));
  }
  return static_cast<std::size_t>(h);
}

void ObligationGraph::seed_and_close(std::vector<ObId>& stack) {
  // Change propagation: everything the seed set can reach through the
  // reverse-dependency index must re-settle.  Only open records hold edges
  // (on_settle drops a settling record's, free_record a freed one's), so
  // settled obligations are firewalls by construction: the closure never
  // reaches them, and stays proportional to the open frontier.
  while (!stack.empty()) {
    const ObId child = stack.back();
    stack.pop_back();
    for (const ObId parent : reverse_[child]) {
      Obligation& ob = obligations_[parent];
      if (ob.dirty) continue;
      ob.dirty = true;
      ++last_dirtied_;
      ++total_dirtied_;
      stack.push_back(parent);
    }
  }
}

void ObligationGraph::begin_epoch() {
  ++epoch_;
  last_dirtied_ = 0;
  walk_stack_.clear();
  // Every open reader's window [lo, inf) contains the new horizon, so the
  // whole list seeds the dirty closure; everything else is untouched.  The
  // closure only marks records, so walk order cannot change the outcome.
  last_touched_ = readers_.size();
  touched_total_ += readers_.size();
  for (const ObId id : readers_) {
    Obligation& ob = obligations_[id];
    if (ob.dirty) continue;
    ob.dirty = true;
    ++last_dirtied_;
    ++total_dirtied_;
    walk_stack_.push_back(id);
  }
  seed_and_close(walk_stack_);
}

ObligationGraph::Key ObligationGraph::key(std::uint32_t node, Op op, std::uint64_t lo,
                                          const std::vector<std::uint32_t>& metas,
                                          const Env& env) {
  Key k;
  k.node = node;
  k.op = op;
  k.lo = lo;
  if (restrict_env_span(metas, env, k.n_env, k.metas, k.values)) return k;
  std::vector<std::pair<std::uint32_t, std::int64_t>> span;
  for_each_observed(metas, env, [&](std::uint32_t meta, std::int64_t value) {
    span.emplace_back(meta, value);
    return true;
  });
  IL_CHECK(span.size() <= 0xff, "too many observed bindings for one key");
  std::fill(std::begin(k.metas), std::end(k.metas), 0u);
  std::fill(std::begin(k.values), std::end(k.values), 0);
  k.n_env = static_cast<std::uint8_t>(span.size());
  const std::int64_t next = static_cast<std::int64_t>(spans_.size());
  k.values[0] = spans_.emplace(std::move(span), next).first->second;
  return k;
}

ObligationGraph::ObId ObligationGraph::obtain(const Key& key) {
  const auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  ObId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    Obligation& ob = obligations_[id];
    ob = Obligation{};
    ob.key = key;
  } else {
    id = static_cast<ObId>(obligations_.size());
    Obligation ob;
    ob.key = key;
    obligations_.push_back(std::move(ob));
    reverse_.emplace_back();
  }
  index_.emplace(key, id);
  return id;
}

void ObligationGraph::touch_horizon(ObId id) {
  Obligation& ob = obligations_[id];
  if (ob.reader_pos != kNoOb || ob.settled) return;
  // Once is enough: the window [key.lo, inf) contains every later horizon,
  // so the registration never has to move.
  ob.reader_pos = static_cast<ObId>(readers_.size());
  readers_.push_back(id);
}

void ObligationGraph::remove_reader(Obligation& ob) {
  if (ob.reader_pos == kNoOb) return;
  const ObId moved = readers_.back();
  readers_[ob.reader_pos] = moved;
  obligations_[moved].reader_pos = ob.reader_pos;
  readers_.pop_back();
  ob.reader_pos = kNoOb;
}

void ObligationGraph::on_settle(ObId id) {
  Obligation& ob = obligations_[id];
  remove_reader(ob);
  // Only a recomputation reads the open positions and the children, and a
  // settled record is never recomputed.
  std::vector<std::uint64_t>().swap(ob.open_positions);
  drop_deps(id);
}

void ObligationGraph::erase_from(std::vector<ObId>& v, ObId id) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] == id) {
      v[i] = v.back();
      v.pop_back();
      return;
    }
  }
}

void ObligationGraph::unlink_edge(ObId parent, ObId child) {
  edge_set_.erase(pack_edge(parent, child));
  erase_from(reverse_[child], parent);
  candidates_.push_back(child);
}

void ObligationGraph::drop_deps(ObId id) {
  std::vector<ObId> kids;
  kids.swap(obligations_[id].deps);
  for (const ObId d : kids) unlink_edge(id, d);
}

void ObligationGraph::begin_recompute(ObId self) {
  // Compact the dependency list: a settled child can never dirty this
  // record, and the edge is re-added through add_dep if the recomputation
  // re-reads the child.
  std::vector<ObId>& deps = obligations_[self].deps;
  std::size_t w = 0;
  for (const ObId d : deps) {
    if (obligations_[d].settled) {
      unlink_edge(self, d);
      continue;
    }
    deps[w++] = d;
  }
  deps.resize(w);
}

void ObligationGraph::mark_root(ObId id) {
  Obligation& ob = obligations_[id];
  if (ob.is_root) return;
  ob.is_root = true;
  roots_.push_back(id);
}

void ObligationGraph::free_record(ObId id) {
  Obligation& ob = obligations_[id];
  IL_CHECK(!ob.freed && !ob.is_root && reverse_[id].empty());
  // Account what the allocator gets back (the slot itself stays resident,
  // on the free list).
  gc_freed_bytes_ += ob.open_positions.capacity() * sizeof(std::uint64_t) +
                     ob.deps.capacity() * sizeof(ObId) +
                     reverse_[id].capacity() * sizeof(ObId) +
                     (sizeof(Key) + sizeof(ObId) + 2 * sizeof(void*));
  remove_reader(ob);
  index_.erase(ob.key);
  drop_deps(id);
  std::vector<ObId>().swap(reverse_[id]);
  std::vector<std::uint64_t>().swap(ob.open_positions);
  ob.freed = true;
  ob.settled = false;
  free_list_.push_back(id);
  ++gc_freed_;
}

void ObligationGraph::unlink_superseded(ObId parent, const Key& child_key) {
  const auto it = index_.find(child_key);
  if (it == index_.end()) return;
  const ObId child = it->second;
  if (edge_set_.count(pack_edge(parent, child)) == 0) return;
  erase_from(obligations_[parent].deps, child);
  unlink_edge(parent, child);
  ++orphan_unlinks_;
}

std::size_t ObligationGraph::collect() {
  const std::size_t freed_before = gc_freed_;
  while (!candidates_.empty()) {
    const ObId id = candidates_.back();
    candidates_.pop_back();
    const Obligation& ob = obligations_[id];
    if (ob.freed || ob.is_root || !reverse_[id].empty()) continue;
    free_record(id);  // pushes its children: the cascade runs through this loop
  }
  const std::size_t freed = gc_freed_ - freed_before;
  if (freed != 0) ++gc_sweeps_;
  return freed;
}

void ObligationGraph::add_dep(ObId parent, ObId child) {
  IL_CHECK(parent < obligations_.size() && child < reverse_.size());
  if (!edge_set_.insert(pack_edge(parent, child)).second) return;
  obligations_[parent].deps.push_back(child);
  reverse_[child].push_back(parent);
}

std::size_t ObligationGraph::bytes() const {
  std::size_t b = obligations_.capacity() * sizeof(Obligation);
  for (const Obligation& ob : obligations_) {
    b += ob.open_positions.capacity() * sizeof(std::uint64_t);
    b += ob.deps.capacity() * sizeof(ObId);
  }
  b += reverse_.capacity() * sizeof(std::vector<ObId>);
  for (const std::vector<ObId>& parents : reverse_) b += parents.capacity() * sizeof(ObId);
  // The open-reader list plus the reclaim bookkeeping vectors.
  b += (readers_.capacity() + roots_.capacity() + free_list_.capacity() +
        candidates_.capacity() + walk_stack_.capacity()) *
       sizeof(ObId);
  // Hash tables estimated at one node/bucket overhead per entry: exact
  // allocator charges are implementation-specific, but a budget check only
  // needs a monotone, same-order figure.
  b += index_.size() * (sizeof(Key) + sizeof(ObId) + 2 * sizeof(void*));
  b += edge_set_.size() * (sizeof(std::uint64_t) + 2 * sizeof(void*));
  // Span table: one tree node (three links and a colour word) per span.
  for (const auto& [span, id] : spans_) {
    b += sizeof(span) + sizeof(id) + 4 * sizeof(void*) +
         span.capacity() * sizeof(std::pair<std::uint32_t, std::int64_t>);
  }
  return b;
}

std::size_t ObligationGraph::settled_count() const {
  std::size_t n = 0;
  for (const Obligation& ob : obligations_) n += ob.settled ? 1 : 0;
  return n;
}

std::size_t ObligationGraph::open_count() const { return size() - settled_count(); }

}  // namespace il
