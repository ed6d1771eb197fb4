// A neutral parallel-for handle, so the formula layers (ltl/, lll/) can fan
// pure per-item work across threads without depending on engine headers.
//
// A ParallelFor is just a width plus a run function with ParkedPool::run()'s
// contract (engine/pool.h): run(count, item) executes item(i) for every i in
// [0, count) exactly once and returns only after all calls complete;
// exceptions propagate to the caller (lowest index wins when several throw).  The
// engine binds one to ParkedPool::run_nested(); tests can bind a plain
// loop or a std::thread fan-out.
//
// Callers treat the handle as advisory: a null pointer or width <= 1 means
// "run inline", and because every parallel site in this codebase merges
// results in a fixed input order afterwards, taking the inline path is
// always bit-identical to the fanned-out one.
#pragma once

#include <cstddef>
#include <functional>

namespace il::util {

struct ParallelFor {
  /// Worker width the binding expects to reach (informational; sites use it
  /// to decide whether fanning a given frontier is worth the wake cost).
  std::size_t width = 1;
  /// Executes item(i) for all i in [0, count), returning after all complete.
  std::function<void(std::size_t count, const std::function<void(std::size_t)>& item)> run;
};

/// True when `par` can actually fan out `count` items.
inline bool usable(const ParallelFor* par, std::size_t count) {
  return par != nullptr && par->width > 1 && par->run && count > 1;
}

/// Runs item(i) for all i in [0, count), through `par` when usable and
/// inline otherwise.  The two paths are interchangeable for any `item`
/// whose per-index work is independent.
inline void for_each_index(const ParallelFor* par, std::size_t count,
                           const std::function<void(std::size_t)>& item) {
  if (usable(par, count)) {
    par->run(count, item);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) item(i);
}

}  // namespace il::util
