// In-memory spans around the benchmark's calls into the library.
//
// Tracing is done from the benchmark's own code only: a span brackets one
// public call (MonitorService::append, Monitor::append_block,
// BatchDecider::run, ...) made from the recording thread.  Spans nest by
// scope; each carries the request it served (stream/seq or batch id).  They
// stay in memory until the run ends, then are written out with their self
// time: the span's duration minus the part its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t name = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span vector, -1 for a root
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it.  Children may be recorded in any order.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Records spans from a single thread.  A disabled recorder records
/// nothing, and its scopes cost one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Id of a span name, interned on first use.
  std::uint32_t name_id(const std::string& name);

  class Scope {
   public:
    Scope(SpanRecorder& r, std::uint32_t name, std::uint64_t request) : r_(r) {
      if (!r_.enabled_) return;
      index_ = static_cast<std::int32_t>(r_.spans_.size());
      r_.spans_.push_back(Span{name, 0, 0, r_.open_, request});
      r_.open_ = index_;
      r_.spans_.back().start_ns = now_ns();
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& s = r_.spans_[static_cast<std::size_t>(index_)];
      s.end_ns = now_ns();
      r_.open_ = s.parent;
      if (discard_ && static_cast<std::size_t>(index_) + 1 == r_.spans_.size()) r_.spans_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Drops a childless span that recorded nothing of interest (an empty
    /// drain while polling), so idle polls neither grow memory nor count.
    void discard() { discard_ = true; }

   private:
    SpanRecorder& r_;
    std::int32_t index_ = -1;
    bool discard_ = false;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (µs) of every span with this name.
  std::vector<double> durations_us(const std::string& name) const;

  /// Summed self time (s) of every span whose name does not start with
  /// `excluded_prefix`.
  double self_seconds_excluding(const std::string& excluded_prefix) const;

  /// One line per span: name, start, end, parent, request, self (ns).
  void write(std::ostream& os) const;

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

}  // namespace perfbench
