#include "span.h"

#include <algorithm>
#include <utility>

namespace perfbench {

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // end of the covered union so far
    for (const auto& [start, end] : kids) {
      const std::int64_t a = std::max(start, reach);
      const std::int64_t b = std::min(end, hi);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(end, hi));
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::uint32_t SpanRecorder::name_id(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::vector<double> SpanRecorder::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (std::size_t id = 0; id < names_.size(); ++id) {
    if (names_[id] != name) continue;
    for (const Span& s : spans_) {
      if (s.name == id) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

double SpanRecorder::self_seconds_excluding(const std::string& excluded_prefix) const {
  const std::vector<std::int64_t> self = self_times(spans_);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (names_[spans_[i].name].rfind(excluded_prefix, 0) != 0) total += self[i];
  }
  return static_cast<double>(total) / 1e9;
}

void SpanRecorder::write(std::ostream& os) const {
  const std::vector<std::int64_t> self = self_times(spans_);
  os << "name\tstart_ns\tend_ns\tparent\trequest\tself_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << names_[s.name] << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.parent << '\t'
       << s.request << '\t' << self[i] << '\n';
  }
}

}  // namespace perfbench
