#include "report.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include <sys/resource.h>

namespace perfbench {

namespace {

/// JSON has no infinity; a tail made of refused requests reads as the
/// largest finite double.
std::string number(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::add(std::string name, double value, std::string unit, std::size_t samples,
                 std::string note) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples, std::move(note)});
}

void Report::add_info(std::string name, double value, std::string unit, std::size_t samples,
                      std::string note) {
  add(std::move(name), value, std::move(unit), samples, std::move(note));
  metrics_.back().in_result = false;
}

void Report::add_tail(std::string name, const Tail& t, std::string unit, std::string note) {
  std::ostringstream n;
  n << "p" << t.percentile << (note.empty() ? "" : " ") << note;
  add(std::move(name), t.value, std::move(unit), t.samples, n.str());
}

void Report::print_lines(std::ostream& os) const {
  for (const Metric& m : metrics_) {
    os << (m.in_result ? "metric " : "info ") << m.name << ' ' << number(m.value) << ' ' << m.unit << " n=" << m.samples;
    if (!m.note.empty()) os << ' ' << m.note;
    os << '\n';
  }
}

void Report::print_json(std::ostream& os, bool correct, std::size_t attempted,
                        std::size_t failed) const {
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!m.in_result) continue;
    os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}\n";
}

double peak_rss_mb() {
  // ru_maxrss is the kernel's VmHWM, in kB on Linux.
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
