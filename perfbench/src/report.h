// The benchmark's output: one human-readable line per metric, then the
// result object as the last line of standard output.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  ///< what was measured, for the human-readable line
  bool in_result = true;  ///< false: human-readable line only
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, std::size_t samples,
           std::string note = {});
  /// A tail percentile; the note records which percentile the rule chose.
  void add_tail(std::string name, const Tail& t, std::string unit, std::string note = {});
  /// A line for the reader that is not part of the result object.
  void add_info(std::string name, double value, std::string unit, std::size_t samples,
                std::string note = {});

  /// `metric <name> <value> <unit> n=<samples> <note>` per metric
  /// (`info ...` for lines outside the result object).
  void print_lines(std::ostream& os) const;
  /// {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
  void print_json(std::ostream& os, bool correct, std::size_t attempted,
                  std::size_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Process peak resident set (VmHWM) in MB, or 0 if unavailable.
double peak_rss_mb();

}  // namespace perfbench
