// Measurement plumbing shared by the benchmark's runners: the clock, sample
// summaries, the metric list that becomes the result line, the per-layer
// span/counter accumulator of the traced run, and process-level helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Times one call: returns the wall milliseconds `fn` took.
template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return ms_between(t0, Clock::now());
}

// A list of timing samples summarized by interpolated quantiles.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  // Linear interpolation between closest ranks; 0 for an empty list.
  double quantile(double q) const;

 private:
  std::vector<double> values_;
};

// Ordered name -> (value, unit) list, printed as a table and as the JSON
// result line.
class MetricList {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void print_table(std::ostream& os) const;
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Per-layer accumulator of the traced run: span milliseconds and counters
// keyed by their metric names.
class Trace {
 public:
  void span(const std::string& name, double ms) { spans_[name] += ms; }
  void count(const std::string& name, double v) { counts_[name] += v; }
  void clear() {
    spans_.clear();
    counts_.clear();
  }
  double span_ms(const std::string& name) const;
  // Sum of every span recorded so far.
  double total_ms() const;
  double counter(const std::string& name) const;

 private:
  std::map<std::string, double> spans_;
  std::map<std::string, double> counts_;
};

// Removes every SMPC_* knob from the process environment so a caller's
// shell cannot change the program being measured.
void clear_smpc_env();

// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// Host-wide CPU ticks from /proc/stat: {steal, total}; {0, 0} when the
// file is unreadable.  Steal is time the hypervisor ran something else
// on this VM's CPUs, the main source of run-to-run noise on shared hosts.
std::pair<std::uint64_t, std::uint64_t> cpu_steal_ticks();

}  // namespace e2ebench
