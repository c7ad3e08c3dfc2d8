#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

extern char** environ;

namespace e2ebench {

double Samples::quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted(values_);
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

void MetricList::add(const std::string& name, double value,
                     const std::string& unit) {
  entries_.push_back(Entry{name, std::isfinite(value) ? value : 0.0, unit});
}

void MetricList::print_table(std::ostream& os) const {
  for (const Entry& e : entries_) {
    os << "  " << std::left << std::setw(40) << e.name << std::right
       << std::setw(20) << std::setprecision(6) << e.value << "  " << e.unit
       << "\n";
  }
}

std::string MetricList::json() const {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    os << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": " << e.value
       << ", \"unit\": \"" << e.unit << "\"}";
  }
  os << "}";
  return os.str();
}

double Trace::span_ms(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? 0 : it->second;
}

double Trace::total_ms() const {
  double total = 0;
  for (const auto& [name, ms] : spans_) total += ms;
  return total;
}

double Trace::counter(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

void clear_smpc_env() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "SMPC_", 5) != 0) continue;
    const char* eq = std::strchr(*env, '=');
    names.emplace_back(*env, eq == nullptr ? std::strlen(*env)
                                           : static_cast<std::size_t>(eq - *env));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

std::pair<std::uint64_t, std::uint64_t> cpu_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t ticks[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return {0, 0};
  std::uint64_t total = 0;
  for (std::uint64_t& t : ticks) {
    if (!(stat >> t)) return {0, 0};
    total += t;
  }
  return {ticks[7], total};  // user nice system idle iowait irq softirq steal
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace e2ebench
