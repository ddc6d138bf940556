#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    gate("finite:" + name, false, "metric is not a finite number");
    value = 0.0;
  }
  metrics_[name] = Metric{value, unit};
}

void Report::gate(const std::string& name, bool passed,
                  const std::string& detail) {
  ++gates_;
  if (!passed) failures_.push_back(name);
  std::cout << "gate: " << name << (passed ? " PASS " : " FAIL ") << detail
            << std::endl;
}

bool Report::correct() const {
  return failures_.empty() && gates_ > 0 && attempted_ > 0;
}

void Report::print_result() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics_) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

void SpanRecorder::record(const char* name, std::uint64_t id,
                          std::uint64_t parent, Clock::time_point start,
                          Clock::time_point end, std::uint32_t lane) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.ts_ns = to_ns(start);
  s.dur_ns = to_ns(end) - s.ts_ns;
  s.lane = lane;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::vector<SpanRecorder::Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::int64_t base = 0;
  if (!all.empty()) {
    base = std::min_element(all.begin(), all.end(),
                            [](const Span& a, const Span& b) {
                              return a.ts_ns < b.ts_ns;
                            })
               ->ts_ns;
  }
  std::ofstream os(path);
  os << "{\"traceEvents\": [";
  char buf[320];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %llu, \"parent\": %llu}}",
                  i == 0 ? "" : ",", s.name, s.lane,
                  static_cast<double>(s.ts_ns - base) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    os << buf;
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(os);
}

std::map<std::string, double> total_ms_by_name(
    const std::vector<SpanRecorder::Span>& spans) {
  std::map<std::string, double> out;
  for (const auto& s : spans) {
    out[s.name] += static_cast<double>(s.dur_ns) / 1e6;
  }
  return out;
}

std::size_t count_spans(const std::vector<SpanRecorder::Span>& spans,
                        const std::string& name) {
  return static_cast<std::size_t>(std::count_if(
      spans.begin(), spans.end(),
      [&](const SpanRecorder::Span& s) { return name == s.name; }));
}

}  // namespace perfbench
