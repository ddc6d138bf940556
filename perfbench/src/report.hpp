// Result reporting, statistics and benchmark-side spans for perfbench.
//
// Every workload fills one Report: named metrics with units, correctness
// gates, and the attempted/failed operation counts. The last line a run
// prints is Report::print_result's JSON object; gates print one
// "gate: <name> PASS|FAIL <detail>" line each before it, which the
// self-check in run.py matches against the gates each workload must run.
//
// Spans are the benchmark's own: a traced run wraps its calls into the
// program (submit, apply_delta, plan, bind, forward, training steps) in
// Spans recorded here and writes them out as Chrome trace JSON when the
// run ends. Untraced runs never touch the recorder.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Process peak resident set size in MiB (getrusage).
double peak_rss_mb();

class Report {
 public:
  /// Records metric `name`; a non-finite value fails the run.
  void set(const std::string& name, double value, const std::string& unit);
  /// Records and prints one correctness gate.
  void gate(const std::string& name, bool passed, const std::string& detail);

  void add_attempted(std::size_t n) { attempted_ += n; }
  void add_failed(std::size_t n) { failed_ += n; }

  bool correct() const;
  /// The run's final stdout line.
  void print_result() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
  std::size_t gates_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// In-memory span store for traced runs (Chrome trace "X" events).
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t id = 0;      ///< groups the spans of one request/step
    std::uint64_t parent = 0;  ///< id of the causing span, 0 for roots
    std::int64_t ts_ns = 0;
    std::int64_t dur_ns = 0;
    std::uint32_t lane = 0;    ///< thread lane in the trace viewer
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Thread-safe; `name` must have static storage duration.
  void record(const char* name, std::uint64_t id, std::uint64_t parent,
              Clock::time_point start, Clock::time_point end,
              std::uint32_t lane);

  std::vector<Span> spans() const;
  /// Writes every span as Chrome trace JSON; returns false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times a scope into `rec` (no-op when the recorder is disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t id,
             std::uint64_t parent = 0, std::uint32_t lane = 0)
      : rec_(rec), name_(name), id_(id), parent_(parent), lane_(lane),
        start_(Clock::now()) {}
  ~ScopedSpan() {
    if (rec_.enabled()) {
      rec_.record(name_, id_, parent_, start_, Clock::now(), lane_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  const char* name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::uint32_t lane_;
  Clock::time_point start_;
};

/// Sum of span durations per name, in milliseconds.
std::map<std::string, double> total_ms_by_name(
    const std::vector<SpanRecorder::Span>& spans);
/// Number of spans called `name`.
std::size_t count_spans(const std::vector<SpanRecorder::Span>& spans,
                        const std::string& name);

}  // namespace perfbench
