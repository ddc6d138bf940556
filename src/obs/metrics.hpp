// Metrics: named counters / gauges / log-bucketed histograms with an
// optional per-model label, exported as Prometheus text exposition and
// as flat (name, label, value) samples for CSV trending.
//
// Update paths are lock-free (relaxed atomics; the histogram sum is a
// CAS loop over the double's bit pattern), so servers can record into a
// metric from every worker without a shared lock. The registry itself
// locks only on get-or-create and on export — both cold. Metric objects
// are pointer-stable for the registry's lifetime: call counter()/gauge()/
// histogram() once at setup, keep the reference, and update it forever.
//
// Histogram buckets are powers of two from 2^-10 (~0.001) up — log
// bucketing matches latency distributions (constant relative error) and
// makes bucket selection a shift-free compare loop over 40 boundaries.
// Exposition follows the Prometheus convention: cumulative `le` buckets,
// a `+Inf` bucket equal to `_count`, and a `_sum` sample.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace dstee::obs {

/// Monotonically increasing total: an event count, or an accumulated
/// amount such as seconds spent. A double, like a Prometheus counter;
/// whole counts stay exact up to 2^53.
class Counter {
 public:
  void add(double n = 1.0) {
    // CAS on the double's bit pattern, as Histogram's sum does.
    std::uint64_t old_bits = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        old_bits,
        std::bit_cast<std::uint64_t>(std::bit_cast<double>(old_bits) + n),
        std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-bucketed (powers of two) histogram of non-negative samples.
class Histogram {
 public:
  /// First finite bucket upper bound is 2^kMinExp; each next doubles.
  static constexpr int kMinExp = -10;
  /// Finite buckets; one implicit +Inf bucket follows.
  static constexpr std::size_t kNumBuckets = 40;

  void observe(double v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // Accumulate the double sum via CAS on its bit pattern — atomic
    // fetch_add on doubles is C++20 but spotty across libstdc++ versions.
    std::uint64_t old_bits = sum_bits_.load(std::memory_order_relaxed);
    while (!sum_bits_.compare_exchange_weak(
        old_bits, std::bit_cast<std::uint64_t>(
                      std::bit_cast<double>(old_bits) + v),
        std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const {
    return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  }

  /// Per-bucket (non-cumulative) count; index kNumBuckets is +Inf.
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Upper bound of finite bucket i (exclusive above, inclusive at).
  static double bucket_le(std::size_t i);

  /// Index of the bucket `v` lands in (kNumBuckets = +Inf overflow).
  static std::size_t bucket_index(double v);

 private:
  std::atomic<std::uint64_t> buckets_[kNumBuckets + 1]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};
};

/// Get-or-create registry of named metrics with an optional `model`
/// label. Same (name, label) always returns the same object; the same
/// name with two different metric kinds fails loudly.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& label = "",
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& label = "",
               const std::string& help = "");
  Histogram& histogram(const std::string& name, const std::string& label = "",
                       const std::string& help = "");

  /// One flat sample for CSV trending. Histograms flatten to `_count`
  /// and `_sum` rows.
  struct Sample {
    std::string name;
    std::string label;
    double value = 0.0;
  };
  std::vector<Sample> snapshot() const;

  /// Prometheus text exposition (# HELP / # TYPE / samples; histograms
  /// with cumulative le buckets, +Inf, _sum and _count).
  std::string prometheus_text() const;

  std::size_t num_metrics() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    std::string label;
    std::string help;
    Kind kind = Kind::kCounter;
    // Exactly one is set, matching `kind`. unique_ptr keeps the metric
    // heap-stable while the deque reallocates nothing anyway.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& get_or_create(const std::string& name, const std::string& label,
                       const std::string& help, Kind kind)
      DSTEE_REQUIRES(mu_);

  mutable util::Mutex mu_;
  std::deque<Entry> entries_ DSTEE_GUARDED_BY(mu_);
};

/// The process-wide registry serve-path metrics land in.
MetricsRegistry& metrics();

}  // namespace dstee::obs
