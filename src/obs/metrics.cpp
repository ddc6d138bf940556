#include "obs/metrics.hpp"

#include <cmath>
#include <map>
#include <sstream>

#include "util/check.hpp"

namespace dstee::obs {

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  const auto head_ok = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head_ok(name[0])) return false;
  for (const char c : name) {
    if (!head_ok(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// `name{model="label"}` (or bare name when unlabeled).
std::string sample_key(const std::string& name, const std::string& label,
                       const std::string& extra = "") {
  std::string out = name;
  if (!label.empty() || !extra.empty()) {
    out += "{";
    if (!label.empty()) {
      out += "model=\"" + escape_label_value(label) + "\"";
      if (!extra.empty()) out += ",";
    }
    out += extra + "}";
  }
  return out;
}

std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

double Histogram::bucket_le(std::size_t i) {
  return std::ldexp(1.0, kMinExp + static_cast<int>(i));
}

std::size_t Histogram::bucket_index(double v) {
  if (std::isnan(v)) return kNumBuckets;  // NaN counts only toward +Inf
  std::size_t i = 0;
  double le = bucket_le(0);
  while (i < kNumBuckets && v > le) {
    le *= 2.0;
    ++i;
  }
  return i;
}

MetricsRegistry::Entry& MetricsRegistry::get_or_create(
    const std::string& name, const std::string& label,
    const std::string& help, Kind kind) {
  util::check(valid_metric_name(name),
              "invalid metric name '" + name +
                  "' (want [a-zA-Z_:][a-zA-Z0-9_:]*)");
  for (Entry& e : entries_) {
    if (e.name != name) continue;
    util::check(e.kind == kind,
                "metric '" + name + "' already registered with another kind");
    if (e.label == label) {
      if (e.help.empty() && !help.empty()) e.help = help;
      return e;
    }
  }
  Entry e;
  e.name = name;
  e.label = label;
  e.help = help;
  e.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      e.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      e.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      e.histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(e));
  return entries_.back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& label,
                                  const std::string& help) {
  util::MutexLock lock(mu_);
  return *get_or_create(name, label, help, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& label,
                              const std::string& help) {
  util::MutexLock lock(mu_);
  return *get_or_create(name, label, help, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& label,
                                      const std::string& help) {
  util::MutexLock lock(mu_);
  return *get_or_create(name, label, help, Kind::kHistogram).histogram;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  util::MutexLock lock(mu_);
  std::vector<Sample> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        out.push_back({e.name, e.label, e.counter->value()});
        break;
      case Kind::kGauge:
        out.push_back({e.name, e.label, e.gauge->value()});
        break;
      case Kind::kHistogram:
        out.push_back({e.name + "_count", e.label,
                       static_cast<double>(e.histogram->count())});
        out.push_back({e.name + "_sum", e.label, e.histogram->sum()});
        break;
    }
  }
  return out;
}

std::string MetricsRegistry::prometheus_text() const {
  util::MutexLock lock(mu_);
  // Group by family: Prometheus wants one # TYPE line per metric name,
  // followed by every labeled sample of that family.
  std::map<std::string, std::vector<const Entry*>> families;
  std::vector<std::string> order;  // first-registration order
  for (const Entry& e : entries_) {
    if (families.find(e.name) == families.end()) order.push_back(e.name);
    families[e.name].push_back(&e);
  }
  std::ostringstream os;
  for (const std::string& name : order) {
    const std::vector<const Entry*>& fam = families[name];
    for (const Entry* e : fam) {
      if (!e->help.empty()) {
        os << "# HELP " << name << " " << e->help << "\n";
        break;
      }
    }
    const char* type = fam.front()->kind == Kind::kCounter    ? "counter"
                       : fam.front()->kind == Kind::kGauge    ? "gauge"
                                                              : "histogram";
    os << "# TYPE " << name << " " << type << "\n";
    for (const Entry* e : fam) {
      switch (e->kind) {
        case Kind::kCounter:
          os << sample_key(name, e->label) << " "
             << format_double(e->counter->value()) << "\n";
          break;
        case Kind::kGauge:
          os << sample_key(name, e->label) << " "
             << format_double(e->gauge->value()) << "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *e->histogram;
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
            const std::uint64_t c = h.bucket_count(i);
            cumulative += c;
            // Skip still-empty leading buckets to keep the exposition
            // small, but always emit from the first hit onwards so the
            // cumulative series stays monotone and gap-free.
            if (cumulative == 0 && c == 0) continue;
            os << sample_key(name + "_bucket", e->label,
                             "le=\"" + format_double(Histogram::bucket_le(i)) +
                                 "\"")
               << " " << cumulative << "\n";
          }
          os << sample_key(name + "_bucket", e->label, "le=\"+Inf\"") << " "
             << h.count() << "\n";
          os << sample_key(name + "_sum", e->label) << " "
             << format_double(h.sum()) << "\n";
          os << sample_key(name + "_count", e->label) << " " << h.count()
             << "\n";
          break;
        }
      }
    }
  }
  return os.str();
}

std::size_t MetricsRegistry::num_metrics() const {
  util::MutexLock lock(mu_);
  return entries_.size();
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace dstee::obs
