/// \file metrics.cpp
/// \brief MetricsRegistry storage and exposition (Prometheus text + JSON).
#include "obs/metrics.hpp"

#if ABFT_OBS_ENABLED

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace abft::obs {

namespace {

std::atomic<bool> g_enabled{true};

/// Full registry key: name or name{label}.
[[nodiscard]] std::string make_key(const std::string& name, const std::string& label) {
  if (label.empty()) return name;
  return name + "{" + label + "}";
}

/// %.17g survives a double round trip; %g keeps small ints readable.
[[nodiscard]] std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Labeled metric keys carry literal quotes ('name{solver="cg"}'); escape
/// them (and backslashes) when the key becomes a JSON object key.
[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

namespace detail {

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

}  // namespace detail

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), shards_(detail::kShards) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument("histogram bounds must be strictly increasing");
    }
  }
  for (auto& s : shards_) {
    s.buckets = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  }
}

Snapshot::HistogramValue Histogram::value() const {
  Snapshot::HistogramValue v;
  v.bounds = bounds_;
  v.counts.assign(bounds_.size() + 1, 0);
  std::uint64_t sum_micro = 0;
  for (const auto& s : shards_) {
    for (std::size_t b = 0; b < v.counts.size(); ++b) {
      v.counts[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
    sum_micro += s.sum_micro.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t c : v.counts) v.count += c;
  v.sum = static_cast<double>(sum_micro) * 1e-6;
  return v;
}

/// One registered metric family entry. The Counter/Gauge/Histogram objects
/// are heap-pinned: handles handed to callers stay valid for the registry's
/// (static) lifetime.
struct MetricsRegistry::Impl {
  struct Entry {
    std::string name;   ///< family name, no label
    std::string label;  ///< verbatim label body ('solver="cg"'), may be empty
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  mutable std::mutex mu;
  std::map<std::string, Entry> entries;  ///< keyed by name{label}
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry r;
  return r;
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help,
                                  const std::string& label) {
  const std::string key = make_key(name, label);
  std::lock_guard lock(impl_->mu);
  auto& e = impl_->entries[key];
  if (e.counter == nullptr) {
    if (e.gauge != nullptr || e.histogram != nullptr) {
      throw std::invalid_argument("metric '" + key + "' already registered with another type");
    }
    e.name = name;
    e.label = label;
    e.help = help;
    e.counter = std::make_unique<Counter>();
  }
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const std::string& label) {
  const std::string key = make_key(name, label);
  std::lock_guard lock(impl_->mu);
  auto& e = impl_->entries[key];
  if (e.gauge == nullptr) {
    if (e.counter != nullptr || e.histogram != nullptr) {
      throw std::invalid_argument("metric '" + key + "' already registered with another type");
    }
    e.name = name;
    e.label = label;
    e.help = help;
    e.gauge = std::make_unique<Gauge>();
  }
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const std::string& help,
                                      const std::string& label) {
  const std::string key = make_key(name, label);
  // Construct (and bounds-validate) BEFORE touching the map: operator[]
  // default-creates the entry, and a throwing Histogram ctor must not leave
  // a typeless entry behind for the exposition walk to trip over.
  auto h = std::make_unique<Histogram>(std::move(bounds));
  std::lock_guard lock(impl_->mu);
  auto& e = impl_->entries[key];
  if (e.histogram == nullptr) {
    if (e.counter != nullptr || e.gauge != nullptr) {
      throw std::invalid_argument("metric '" + key + "' already registered with another type");
    }
    e.name = name;
    e.label = label;
    e.help = help;
    e.histogram = std::move(h);
  }
  return *e.histogram;
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot s;
  std::lock_guard lock(impl_->mu);
  for (const auto& [key, e] : impl_->entries) {
    if (e.counter != nullptr) s.counters[key] = e.counter->value();
    if (e.gauge != nullptr) s.gauges[key] = e.gauge->value();
    if (e.histogram != nullptr) s.histograms[key] = e.histogram->value();
  }
  return s;
}

std::string MetricsRegistry::prometheus_text() const {
  std::string out;
  std::lock_guard lock(impl_->mu);
  std::string last_family;
  for (const auto& [key, e] : impl_->entries) {
    const char* type = e.counter != nullptr   ? "counter"
                       : e.gauge != nullptr   ? "gauge"
                                              : "histogram";
    if (e.name != last_family) {
      if (!e.help.empty()) out += "# HELP " + e.name + " " + e.help + "\n";
      out += "# TYPE " + e.name + " " + std::string(type) + "\n";
      last_family = e.name;
    }
    const std::string labeled =
        e.label.empty() ? e.name : e.name + "{" + e.label + "}";
    char buf[64];
    if (e.counter != nullptr) {
      std::snprintf(buf, sizeof buf, " %" PRIu64 "\n", e.counter->value());
      out += labeled + buf;
    } else if (e.gauge != nullptr) {
      std::snprintf(buf, sizeof buf, " %" PRId64 "\n", e.gauge->value());
      out += labeled + buf;
    } else {
      const auto v = e.histogram->value();
      std::uint64_t cum = 0;
      for (std::size_t b = 0; b < v.bounds.size(); ++b) {
        cum += v.counts[b];
        const std::string le = format_double(v.bounds[b]);
        const std::string sep = e.label.empty() ? "" : e.label + ",";
        std::snprintf(buf, sizeof buf, "\"} %" PRIu64 "\n", cum);
        out += e.name + "_bucket{" + sep + "le=\"" + le + buf;
      }
      const std::string sep = e.label.empty() ? "" : e.label + ",";
      std::snprintf(buf, sizeof buf, "\"} %" PRIu64 "\n", v.count);
      out += e.name + "_bucket{" + sep + "le=\"+Inf" + buf;
      out += e.name + "_sum" +
             (e.label.empty() ? "" : "{" + e.label + "}") + " " +
             format_double(v.sum) + "\n";
      std::snprintf(buf, sizeof buf, " %" PRIu64 "\n", v.count);
      out += e.name + "_count" + (e.label.empty() ? "" : "{" + e.label + "}") + buf;
    }
  }
  return out;
}

std::string MetricsRegistry::json() const {
  const Snapshot s = snapshot();
  std::string out = "{\"counters\":{";
  // Keys are appended piece by piece: GCC 12 reports a false -Wrestrict on
  // a string literal + std::string temporary concatenation here.
  const auto key = [&out](const std::string& k) {
    out += '"';
    out += json_escape(k);
    out += "\":";
  };
  bool first = true;
  char buf[64];
  for (const auto& [k, v] : s.counters) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    key(k);
    out += buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [k, v] : s.gauges) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof buf, "%" PRId64, v);
    key(k);
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [k, v] : s.histograms) {
    if (!first) out += ",";
    first = false;
    key(k);
    out += "{\"bounds\":[";
    for (std::size_t b = 0; b < v.bounds.size(); ++b) {
      if (b > 0) out += ",";
      out += format_double(v.bounds[b]);
    }
    out += "],\"counts\":[";
    for (std::size_t b = 0; b < v.counts.size(); ++b) {
      if (b > 0) out += ",";
      std::snprintf(buf, sizeof buf, "%" PRIu64, v.counts[b]);
      out += buf;
    }
    std::snprintf(buf, sizeof buf, "%" PRIu64, v.count);
    out += std::string("],\"sum\":") + format_double(v.sum) + ",\"count\":" + buf + "}";
  }
  out += "}}";
  return out;
}

void count_checks(std::uint64_t n) noexcept {
  static Counter& c = MetricsRegistry::global().counter(
      "abft_checks_total", "Integrity checks performed by the protection layer");
  c.inc(n);
}

void count_corrected() noexcept {
  static Counter& c = MetricsRegistry::global().counter(
      "abft_corrected_total", "Detected-and-corrected errors (DCEs) across all regions");
  c.inc();
}

void count_uncorrectable() noexcept {
  static Counter& c = MetricsRegistry::global().counter(
      "abft_uncorrectable_total", "Detected uncorrectable errors (DUEs) across all regions");
  c.inc();
}

void count_bounds() noexcept {
  static Counter& c = MetricsRegistry::global().counter(
      "abft_bounds_violations_total",
      "Bounds-guard hits on check-interval skip iterations");
  c.inc();
}

}  // namespace abft::obs

#endif  // ABFT_OBS_ENABLED
