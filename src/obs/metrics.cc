#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

namespace upi::obs {

namespace {

/// Stable per-thread stripe index (same recipe as SimDisk's stats striping):
/// handed out once per thread over the process lifetime, wrapping at the
/// stripe count — exactness of the *sum* never depends on uniqueness.
size_t ThisThreadSlot() {
  static std::atomic<size_t> next{0};
  thread_local size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void CasAdd(std::atomic<double>* target, double delta) {
  double cur = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(cur, cur + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AppendJsonKey(std::string* out, const std::string& name,
                   const std::string& labels) {
  out->push_back('"');
  *out += name;
  if (!labels.empty()) {
    out->push_back('{');
    for (char c : labels) {
      if (c == '"') *out += '\\';
      out->push_back(c);
    }
    out->push_back('}');
  }
  *out += "\": ";
}

std::string FormatValue(double v) {
  char buf[48];
  // Counters are integral in practice; print them without a fraction so the
  // output is stable and greppable.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Counter / Histogram
// ---------------------------------------------------------------------------

void Counter::AddAlways(uint64_t n) {
  stripes_[ThisThreadSlot() % kStripes].v.fetch_add(n,
                                                    std::memory_order_relaxed);
}

uint64_t Counter::value() const {
  uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

size_t Histogram::BucketIndex(double v) {
  if (!(v > 0.0)) return 0;
  int e = static_cast<int>(std::ceil(std::log2(v)));
  // Guard the boundary: rounding in log2 can land an exact power of two one
  // bucket high or low; UpperBound is the contract, so nudge to match it.
  while (e > kMinExp && v <= std::ldexp(1.0, e - 1)) --e;
  while (v > std::ldexp(1.0, e)) ++e;
  if (e <= kMinExp) return 0;
  size_t b = static_cast<size_t>(e - kMinExp);
  return b >= kBuckets ? kBuckets - 1 : b;
}

double Histogram::UpperBound(size_t b) {
  if (b + 1 >= kBuckets) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(b) + kMinExp);
}

void Histogram::RecordAlways(double v) {
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  CasAdd(&sum_, v);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<sync::Mutex> lock(mu_);
  if (gauges_.contains(name) || histograms_.contains(name)) return nullptr;
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter(&enabled_)))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<sync::Mutex> lock(mu_);
  if (counters_.contains(name) || histograms_.contains(name)) return nullptr;
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(&enabled_)))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<sync::Mutex> lock(mu_);
  if (counters_.contains(name) || gauges_.contains(name)) return nullptr;
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(new Histogram(&enabled_)))
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::AddSnapshotHook(
    std::function<void(MetricsSnapshot*)> hook) {
  std::lock_guard<sync::Mutex> lock(mu_);
  hooks_.push_back(std::move(hook));
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::vector<std::function<void(MetricsSnapshot*)>> hooks;
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    for (const auto& [name, c] : counters_) {
      snap.counters.push_back(
          {name, "", static_cast<double>(c->value())});
    }
    for (const auto& [name, g] : gauges_) {
      snap.gauges.push_back({name, "", g->value()});
    }
    for (const auto& [name, h] : histograms_) {
      HistogramSample hs;
      hs.name = name;
      hs.buckets.resize(Histogram::kBuckets);
      for (size_t b = 0; b < Histogram::kBuckets; ++b) {
        hs.buckets[b] = h->bucket_count(b);
      }
      hs.count = h->count();
      hs.sum = h->sum();
      snap.histograms.push_back(std::move(hs));
    }
    hooks = hooks_;
  }
  // Hooks run outside the registry lock: they read their subsystem's own
  // counters (striped disk stats, shard counters) which may take that
  // subsystem's locks.
  for (const auto& hook : hooks) hook(&snap);
  return snap;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

const Sample* MetricsSnapshot::Find(const std::string& name) const {
  for (const Sample& s : counters) {
    if (s.name == name) return &s;
  }
  for (const Sample& s : gauges) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

double MetricsSnapshot::SumOf(const std::string& name) const {
  double total = 0.0;
  for (const Sample& s : counters) {
    if (s.name == name) total += s.value;
  }
  for (const Sample& s : gauges) {
    if (s.name == name) total += s.value;
  }
  return total;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonKey(&out, counters[i].name, counters[i].labels);
    out += FormatValue(counters[i].value);
  }
  out += "\n  },\n  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonKey(&out, gauges[i].name, gauges[i].labels);
    out += FormatValue(gauges[i].value);
  }
  out += "\n  },\n  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSample& h = histograms[i];
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonKey(&out, h.name, "");
    char buf[96];
    std::snprintf(buf, sizeof(buf), "{\"count\": %llu, \"sum\": %.6g}",
                  static_cast<unsigned long long>(h.count), h.sum);
    out += buf;
  }
  out += "\n  }\n}\n";
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  auto emit = [&out](const std::vector<Sample>& samples, const char* type) {
    const std::string* last_family = nullptr;
    for (const Sample& s : samples) {
      if (last_family == nullptr || *last_family != s.name) {
        out += "# TYPE " + s.name + " " + type + "\n";
        last_family = &s.name;
      }
      out += s.name;
      if (!s.labels.empty()) out += "{" + s.labels + "}";
      out += ' ';
      out += FormatValue(s.value);
      out += '\n';
    }
  };
  emit(counters, "counter");
  emit(gauges, "gauge");
  for (const HistogramSample& h : histograms) {
    out += "# TYPE " + h.name + " histogram\n";
    uint64_t cum = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      cum += h.buckets[b];
      double ub = Histogram::UpperBound(b);
      char le[40];
      if (std::isinf(ub)) {
        std::snprintf(le, sizeof(le), "+Inf");
      } else {
        std::snprintf(le, sizeof(le), "%.6g", ub);
      }
      out += h.name + "_bucket{le=\"" + le + "\"} " +
             FormatValue(static_cast<double>(cum)) + "\n";
    }
    out += h.name + "_sum " + FormatValue(h.sum) + "\n";
    out += h.name + "_count " + FormatValue(static_cast<double>(h.count)) + "\n";
  }
  return out;
}

}  // namespace upi::obs
