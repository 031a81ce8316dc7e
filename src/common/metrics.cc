#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <functional>

#include "common/json.h"

namespace modelhub {

namespace {

void AppendUint(std::string* out, uint64_t v) {
  out->append(std::to_string(v));
}

}  // namespace

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size(), 0);
  }
  for (size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
}

uint64_t HistogramSnapshot::ApproxPercentile(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Rank of the percentile sample, 1-based; p=0 maps to the first sample.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(p / 100.0 *
                                                  static_cast<double>(count)));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return Histogram::BucketUpperBound(static_cast<int>(i));
  }
  return Histogram::BucketUpperBound(static_cast<int>(buckets.size()) - 1);
}

int Histogram::BucketOf(uint64_t value) {
  if (value == 0) return 0;
  // bit_width(v) = floor(log2(v)) + 1, so values in [2^(i-1), 2^i) land in
  // bucket i; everything past the last exact bucket collapses into it.
  const int index = std::bit_width(value);
  return index >= kNumBuckets ? kNumBuckets - 1 : index;
}

uint64_t Histogram::BucketUpperBound(int i) {
  if (i <= 0) return 0;
  if (i >= kNumBuckets - 1) return UINT64_MAX;
  return (uint64_t{1} << i) - 1;
}

void Histogram::Reset() {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.buckets.resize(kNumBuckets);
  for (int i = 0; i < kNumBuckets; ++i) {
    snapshot.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  return snapshot;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& v : values) {
    if (v.kind != MetricValue::Kind::kCounter) continue;
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, v.name);
    out.push_back(':');
    AppendUint(&out, v.counter);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& v : values) {
    if (v.kind != MetricValue::Kind::kGauge) continue;
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, v.name);
    out.push_back(':');
    out.append(std::to_string(v.gauge));
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& v : values) {
    if (v.kind != MetricValue::Kind::kHistogram) continue;
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, v.name);
    out += ":{\"count\":";
    AppendUint(&out, v.histogram.count);
    out += ",\"sum\":";
    AppendUint(&out, v.histogram.sum);
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",\"mean\":%.3f", v.histogram.Mean());
    out += buf;
    out += ",\"p50\":";
    AppendUint(&out, v.histogram.ApproxPercentile(50));
    out += ",\"p99\":";
    AppendUint(&out, v.histogram.ApproxPercentile(99));
    // Trim trailing empty buckets so sparse histograms stay compact.
    size_t last = v.histogram.buckets.size();
    while (last > 0 && v.histogram.buckets[last - 1] == 0) --last;
    out += ",\"buckets\":[";
    for (size_t i = 0; i < last; ++i) {
      if (i > 0) out.push_back(',');
      AppendUint(&out, v.histogram.buckets[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const auto& v : values) {
    char line[256];
    switch (v.kind) {
      case MetricValue::Kind::kCounter:
        std::snprintf(line, sizeof(line), "%-44s %20llu\n", v.name.c_str(),
                      static_cast<unsigned long long>(v.counter));
        break;
      case MetricValue::Kind::kGauge:
        std::snprintf(line, sizeof(line), "%-44s %20lld\n", v.name.c_str(),
                      static_cast<long long>(v.gauge));
        break;
      case MetricValue::Kind::kHistogram:
        std::snprintf(line, sizeof(line),
                      "%-44s count=%llu mean=%.1f p50<=%llu p99<=%llu\n",
                      v.name.c_str(),
                      static_cast<unsigned long long>(v.histogram.count),
                      v.histogram.Mean(),
                      static_cast<unsigned long long>(
                          v.histogram.ApproxPercentile(50)),
                      static_cast<unsigned long long>(
                          v.histogram.ApproxPercentile(99)));
        break;
    }
    out += line;
  }
  return out;
}

namespace {

/// Dotted metric names become Prometheus metric names: every character
/// outside [a-zA-Z0-9_:] maps to '_', with a '_' prepended if the result
/// would start with a digit.
std::string PrometheusName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const auto& v : values) {
    const std::string name = PrometheusName(v.name);
    switch (v.kind) {
      case MetricValue::Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " + std::to_string(v.counter) + "\n";
        break;
      case MetricValue::Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + std::to_string(v.gauge) + "\n";
        break;
      case MetricValue::Kind::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        // Pow2 buckets render cumulatively: le is each bucket's inclusive
        // upper bound (0, 1, 3, 7, ...). Trailing empty buckets collapse
        // into +Inf; the explicit overflow bucket is +Inf itself.
        size_t last = v.histogram.buckets.size();
        while (last > 0 && v.histogram.buckets[last - 1] == 0) --last;
        uint64_t cumulative = 0;
        for (size_t i = 0; i < last; ++i) {
          cumulative += v.histogram.buckets[i];
          const uint64_t bound =
              Histogram::BucketUpperBound(static_cast<int>(i));
          if (bound == UINT64_MAX) continue;  // folded into +Inf below
          out += name + "_bucket{le=\"" + std::to_string(bound) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        out += name + "_bucket{le=\"+Inf\"} " +
               std::to_string(v.histogram.count) + "\n";
        out += name + "_sum " + std::to_string(v.histogram.sum) + "\n";
        out += name + "_count " + std::to_string(v.histogram.count) + "\n";
        break;
      }
    }
  }
  return out;
}

void AppendPrometheusWithLabel(std::string* out, std::string_view text,
                               std::string_view label,
                               std::set<std::string>* seen_types) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      // One TYPE declaration per metric across the whole fleet scrape.
      const std::string_view rest = line.substr(7);
      const size_t space = rest.find(' ');
      const std::string metric(rest.substr(0, space));
      if (seen_types != nullptr && !seen_types->insert(metric).second) {
        continue;
      }
      out->append(line);
      out->push_back('\n');
      continue;
    }
    if (line[0] == '#') {
      out->append(line);
      out->push_back('\n');
      continue;
    }
    // Sample line: inject the label into the (possibly absent) label set.
    const size_t brace = line.find('{');
    if (brace != std::string_view::npos) {
      out->append(line.substr(0, brace + 1));
      out->append(label);
      out->push_back(',');
      out->append(line.substr(brace + 1));
    } else {
      const size_t space = line.find(' ');
      if (space == std::string_view::npos) {
        out->append(line);  // malformed; pass through untouched
      } else {
        out->append(line.substr(0, space));
        out->push_back('{');
        out->append(label);
        out->push_back('}');
        out->append(line.substr(space));
      }
    }
    out->push_back('\n');
  }
}

const MetricValue* MetricsSnapshot::Find(std::string_view name) const {
  for (const auto& v : values) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

MetricRegistry* MetricRegistry::Global() {
  // Leaked singleton: instrument pointers must outlive every static
  // destructor that might still record.
  static MetricRegistry* registry = new MetricRegistry();
  return registry;
}

MetricRegistry::Stripe& MetricRegistry::StripeFor(std::string_view name) {
  return stripes_[std::hash<std::string_view>{}(name) % kStripes];
}

Counter* MetricRegistry::GetCounter(std::string_view name) {
  Stripe& stripe = StripeFor(name);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.counters.find(name);
  if (it == stripe.counters.end()) {
    it = stripe.counters
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricRegistry::GetGauge(std::string_view name) {
  Stripe& stripe = StripeFor(name);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.gauges.find(name);
  if (it == stripe.gauges.end()) {
    it = stripe.gauges.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricRegistry::GetHistogram(std::string_view name) {
  Stripe& stripe = StripeFor(name);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.histograms.find(name);
  if (it == stripe.histograms.end()) {
    it = stripe.histograms
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [name, counter] : stripe.counters) {
      MetricValue v;
      v.name = name;
      v.kind = MetricValue::Kind::kCounter;
      v.counter = counter->value();
      snapshot.values.push_back(std::move(v));
    }
    for (const auto& [name, gauge] : stripe.gauges) {
      MetricValue v;
      v.name = name;
      v.kind = MetricValue::Kind::kGauge;
      v.gauge = gauge->value();
      snapshot.values.push_back(std::move(v));
    }
    for (const auto& [name, histogram] : stripe.histograms) {
      MetricValue v;
      v.name = name;
      v.kind = MetricValue::Kind::kHistogram;
      v.histogram = histogram->Snapshot();
      snapshot.values.push_back(std::move(v));
    }
  }
  std::sort(snapshot.values.begin(), snapshot.values.end(),
            [](const MetricValue& a, const MetricValue& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.kind < b.kind;
            });
  return snapshot;
}

void MetricRegistry::ResetAllForTest() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (auto& [name, counter] : stripe.counters) counter->Reset();
    for (auto& [name, gauge] : stripe.gauges) gauge->Set(0);
    for (auto& [name, histogram] : stripe.histograms) histogram->Reset();
  }
}

}  // namespace modelhub
