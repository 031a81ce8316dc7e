#ifndef MODELHUB_BENCH_E2E_LAYERS_H_
#define MODELHUB_BENCH_E2E_LAYERS_H_

// Per-layer measurement from outside the program, three ways:
//   (c) deltas of the always-on MetricRegistry over the measured window;
//   (r) replay: the bench times public functions on inputs taken from the
//       workload's own corpus;
//   (t) self time of the spans the program records, from a traced window.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "nn/network.h"

namespace modelhub {
namespace e2e {

/// Named metrics in insertion order, each with its unit. A value that is
/// not finite is kept and written as null.
class MetricSet {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Registry deltas between Begin() and End(). The program registers a
/// counter or histogram at its first event, so a name the registry does not
/// hold at End() reads as zero events and is listed in missing(). run.py
/// checks before any run that the program's source defines every name read
/// here (`bench_e2e --list-registry-names`), so a renamed counter fails the
/// benchmark instead of reading as zero.
class CounterWindow {
 public:
  void Begin() { before_ = MetricRegistry::Global()->Snapshot(); }
  void End() { after_ = MetricRegistry::Global()->Snapshot(); }

  double Counter(std::string_view name);
  /// Delta count and sum of a histogram.
  std::pair<uint64_t, uint64_t> Histogram(std::string_view name);
  /// Delta mean of a histogram (0 when it recorded nothing).
  double HistogramMean(std::string_view name);

  const std::vector<std::string>& missing() const { return missing_; }
  /// Every name looked up so far, in order.
  const std::vector<std::string>& read() const { return read_; }

 private:
  const MetricValue* Lookup(const MetricsSnapshot& snapshot,
                            std::string_view name, MetricValue::Kind kind);

  MetricsSnapshot before_;
  MetricsSnapshot after_;
  std::vector<std::string> missing_;
  std::vector<std::string> read_;
};

/// What the bench itself knows about the window, for ratios.
struct WindowFacts {
  uint64_t ops = 0;     ///< Completed client ops (or ingest cycles).
  bool routed = false;  ///< A router sat in front of the servers.
};

/// Adds every (c) per-layer metric computed from `window`.
void AddCounterMetrics(CounterWindow* window, const WindowFacts& facts,
                       MetricSet* out);

/// Adds the (r) metrics of the net layer (serialize, parse, frame encode
/// and decode of `snapshot`) and of the codec path (encode, decode, plane
/// assembly and delta apply on the real delta base -> target).
void AddReplayMetrics(const std::vector<NamedParam>& snapshot,
                      const FloatMatrix& base, const FloatMatrix& target,
                      MetricSet* out);

/// Self time per span name: duration minus the union of its children's
/// intervals. Spans on pool threads are summed, so busy time across
/// threads can exceed wall time.
struct SelfTimes {
  std::map<std::string, double> self_us;
  double SelfUs(const std::string& name) const;
  /// Sum over every span whose name starts with `prefix`.
  double SelfUsWithPrefix(const std::string& prefix) const;
};
SelfTimes ComputeSelfTimes(const std::vector<TraceEvent>& events);

/// Adds the (t) metrics: self time per bench op in the traced window.
void AddTraceMetrics(const SelfTimes& self, uint64_t traced_ops,
                     MetricSet* out);

/// Median wall seconds of `fn` over at least `min_reps` calls and at least
/// `min_seconds` in total.
double MedianSeconds(const std::function<void()>& fn, int min_reps = 5,
                     double min_seconds = 0.05);

/// Nearest-rank percentile of `sorted` (ascending); p in (0, 100].
double Percentile(const std::vector<double>& sorted, double p);

}  // namespace e2e
}  // namespace modelhub

#endif  // MODELHUB_BENCH_E2E_LAYERS_H_
