#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>

#include "compress/codec.h"
#include "dlv/repository.h"
#include "net/frame.h"
#include "pas/delta.h"
#include "pas/segment.h"

namespace modelhub {
namespace e2e {
namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Replay results land here so no timed call is dead code.
volatile uint64_t g_replay_sink = 0;

}  // namespace

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back({name, value, unit});
}

const MetricValue* CounterWindow::Lookup(const MetricsSnapshot& snapshot,
                                         std::string_view name,
                                         MetricValue::Kind kind) {
  for (const MetricValue& v : snapshot.values) {
    if (v.kind == kind && v.name == name) return &v;
  }
  return nullptr;
}

double CounterWindow::Counter(std::string_view name) {
  read_.emplace_back(name);
  const MetricValue* after =
      Lookup(after_, name, MetricValue::Kind::kCounter);
  if (after == nullptr) {
    missing_.emplace_back(name);
    return 0.0;
  }
  const MetricValue* before =
      Lookup(before_, name, MetricValue::Kind::kCounter);
  return static_cast<double>(after->counter -
                             (before != nullptr ? before->counter : 0));
}

std::pair<uint64_t, uint64_t> CounterWindow::Histogram(std::string_view name) {
  read_.emplace_back(name);
  const MetricValue* after =
      Lookup(after_, name, MetricValue::Kind::kHistogram);
  if (after == nullptr) {
    missing_.emplace_back(name);
    return {0, 0};
  }
  const MetricValue* before =
      Lookup(before_, name, MetricValue::Kind::kHistogram);
  if (before == nullptr) return {after->histogram.count, after->histogram.sum};
  return {after->histogram.count - before->histogram.count,
          after->histogram.sum - before->histogram.sum};
}

double CounterWindow::HistogramMean(std::string_view name) {
  const auto [count, sum] = Histogram(name);
  return Ratio(static_cast<double>(sum), static_cast<double>(count));
}

void AddCounterMetrics(CounterWindow* w, const WindowFacts& facts,
                       MetricSet* out) {
  const double ops = static_cast<double>(std::max<uint64_t>(1, facts.ops));

  // net: what the client receives (the router's replies when routed).
  const double bytes_out = facts.routed ? w->Counter("router.bytes.out")
                                        : w->Counter("server.bytes.out");
  out->Add("net.response_mb_per_op", bytes_out / 1e6 / ops, "MB");

  if (facts.routed) {
    out->Add("router.forward_us_mean",
             w->HistogramMean("router.op.forward.us"), "us");
    out->Add("router.queue_wait_us_mean",
             w->HistogramMean("router.queue.wait.us"), "us");
    out->Add("router.retries", w->Counter("router.retries.count"), "count");
  } else {
    out->Add("router.forward_us_mean", 0.0, "us");
    out->Add("router.queue_wait_us_mean", 0.0, "us");
    out->Add("router.retries", 0.0, "count");
  }

  out->Add("server.get_snapshot_us_mean",
           w->HistogramMean("server.op.get_snapshot.us"), "us");
  out->Add("server.queue_wait_us_mean",
           w->HistogramMean("server.queue.wait.us"), "us");
  out->Add("server.dql_query_us_mean",
           w->HistogramMean("server.op.dql_query.us"), "us");
  out->Add("server.shed", w->Counter("server.shed.count"), "count");

  const double coalesce_hits = w->Counter("server.coalesce.hit.count");
  const double coalesce_misses = w->Counter("server.coalesce.miss.count");
  out->Add("pas.coalesce.hit_ratio",
           Ratio(coalesce_hits, coalesce_hits + coalesce_misses), "ratio");

  // Retrieval calls cover exact pulls, bounds reads and the lifecycle
  // daemon's re-archive reads alike.
  const double calls = w->Counter("pas.retrieve.count");
  out->Add("pas.retrieve.us_mean", w->HistogramMean("pas.retrieve.us"), "us");
  out->Add("pas.retrieve.vertices_per_pull",
           Ratio(w->Counter("pas.retrieve.vertices"), calls), "count");
  out->Add("pas.retrieve.delta_applies_per_pull",
           Ratio(w->Counter("pas.retrieve.delta.apply"), calls), "count");

  const double hits = w->Counter("pas.chunk.cache.hit");
  const double misses = w->Counter("pas.chunk.cache.miss");
  const double fetches = w->Counter("pas.chunk.fetch.count");
  out->Add("pas.chunk.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  out->Add("pas.chunk.fetches_per_pull", Ratio(fetches, calls), "count");
  out->Add("pas.chunk.fetch_us_mean", w->HistogramMean("pas.chunk.fetch.us"),
           "us");
  out->Add("pas.chunk.fetch_mb_per_pull",
           Ratio(w->Counter("pas.chunk.fetch.bytes") / 1e6, calls), "MB");
  out->Add("pas.chunk.evictions_per_pull",
           Ratio(w->Counter("pas.chunk.cache.evict"), calls), "count");
  // A miss that did not end in a fetch lost a race: another thread decoded
  // the same chunk concurrently and this decode was thrown away.
  out->Add("pas.chunk.duplicate_decode_ratio",
           Ratio(std::max(0.0, misses - fetches), misses), "ratio");

  out->Add("lifecycle.cycles", w->Counter("lifecycle.cycles.completed"),
           "count");
  out->Add("lifecycle.cycle_ms_mean",
           w->HistogramMean("lifecycle.cycle.us") / 1000.0, "ms");
  // Raw bytes per microsecond of re-encode time is MB/s.
  out->Add("lifecycle.reencode_mbps",
           Ratio(w->Counter("lifecycle.reencode.raw.bytes"),
                 static_cast<double>(
                     w->Histogram("lifecycle.reencode.us").second)),
           "MB/s");
  out->Add("lifecycle.gc_reclaimed_mb",
           w->Counter("lifecycle.gc.reclaimed.bytes") / 1e6, "MB");
  out->Add("lifecycle.yields", w->Counter("lifecycle.yield.count"), "count");

  out->Add("dlv.commit_ms_mean", w->HistogramMean("dlv.commit.us") / 1000.0,
           "ms");

  out->Add("pas.archive.encode_us_mean",
           w->HistogramMean("pas.archive.encode.us"), "us");
  out->Add("pas.archive.commit_us_mean",
           w->HistogramMean("pas.archive.commit.us"), "us");
  out->Add("pas.solver.solve_us_mean", w->HistogramMean("pas.solver.solve.us"),
           "us");
  out->Add("pas.solver.edges_considered",
           w->Counter("pas.solver.edges.considered"), "count");
  const double saved = w->Counter("pas.dedup.saved.bytes");
  out->Add("pas.dedup.saved_ratio",
           Ratio(saved, w->Counter("pas.archive.stored.bytes")), "ratio");
  out->Add("pas.chunk.write_mb", w->Counter("pas.chunk.write.bytes") / 1e6,
           "MB");
}

double MedianSeconds(const std::function<void()>& fn, int min_reps,
                     double min_seconds) {
  std::vector<double> times;
  double total = 0.0;
  while (static_cast<int>(times.size()) < min_reps ||
         (total < min_seconds && times.size() < 1000)) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    times.push_back(s);
    total += s;
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

void AddReplayMetrics(const std::vector<NamedParam>& snapshot,
                      const FloatMatrix& base, const FloatMatrix& target,
                      MetricSet* out) {
  uint64_t sink = 0;
  const std::string serialized = SerializeParams(snapshot);
  const std::string payload = EncodeResponsePayload(Status::OK(), serialized);
  const uint8_t opcode = static_cast<uint8_t>(Opcode::kGetSnapshot);
  const std::string frame = EncodeFrame(opcode, payload);
  const double snapshot_mb = static_cast<double>(serialized.size()) / 1e6;

  const double serialize_s =
      MedianSeconds([&] { sink += SerializeParams(snapshot).size(); });
  const double parse_s = MedianSeconds([&] {
    auto parsed = ParseParams(Slice(serialized));
    sink += parsed.ok() ? parsed->size() : 0;
  });
  const double encode_frame_s =
      MedianSeconds([&] { sink += EncodeFrame(opcode, payload).size(); });
  const double decode_frame_s = MedianSeconds([&] {
    Slice in(frame);
    Frame decoded;
    if (DecodeFrame(&in, &decoded).ok()) sink += decoded.payload.size();
  });
  out->Add("net.serialize_mbps", snapshot_mb / serialize_s, "MB/s");
  out->Add("net.parse_mbps", snapshot_mb / parse_s, "MB/s");
  out->Add("net.frame_encode_mbps", snapshot_mb / encode_frame_s, "MB/s");
  out->Add("net.frame_decode_mbps", snapshot_mb / decode_frame_s, "MB/s");

  // The codec path on one real delta, as PAS stores and reads it: four
  // byte planes, each compressed on its own.
  auto delta = ComputeDelta(target, base, DeltaKind::kSub);
  if (!delta.ok()) return;
  const auto planes = SegmentFloats(*delta);
  const std::vector<Slice> views(planes.begin(), planes.end());
  const Codec* codec = Codec::Get(CodecType::kDeflateLite);
  std::vector<std::string> compressed(planes.size());
  for (size_t p = 0; p < planes.size(); ++p) {
    (void)codec->Compress(views[p], &compressed[p]);
  }
  const double matrix_mb = static_cast<double>(delta->size()) * 4 / 1e6;

  const double encode_s = MedianSeconds([&] {
    std::string buf;
    for (const Slice& plane : views) {
      (void)codec->Compress(plane, &buf);
      sink += buf.size();
    }
  });
  const double decode_s = MedianSeconds([&] {
    std::string buf;
    for (const std::string& c : compressed) {
      (void)codec->Decompress(Slice(c), &buf);
      sink += buf.size();
    }
  });
  const double assemble_s = MedianSeconds([&] {
    auto m = AssembleFloats(delta->rows(), delta->cols(), views);
    sink += m.ok() ? m->size() : 0;
  });
  const double apply_s = MedianSeconds([&] {
    auto m = ApplyDelta(base, *delta, DeltaKind::kSub);
    sink += m.ok() ? m->size() : 0;
  });
  out->Add("compress.encode_mbps", matrix_mb / encode_s, "MB/s");
  out->Add("compress.decode_mbps", matrix_mb / decode_s, "MB/s");
  out->Add("pas.segment.assemble_mbps", matrix_mb / assemble_s, "MB/s");
  out->Add("pas.delta.apply_mbps", matrix_mb / apply_s, "MB/s");
  g_replay_sink = sink;
}

double SelfTimes::SelfUs(const std::string& name) const {
  auto it = self_us.find(name);
  return it == self_us.end() ? 0.0 : it->second;
}

double SelfTimes::SelfUsWithPrefix(const std::string& prefix) const {
  double total = 0.0;
  for (const auto& [name, us] : self_us) {
    if (name.compare(0, prefix.size(), prefix) == 0) total += us;
  }
  return total;
}

SelfTimes ComputeSelfTimes(const std::vector<TraceEvent>& events) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(events.size());
  for (size_t i = 0; i < events.size(); ++i) index[events[i].id] = i;
  std::vector<std::vector<size_t>> children(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    auto it = index.find(events[i].parent_id);
    if (it != index.end() && it->second != i) children[it->second].push_back(i);
  }
  SelfTimes out;
  std::vector<std::pair<uint64_t, uint64_t>> covered;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const uint64_t begin = e.start_us;
    const uint64_t end = e.start_us + e.duration_us;
    covered.clear();
    for (size_t c : children[i]) {
      const uint64_t cb = std::max(begin, events[c].start_us);
      const uint64_t ce =
          std::min(end, events[c].start_us + events[c].duration_us);
      if (cb < ce) covered.push_back({cb, ce});
    }
    std::sort(covered.begin(), covered.end());
    uint64_t union_us = 0;
    uint64_t run_begin = 0;
    uint64_t run_end = 0;
    for (size_t k = 0; k < covered.size(); ++k) {
      if (k == 0 || covered[k].first > run_end) {
        union_us += run_end - run_begin;
        run_begin = covered[k].first;
        run_end = covered[k].second;
      } else {
        run_end = std::max(run_end, covered[k].second);
      }
    }
    union_us += run_end - run_begin;
    out.self_us[e.name] += static_cast<double>(e.duration_us - union_us);
  }
  return out;
}

void AddTraceMetrics(const SelfTimes& self, uint64_t traced_ops,
                     MetricSet* out) {
  const double ops = static_cast<double>(std::max<uint64_t>(1, traced_ops));
  const auto per_op_us = [&](const char* span) {
    return self.SelfUs(span) / ops;
  };
  out->Add("net.client_self_us", self.SelfUsWithPrefix("bench.client.") / ops,
           "us");
  out->Add("router.request_self_us", per_op_us("router.request"), "us");
  out->Add("router.forward_self_us", per_op_us("router.forward"), "us");
  out->Add("server.request_self_us", per_op_us("server.request"), "us");
  out->Add("pas.retrieve.parallel_self_us", per_op_us("pas.retrieve.parallel"),
           "us");
  out->Add("pas.retrieve.bounds_self_us", per_op_us("pas.retrieve.bounds"),
           "us");
  out->Add("dql.query_self_us", per_op_us("dql.query"), "us");
  out->Add("dlv.commit_self_ms", per_op_us("dlv.commit") / 1000.0, "ms");
  out->Add("dlv.archive_self_ms", per_op_us("dlv.archive") / 1000.0, "ms");
  out->Add("pas.archive.build_self_ms", per_op_us("pas.archive.build") / 1000.0,
           "ms");
  out->Add("pas.archive.sketch_ms", per_op_us("pas.archive.sketch") / 1000.0,
           "ms");
  out->Add("pas.archive.scheme_ms", per_op_us("pas.archive.scheme") / 1000.0,
           "ms");
  out->Add("pas.archive.pipeline_self_ms",
           per_op_us("pas.archive.pipeline") / 1000.0, "ms");
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace e2e
}  // namespace modelhub
