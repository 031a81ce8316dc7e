#ifndef MODELHUB_COMMON_TRACE_H_
#define MODELHUB_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace modelhub {

/// Hierarchical tracing (DESIGN.md §8, §13). A `TraceSpan` is an RAII scope
/// that, when recording is enabled, captures {name, start, duration,
/// parent span, thread, annotations} into a process-wide bounded ring
/// buffer. Nesting is tracked with a thread-local current-span id, so
/// spans opened on a worker thread parent correctly within that thread
/// (ThreadPool::Schedule hands the scheduler's trace context to the
/// worker, so spans recorded on pool threads keep the originating
/// request's trace id).
///
/// Recording is off by default; a disabled TraceSpan costs one relaxed
/// atomic load, one thread-local read, and nothing else.

/// The distributed-tracing context of the current thread (DESIGN.md §13).
/// A request that arrives with a trace-context wire header installs one
/// for the duration of its dispatch; every span recorded under it carries
/// the 128-bit trace id, roots adopt the remote caller's span id as their
/// parent, and outbound client calls re-emit the context on the wire.
struct TraceContext {
  uint64_t trace_hi = 0;  ///< 128-bit trace id, high word.
  uint64_t trace_lo = 0;  ///< 128-bit trace id, low word.
  /// The caller's span id: local roots parent to it so a merged fleet
  /// trace chains client -> router -> backend spans.
  uint64_t parent_span = 0;
  /// Sampling decision, made once at the edge and relayed verbatim: true
  /// records spans for this request even if the recorder is globally
  /// disabled, false suppresses them even if it is enabled.
  bool sampled = false;
  /// Client deadline (absolute, this process's steady clock). Spans that
  /// close past it are annotated after_deadline=true — wasted work made
  /// visible.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  /// A zero trace id means "no context" — the thread-local default.
  bool active() const { return (trace_hi | trace_lo) != 0; }
  bool deadline_expired() const {
    return has_deadline && std::chrono::steady_clock::now() > deadline;
  }
  /// Milliseconds until the deadline, 0 when expired or absent.
  uint64_t deadline_remaining_ms() const;
  /// 32 lowercase hex chars, or "" when inactive.
  std::string TraceIdHex() const;
};

/// The calling thread's current context (inactive by default).
const TraceContext& CurrentTraceContext();
void SetCurrentTraceContext(const TraceContext& context);
/// The calling thread's innermost open span id (0 = none).
uint64_t CurrentSpanId();
/// Wall-clock microseconds since the unix epoch.
uint64_t UnixMicrosNow();

/// RAII install/restore of the thread's trace context.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
};

/// A fresh sampled context with a random non-zero 128-bit trace id — what
/// `dlv rpc --trace` installs at the edge of a traced request.
TraceContext MakeSampledTraceContext();

/// A completed span as stored in the ring buffer.
struct TraceEvent {
  uint64_t id = 0;         ///< Unique per process, randomized base.
  uint64_t parent_id = 0;  ///< 0 for roots (may be a remote span id).
  std::string name;
  uint64_t start_us = 0;     ///< Microseconds since recorder creation.
  uint64_t duration_us = 0;  ///< Span wall time in microseconds.
  uint64_t thread_id = 0;    ///< Stable small id per recording thread.
  uint64_t trace_hi = 0;     ///< Owning trace id (0 = untraced span).
  uint64_t trace_lo = 0;
  /// Key/value annotations attached via TraceSpan::Annotate.
  std::vector<std::pair<std::string, std::string>> annotations;
};

/// Bounded in-memory span sink. Spans past `capacity` overwrite the
/// oldest (ring semantics); `dropped_spans` counts the overwritten ones
/// and every overwrite bumps the `trace.dropped_events` counter so
/// truncated traces are detectable from `dlv stats`.
class TraceRecorder {
 public:
  static TraceRecorder* Global();

  /// Toggle recording. Enabling does not clear prior spans; use Clear().
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Resize the ring (drops all recorded spans). Minimum capacity 1.
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  void Clear();

  /// Spans recorded in completion order (oldest surviving first).
  std::vector<TraceEvent> Snapshot() const;
  /// Total spans ever recorded and how many were overwritten by ring wrap.
  uint64_t total_spans() const;
  uint64_t dropped_spans() const;

  /// Wall-clock microseconds (unix epoch) of the recorder's steady-clock
  /// origin: `origin_unix_us() + event.start_us` anchors a span on the
  /// shared wall-clock timeline when merging dumps across processes.
  uint64_t origin_unix_us() const { return origin_unix_us_; }

  /// {"spans":[{id,parent,name,start_us,dur_us,tid,args:{...}}...],
  ///  "total":N,"dropped":M}
  std::string ToJson() const;
  /// chrome://tracing / Perfetto-compatible trace_event JSON array of
  /// complete ("ph":"X") events (single-process view, pid fixed at 1;
  /// MergeTraceDumps renders the cross-process view).
  std::string ToChromeTraceJson() const;

  // Internals used by TraceSpan.
  uint64_t NextSpanId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  uint64_t NowMicros() const;
  void Record(TraceEvent event);

 private:
  TraceRecorder();

  static constexpr size_t kDefaultCapacity = 4096;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  std::chrono::steady_clock::time_point origin_;
  uint64_t origin_unix_us_ = 0;

  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  ///< Guarded by mu_.
  size_t capacity_ = kDefaultCapacity;
  size_t next_slot_ = 0;     ///< Ring write cursor.
  uint64_t total_ = 0;       ///< Spans ever recorded.
  uint64_t next_thread_ = 0; ///< Next small thread id to hand out.
};

/// RAII span. Construct to open, destruct to close+record. Movable is not
/// needed — spans are stack-scoped by design.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach a key/value pair (no-op when recording was off at open).
  void Annotate(const char* key, std::string value);
  void Annotate(const char* key, uint64_t value) {
    Annotate(key, std::to_string(value));
  }

  bool recording() const { return recording_; }

 private:
  bool recording_ = false;
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t previous_current_ = 0;  ///< tls_current_span to restore.
  uint64_t start_us_ = 0;
  uint64_t trace_hi_ = 0;
  uint64_t trace_lo_ = 0;
  const char* name_ = nullptr;
  std::vector<std::pair<std::string, std::string>> annotations_;
};

/// One process's span buffer plus the identity needed to merge it with
/// other processes' buffers: the GET_TRACE payload (DESIGN.md §13).
struct TraceNodeDump {
  std::string node;           ///< Human label, e.g. "modelhubd@host:port".
  uint64_t pid = 0;           ///< OS pid — the merged trace's pid axis.
  uint64_t origin_unix_us = 0;
  uint64_t total = 0;
  uint64_t dropped = 0;
  std::vector<TraceEvent> events;
};

/// This process's recorder contents as a dump labelled `node`.
TraceNodeDump CollectTraceDump(std::string node);

/// Appends one length-delimited node section to `out`. Sections are
/// self-delimiting, so a router merges fleets by concatenating its own
/// section with each backend's GET_TRACE response verbatim.
void AppendTraceDump(std::string* out, const TraceNodeDump& dump);

/// Parses every concatenated node section from `in`.
Status ParseTraceDumps(Slice in, std::vector<TraceNodeDump>* out);

/// Renders dumps from many processes as one Chrome-trace/Perfetto JSON
/// array: one pid per node (with process_name metadata), spans anchored
/// on the wall clock via origin_unix_us, trace/span ids in args, and a
/// synthetic "wire.gap" span wherever a span's parent lives in a
/// different process (the client->server hop latency made visible).
std::string MergeTraceDumps(const std::vector<TraceNodeDump>& dumps);

}  // namespace modelhub

#endif  // MODELHUB_COMMON_TRACE_H_
