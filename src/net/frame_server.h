#ifndef MODELHUB_NET_FRAME_SERVER_H_
#define MODELHUB_NET_FRAME_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/slow_log.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "net/frame.h"
#include "net/socket.h"

namespace modelhub {

/// The settings every frame server has: modelhubd's ServerOptions and
/// modelhub-router's RouterOptions derive from this.
struct FrameServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 binds an ephemeral port; read it back with port().

  /// Connection-serving workers. Each worker owns one connection at a
  /// time and serves its requests serially (the protocol has no
  /// interleaving), so this is also the request-level parallelism.
  int num_workers = 8;

  /// Backpressure: accepted connections wait in a bounded queue until a
  /// worker is free. When the queue is full — or active + queued
  /// connections reach max_connections — the server sheds: it writes one
  /// kUnavailable frame and closes instead of queueing unboundedly.
  int max_connections = 64;
  int queue_capacity = 32;

  uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Budget for writing one response / reading one request body.
  int io_timeout_ms = 10000;
  /// How long a connection may sit idle between requests.
  int idle_timeout_ms = 30000;

  /// Slow-request log threshold: requests whose dispatch takes at least
  /// this long land in a bounded ring dumped via STATS (0 disables).
  int slow_request_us = 100000;
  int slow_log_capacity = 64;
};

/// Who a frame server is: its shed word, request span and instruments,
/// filled by the owner from literal names. Shared code must not look an
/// instrument up by a runtime name: MH_* macros cache per call site, so
/// every role's counts would land under the first role's names.
struct FrameServerRole {
  const char* name;          ///< Shed messages: "<name> at capacity".
  const char* request_span;  ///< One span per request.
  Counter* starts;
  Counter* stops;
  Counter* accepted;
  Counter* shed;
  Counter* requests;
  Counter* errors;
  Counter* deadline_expired;
  Counter* slow_requests;
  Counter* bytes_in;   ///< Request frames, as sized on the wire.
  Counter* bytes_out;  ///< Response and shed frames, as sized on the wire.
  Gauge* queue_depth;
  Gauge* connections_active;
  Gauge* uptime_seconds;
  Histogram* queue_wait_us;
  /// The dispatch-latency histogram for a request opcode.
  Histogram* (*op_latency)(uint8_t opcode);
};

/// The accept → bounded queue → worker → drain frontend of modelhubd and
/// modelhub-router (DESIGN.md §9). One accept thread feeds a bounded
/// pending-connection queue; num_workers loops on an owned ThreadPool pop
/// connections and serve their frames serially through the owner's
/// dispatch callback.
///
/// Two-phase drain: RequestStop() (async-signal-safe) marks the server
/// stopping — PING advertises draining — and after drain_grace_ms it
/// halts: accepting ends, workers finish the request in hand, idle
/// connections close, and never-served queued connections are shed.
class FrameServer {
 public:
  /// Serves one request: `*result` receives the response bytes.
  using Dispatch = std::function<Status(const Frame& request,
                                        std::string* result)>;

  FrameServer(const FrameServerOptions& options, int drain_grace_ms,
              const FrameServerRole& role, Dispatch dispatch);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds the listener and starts the accept thread and workers.
  Status Start();

  /// Begins the drain without blocking. Safe from signal handlers.
  void RequestStop();

  /// Drains and joins. Idempotent.
  void Stop();

  /// Blocks until RequestStop() is observed (polling, so a signal-handler
  /// store is enough to end it).
  void WaitUntilStopRequested() const;

  /// The bound port (valid after Start; resolves ephemeral binds).
  int port() const { return listener_.has_value() ? listener_->port() : 0; }
  /// True between Start() and the end of Stop().
  bool running() const { return running_.load(std::memory_order_acquire); }
  /// True once a drain has been requested (RequestStop, Stop, or a
  /// SHUTDOWN rpc).
  bool stop_requested() const { return stopping_.load(); }

  /// Connections accepted but not yet picked up by a worker.
  size_t queued() const;

  /// "pong state=<serving|draining> queue=<n> active=<n>": the PING
  /// reply's leading liveness token and load state (ParsePingReply).
  std::string PingReply() const;

  const SlowRequestLog& slow_log() const { return slow_log_; }

  void UpdateUptimeGauge() const;

 private:
  struct PendingConn {
    Socket sock;
    std::chrono::steady_clock::time_point enqueued;
  };

  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(Socket sock);

  /// Writes a kUnavailable frame (opcode 0 — the request was never read)
  /// and lets `sock` close.
  void Shed(Socket sock, const std::string& reason);

  const FrameServerOptions options_;
  const int drain_grace_ms_;
  const FrameServerRole role_;
  const Dispatch dispatch_;

  std::optional<Listener> listener_;
  std::unique_ptr<ThreadPool> workers_;
  std::thread accept_thread_;
  WaitGroup worker_group_;

  std::atomic<bool> running_{false};
  /// Two-phase drain: stopping_ flips at RequestStop (PING advertises
  /// draining, the grace clock starts); halt_ flips once the grace
  /// window lapses (workers exit, in-flight idle reads cancel). With
  /// drain_grace_ms == 0 the two are effectively simultaneous.
  std::atomic<bool> stopping_{false};
  std::atomic<bool> halt_{false};
  std::atomic<int> active_connections_{0};
  std::chrono::steady_clock::time_point started_at_;
  SlowRequestLog slow_log_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingConn> pending_;  ///< Guarded by queue_mu_.
};

/// The SIGTERM/SIGINT main loop behind RunServerMain and RunRouterMain:
/// blocks until a signal arrives or `stop_requested` turns true (a
/// SHUTDOWN rpc), then drains with `stop`. Returns the process exit code;
/// messages go to stderr prefixed with "<program>: ".
int WaitForStopSignal(const char* program,
                      const std::function<bool()>& stop_requested,
                      const std::function<Status()>& stop);

}  // namespace modelhub

#endif  // MODELHUB_NET_FRAME_SERVER_H_
