#include "net/frame_server.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <utility>

#include "common/macros.h"
#include "common/trace.h"

namespace modelhub {
namespace {

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

FrameServer::FrameServer(const FrameServerOptions& options, int drain_grace_ms,
                         const FrameServerRole& role, Dispatch dispatch)
    : options_(options),
      drain_grace_ms_(drain_grace_ms),
      role_(role),
      dispatch_(std::move(dispatch)),
      slow_log_(static_cast<size_t>(std::max(1, options.slow_log_capacity))) {}

FrameServer::~FrameServer() { Stop(); }

Status FrameServer::Start() {
  MH_ASSIGN_OR_RETURN(Listener listener,
                      Listener::Bind(options_.host, options_.port));
  listener_.emplace(std::move(listener));
  workers_ = std::make_unique<ThreadPool>(std::max(1, options_.num_workers));

  stopping_.store(false);
  halt_.store(false);
  started_at_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  role_.starts->Increment();
  UpdateUptimeGauge();
  for (int i = 0; i < workers_->num_threads(); ++i) {
    workers_->Schedule(&worker_group_, [this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void FrameServer::RequestStop() {
  // Only an atomic store and a pipe write — callable from signal handlers.
  stopping_.store(true);
  if (listener_.has_value()) listener_->Wake();
}

void FrameServer::WaitUntilStopRequested() const {
  while (!stopping_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

void FrameServer::Stop() {
  if (!running_.load()) return;
  RequestStop();
  if (accept_thread_.joinable()) accept_thread_.join();
  halt_.store(true);
  queue_cv_.notify_all();
  worker_group_.Wait();
  // Connections that were queued but never reached a worker get a polite
  // refusal instead of a silent close.
  std::deque<PendingConn> leftover;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftover.swap(pending_);
    role_.queue_depth->Set(0);
  }
  for (PendingConn& pc : leftover) {
    Shed(std::move(pc.sock), std::string(role_.name) + " draining");
  }
  workers_.reset();
  listener_.reset();
  UpdateUptimeGauge();
  role_.stops->Increment();
  running_.store(false, std::memory_order_release);
}

size_t FrameServer::queued() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return pending_.size();
}

std::string FrameServer::PingReply() const {
  // The reply leads with the bare "pong" liveness token (old clients key
  // on that) and appends load/lifecycle state so a router can steer away
  // from a draining or backed-up server before requests start failing.
  return std::string("pong state=") +
         (stopping_.load() ? "draining" : "serving") +
         " queue=" + std::to_string(queued()) +
         " active=" + std::to_string(active_connections_.load());
}

void FrameServer::UpdateUptimeGauge() const {
  role_.uptime_seconds->Set(
      static_cast<int64_t>(ElapsedUs(started_at_) / 1000000));
}

void FrameServer::Shed(Socket sock, const std::string& reason) {
  role_.shed->Increment();
  // Opcode 0: the request was never read, so there is nothing to echo.
  const std::string wire =
      EncodeResponseFrame(0, Status::Unavailable(reason), "");
  role_.bytes_out->Add(wire.size());
  (void)sock.WriteFull(wire.data(), wire.size(), Deadline::AfterMs(1000));
}

void FrameServer::AcceptLoop() {
  // Drain choreography: once stopping_ flips, keep accepting and serving
  // for drain_grace_ms (PING advertises draining, so routers steer away
  // on their own schedule) before halting. Grace 0 halts immediately —
  // the classic drain.
  std::optional<std::chrono::steady_clock::time_point> halt_at;
  for (;;) {
    if (stopping_.load() && !halt_at.has_value()) {
      if (drain_grace_ms_ <= 0) break;
      halt_at = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(drain_grace_ms_);
    }
    int timeout_ms = -1;
    if (halt_at.has_value()) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(*halt_at -
                                     std::chrono::steady_clock::now());
      if (remaining.count() <= 0) break;
      timeout_ms = static_cast<int>(remaining.count());
    }
    Result<Socket> accepted = listener_->Accept(timeout_ms);
    if (!accepted.ok()) {
      // Timeout: the grace window lapsed (re-checked above). Wake: the
      // drain began (or a spurious wake) — loop to start the clock.
      continue;
    }
    role_.accepted->Increment();
    std::unique_lock<std::mutex> lock(queue_mu_);
    const size_t queued = pending_.size();
    if (queued >= static_cast<size_t>(options_.queue_capacity) ||
        active_connections_.load() + static_cast<int>(queued) >=
            options_.max_connections) {
      lock.unlock();
      Shed(accepted.MoveValue(), std::string(role_.name) + " at capacity");
      continue;
    }
    pending_.push_back(
        {accepted.MoveValue(), std::chrono::steady_clock::now()});
    role_.queue_depth->Set(static_cast<int64_t>(pending_.size()));
    lock.unlock();
    queue_cv_.notify_one();
  }
  // Accepting is over: halt the workers (in-flight responses still
  // complete — ServeConnection only checks halt_ between requests).
  halt_.store(true);
  queue_cv_.notify_all();
}

void FrameServer::WorkerLoop() {
  for (;;) {
    PendingConn pc;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [&] { return halt_.load() || !pending_.empty(); });
      if (halt_.load()) break;
      pc = std::move(pending_.front());
      pending_.pop_front();
      role_.queue_depth->Set(static_cast<int64_t>(pending_.size()));
    }
    const uint64_t waited_us = ElapsedUs(pc.enqueued);
    role_.queue_wait_us->Record(waited_us);
    // A connection that waited longer than the idle timeout is stale: its
    // client has almost certainly timed out, and any request already on
    // the wire would be served against an expired deadline. Shed it with
    // a typed refusal instead of burning a worker on a dead exchange.
    if (waited_us / 1000 >
        static_cast<uint64_t>(std::max(0, options_.idle_timeout_ms))) {
      Shed(std::move(pc.sock), "queued past idle timeout");
      continue;
    }
    active_connections_.fetch_add(1);
    role_.connections_active->Add(1);
    ServeConnection(std::move(pc.sock));
    role_.connections_active->Add(-1);
    active_connections_.fetch_sub(1);
  }
}

void FrameServer::ServeConnection(Socket sock) {
  while (!halt_.load()) {
    Frame request;
    bool clean_eof = false;
    // The idle read is cancellable at halt (the grace window keeps
    // serving through a mere drain request); once a request is in hand,
    // its dispatch and response write run to completion even mid-drain.
    const Status read =
        ReadFrame(&sock, &request, options_.max_frame_bytes,
                  Deadline::AfterMs(options_.idle_timeout_ms), &halt_,
                  &clean_eof);
    if (!read.ok()) {
      if (!clean_eof && !halt_.load() && !read.IsDeadlineExceeded() &&
          !read.IsUnavailable()) {
        role_.errors->Increment();
      }
      break;
    }
    role_.bytes_in->Add(request.wire_bytes);

    std::string result;
    Status status;
    const TraceContext ctx = ContextFromFrame(request);
    uint64_t latency_us = 0;
    {
      // The request's trace context governs every span recorded below it:
      // retrieval spans on pool threads inherit it through
      // ThreadPool::Schedule, and a router's outbound client re-emits it
      // on the wire with its forward span as the new parent.
      ScopedTraceContext trace_scope(ctx);
      TraceSpan span(role_.request_span);
      span.Annotate("op", std::string(OpcodeToString(request.opcode)));
      const auto dispatched_at = std::chrono::steady_clock::now();
      if (request.version != kWireVersion) {
        status = Status::InvalidArgument(
            "unsupported wire version " + std::to_string(request.version));
      } else {
        status = dispatch_(request, &result);
      }
      latency_us = ElapsedUs(dispatched_at);
      role_.op_latency(request.opcode)->Record(latency_us);
      span.Annotate("status", std::string(StatusCodeToString(status.code())));
      span.Annotate("result_bytes", static_cast<uint64_t>(result.size()));
    }
    role_.requests->Increment();
    if (!status.ok()) role_.errors->Increment();
    const bool after_deadline = ctx.deadline_expired();
    if (after_deadline) role_.deadline_expired->Increment();
    if (options_.slow_request_us > 0 &&
        latency_us >= static_cast<uint64_t>(options_.slow_request_us)) {
      SlowRequestEntry entry;
      entry.op = std::string(OpcodeToString(request.opcode));
      entry.latency_us = latency_us;
      entry.status = std::string(StatusCodeToString(status.code()));
      entry.trace_hi = ctx.trace_hi;
      entry.trace_lo = ctx.trace_lo;
      entry.after_deadline = after_deadline;
      entry.unix_us = UnixMicrosNow();
      slow_log_.Record(std::move(entry));
      role_.slow_requests->Increment();
    }

    const std::string wire =
        EncodeResponseFrame(request.opcode, status, result);
    role_.bytes_out->Add(wire.size());
    const Status written = sock.WriteFull(
        wire.data(), wire.size(), Deadline::AfterMs(options_.io_timeout_ms));
    if (!written.ok()) break;
    if (request.opcode == static_cast<uint8_t>(Opcode::kShutdown)) {
      RequestStop();
      break;
    }
  }
}

namespace {

volatile std::sig_atomic_t g_stop_signal = 0;

void OnStopSignal(int) { g_stop_signal = 1; }

}  // namespace

int WaitForStopSignal(const char* program,
                      const std::function<bool()>& stop_requested,
                      const std::function<Status()>& stop) {
  g_stop_signal = 0;
  std::signal(SIGTERM, OnStopSignal);
  std::signal(SIGINT, OnStopSignal);
  while (g_stop_signal == 0 && !stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "%s: draining\n", program);
  const Status stopped = stop();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  if (!stopped.ok()) {
    std::fprintf(stderr, "%s: %s\n", program, stopped.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace modelhub
