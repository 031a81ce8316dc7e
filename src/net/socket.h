#ifndef MODELHUB_NET_SOCKET_H_
#define MODELHUB_NET_SOCKET_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace modelhub {

/// An absolute per-operation deadline for socket I/O (DESIGN.md §9).
/// Deadlines are absolute so one budget spans a multi-read frame parse:
/// every retry of a short read consumes the same clock, not a fresh
/// timeout.
class Deadline {
 public:
  /// No deadline: operations block until completion or error.
  static Deadline Infinite() { return Deadline(); }

  /// Expires `ms` milliseconds from now (<= 0 expires immediately).
  static Deadline AfterMs(int64_t ms) {
    Deadline d;
    d.infinite_ = false;
    d.at_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    return d;
  }

  bool infinite() const { return infinite_; }

  /// Milliseconds until expiry, clamped to >= 0. Meaningless if infinite.
  int RemainingMs() const {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        at_ - std::chrono::steady_clock::now());
    return left.count() < 0 ? 0 : static_cast<int>(left.count());
  }

  bool Expired() const { return !infinite_ && RemainingMs() == 0; }

 private:
  Deadline() = default;
  bool infinite_ = true;
  std::chrono::steady_clock::time_point at_;
};

/// RAII wrapper over a POSIX stream-socket fd: closes on destruction,
/// move-only, and provides full-length read/write loops that absorb EINTR
/// and short I/O, enforce deadlines with poll(), and never raise SIGPIPE.
///
/// All errors are typed Statuses: kDeadlineExceeded (op deadline expired),
/// kUnavailable (peer unreachable / cancelled), kIOError (everything
/// else). A clean peer close before the first byte of a read is reported
/// through `clean_eof` so framed protocols can tell "client hung up
/// between requests" from "stream torn mid-frame".
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  /// Connects a TCP socket to `host`:`port` within `deadline`.
  /// A refused / unreachable / timed-out connect returns kUnavailable so
  /// callers (dlv rpc) can distinguish "no server" from a served error.
  static Result<Socket> Connect(const std::string& host, int port,
                                const Deadline& deadline);

  /// Reads exactly `n` bytes. Loops over short reads, retries EINTR, and
  /// polls with `deadline`. When `cancel` is non-null it is checked about
  /// every 100ms and aborts the read with kUnavailable ("cancelled") —
  /// the graceful-drain hook. If the peer closed before the first byte,
  /// sets `*clean_eof` (when provided) and returns kIOError.
  Status ReadFull(void* buf, size_t n, const Deadline& deadline,
                  const std::atomic<bool>* cancel = nullptr,
                  bool* clean_eof = nullptr);

  /// Writes exactly `n` bytes, with the same EINTR/short-write/deadline/
  /// cancel handling as ReadFull. SIGPIPE is suppressed (MSG_NOSIGNAL);
  /// a closed peer surfaces as kIOError.
  Status WriteFull(const void* buf, size_t n, const Deadline& deadline,
                   const std::atomic<bool>* cancel = nullptr);

 private:
  /// Polls for `events` readiness within the deadline / cancel window.
  Status WaitReady(short events, const Deadline& deadline,
                   const std::atomic<bool>* cancel);

  int fd_ = -1;
};

/// A listening TCP socket plus a self-pipe so a blocked Accept() can be
/// woken for shutdown without closing the fd under it.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens on `host`:`port` (port 0 picks an ephemeral port —
  /// read it back with port()).
  static Result<Listener> Bind(const std::string& host, int port,
                               int backlog = 64);

  bool valid() const { return fd_ >= 0; }
  /// The bound port (resolved via getsockname after Bind).
  int port() const { return port_; }

  /// Blocks until a connection arrives or Wake() is called, giving up
  /// after `timeout_ms` milliseconds with kDeadlineExceeded (< 0 blocks
  /// forever). A wake returns kUnavailable("listener woken") and drains
  /// the pipe, so the caller can keep accepting afterwards — the
  /// drain-grace accept loop's contract (one Wake = one wakeup, not a
  /// latch).
  Result<Socket> Accept(int timeout_ms = -1);

  /// Wakes a blocked Accept(). Only writes to a pipe, so it is safe from
  /// any thread (and from contexts that must not take locks).
  void Wake();

 private:
  int fd_ = -1;
  int port_ = 0;
  int wake_pipe_[2] = {-1, -1};  ///< [0] polled by Accept, [1] written by Wake.
};

}  // namespace modelhub

#endif  // MODELHUB_NET_SOCKET_H_
