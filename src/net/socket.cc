#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>

#include "common/macros.h"
#include "net/fault.h"

namespace modelhub {

namespace {

/// Cancellation is polled at this granularity so a graceful drain never
/// waits longer than one slice for an idle connection to notice.
constexpr int kCancelSliceMs = 100;

std::string Errno(const char* what) {
  return std::string(what) + ": " + strerror(errno);
}

/// Resolves "localhost" / dotted-quad IPv4 into a sockaddr_in. The serving
/// layer is loopback/LAN-oriented; names beyond localhost are out of scope
/// (no getaddrinfo, keeping the layer dependency- and thread-trivial).
Status FillAddr(const std::string& host, int port, sockaddr_in* addr) {
  memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  const std::string node = (host.empty() || host == "localhost")
                               ? std::string("127.0.0.1")
                               : host;
  if (inet_pton(AF_INET, node.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return Status::OK();
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    int rc;
    do {
      rc = ::close(fd_);
    } while (rc < 0 && errno == EINTR);
    fd_ = -1;
  }
}

Status Socket::WaitReady(short events, const Deadline& deadline,
                         const std::atomic<bool>* cancel) {
  for (;;) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return Status::Unavailable("cancelled");
    }
    if (deadline.Expired()) {
      return Status::DeadlineExceeded("socket op deadline expired");
    }
    int wait_ms = deadline.infinite() ? -1 : deadline.RemainingMs();
    if (cancel != nullptr && (wait_ms < 0 || wait_ms > kCancelSliceMs)) {
      wait_ms = kCancelSliceMs;
    }
    pollfd pfd = {fd_, events, 0};
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("poll"));
    }
    if (rc > 0) return Status::OK();
    // Timed out this slice; loop re-checks cancel/deadline.
  }
}

Status Socket::ReadFull(void* buf, size_t n, const Deadline& deadline,
                        const std::atomic<bool>* cancel, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  NetFaultInjector* faults = NetFaultInjector::Global();
  if (faults->enabled()) {
    const int delay_ms = faults->ConsumeReadDelayMs();
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
  }
  char* out = static_cast<char*>(buf);
  size_t done = 0;
  while (done < n) {
    Status ready = WaitReady(POLLIN, deadline, cancel);
    if (!ready.ok()) return ready;
    const ssize_t got = ::recv(fd_, out + done, n - done, 0);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::IOError(Errno("recv"));
    }
    if (got == 0) {
      if (done == 0 && clean_eof != nullptr) *clean_eof = true;
      return Status::IOError("connection closed by peer after " +
                             std::to_string(done) + "/" + std::to_string(n) +
                             " bytes");
    }
    done += static_cast<size_t>(got);
  }
  return Status::OK();
}

Status Socket::WriteFull(const void* buf, size_t n, const Deadline& deadline,
                         const std::atomic<bool>* cancel) {
  NetFaultInjector* faults = NetFaultInjector::Global();
  if (faults->enabled()) {
    const int delay_ms = faults->ConsumeWriteDelayMs();
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    size_t tear_after = 0;
    if (faults->ConsumeWriteTear(&tear_after) && tear_after < n) {
      // Push the allowed prefix onto the wire (the peer sees a frame cut
      // mid-body), then hard-close so the stream is torn, not cleanly
      // ended.
      if (tear_after > 0) (void)WriteFull(buf, tear_after, deadline, cancel);
      Close();
      return Status::IOError("injected torn write after " +
                             std::to_string(tear_after) + "/" +
                             std::to_string(n) + " bytes");
    }
  }
  const char* in = static_cast<const char*>(buf);
  size_t done = 0;
  while (done < n) {
    Status ready = WaitReady(POLLOUT, deadline, cancel);
    if (!ready.ok()) return ready;
    const ssize_t put = ::send(fd_, in + done, n - done, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::IOError("connection closed by peer during write");
      }
      return Status::IOError(Errno("send"));
    }
    done += static_cast<size_t>(put);
  }
  return Status::OK();
}

Result<Socket> Socket::Connect(const std::string& host, int port,
                               const Deadline& deadline) {
  NetFaultInjector* faults = NetFaultInjector::Global();
  if (faults->enabled()) {
    MH_RETURN_IF_ERROR(faults->OnConnect(host, port));
  }
  sockaddr_in addr;
  MH_RETURN_IF_ERROR(FillAddr(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(Errno("socket"));
  Socket sock(fd);
  // Non-blocking connect so the deadline also bounds the handshake.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0 && errno != EINPROGRESS) {
    return Status::Unavailable("connect " + host + ":" +
                               std::to_string(port) + ": " +
                               strerror(errno));
  }
  if (rc < 0) {
    Status ready = sock.WaitReady(POLLOUT, deadline, nullptr);
    if (ready.IsDeadlineExceeded()) {
      return Status::Unavailable("connect " + host + ":" +
                                 std::to_string(port) + ": timed out");
    }
    if (!ready.ok()) return ready;
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      return Status::Unavailable("connect " + host + ":" +
                                 std::to_string(port) + ": " +
                                 strerror(err != 0 ? err : errno));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // Back to blocking; I/O paths poll anyway.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  for (int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  wake_pipe_[0] = other.wake_pipe_[0];
  wake_pipe_[1] = other.wake_pipe_[1];
  other.fd_ = -1;
  other.wake_pipe_[0] = other.wake_pipe_[1] = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    this->~Listener();
    new (this) Listener(std::move(other));
  }
  return *this;
}

Result<Listener> Listener::Bind(const std::string& host, int port,
                                int backlog) {
  sockaddr_in addr;
  MH_RETURN_IF_ERROR(FillAddr(host, port, &addr));
  Listener listener;
  listener.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener.fd_ < 0) return Status::IOError(Errno("socket"));
  const int one = 1;
  ::setsockopt(listener.fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listener.fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Status::Unavailable("bind " + host + ":" + std::to_string(port) +
                               ": " + strerror(errno));
  }
  if (::listen(listener.fd_, backlog) < 0) {
    return Status::IOError(Errno("listen"));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listener.fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Status::IOError(Errno("getsockname"));
  }
  listener.port_ = ntohs(addr.sin_port);
  if (::pipe(listener.wake_pipe_) < 0) {
    return Status::IOError(Errno("pipe"));
  }
  return listener;
}

Result<Socket> Listener::Accept(int timeout_ms) {
  for (;;) {
    pollfd pfds[2] = {{fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(pfds, 2, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("poll(accept)"));
    }
    if (rc == 0) {
      return Status::DeadlineExceeded("accept timed out");
    }
    if (pfds[1].revents != 0) {
      char drained[64];
      ssize_t n;
      do {
        n = ::read(wake_pipe_[0], drained, sizeof(drained));
      } while (n == static_cast<ssize_t>(sizeof(drained)) ||
               (n < 0 && errno == EINTR));
      return Status::Unavailable("listener woken");
    }
    if (pfds[0].revents == 0) continue;
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      return Status::IOError(Errno("accept"));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return Socket(fd);
  }
}

void Listener::Wake() {
  if (wake_pipe_[1] < 0) return;
  const char byte = 'w';
  ssize_t rc;
  do {
    rc = ::write(wake_pipe_[1], &byte, 1);
  } while (rc < 0 && errno == EINTR);
}

}  // namespace modelhub
