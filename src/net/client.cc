#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/macros.h"
#include "common/random.h"
#include "common/trace.h"
#include "dlv/repository.h"

namespace modelhub {

Result<PingInfo> ParsePingReply(std::string_view reply) {
  if (reply.substr(0, 4) != "pong" ||
      (reply.size() > 4 && reply[4] != ' ')) {
    return Status::Corruption("not a ping reply: " + std::string(reply));
  }
  PingInfo info;
  size_t pos = 4;
  while (pos < reply.size()) {
    while (pos < reply.size() && reply[pos] == ' ') ++pos;
    const size_t end = std::min(reply.find(' ', pos), reply.size());
    const std::string_view token = reply.substr(pos, end - pos);
    const size_t eq = token.find('=');
    if (eq != std::string_view::npos) {
      const std::string_view key = token.substr(0, eq);
      const std::string value(token.substr(eq + 1));
      if (key == "state") {
        info.state = value;
      } else if (key == "queue") {
        info.queue_depth = std::atoll(value.c_str());
      } else if (key == "active") {
        info.active = std::atoll(value.c_str());
      }
      // Unknown keys are ignored: newer servers may append fields.
    }
    pos = end;
  }
  return info;
}

Result<ModelHubClient> ModelHubClient::Connect(const std::string& host,
                                               int port,
                                               ClientOptions options) {
  const int attempts = std::max(0, options.connect_retries) + 1;
  Rng jitter(static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count()));
  Status last = Status::Unavailable("connect never attempted");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff with ±50% jitter so a thundering herd of
      // reconnecting clients spreads out over the restart window.
      const int64_t base = std::min<int64_t>(
          2000, static_cast<int64_t>(options.connect_backoff_ms)
                    << std::min(attempt - 1, 10));
      const int64_t wait_ms =
          base / 2 + static_cast<int64_t>(jitter.Uniform(
                         static_cast<uint64_t>(std::max<int64_t>(1, base))));
      std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
    }
    auto sock = Socket::Connect(
        host, port, Deadline::AfterMs(options.connect_timeout_ms));
    if (sock.ok()) return ModelHubClient(sock.MoveValue(), options);
    last = sock.status();
    // Only "peer unreachable" is worth waiting out; anything else
    // (bad address, local socket failure) will not improve with time.
    if (!last.IsUnavailable()) break;
  }
  return last;
}

Result<WireResponse> ModelHubClient::CallDetailed(uint8_t opcode,
                                                  std::string_view payload) {
  const Deadline deadline = Deadline::AfterMs(options_.op_timeout_ms);
  // An active thread-local trace context rides the wire: the receiver's
  // root spans parent to our innermost open span, and the remaining
  // deadline budget shrinks hop by hop.
  FrameTrace trace;
  const FrameTrace* trace_ptr = nullptr;
  const TraceContext& ctx = CurrentTraceContext();
  if (ctx.active()) {
    trace.trace_hi = ctx.trace_hi;
    trace.trace_lo = ctx.trace_lo;
    const uint64_t current = CurrentSpanId();
    trace.span_id = current != 0 ? current : ctx.parent_span;
    trace.sampled = ctx.sampled;
    uint64_t budget_ms = static_cast<uint64_t>(
        std::max(1, options_.op_timeout_ms));
    if (ctx.has_deadline) {
      const uint64_t remaining = ctx.deadline_remaining_ms();
      if (remaining == 0) {
        trace.deadline_expired = true;
        budget_ms = 1;
      } else {
        budget_ms = std::min(budget_ms, remaining);
      }
    }
    trace.deadline_ms = static_cast<uint32_t>(
        budget_ms > UINT32_MAX ? UINT32_MAX : budget_ms);
    trace_ptr = &trace;
  }
  MH_RETURN_IF_ERROR(
      WriteFrame(&sock_, opcode, payload, deadline, nullptr, trace_ptr));
  Frame response;
  WireResponse out;
  MH_RETURN_IF_ERROR(ReadResponseFrame(&sock_, &response, &out.remote,
                                       options_.max_frame_bytes, deadline));
  if (out.remote.ok() && response.opcode != opcode) {
    // Error frames need not echo the opcode: a load-shedding server
    // refuses before it ever reads the request.
    return Status::Corruption("response opcode " +
                              std::to_string(response.opcode) +
                              " does not match request opcode " +
                              std::to_string(opcode));
  }
  out.result = std::move(response.payload);
  return out;
}

Result<std::string> ModelHubClient::Call(uint8_t opcode,
                                         std::string_view payload) {
  MH_ASSIGN_OR_RETURN(WireResponse response, CallDetailed(opcode, payload));
  if (!response.remote.ok()) {
    return Status(response.remote.code(),
                  "server: " + response.remote.message());
  }
  return std::move(response.result);
}

Result<std::string> ModelHubClient::Ping() {
  return Call(static_cast<uint8_t>(Opcode::kPing), "");
}

Result<std::string> ModelHubClient::ListModels() {
  return Call(static_cast<uint8_t>(Opcode::kListModels), "");
}

Result<std::vector<NamedParam>> ModelHubClient::GetSnapshot(
    const std::string& model, int64_t sequence) {
  MH_ASSIGN_OR_RETURN(
      std::string bytes,
      Call(static_cast<uint8_t>(Opcode::kGetSnapshot),
           EncodeGetSnapshotRequest(model, sequence, /*planes=*/0)));
  return ParseParams(Slice(bytes));
}

Result<std::string> ModelHubClient::GetSnapshotBounds(const std::string& model,
                                                      int64_t sequence,
                                                      int planes) {
  if (planes < 1 || planes > 3) {
    return Status::InvalidArgument("bounded retrieval needs planes in 1..3");
  }
  return Call(static_cast<uint8_t>(Opcode::kGetSnapshot),
              EncodeGetSnapshotRequest(model, sequence, planes));
}

Result<std::string> ModelHubClient::Query(const std::string& dql) {
  return Call(static_cast<uint8_t>(Opcode::kDqlQuery), dql);
}

Result<std::string> ModelHubClient::Stats() {
  return Call(static_cast<uint8_t>(Opcode::kStats), "");
}

Result<std::string> ModelHubClient::Metrics() {
  return Call(static_cast<uint8_t>(Opcode::kGetMetrics), "");
}

Result<std::string> ModelHubClient::GetTraceDump() {
  return Call(static_cast<uint8_t>(Opcode::kGetTrace), "");
}

Status ModelHubClient::Shutdown() {
  return Call(static_cast<uint8_t>(Opcode::kShutdown), "").status();
}

}  // namespace modelhub
