#include "net/frame.h"

#include <algorithm>
#include <cstring>
#include <initializer_list>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/macros.h"

namespace modelhub {

std::string_view OpcodeToString(uint8_t opcode) {
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kPing:
      return "ping";
    case Opcode::kListModels:
      return "list_models";
    case Opcode::kGetSnapshot:
      return "get_snapshot";
    case Opcode::kDqlQuery:
      return "dql_query";
    case Opcode::kStats:
      return "stats";
    case Opcode::kShutdown:
      return "shutdown";
    case Opcode::kGetTrace:
      return "get_trace";
    case Opcode::kGetMetrics:
      return "get_metrics";
  }
  return "unknown";
}

namespace {

/// flags bit layout of the trace-context header (see kWireTraceFlag).
constexpr uint8_t kTraceFlagSampled = 0x01;
constexpr uint8_t kTraceFlagDeadlineExpired = 0x02;

std::string EncodeTraceHeader(const FrameTrace& trace) {
  std::string out;
  PutFixed64(&out, trace.trace_hi);
  PutFixed64(&out, trace.trace_lo);
  PutFixed64(&out, trace.span_id);
  uint8_t flags = 0;
  if (trace.sampled) flags |= kTraceFlagSampled;
  if (trace.deadline_expired) flags |= kTraceFlagDeadlineExpired;
  out.push_back(static_cast<char>(flags));
  PutVarint64(&out, trace.deadline_ms);
  return out;
}

Status DecodeTraceHeader(Slice* body, FrameTrace* trace) {
  MH_RETURN_IF_ERROR(GetFixed64(body, &trace->trace_hi));
  MH_RETURN_IF_ERROR(GetFixed64(body, &trace->trace_lo));
  MH_RETURN_IF_ERROR(GetFixed64(body, &trace->span_id));
  if (body->empty()) {
    return Status::Corruption("truncated trace header: missing flags");
  }
  const uint8_t flags = static_cast<uint8_t>((*body)[0]);
  body->RemovePrefix(1);
  trace->sampled = (flags & kTraceFlagSampled) != 0;
  trace->deadline_expired = (flags & kTraceFlagDeadlineExpired) != 0;
  uint64_t deadline_ms = 0;
  MH_RETURN_IF_ERROR(GetVarint64(body, &deadline_ms));
  trace->deadline_ms = static_cast<uint32_t>(
      deadline_ms > UINT32_MAX ? UINT32_MAX : deadline_ms);
  return Status::OK();
}

/// Parses the frame headers at the front of `*body` (version, opcode and
/// the optional trace header) and leaves `*body` at the payload.
Status ParseFrameHeaders(Slice* body, Frame* frame) {
  uint8_t version = static_cast<uint8_t>((*body)[0]);
  frame->opcode = static_cast<uint8_t>((*body)[1]);
  body->RemovePrefix(kFrameHeaderBytes);
  frame->trace.reset();
  if ((version & kWireTraceFlag) != 0) {
    FrameTrace trace;
    MH_RETURN_IF_ERROR(DecodeTraceHeader(body, &trace));
    frame->trace = trace;
    version &= static_cast<uint8_t>(~kWireTraceFlag);
  }
  frame->version = version;
  return Status::OK();
}

/// The front of a response payload: [u8 status code][varint length +
/// message].
std::string EncodeResponseHeader(const Status& status) {
  std::string out;
  out.push_back(static_cast<char>(status.code()));
  PutLengthPrefixed(&out,
                    Slice(status.message().data(), status.message().size()));
  return out;
}

/// The one frame encoder: length prefix, version and opcode, the optional
/// trace header, the payload pieces in order and the CRC trailer. Each
/// piece is copied once, straight into the wire buffer.
std::string EncodeFramePieces(uint8_t opcode,
                              std::initializer_list<std::string_view> payload,
                              const FrameTrace* trace) {
  std::string header;
  uint8_t version = kWireVersion;
  if (trace != nullptr) {
    version |= kWireTraceFlag;
    header = EncodeTraceHeader(*trace);
  }
  size_t payload_size = 0;
  for (const std::string_view piece : payload) payload_size += piece.size();
  const size_t body_size = kFrameHeaderBytes + header.size() + payload_size;
  std::string out;
  out.reserve(4 + body_size + 4);
  PutFixed32(&out, static_cast<uint32_t>(body_size));
  out.push_back(static_cast<char>(version));
  out.push_back(static_cast<char>(opcode));
  out.append(header);
  for (const std::string_view piece : payload) out.append(piece);
  const uint32_t crc = Crc32(Slice(out.data() + 4, out.size() - 4));
  PutFixed32(&out, crc);
  return out;
}

}  // namespace

std::string EncodeFrame(uint8_t opcode, std::string_view payload,
                        const FrameTrace* trace) {
  return EncodeFramePieces(opcode, {payload}, trace);
}

std::string EncodeResponseFrame(uint8_t opcode, const Status& status,
                                std::string_view result) {
  return EncodeFramePieces(opcode, {EncodeResponseHeader(status), result},
                           nullptr);
}

namespace {

/// Validates a decoded length prefix without touching the body.
Status CheckBodyLength(uint64_t length, uint64_t max_frame_bytes) {
  if (length < kFrameHeaderBytes) {
    return Status::InvalidArgument("frame body impossibly short: " +
                                   std::to_string(length) + " bytes");
  }
  if (length > max_frame_bytes) {
    return Status::InvalidArgument(
        "frame of " + std::to_string(length) + " bytes exceeds cap of " +
        std::to_string(max_frame_bytes));
  }
  return Status::OK();
}

Status CheckBodyCrc(uint32_t computed, uint32_t declared) {
  if (computed != declared) {
    return Status::Corruption("frame CRC mismatch (torn or corrupt frame)");
  }
  return Status::OK();
}

/// Body bytes read ahead of the payload: version and opcode, the largest
/// trace header (three fixed64, flags, a varint64) and a response's status
/// code with its varint message length.
constexpr size_t kReadAheadBytes = kFrameHeaderBytes + 3 * 8 + 1 + 10 + 1 + 10;

/// Where the payload of a `body_length`-byte body starts, judged from its
/// first bytes `head`: after the frame headers, and for a `response` after
/// the status header too, whose message may end past `head`. Headers that
/// do not parse put it at the end of `head`; parsing the headers again after
/// the CRC check then reports the error.
uint64_t PayloadOffset(Slice head, uint64_t body_length, bool response) {
  Frame frame;
  Slice rest = head;
  if (!ParseFrameHeaders(&rest, &frame).ok()) return head.size();
  if (!response || frame.version != kWireVersion) {
    return head.size() - rest.size();
  }
  if (rest.empty()) return head.size();
  rest.RemovePrefix(1);  // The status code.
  uint64_t message_length = 0;
  if (!GetVarint64(&rest, &message_length).ok()) return head.size();
  const uint64_t message_at = head.size() - rest.size();
  return message_length <= body_length - message_at
             ? message_at + message_length
             : head.size();
}

/// Reads one frame; with `remote`, a response whose status header is split
/// off into `*remote`. The headers are read ahead into a small buffer and
/// the payload straight into its own string, which becomes
/// `frame->payload` without a copy.
Status ReadFrameImpl(Socket* sock, Frame* frame, Status* remote,
                     uint64_t max_frame_bytes, const Deadline& deadline,
                     const std::atomic<bool>* cancel, bool* clean_eof) {
  char prefix[4];
  MH_RETURN_IF_ERROR(
      sock->ReadFull(prefix, sizeof(prefix), deadline, cancel, clean_eof));
  Slice prefix_slice(prefix, sizeof(prefix));
  uint32_t length = 0;
  MH_RETURN_IF_ERROR(GetFixed32(&prefix_slice, &length));
  // Reject before allocating: a torn/hostile header must not drive a
  // multi-gigabyte resize.
  MH_RETURN_IF_ERROR(CheckBodyLength(length, max_frame_bytes));
  // A frame short enough is read whole, CRC trailer included.
  std::string head(std::min<uint64_t>(uint64_t{length} + 4, kReadAheadBytes),
                   '\0');
  MH_RETURN_IF_ERROR(
      sock->ReadFull(head.data(), head.size(), deadline, cancel, nullptr));
  const size_t read_ahead = head.size();
  const size_t split = PayloadOffset(
      Slice(head.data(), std::min<size_t>(read_ahead, length)), length,
      remote != nullptr);
  if (split > read_ahead) {
    // A status message longer than the read-ahead.
    head.resize(split);
    MH_RETURN_IF_ERROR(sock->ReadFull(head.data() + read_ahead,
                                      split - read_ahead, deadline, cancel,
                                      nullptr));
  }
  // The payload, then the CRC trailer; read-ahead bytes past the headers
  // are their start.
  std::string payload(length - split + 4, '\0');
  const size_t spill = head.size() - split;
  std::memcpy(payload.data(), head.data() + split, spill);
  head.resize(split);
  if (spill < payload.size()) {
    MH_RETURN_IF_ERROR(sock->ReadFull(payload.data() + spill,
                                      payload.size() - spill, deadline,
                                      cancel, nullptr));
  }
  Slice trailer(payload.data() + payload.size() - 4, 4);
  uint32_t declared = 0;
  MH_RETURN_IF_ERROR(GetFixed32(&trailer, &declared));
  payload.resize(payload.size() - 4);
  MH_RETURN_IF_ERROR(
      CheckBodyCrc(Crc32(Slice(payload), Crc32(Slice(head))), declared));
  Slice headers(head);
  MH_RETURN_IF_ERROR(ParseFrameHeaders(&headers, frame));
  if (remote != nullptr) {
    if (frame->version != kWireVersion) {
      return Status::InvalidArgument(
          "server speaks wire version " + std::to_string(frame->version) +
          ", client speaks " + std::to_string(kWireVersion));
    }
    MH_RETURN_IF_ERROR(DecodeResponsePayload(&headers, remote));
  }
  frame->payload = std::move(payload);
  frame->wire_bytes = 4 + uint64_t{length} + 4;
  return Status::OK();
}

}  // namespace

Status DecodeFrame(Slice* input, Frame* frame, uint64_t max_frame_bytes) {
  if (input->size() < 4) {
    return Status::OutOfRange("truncated frame: missing length prefix");
  }
  Slice probe = *input;
  uint32_t length = 0;
  MH_RETURN_IF_ERROR(GetFixed32(&probe, &length));
  MH_RETURN_IF_ERROR(CheckBodyLength(length, max_frame_bytes));
  if (probe.size() < static_cast<uint64_t>(length) + 4) {
    return Status::OutOfRange("truncated frame: body incomplete");
  }
  Slice body = probe.SubSlice(0, length);
  probe.RemovePrefix(length);
  uint32_t declared = 0;
  MH_RETURN_IF_ERROR(GetFixed32(&probe, &declared));
  MH_RETURN_IF_ERROR(CheckBodyCrc(Crc32(body), declared));
  MH_RETURN_IF_ERROR(ParseFrameHeaders(&body, frame));
  frame->payload = body.ToString();
  frame->wire_bytes = 4 + uint64_t{length} + 4;
  *input = probe;
  return Status::OK();
}

Status WriteFrame(Socket* sock, uint8_t opcode, std::string_view payload,
                  const Deadline& deadline, const std::atomic<bool>* cancel,
                  const FrameTrace* trace) {
  const std::string wire = EncodeFrame(opcode, payload, trace);
  return sock->WriteFull(wire.data(), wire.size(), deadline, cancel);
}

Status ReadFrame(Socket* sock, Frame* frame, uint64_t max_frame_bytes,
                 const Deadline& deadline, const std::atomic<bool>* cancel,
                 bool* clean_eof) {
  return ReadFrameImpl(sock, frame, nullptr, max_frame_bytes, deadline,
                       cancel, clean_eof);
}

Status ReadResponseFrame(Socket* sock, Frame* frame, Status* remote,
                         uint64_t max_frame_bytes, const Deadline& deadline) {
  return ReadFrameImpl(sock, frame, remote, max_frame_bytes, deadline,
                       nullptr, nullptr);
}

TraceContext ContextFromFrame(const Frame& frame) {
  TraceContext ctx;
  if (!frame.trace.has_value()) return ctx;
  const FrameTrace& trace = *frame.trace;
  ctx.trace_hi = trace.trace_hi;
  ctx.trace_lo = trace.trace_lo;
  ctx.parent_span = trace.span_id;
  ctx.sampled = trace.sampled;
  if (trace.deadline_expired) {
    // The sender's budget was already gone: an immediately-past deadline
    // makes every span of this request carry the after_deadline marker.
    ctx.has_deadline = true;
    ctx.deadline = std::chrono::steady_clock::now();
  } else if (trace.deadline_ms > 0) {
    ctx.has_deadline = true;
    ctx.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(trace.deadline_ms);
  }
  return ctx;
}

std::string EncodeResponsePayload(const Status& status,
                                  std::string_view result) {
  std::string out = EncodeResponseHeader(status);
  out.append(result);
  return out;
}

Status DecodeResponsePayload(Slice* payload, Status* remote) {
  if (payload->empty()) {
    return Status::Corruption("empty response payload");
  }
  const uint8_t raw_code = (*payload)[0];
  payload->RemovePrefix(1);
  Slice message;
  MH_RETURN_IF_ERROR(GetLengthPrefixed(payload, &message));
  // Codes are appended-only in StatusCode, so any value past the known
  // range came from a newer/corrupt peer — surface as Internal.
  const auto code = static_cast<StatusCode>(raw_code);
  const StatusCode known = code > StatusCode::kDeadlineExceeded
                               ? StatusCode::kInternal
                               : code;
  *remote = known == StatusCode::kOk
                ? Status::OK()
                : Status(known, message.ToString());
  return Status::OK();
}

std::string EncodeGetSnapshotRequest(const std::string& model,
                                     int64_t sequence, int planes) {
  std::string out;
  PutLengthPrefixed(&out, Slice(model));
  PutVarint64(&out, sequence < 0 ? 0 : static_cast<uint64_t>(sequence) + 1);
  PutVarint64(&out, static_cast<uint64_t>(planes < 0 ? 0 : planes));
  return out;
}

Status DecodeGetSnapshotRequest(Slice payload, std::string* model,
                                int64_t* sequence, int* planes) {
  Slice name;
  MH_RETURN_IF_ERROR(GetLengthPrefixed(&payload, &name));
  uint64_t seq_plus_one = 0;
  uint64_t raw_planes = 0;
  MH_RETURN_IF_ERROR(GetVarint64(&payload, &seq_plus_one));
  MH_RETURN_IF_ERROR(GetVarint64(&payload, &raw_planes));
  if (raw_planes > 3) {
    return Status::InvalidArgument("planes must be 0 (exact) or 1..3, got " +
                                   std::to_string(raw_planes));
  }
  *model = name.ToString();
  *sequence = seq_plus_one == 0 ? -1 : static_cast<int64_t>(seq_plus_one) - 1;
  *planes = static_cast<int>(raw_planes);
  return Status::OK();
}

}  // namespace modelhub
