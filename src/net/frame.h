#ifndef MODELHUB_NET_FRAME_H_
#define MODELHUB_NET_FRAME_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/trace.h"
#include "net/socket.h"

namespace modelhub {

/// The modelhubd wire protocol (DESIGN.md §9). One message is one frame:
///
///   [u32 LE body length N] [body: u8 version, u8 opcode, payload (N-2)]
///   [u32 LE CRC-32 of body]
///
/// The length prefix is validated against a cap BEFORE the body buffer is
/// allocated, so a torn or hostile header cannot trigger a giant
/// allocation. The CRC detects torn frames (a stream cut mid-frame is
/// also caught earlier as a short read). Requests and responses share the
/// layout; a response carries the request's opcode and a status-prefixed
/// payload (EncodeResponsePayload).
constexpr uint8_t kWireVersion = 1;

/// Distributed-tracing extension (DESIGN.md §13): a frame whose version
/// byte has this flag set carries a trace-context header at the front of
/// the body, after the opcode:
///
///   [fixed64 trace_hi] [fixed64 trace_lo] [fixed64 span_id] [u8 flags]
///   [varint deadline_ms]
///
/// flags bit0 = sampled, bit1 = the client's deadline had already expired
/// when the frame was sent. The flag bit keeps the extension backward
/// compatible both ways: peers that never send it emit plain version-1
/// frames (parsed everywhere), and old peers that receive a traced frame
/// reject it with a clean "unsupported wire version" error instead of
/// misparsing the payload.
constexpr uint8_t kWireTraceFlag = 0x80;

/// Frame body length = version + opcode + payload.
constexpr uint64_t kFrameHeaderBytes = 2;
constexpr uint64_t kDefaultMaxFrameBytes = 64ull << 20;

enum class Opcode : uint8_t {
  kPing = 1,
  kListModels = 2,
  kGetSnapshot = 3,
  kDqlQuery = 4,
  kStats = 5,
  kShutdown = 6,
  kGetTrace = 7,
  kGetMetrics = 8,
};

std::string_view OpcodeToString(uint8_t opcode);

/// Decoded trace-context header (see kWireTraceFlag).
struct FrameTrace {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  /// The sender's innermost span id — the receiver's parent.
  uint64_t span_id = 0;
  bool sampled = false;
  /// True when the sender's deadline had already passed at send time.
  bool deadline_expired = false;
  /// Remaining client budget in milliseconds (0 = no deadline).
  uint32_t deadline_ms = 0;
};

struct Frame {
  uint8_t version = kWireVersion;  ///< Trace flag already stripped.
  uint8_t opcode = 0;
  /// Present when the sender attached a trace-context header.
  std::optional<FrameTrace> trace;
  std::string payload;
  /// The frame's size on the wire: length prefix, body (trace header
  /// included) and CRC. Set by ReadFrame and DecodeFrame.
  uint64_t wire_bytes = 0;
};

/// Serializes one frame (length prefix + body + CRC). A non-null `trace`
/// sets kWireTraceFlag and prepends the trace-context header.
std::string EncodeFrame(uint8_t opcode, std::string_view payload,
                        const FrameTrace* trace = nullptr);

/// Decodes one frame from the front of `input`, consuming it on success.
/// Typed failures: kOutOfRange = `input` holds a truncated frame (read
/// more bytes), kInvalidArgument = declared length exceeds
/// `max_frame_bytes` or is impossibly small, kCorruption = CRC mismatch.
Status DecodeFrame(Slice* input, Frame* frame,
                   uint64_t max_frame_bytes = kDefaultMaxFrameBytes);

/// Writes one frame to `sock` within `deadline`.
Status WriteFrame(Socket* sock, uint8_t opcode, std::string_view payload,
                  const Deadline& deadline,
                  const std::atomic<bool>* cancel = nullptr,
                  const FrameTrace* trace = nullptr);

/// Reads one frame from `sock`. The length prefix is checked against
/// `max_frame_bytes` before the body is read or allocated. A clean peer
/// close at a frame boundary sets `*clean_eof` (when provided) — a close
/// mid-frame leaves it false and returns kIOError. The payload is received
/// straight into `frame->payload`, with no copy.
Status ReadFrame(Socket* sock, Frame* frame, uint64_t max_frame_bytes,
                 const Deadline& deadline,
                 const std::atomic<bool>* cancel = nullptr,
                 bool* clean_eof = nullptr);

/// Reads one response frame like ReadFrame and splits its payload as
/// DecodeResponsePayload does: `*remote` receives the server-side Status and
/// `frame->payload` only the result bytes, again with no copy. A frame of
/// another wire version is kInvalidArgument; a malformed status header is
/// kCorruption.
Status ReadResponseFrame(Socket* sock, Frame* frame, Status* remote,
                         uint64_t max_frame_bytes, const Deadline& deadline);

/// Builds a thread trace context from an inbound frame's trace header
/// (inactive when the frame carried none): root spans parent to the
/// caller's span, the sampling decision is adopted verbatim, and the
/// relayed deadline budget starts counting against this process's steady
/// clock. Shared by modelhubd and modelhub-router dispatch loops.
TraceContext ContextFromFrame(const Frame& frame);

/// Response payload layout: [u8 status code][varint length + message]
/// [result bytes]. An OK status carries an empty message.
std::string EncodeResponsePayload(const Status& status,
                                  std::string_view result);

/// Serializes one response frame: the bytes of
/// EncodeFrame(opcode, EncodeResponsePayload(status, result)), built with a
/// single copy of `result`.
std::string EncodeResponseFrame(uint8_t opcode, const Status& status,
                                std::string_view result);

/// Splits a response payload: `*remote` receives the server-side Status,
/// `*payload` is left positioned at the result bytes. Returns non-OK only
/// when the payload itself is malformed (kCorruption).
Status DecodeResponsePayload(Slice* payload, Status* remote);

/// GET_SNAPSHOT request payload: length-prefixed model name, varint
/// (sequence + 1) where 0 means "latest", varint byte planes where 0
/// means exact retrieval and 1..3 request progressive interval bounds.
std::string EncodeGetSnapshotRequest(const std::string& model,
                                     int64_t sequence, int planes);
Status DecodeGetSnapshotRequest(Slice payload, std::string* model,
                                int64_t* sequence, int* planes);

}  // namespace modelhub

#endif  // MODELHUB_NET_FRAME_H_
