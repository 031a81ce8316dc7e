#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/trace.h"
#include "net/client.h"
#include "net/fault.h"
#include "net/frame.h"
#include "net/socket.h"

namespace modelhub {
namespace {

// ------------------------------------------------------------- Deadline

TEST(DeadlineTest, InfiniteNeverExpires) {
  const Deadline d = Deadline::Infinite();
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired());
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately) {
  const Deadline d = Deadline::AfterMs(0);
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.RemainingMs(), 0);
}

// ---------------------------------------------------------- Frame codec

TEST(FrameCodecTest, RoundTrip) {
  const std::string wire =
      EncodeFrame(static_cast<uint8_t>(Opcode::kPing), "hello");
  Slice input(wire);
  Frame frame;
  ASSERT_TRUE(DecodeFrame(&input, &frame).ok());
  EXPECT_EQ(frame.version, kWireVersion);
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kPing));
  EXPECT_EQ(frame.payload, "hello");
  EXPECT_TRUE(input.empty());
}

TEST(FrameCodecTest, DecodesBackToBackFrames) {
  std::string wire = EncodeFrame(1, "a");
  wire += EncodeFrame(2, "bb");
  Slice input(wire);
  Frame first, second;
  ASSERT_TRUE(DecodeFrame(&input, &first).ok());
  ASSERT_TRUE(DecodeFrame(&input, &second).ok());
  EXPECT_EQ(first.payload, "a");
  EXPECT_EQ(second.payload, "bb");
  EXPECT_TRUE(input.empty());
}

TEST(FrameCodecTest, TruncatedFrameIsOutOfRange) {
  const std::string wire = EncodeFrame(1, "payload");
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    Slice input(wire.data(), cut);
    Frame frame;
    const Status status = DecodeFrame(&input, &frame);
    ASSERT_FALSE(status.ok()) << "cut=" << cut;
    EXPECT_TRUE(status.IsOutOfRange()) << "cut=" << cut << " "
                                       << status.ToString();
  }
}

TEST(FrameCodecTest, OversizedFrameIsInvalidArgument) {
  const std::string wire = EncodeFrame(1, std::string(1024, 'x'));
  Slice input(wire);
  Frame frame;
  const Status status = DecodeFrame(&input, &frame, /*max_frame_bytes=*/64);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

TEST(FrameCodecTest, TornFrameFailsCrc) {
  std::string wire = EncodeFrame(1, "sensitive bytes");
  wire[7] ^= 0x40;  // Flip one payload bit; length prefix intact.
  Slice input(wire);
  Frame frame;
  const Status status = DecodeFrame(&input, &frame);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST(FrameCodecTest, ResponsePayloadRoundTrip) {
  const std::string ok = EncodeResponsePayload(Status::OK(), "result!");
  Slice payload(ok);
  Status remote = Status::Internal("unset");
  ASSERT_TRUE(DecodeResponsePayload(&payload, &remote).ok());
  EXPECT_TRUE(remote.ok());
  EXPECT_EQ(payload.ToString(), "result!");

  const std::string err =
      EncodeResponsePayload(Status::NotFound("no such model"), "");
  Slice err_payload(err);
  ASSERT_TRUE(DecodeResponsePayload(&err_payload, &remote).ok());
  EXPECT_TRUE(remote.IsNotFound());
  EXPECT_EQ(remote.message(), "no such model");
}

TEST(FrameCodecTest, UnknownWireStatusCodeMapsToInternal) {
  std::string payload = EncodeResponsePayload(Status::NotFound("x"), "");
  payload[0] = static_cast<char>(200);  // A code this build does not know.
  Slice input(payload);
  Status remote;
  ASSERT_TRUE(DecodeResponsePayload(&input, &remote).ok());
  EXPECT_TRUE(remote.IsInternal());
}

TEST(FrameCodecTest, GetSnapshotRequestRoundTrip) {
  std::string model;
  int64_t sequence = 0;
  int planes = 0;
  const std::string latest = EncodeGetSnapshotRequest("vgg", -1, 0);
  ASSERT_TRUE(
      DecodeGetSnapshotRequest(Slice(latest), &model, &sequence, &planes)
          .ok());
  EXPECT_EQ(model, "vgg");
  EXPECT_EQ(sequence, -1);
  EXPECT_EQ(planes, 0);

  const std::string bounded = EncodeGetSnapshotRequest("alex", 7, 2);
  ASSERT_TRUE(
      DecodeGetSnapshotRequest(Slice(bounded), &model, &sequence, &planes)
          .ok());
  EXPECT_EQ(model, "alex");
  EXPECT_EQ(sequence, 7);
  EXPECT_EQ(planes, 2);
}

TEST(FrameCodecTest, GetSnapshotRequestRejectsBadPlanes) {
  const std::string wire = EncodeGetSnapshotRequest("m", 0, 9);
  std::string model;
  int64_t sequence = 0;
  int planes = 0;
  EXPECT_TRUE(
      DecodeGetSnapshotRequest(Slice(wire), &model, &sequence, &planes)
          .IsInvalidArgument());
}

// ----------------------------------------------------- Trace-context header

TEST(FrameTraceTest, TraceHeaderRoundTrip) {
  FrameTrace trace;
  trace.trace_hi = 0x0123456789abcdefull;
  trace.trace_lo = 0xfedcba9876543210ull;
  trace.span_id = 42;
  trace.sampled = true;
  trace.deadline_ms = 1500;
  const std::string wire = EncodeFrame(
      static_cast<uint8_t>(Opcode::kPing), "hello", &trace);
  // The wire version byte (offset 4, right after the length prefix)
  // must carry the trace flag so an untraced peer rejects rather than
  // misparses the frame.
  ASSERT_GT(wire.size(), 5u);
  EXPECT_EQ(static_cast<uint8_t>(wire[4]), kWireVersion | kWireTraceFlag);

  Slice input(wire);
  Frame frame;
  ASSERT_TRUE(DecodeFrame(&input, &frame).ok());
  EXPECT_EQ(frame.version, kWireVersion);  // Flag stripped after parse.
  EXPECT_EQ(frame.payload, "hello");
  ASSERT_TRUE(frame.trace.has_value());
  EXPECT_EQ(frame.trace->trace_hi, 0x0123456789abcdefull);
  EXPECT_EQ(frame.trace->trace_lo, 0xfedcba9876543210ull);
  EXPECT_EQ(frame.trace->span_id, 42u);
  EXPECT_TRUE(frame.trace->sampled);
  EXPECT_FALSE(frame.trace->deadline_expired);
  EXPECT_EQ(frame.trace->deadline_ms, 1500u);

  const TraceContext ctx = ContextFromFrame(frame);
  EXPECT_TRUE(ctx.active());
  EXPECT_TRUE(ctx.sampled);
  EXPECT_EQ(ctx.parent_span, 42u);
  EXPECT_TRUE(ctx.has_deadline);
  EXPECT_GT(ctx.deadline_remaining_ms(), 1000u);
}

TEST(FrameTraceTest, FramesWithoutTraceHeaderStillParse) {
  // Backward compatibility: an untraced frame is byte-identical to the
  // pre-tracing encoding and decodes with no trace attached.
  const std::string wire = EncodeFrame(1, "legacy");
  ASSERT_GT(wire.size(), 5u);
  EXPECT_EQ(static_cast<uint8_t>(wire[4]), kWireVersion);
  Slice input(wire);
  Frame frame;
  ASSERT_TRUE(DecodeFrame(&input, &frame).ok());
  EXPECT_FALSE(frame.trace.has_value());
  EXPECT_EQ(frame.payload, "legacy");
  EXPECT_FALSE(ContextFromFrame(frame).active());
}

TEST(FrameTraceTest, ExpiredDeadlineFlagYieldsPastDeadline) {
  FrameTrace trace;
  trace.trace_hi = 1;
  trace.sampled = true;
  trace.deadline_expired = true;
  const std::string wire = EncodeFrame(1, "", &trace);
  Slice input(wire);
  Frame frame;
  ASSERT_TRUE(DecodeFrame(&input, &frame).ok());
  ASSERT_TRUE(frame.trace.has_value());
  const TraceContext ctx = ContextFromFrame(frame);
  EXPECT_TRUE(ctx.has_deadline);
  EXPECT_TRUE(ctx.deadline_expired());
  EXPECT_EQ(ctx.deadline_remaining_ms(), 0u);
}

TEST(FrameTraceTest, TruncatedTraceHeaderIsCorruption) {
  // Hand-build a frame whose version byte claims a trace header but whose
  // body is too short to hold one: CRC-valid, semantically corrupt.
  std::string body;
  body.push_back(static_cast<char>(kWireVersion | kWireTraceFlag));
  body.push_back(static_cast<char>(Opcode::kPing));
  PutFixed64(&body, 7);  // trace_hi only; the rest is missing.
  std::string wire;
  PutFixed32(&wire, static_cast<uint32_t>(body.size()));
  wire += body;
  PutFixed32(&wire, Crc32(Slice(body)));
  Slice input(wire);
  Frame frame;
  EXPECT_TRUE(DecodeFrame(&input, &frame).IsCorruption());
}

TEST(FrameTraceTest, TraceHeaderOverSocketPair) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket a(fds[0]);
  Socket b(fds[1]);
  FrameTrace trace;
  trace.trace_lo = 99;
  trace.span_id = 7;
  trace.sampled = true;
  ASSERT_TRUE(WriteFrame(&a, static_cast<uint8_t>(Opcode::kStats), "body",
                         Deadline::Infinite(), nullptr, &trace)
                  .ok());
  Frame frame;
  ASSERT_TRUE(ReadFrame(&b, &frame, kDefaultMaxFrameBytes,
                        Deadline::AfterMs(5000))
                  .ok());
  ASSERT_TRUE(frame.trace.has_value());
  EXPECT_EQ(frame.trace->trace_lo, 99u);
  EXPECT_EQ(frame.trace->span_id, 7u);
  EXPECT_EQ(frame.payload, "body");
}

// ----------------------------------------------------------- Socket I/O
//
// Socketpair-based: Socket wraps any connected stream fd, so AF_UNIX
// pairs exercise the exact read/write loops without port juggling.

struct SocketPair {
  Socket a;
  Socket b;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
};

TEST(SocketIoTest, ShortReadDribbleReassemblesFrame) {
  SocketPair pair;
  const std::string wire = EncodeFrame(3, "dribbled payload across writes");
  std::thread writer([&] {
    // One byte at a time with pauses: every ReadFull iteration sees a
    // short read.
    for (char byte : wire) {
      ASSERT_TRUE(
          pair.a.WriteFull(&byte, 1, Deadline::Infinite()).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  Frame frame;
  const Status status = ReadFrame(&pair.b, &frame, kDefaultMaxFrameBytes,
                                  Deadline::AfterMs(10000));
  writer.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(frame.payload, "dribbled payload across writes");
}

void IgnoreSigusr1(int) {}

TEST(SocketIoTest, EintrStormDoesNotAbortRead) {
  // A handler installed WITHOUT SA_RESTART makes every delivered SIGUSR1
  // interrupt blocking syscalls with EINTR.
  struct sigaction action = {};
  struct sigaction saved = {};
  action.sa_handler = IgnoreSigusr1;
  action.sa_flags = 0;
  sigemptyset(&action.sa_mask);
  ASSERT_EQ(sigaction(SIGUSR1, &action, &saved), 0);

  SocketPair pair;
  std::atomic<bool> reader_done{false};
  Status read_status = Status::Internal("unset");
  Frame frame;
  std::thread reader([&] {
    read_status = ReadFrame(&pair.b, &frame, kDefaultMaxFrameBytes,
                            Deadline::AfterMs(10000));
    reader_done.store(true);
  });
  const pthread_t reader_handle = reader.native_handle();
  for (int i = 0; i < 50; ++i) {
    pthread_kill(reader_handle, SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string wire = EncodeFrame(1, "survived the storm");
  ASSERT_TRUE(
      pair.a.WriteFull(wire.data(), wire.size(), Deadline::Infinite()).ok());
  for (int i = 0; i < 20 && !reader_done.load(); ++i) {
    pthread_kill(reader_handle, SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reader.join();
  sigaction(SIGUSR1, &saved, nullptr);
  ASSERT_TRUE(read_status.ok()) << read_status.ToString();
  EXPECT_EQ(frame.payload, "survived the storm");
}

TEST(SocketIoTest, PeerCloseMidFrameIsIoErrorNotCleanEof) {
  SocketPair pair;
  const std::string wire = EncodeFrame(1, "never fully sent");
  ASSERT_TRUE(
      pair.a.WriteFull(wire.data(), wire.size() / 2, Deadline::Infinite())
          .ok());
  pair.a.Close();
  Frame frame;
  bool clean_eof = false;
  const Status status =
      ReadFrame(&pair.b, &frame, kDefaultMaxFrameBytes,
                Deadline::AfterMs(5000), nullptr, &clean_eof);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_FALSE(clean_eof);
}

TEST(SocketIoTest, PeerCloseAtFrameBoundaryIsCleanEof) {
  SocketPair pair;
  pair.a.Close();
  Frame frame;
  bool clean_eof = false;
  const Status status =
      ReadFrame(&pair.b, &frame, kDefaultMaxFrameBytes,
                Deadline::AfterMs(5000), nullptr, &clean_eof);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(clean_eof);
}

TEST(SocketIoTest, OversizedFrameRejectedFromHeaderAlone) {
  SocketPair pair;
  // Header declaring a 48 MiB body; the body itself is never sent. The
  // reader must refuse from the 4 header bytes alone — before allocating
  // or waiting for a body that will never come.
  const uint32_t huge = 48u << 20;
  char header[4] = {static_cast<char>(huge & 0xff),
                    static_cast<char>((huge >> 8) & 0xff),
                    static_cast<char>((huge >> 16) & 0xff),
                    static_cast<char>((huge >> 24) & 0xff)};
  ASSERT_TRUE(
      pair.a.WriteFull(header, sizeof(header), Deadline::Infinite()).ok());
  const auto before = std::chrono::steady_clock::now();
  Frame frame;
  const Status status = ReadFrame(&pair.b, &frame, /*max_frame_bytes=*/1 << 20,
                                  Deadline::AfterMs(30000));
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
}

TEST(SocketIoTest, CorruptFrameOverSocketIsCorruption) {
  SocketPair pair;
  std::string wire = EncodeFrame(1, "bits will rot");
  wire[6] ^= 0x01;
  ASSERT_TRUE(
      pair.a.WriteFull(wire.data(), wire.size(), Deadline::Infinite()).ok());
  Frame frame;
  const Status status = ReadFrame(&pair.b, &frame, kDefaultMaxFrameBytes,
                                  Deadline::AfterMs(5000));
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST(SocketIoTest, SilentPeerTripsDeadline) {
  SocketPair pair;
  Frame frame;
  const auto before = std::chrono::steady_clock::now();
  const Status status = ReadFrame(&pair.b, &frame, kDefaultMaxFrameBytes,
                                  Deadline::AfterMs(150));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - before)
                           .count();
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_GE(elapsed, 100);
  EXPECT_LT(elapsed, 5000);
}

TEST(SocketIoTest, CancelFlagAbortsBlockedRead) {
  SocketPair pair;
  std::atomic<bool> cancel{false};
  Status read_status = Status::Internal("unset");
  std::thread reader([&] {
    char byte;
    read_status =
        pair.b.ReadFull(&byte, 1, Deadline::Infinite(), &cancel, nullptr);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cancel.store(true);
  reader.join();
  EXPECT_TRUE(read_status.IsUnavailable()) << read_status.ToString();
}

// ------------------------------------------------------------- Listener

TEST(ListenerTest, AcceptConnectRoundTrip) {
  auto listener = Listener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  EXPECT_GT(listener->port(), 0);

  Result<Socket> server_side(Status::Internal("unset"));
  std::thread acceptor([&] { server_side = listener->Accept(); });
  auto client = Socket::Connect("127.0.0.1", listener->port(),
                                Deadline::AfterMs(5000));
  acceptor.join();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(server_side.ok()) << server_side.status().ToString();

  const std::string wire = EncodeFrame(1, "over tcp");
  ASSERT_TRUE(
      client->WriteFull(wire.data(), wire.size(), Deadline::AfterMs(5000))
          .ok());
  Frame frame;
  ASSERT_TRUE(ReadFrame(&*server_side, &frame, kDefaultMaxFrameBytes,
                        Deadline::AfterMs(5000))
                  .ok());
  EXPECT_EQ(frame.payload, "over tcp");
}

// A connected TCP pair over 127.0.0.1.
struct LoopbackPair {
  Socket client;
  Socket server;
  LoopbackPair() {
    auto listener = Listener::Bind("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    Result<Socket> accepted(Status::Internal("unset"));
    std::thread acceptor([&] { accepted = listener->Accept(); });
    auto connected = Socket::Connect("127.0.0.1", listener->port(),
                                     Deadline::AfterMs(5000));
    acceptor.join();
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
    if (connected.ok()) client = connected.MoveValue();
    if (accepted.ok()) server = accepted.MoveValue();
  }
};

std::string SnapshotSizedBytes() {
  std::string bytes((2300u << 10) + 5, '\0');
  uint32_t x = 0x12345678u;
  for (auto& c : bytes) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  return bytes;
}

TEST(LargeFrameTest, SnapshotSizedFrameRoundTripsOverLoopback) {
  const std::string result = SnapshotSizedBytes();
  const std::string payload = EncodeResponsePayload(Status::OK(), result);
  const uint8_t opcode = static_cast<uint8_t>(Opcode::kGetSnapshot);
  FrameTrace trace;
  trace.trace_hi = 5;
  trace.span_id = 9;
  trace.sampled = true;
  trace.deadline_ms = 70000;  // A three-byte varint.
  for (const FrameTrace* with : {static_cast<const FrameTrace*>(nullptr),
                                 static_cast<const FrameTrace*>(&trace)}) {
    LoopbackPair pair;
    const std::string expected = EncodeFrame(opcode, payload, with);
    // The frame is larger than the socket buffers: write while reading.
    Status written = Status::Internal("unset");
    std::thread writer([&] {
      written = WriteFrame(&pair.client, opcode, payload,
                           Deadline::AfterMs(20000), nullptr, with);
      if (written.ok()) {
        written = WriteFrame(&pair.client, opcode, payload,
                             Deadline::AfterMs(20000), nullptr, with);
      }
    });
    Frame frame;
    const Status read = ReadFrame(&pair.server, &frame, kDefaultMaxFrameBytes,
                                  Deadline::AfterMs(20000));
    // The second copy is taken off the wire raw: it must be exactly the
    // EncodeFrame bytes.
    std::string raw(expected.size(), '\0');
    const Status raw_read = pair.server.ReadFull(
        raw.data(), raw.size(), Deadline::AfterMs(20000), nullptr, nullptr);
    writer.join();
    ASSERT_TRUE(written.ok()) << written.ToString();
    ASSERT_TRUE(read.ok()) << read.ToString();
    ASSERT_TRUE(raw_read.ok()) << raw_read.ToString();
    EXPECT_TRUE(raw == expected);
    EXPECT_EQ(frame.opcode, opcode);
    EXPECT_EQ(frame.trace.has_value(), with != nullptr);
    EXPECT_TRUE(frame.payload == payload);
  }
}

TEST(LargeFrameTest, ResponseFrameMatchesEncodeFrameAndSplitsStatus) {
  const std::string result = SnapshotSizedBytes();
  const uint8_t opcode = static_cast<uint8_t>(Opcode::kGetSnapshot);
  // A message longer than the reader's read-ahead exercises the path that
  // reads the rest of the status header separately.
  const Status statuses[] = {Status::OK(), Status::NotFound("gone"),
                             Status::Internal(std::string(300, 'm'))};
  for (const Status& status : statuses) {
    const std::string wire = EncodeResponseFrame(opcode, status, result);
    EXPECT_TRUE(wire ==
                EncodeFrame(opcode, EncodeResponsePayload(status, result)))
        << status.ToString();
    LoopbackPair pair;
    std::thread writer([&] {
      EXPECT_TRUE(pair.server
                      .WriteFull(wire.data(), wire.size(),
                                 Deadline::AfterMs(20000))
                      .ok());
    });
    Frame frame;
    Status remote;
    const Status read =
        ReadResponseFrame(&pair.client, &frame, &remote, kDefaultMaxFrameBytes,
                          Deadline::AfterMs(20000));
    writer.join();
    ASSERT_TRUE(read.ok()) << read.ToString();
    EXPECT_EQ(remote.code(), status.code());
    EXPECT_EQ(remote.message(), status.message());
    EXPECT_EQ(frame.opcode, opcode);
    EXPECT_TRUE(frame.payload == result);
  }
}

TEST(LargeFrameTest, FlippedBodyBitIsCorruption) {
  const std::string result = SnapshotSizedBytes();
  const std::string clean = EncodeResponseFrame(1, Status::OK(), result);
  // One bit in the status header, one deep in the result.
  for (const size_t at : {size_t{6}, clean.size() / 2}) {
    std::string wire = clean;
    wire[at] ^= 0x10;
    LoopbackPair pair;
    std::thread writer([&] {
      (void)pair.server.WriteFull(wire.data(), wire.size(),
                                  Deadline::AfterMs(20000));
    });
    Frame frame;
    Status remote;
    const Status read =
        ReadResponseFrame(&pair.client, &frame, &remote, kDefaultMaxFrameBytes,
                          Deadline::AfterMs(20000));
    writer.join();
    EXPECT_TRUE(read.IsCorruption()) << "at=" << at << " " << read.ToString();
  }
}

TEST(ListenerTest, WakeUnblocksAccept) {
  auto listener = Listener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  Result<Socket> accepted(Status::Internal("unset"));
  std::thread acceptor([&] { accepted = listener->Accept(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  listener->Wake();
  acceptor.join();
  EXPECT_TRUE(accepted.status().IsUnavailable())
      << accepted.status().ToString();
}

TEST(ListenerTest, ConnectRefusedIsUnavailable) {
  // Bind then immediately drop a listener: its port is (briefly) known
  // dead, so connecting to it is refused.
  int dead_port = 0;
  {
    auto listener = Listener::Bind("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    dead_port = listener->port();
  }
  auto client =
      Socket::Connect("127.0.0.1", dead_port, Deadline::AfterMs(2000));
  EXPECT_TRUE(client.status().IsUnavailable())
      << client.status().ToString();
}

// ------------------------------------------------------ ParsePingReply

TEST(PingReplyTest, BarePongFromOldServerParsesAsServing) {
  auto info = ParsePingReply("pong");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->state, "serving");
  EXPECT_FALSE(info->draining());
  EXPECT_EQ(info->queue_depth, 0);
  EXPECT_EQ(info->active, 0);
}

TEST(PingReplyTest, ParsesStateTokens) {
  auto info = ParsePingReply("pong state=draining queue=3 active=7");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->draining());
  EXPECT_EQ(info->queue_depth, 3);
  EXPECT_EQ(info->active, 7);
}

TEST(PingReplyTest, IgnoresUnknownTokens) {
  // Future servers (and the router) may append tokens; parsers must not
  // choke on them.
  auto info = ParsePingReply(
      "pong state=serving queue=0 active=2 role=router healthy=5 backends=6");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->state, "serving");
  EXPECT_EQ(info->active, 2);
}

TEST(PingReplyTest, RejectsNonPongReplies) {
  EXPECT_TRUE(ParsePingReply("").status().IsCorruption());
  EXPECT_TRUE(ParsePingReply("nope").status().IsCorruption());
  EXPECT_TRUE(ParsePingReply("pongx").status().IsCorruption());
}

// ------------------------------------------------------ Fault injection
//
// NetFaultInjector is process-global: every test arms inside a fixture
// whose TearDown disarms, so a failing assertion cannot leak faults into
// later tests.

class NetFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { NetFaultInjector::Global()->Reset(); }
  void TearDown() override { NetFaultInjector::Global()->Reset(); }
};

TEST_F(NetFaultTest, FailNextConnectsRefusesExactlyN) {
  auto listener = Listener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  std::thread acceptor([&] {
    // Two successful connects bracket the refused one.
    for (int i = 0; i < 2; ++i) (void)listener->Accept();
  });

  NetFaultInjector::Global()->FailNextConnects(1);
  auto refused = Socket::Connect("127.0.0.1", listener->port(),
                                 Deadline::AfterMs(2000));
  EXPECT_TRUE(refused.status().IsUnavailable())
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("injected"), std::string::npos);

  auto first = Socket::Connect("127.0.0.1", listener->port(),
                               Deadline::AfterMs(2000));
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  auto second = Socket::Connect("127.0.0.1", listener->port(),
                                Deadline::AfterMs(2000));
  EXPECT_TRUE(second.ok()) << second.status().ToString();
  listener->Wake();
  acceptor.join();
}

TEST_F(NetFaultTest, RefusedPortIsStickyUntilAllowed) {
  auto listener = Listener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  std::thread acceptor([&] { (void)listener->Accept(); });

  NetFaultInjector::Global()->RefuseConnectsToPort(listener->port());
  for (int i = 0; i < 3; ++i) {
    auto refused = Socket::Connect("127.0.0.1", listener->port(),
                                   Deadline::AfterMs(2000));
    EXPECT_TRUE(refused.status().IsUnavailable());
  }
  NetFaultInjector::Global()->AllowConnectsToPort(listener->port());
  auto restored = Socket::Connect("127.0.0.1", listener->port(),
                                  Deadline::AfterMs(2000));
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
  listener->Wake();
  acceptor.join();
}

TEST_F(NetFaultTest, TornWriteCutsStreamMidFrame) {
  SocketPair pair;
  const std::string wire = EncodeFrame(1, "this frame will be cut short");
  NetFaultInjector::Global()->TearNextWriteAfter(7);
  const Status written = pair.a.WriteFull(wire.data(), wire.size(),
                                          Deadline::AfterMs(2000));
  ASSERT_TRUE(written.IsIOError()) << written.ToString();
  EXPECT_NE(written.ToString().find("torn"), std::string::npos);

  // The reader sees exactly what a process death mid-response looks
  // like: a few bytes then a cut — kIOError, NOT a clean EOF.
  Frame frame;
  bool clean_eof = false;
  const Status read =
      ReadFrame(&pair.b, &frame, kDefaultMaxFrameBytes,
                Deadline::AfterMs(2000), nullptr, &clean_eof);
  EXPECT_TRUE(read.IsIOError()) << read.ToString();
  EXPECT_FALSE(clean_eof);
}

TEST_F(NetFaultTest, TornResponseFrameMidBodyIsReadError) {
  // A response frame as modelhubd and the router send it: one buffer, one
  // WriteFull. A tear deep inside the result reaches the reader as a
  // typed I/O error, never as a frame.
  const std::string result = SnapshotSizedBytes();
  const std::string wire = EncodeResponseFrame(
      static_cast<uint8_t>(Opcode::kGetSnapshot), Status::OK(), result);
  LoopbackPair pair;
  NetFaultInjector::Global()->TearNextWriteAfter(wire.size() / 2);
  Status written = Status::Internal("unset");
  std::thread writer([&] {
    written = pair.server.WriteFull(wire.data(), wire.size(),
                                    Deadline::AfterMs(20000));
  });
  Frame frame;
  Status remote;
  const Status read =
      ReadResponseFrame(&pair.client, &frame, &remote, kDefaultMaxFrameBytes,
                        Deadline::AfterMs(20000));
  writer.join();
  EXPECT_TRUE(written.IsIOError()) << written.ToString();
  EXPECT_TRUE(read.IsIOError()) << read.ToString();
}

TEST_F(NetFaultTest, DelayedReadTripsOpDeadline) {
  SocketPair pair;
  const std::string wire = EncodeFrame(1, "late");
  ASSERT_TRUE(
      pair.a.WriteFull(wire.data(), wire.size(), Deadline::Infinite()).ok());
  // The bytes are already in the buffer; only the injected stall makes
  // the 100ms deadline fire.
  NetFaultInjector::Global()->DelayNextReadMs(400);
  Frame frame;
  const Status read = ReadFrame(&pair.b, &frame, kDefaultMaxFrameBytes,
                                Deadline::AfterMs(100));
  EXPECT_TRUE(read.IsDeadlineExceeded()) << read.ToString();

  // One-shot: the identical retry succeeds instantly.
  const Status retry = ReadFrame(&pair.b, &frame, kDefaultMaxFrameBytes,
                                 Deadline::AfterMs(2000));
  ASSERT_TRUE(retry.ok()) << retry.ToString();
  EXPECT_EQ(frame.payload, "late");
}

TEST_F(NetFaultTest, DelayedWriteTripsOpDeadline) {
  SocketPair pair;
  NetFaultInjector::Global()->DelayNextWriteMs(400);
  const std::string wire = EncodeFrame(1, "stalled");
  const Status written =
      pair.a.WriteFull(wire.data(), wire.size(), Deadline::AfterMs(100));
  EXPECT_TRUE(written.IsDeadlineExceeded()) << written.ToString();
}

TEST_F(NetFaultTest, ConnectRetriesRideOutRestartWindow) {
  // Grab a port, leave it dead, and bring a listener up on it only after
  // the client's first attempts have failed: connect_retries must bridge
  // the gap (satellite for `dlv rpc --retries`).
  int port = 0;
  {
    auto listener = Listener::Bind("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    port = listener->port();
  }
  std::thread late_server([port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    auto listener = Listener::Bind("127.0.0.1", port);
    if (!listener.ok()) return;
    auto sock = listener->Accept();
    if (!sock.ok()) return;
    // Answer one PING so the handshake completes.
    Frame request;
    if (ReadFrame(&*sock, &request, kDefaultMaxFrameBytes,
                  Deadline::AfterMs(5000))
            .ok()) {
      (void)WriteFrame(&*sock, request.opcode,
                       EncodeResponsePayload(Status::OK(), "pong"),
                       Deadline::AfterMs(5000));
    }
  });

  ClientOptions no_retry;
  no_retry.connect_timeout_ms = 500;
  auto fail_fast = ModelHubClient::Connect("127.0.0.1", port, no_retry);
  EXPECT_TRUE(fail_fast.status().IsUnavailable())
      << fail_fast.status().ToString();

  ClientOptions with_retries;
  with_retries.connect_timeout_ms = 500;
  with_retries.connect_retries = 8;
  with_retries.connect_backoff_ms = 60;
  auto client = ModelHubClient::Connect("127.0.0.1", port, with_retries);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto pong = client->Ping();
  EXPECT_TRUE(pong.ok()) << pong.status().ToString();
  late_server.join();
}

TEST(ClientTest, OpDeadlineAgainstSilentServer) {
  // A listener that accepts and then never responds: the client's op
  // deadline must fire (the request write succeeds into kernel buffers).
  auto listener = Listener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  Result<Socket> held(Status::Internal("unset"));
  std::thread acceptor([&] { held = listener->Accept(); });

  ClientOptions options;
  options.op_timeout_ms = 200;
  auto client =
      ModelHubClient::Connect("127.0.0.1", listener->port(), options);
  acceptor.join();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto pong = client->Ping();
  EXPECT_TRUE(pong.status().IsDeadlineExceeded())
      << pong.status().ToString();
}

}  // namespace
}  // namespace modelhub
