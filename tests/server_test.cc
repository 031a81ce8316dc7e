#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/metrics.h"
#include "common/slice.h"
#include "common/trace.h"
#include "data/dataset.h"
#include "dlv/fsck.h"
#include "dlv/repository.h"
#include "net/client.h"
#include "nn/trainer.h"
#include "nn/zoo.h"
#include "pas/archive.h"
#include "pas/coalesce.h"
#include "server/modelhubd.h"

namespace modelhub {
namespace {

// ---------------------------------------------------- SnapshotCoalescer

TEST(CoalescerTest, BurstSharesOneFetch) {
  std::atomic<int> fetch_calls{0};
  SnapshotCoalescer coalescer(
      [&](const std::string& key, int planes) -> Result<std::string> {
        fetch_calls.fetch_add(1);
        // Hold the flight open long enough that the burst overlaps it.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return key + "#" + std::to_string(planes);
      },
      /*linger_ms=*/5000);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      auto got = coalescer.Fetch("vgg/s1", 0);
      if (!got.ok() || **got != "vgg/s1#0") failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  // The linger window makes this deterministic: even a thread scheduled
  // after the flight completed joins the lingering result.
  EXPECT_EQ(fetch_calls.load(), 1);
  EXPECT_EQ(coalescer.misses(), 1u);
  EXPECT_EQ(coalescer.hits(), static_cast<uint64_t>(kThreads - 1));
}

TEST(CoalescerTest, ErrorsNeverLinger) {
  std::atomic<int> fetch_calls{0};
  SnapshotCoalescer coalescer(
      [&](const std::string& key, int) -> Result<std::string> {
        if (fetch_calls.fetch_add(1) == 0) {
          return Status::IOError("transient");
        }
        return std::string("recovered");
      },
      /*linger_ms=*/5000);

  auto first = coalescer.Fetch("m/s0", 0);
  EXPECT_TRUE(first.status().IsIOError());
  // A lingering error would make this a hit; errors must be retried.
  auto second = coalescer.Fetch("m/s0", 0);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(**second, "recovered");
  EXPECT_EQ(fetch_calls.load(), 2);
  EXPECT_EQ(coalescer.misses(), 2u);
}

TEST(CoalescerTest, DistinctKeysFetchSeparately) {
  std::atomic<int> fetch_calls{0};
  SnapshotCoalescer coalescer(
      [&](const std::string& key, int planes) -> Result<std::string> {
        fetch_calls.fetch_add(1);
        return key + "/" + std::to_string(planes);
      },
      /*linger_ms=*/5000);
  ASSERT_TRUE(coalescer.Fetch("a/s0", 0).ok());
  ASSERT_TRUE(coalescer.Fetch("a/s0", 1).ok());  // Same key, other planes.
  ASSERT_TRUE(coalescer.Fetch("b/s0", 0).ok());
  EXPECT_EQ(fetch_calls.load(), 3);
  EXPECT_EQ(coalescer.misses(), 3u);
  EXPECT_EQ(coalescer.hits(), 0u);
}

// ------------------------------------------------------- ModelHubServer
//
// Server tests run against a real on-disk repository with Env::Default():
// worker threads and retrieval threads touch the Env concurrently, and
// MemEnv is deliberately not thread-safe.

void CommitOne(Repository* repo, const std::string& name) {
  const Dataset ds = MakeBlobDataset(64, 4, 12, 0.05f, name.size());
  NetworkDef def = MiniVgg(4, 12, 1);
  def.set_name(name);
  auto net = Network::Create(def);
  ASSERT_TRUE(net.ok());
  Rng rng(1);
  net->InitializeWeights(&rng);
  TrainOptions options;
  options.iterations = 20;
  options.snapshot_every = 10;
  auto trained = TrainNetwork(&*net, ds, options);
  ASSERT_TRUE(trained.ok());
  CommitRequest request;
  request.name = name;
  request.network = def;
  request.snapshots = trained->snapshots;
  request.log = trained->log;
  ASSERT_TRUE(repo->Commit(request).ok());
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = Env::Default();
    root_ = ::testing::TempDir() + "/mh_server_repo";
    RemoveTree(env_, root_);  // Leftovers from a previous run.
    auto repo = Repository::Init(env_, root_);
    ASSERT_TRUE(repo.ok()) << repo.status().ToString();
    CommitOne(&*repo, "served_v1");
    auto built = repo->Archive(ArchiveOptions{});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
  }

  void TearDown() override { RemoveTree(env_, root_); }

  Env* env_ = nullptr;
  std::string root_;
};

TEST_F(ServerTest, BasicOpsOverLoopback) {
  ModelHubServer server(env_, root_);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto client = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto pong = client->Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  // The liveness token leads (old clients key on the prefix); the
  // appended state tokens parse into PingInfo.
  EXPECT_EQ(pong->rfind("pong", 0), 0u);
  auto info = ParsePingReply(*pong);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->state, "serving");
  EXPECT_FALSE(info->draining());
  EXPECT_GE(info->active, 1);  // This very connection is active.

  auto models = client->ListModels();
  ASSERT_TRUE(models.ok()) << models.status().ToString();
  EXPECT_NE(models->find("served_v1"), std::string::npos);

  // Exact retrieval must match a direct repository read bit-for-bit.
  auto repo = Repository::Open(env_, root_);
  ASSERT_TRUE(repo.ok());
  auto direct = repo->GetSnapshotParams("served_v1");
  ASSERT_TRUE(direct.ok());
  auto remote = client->GetSnapshot("served_v1");
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_EQ(remote->size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ((*remote)[i].name, (*direct)[i].name);
    EXPECT_EQ((*remote)[i].value.size(), (*direct)[i].value.size());
  }

  // The served bounds summary, pinned byte for byte: per parameter, the
  // widths of the archive's own bounds summed in row-major order into a
  // double, and the largest width.
  auto archive = repo->OpenArchive();
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  for (int planes = 1; planes <= 2; ++planes) {
    auto bounds = (*archive)->RetrieveSnapshotBounds("served_v1/s1", planes);
    ASSERT_TRUE(bounds.ok()) << bounds.status().ToString();
    std::string expected =
        "snapshot served_v1/s1 planes=" + std::to_string(planes) + "\n";
    for (const auto& [name, matrix] : *bounds) {
      double sum = 0.0;
      for (int64_t r = 0; r < matrix.rows(); ++r) {
        for (int64_t c = 0; c < matrix.cols(); ++c) {
          sum += matrix.At(r, c).Width();
        }
      }
      const double cells = static_cast<double>(matrix.rows()) *
                           static_cast<double>(matrix.cols());
      char row[256];
      std::snprintf(row, sizeof(row),
                    "%s %lldx%lld max_width=%.6g mean_width=%.6g\n",
                    name.c_str(), static_cast<long long>(matrix.rows()),
                    static_cast<long long>(matrix.cols()),
                    static_cast<double>(matrix.MaxWidth()),
                    cells > 0 ? sum / cells : 0.0);
      expected += row;
    }
    auto served = client->GetSnapshotBounds("served_v1", 1, planes);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(*served, expected);
  }

  auto query = client->Query("select m where m.name like \"%\"");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_NE(query->find("served_v1"), std::string::npos);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("server.requests.count"), std::string::npos);
  EXPECT_NE(stats->find("server.uptime_seconds"), std::string::npos);
  EXPECT_NE(stats->find("server.starts.count"), std::string::npos);

  // Server-side errors keep their typed code and gain a "server: "
  // message prefix (transport faults have no such prefix).
  auto missing = client->GetSnapshot("no_such_model");
  EXPECT_TRUE(missing.status().IsNotFound())
      << missing.status().ToString();
  EXPECT_EQ(missing.status().message().rfind("server: ", 0), 0u);

  EXPECT_TRUE(server.Stop().ok());
  EXPECT_FALSE(server.running());
}

TEST_F(ServerTest, SixteenClientSoakCoalesces) {
  ServerOptions options;
  options.coalesce_linger_ms = 3000;  // Burst retrievals share one fetch.
  ModelHubServer server(env_, root_, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 16;
  constexpr int kIterations = 6;
  std::atomic<int> failed_requests{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = ModelHubClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failed_requests.fetch_add(kIterations);
        return;
      }
      for (int i = 0; i < kIterations; ++i) {
        // Everyone hammers the SAME snapshot so flights overlap; pings
        // interleave to vary per-connection timing.
        if ((c + i) % 2 == 0) {
          if (!client->Ping().ok()) failed_requests.fetch_add(1);
        }
        auto snapshot = client->GetSnapshot("served_v1");
        if (!snapshot.ok() || snapshot->empty()) failed_requests.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failed_requests.load(), 0);
  EXPECT_GT(server.coalesce_hits(), 0u);
  EXPECT_GE(server.coalesce_misses(), 1u);
  EXPECT_TRUE(server.Stop().ok());
}

TEST_F(ServerTest, ShedsWhenSaturated) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_connections = 2;
  options.queue_capacity = 1;
  ModelHubServer server(env_, root_, options);
  ASSERT_TRUE(server.Start().ok());

  // c1 occupies the only worker (a connected client holds its worker
  // between requests); c2 fills the one queue slot; c3 must be shed.
  auto c1 = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c1->Ping().ok());  // Proves c1 reached its worker.
  auto c2 = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c2.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto c3 = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c3.ok());  // TCP accepts; the shed happens at frame level.
  auto shed = c3->Ping();
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status().ToString();
  EXPECT_EQ(shed.status().message().rfind("server: ", 0), 0u);

  // Freeing the worker un-queues c2 and it gets served normally.
  c1 = Status::Unavailable("dropped");  // Hang up; releases the worker.
  auto pong = c2->Ping();
  EXPECT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(server.Stop().ok());
}

TEST_F(ServerTest, QueuedConnectionServedOnceWorkerFrees) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_connections = 4;
  options.queue_capacity = 2;
  ModelHubServer server(env_, root_, options);
  ASSERT_TRUE(server.Start().ok());

  auto held = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(held->Ping().ok());  // held now owns the single worker.

  std::atomic<bool> served{false};
  std::thread waiter([&] {
    auto queued = ModelHubClient::Connect("127.0.0.1", server.port());
    if (queued.ok() && queued->Ping().ok()) served.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(served.load());  // Still queued behind the held worker.

  // Hanging up releases the worker; the queued connection gets served.
  held = Status::Unavailable("dropped");
  waiter.join();
  EXPECT_TRUE(served.load());
  EXPECT_TRUE(server.Stop().ok());
}

TEST_F(ServerTest, QueuedPastIdleTimeoutIsShedNotServed) {
  // Regression: a connection that sat in the accept queue longer than
  // idle_timeout_ms used to be handed to a worker anyway, serving a
  // request whose client had long since timed out. It must be shed with
  // a typed kUnavailable instead.
  ServerOptions options;
  options.num_workers = 1;
  options.max_connections = 4;
  options.queue_capacity = 2;
  options.idle_timeout_ms = 100;  // Queue-age budget under test.
  ModelHubServer server(env_, root_, options);
  ASSERT_TRUE(server.Start().ok());

  // An open connection holds its worker between requests, so the ping
  // below parks the single worker on `held`.
  auto held = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(held->Ping().ok());

  // This connection queues behind the pinned worker and goes stale.
  auto stale = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(stale.ok());

  // Keep the worker pinned well past the idle timeout — each ping resets
  // held's idle deadline, so the worker only frees when held hangs up,
  // by which point the queued connection is unambiguously stale.
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    ASSERT_TRUE(held->Ping().ok());
  }
  held = Status::Unavailable("dropped");
  auto shed = stale->Ping();
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status().ToString();
  EXPECT_NE(shed.status().message().find("queued past idle timeout"),
            std::string::npos)
      << shed.status().ToString();
  EXPECT_TRUE(server.Stop().ok());
}

TEST_F(ServerTest, ShutdownRpcDrainsGracefully) {
  ModelHubServer server(env_, root_);
  ASSERT_TRUE(server.Start().ok());
  auto client = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Shutdown().ok());  // Response written before drain.
  server.WaitUntilStopRequested();
  EXPECT_TRUE(server.stop_requested());
  EXPECT_TRUE(server.Stop().ok());
  EXPECT_FALSE(server.running());

  // A drained server refuses new connections.
  auto late = ModelHubClient::Connect("127.0.0.1", server.port());
  EXPECT_FALSE(late.ok());
}

TEST_F(ServerTest, DrainGraceKeepsServingWhileAdvertisingDraining) {
  ServerOptions options;
  options.drain_grace_ms = 3000;
  ModelHubServer server(env_, root_, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Shutdown().ok());
  server.WaitUntilStopRequested();

  // Inside the grace window the listener stays open: a NEW connection is
  // accepted, PING advertises draining (so a router steers away instead
  // of eating a refusal), and reads still serve.
  auto during = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  auto pong = during->Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  auto info = ParsePingReply(*pong);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->draining()) << *pong;
  auto models = during->ListModels();
  ASSERT_TRUE(models.ok()) << models.status().ToString();
  EXPECT_NE(models->find("served_v1"), std::string::npos);

  // Stop waits out the grace window; afterwards connections are refused.
  EXPECT_TRUE(server.Stop().ok());
  auto late = ModelHubClient::Connect("127.0.0.1", server.port());
  EXPECT_FALSE(late.ok());
}

TEST_F(ServerTest, StartFailsOnMissingRepository) {
  ModelHubServer server(env_, root_ + "_nonexistent");
  EXPECT_FALSE(server.Start().ok());
  EXPECT_FALSE(server.running());
}

TEST_F(ServerTest, EmbeddedMaintenanceCompactsWhileServing) {
  // Baseline read, scoped so no test-held reader pins a generation while
  // the daemon compacts underneath the server.
  std::vector<NamedParam> want;
  {
    auto repo = Repository::Open(env_, root_);
    ASSERT_TRUE(repo.ok());
    auto direct = repo->GetSnapshotParams("served_v1");
    ASSERT_TRUE(direct.ok());
    want = std::move(*direct);
  }

  ServerOptions options;
  options.enable_maintenance = true;
  options.maintenance.interval_ms = 50;
  ModelHubServer server(env_, root_, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.maintenance(), nullptr);

  auto client = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Serve traffic while cycles run: every retrieval — before, during, and
  // after a plan swap — must return the identical snapshot.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  bool compacted = false;
  while (std::chrono::steady_clock::now() < deadline) {
    auto remote = client->GetSnapshot("served_v1");
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    ASSERT_EQ(remote->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*remote)[i].name, want[i].name);
      EXPECT_TRUE((*remote)[i].value.ApproxEquals(want[i].value, 1e-5f));
    }
    if (server.maintenance()->status().cycles_completed >= 2) {
      compacted = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(compacted);

  // STATS splices the MAINTAIN_STATUS document.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("\"maintenance\""), std::string::npos);
  EXPECT_NE(stats->find("\"cycles_completed\""), std::string::npos);

  EXPECT_TRUE(server.Stop().ok());
  // The daemon left a repository fsck calls healthy.
  auto fsck = RunFsck(env_, root_);
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck->clean()) << fsck->ToString();
}

// ------------------------------------------------------- Observability

TEST_F(ServerTest, GetMetricsReturnsPrometheusText) {
  ModelHubServer server(env_, root_);
  ASSERT_TRUE(server.Start().ok());
  auto client = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());
  auto text = client->Metrics();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("# TYPE server_requests_count counter"),
            std::string::npos);
  // The ping recorded before this scrape shows up as a histogram with
  // cumulative buckets. (get_metrics' own latency lands after the
  // snapshot, so it only appears from the second scrape on.)
  EXPECT_NE(text->find("server_op_ping_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_TRUE(server.Stop().ok());
}

TEST_F(ServerTest, SampledTraceRecordsServerSpans) {
  TraceRecorder* recorder = TraceRecorder::Global();
  recorder->SetEnabled(false);  // Only the wire sampling flag matters.
  recorder->Clear();

  ModelHubServer server(env_, root_);
  ASSERT_TRUE(server.Start().ok());
  auto client = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  TraceContext ctx = MakeSampledTraceContext();
  {
    ScopedTraceContext scope(ctx);
    ASSERT_TRUE(client->GetSnapshot("served_v1").ok());
  }
  auto dump = client->GetTraceDump();
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  std::vector<TraceNodeDump> dumps;
  ASSERT_TRUE(ParseTraceDumps(Slice(*dump), &dumps).ok());
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(dumps[0].node.rfind("modelhubd@", 0), 0u);
  EXPECT_NE(dumps[0].node.find(std::to_string(server.port())),
            std::string::npos);
  // The server.request span (and any nested spans) carry the client's
  // trace id; the untraced GET_TRACE rpc itself recorded nothing.
  bool found_request = false;
  for (const TraceEvent& e : dumps[0].events) {
    EXPECT_EQ(e.trace_hi, ctx.trace_hi);
    EXPECT_EQ(e.trace_lo, ctx.trace_lo);
    if (e.name == "server.request") found_request = true;
  }
  ASSERT_FALSE(dumps[0].events.empty());
  EXPECT_TRUE(found_request);
  EXPECT_TRUE(server.Stop().ok());
  recorder->Clear();
}

TEST_F(ServerTest, SampledOutTraceRecordsNothing) {
  TraceRecorder* recorder = TraceRecorder::Global();
  recorder->SetEnabled(false);
  recorder->Clear();

  ModelHubServer server(env_, root_);
  ASSERT_TRUE(server.Start().ok());
  auto client = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  TraceContext ctx = MakeSampledTraceContext();
  ctx.sampled = false;  // Traced id on the wire, but sampled out.
  {
    ScopedTraceContext scope(ctx);
    ASSERT_TRUE(client->Ping().ok());
  }
  auto dump = client->GetTraceDump();
  ASSERT_TRUE(dump.ok());
  std::vector<TraceNodeDump> dumps;
  ASSERT_TRUE(ParseTraceDumps(Slice(*dump), &dumps).ok());
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_TRUE(dumps[0].events.empty());
  EXPECT_EQ(dumps[0].total, 0u);
  EXPECT_TRUE(server.Stop().ok());
}

TEST_F(ServerTest, SlowRequestsLandInStats) {
  ServerOptions options;
  options.slow_request_us = 1;  // Every request is "slow".
  ModelHubServer server(env_, root_, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"slow_requests\""), std::string::npos);
  EXPECT_NE(stats->find("\"op\":\"ping\""), std::string::npos);
  EXPECT_NE(stats->find("\"latency_us\""), std::string::npos);
  EXPECT_TRUE(server.Stop().ok());
}

TEST_F(ServerTest, ExpiredDeadlineIsCountedAndAnnotated) {
  TraceRecorder* recorder = TraceRecorder::Global();
  recorder->SetEnabled(false);
  recorder->Clear();
  Counter* expired = MetricRegistry::Global()->GetCounter(
      "server.deadline.expired.count");
  const uint64_t before = expired->value();

  ModelHubServer server(env_, root_);
  ASSERT_TRUE(server.Start().ok());
  auto client = ModelHubClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // A context whose budget is already gone: the client stamps the
  // deadline_expired wire flag, so the server deterministically sees an
  // expired deadline regardless of how fast it answers.
  TraceContext ctx = MakeSampledTraceContext();
  ctx.has_deadline = true;
  ctx.deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(5);
  {
    ScopedTraceContext scope(ctx);
    ASSERT_TRUE(client->Ping().ok());
  }
  EXPECT_EQ(expired->value() - before, 1u);
  auto dump = client->GetTraceDump();
  ASSERT_TRUE(dump.ok());
  std::vector<TraceNodeDump> dumps;
  ASSERT_TRUE(ParseTraceDumps(Slice(*dump), &dumps).ok());
  ASSERT_EQ(dumps.size(), 1u);
  bool annotated = false;
  for (const TraceEvent& e : dumps[0].events) {
    for (const auto& kv : e.annotations) {
      if (kv.first == "after_deadline" && kv.second == "true") {
        annotated = true;
      }
    }
  }
  EXPECT_TRUE(annotated);
  EXPECT_TRUE(server.Stop().ok());
  recorder->Clear();
}

TEST_F(ServerTest, BytesInCountsWholeRequestFrames) {
  ModelHubServer server(env_, root_);
  ASSERT_TRUE(server.Start().ok());
  Counter* bytes_in = MetricRegistry::Global()->GetCounter("server.bytes.in");
  auto sock = Socket::Connect("127.0.0.1", server.port(),
                              Deadline::AfterMs(5000));
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();

  // The trace header rides inside the frame body, so a traced request is
  // longer on the wire than its payload suggests.
  const uint8_t ping = static_cast<uint8_t>(Opcode::kPing);
  const std::string payload = "count me";
  FrameTrace trace;
  trace.trace_hi = 1;
  trace.trace_lo = 2;
  trace.span_id = 3;
  trace.deadline_ms = 5000;
  for (const FrameTrace* t : {static_cast<const FrameTrace*>(nullptr),
                              static_cast<const FrameTrace*>(&trace)}) {
    const uint64_t before = bytes_in->value();
    ASSERT_TRUE(WriteFrame(&*sock, ping, payload, Deadline::AfterMs(5000),
                           nullptr, t)
                    .ok());
    Frame reply;
    Status remote;
    ASSERT_TRUE(ReadResponseFrame(&*sock, &reply, &remote,
                                  kDefaultMaxFrameBytes,
                                  Deadline::AfterMs(5000))
                    .ok());
    EXPECT_TRUE(remote.ok()) << remote.ToString();
    EXPECT_EQ(bytes_in->value() - before,
              EncodeFrame(ping, payload, t).size())
        << (t == nullptr ? "untraced" : "traced");
  }
  EXPECT_TRUE(server.Stop().ok());
}

TEST_F(ServerTest, ShedFrameCountsInBytesOut) {
  ServerOptions options;
  options.queue_capacity = 0;  // Every accepted connection is shed.
  ModelHubServer server(env_, root_, options);
  ASSERT_TRUE(server.Start().ok());
  Counter* bytes_out =
      MetricRegistry::Global()->GetCounter("server.bytes.out");
  Counter* shed = MetricRegistry::Global()->GetCounter("server.shed.count");
  const uint64_t out_before = bytes_out->value();
  const uint64_t shed_before = shed->value();

  auto sock = Socket::Connect("127.0.0.1", server.port(),
                              Deadline::AfterMs(5000));
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  Frame reply;
  Status remote;
  ASSERT_TRUE(ReadResponseFrame(&*sock, &reply, &remote, kDefaultMaxFrameBytes,
                                Deadline::AfterMs(5000))
                  .ok());
  EXPECT_TRUE(remote.IsUnavailable()) << remote.ToString();
  EXPECT_EQ(remote.message(), "server at capacity");
  EXPECT_EQ(shed->value() - shed_before, 1u);
  EXPECT_EQ(bytes_out->value() - out_before,
            EncodeResponseFrame(0, remote, "").size());
  EXPECT_TRUE(server.Stop().ok());
}

}  // namespace
}  // namespace modelhub
