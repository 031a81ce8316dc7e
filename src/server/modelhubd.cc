#include "server/modelhubd.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dql/engine.h"
#include "pas/archive.h"

namespace modelhub {
namespace {

/// Wire overhead of one frame: length prefix + version + opcode + CRC.
constexpr uint64_t kFrameOverheadBytes = 4 + kFrameHeaderBytes + 4;

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

uint64_t UnixMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Per-op latency histograms (MH_HISTOGRAM needs literal names).
Histogram* OpLatency(uint8_t opcode) {
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kPing:
      return MH_HISTOGRAM("server.op.ping.us");
    case Opcode::kListModels:
      return MH_HISTOGRAM("server.op.list_models.us");
    case Opcode::kGetSnapshot:
      return MH_HISTOGRAM("server.op.get_snapshot.us");
    case Opcode::kDqlQuery:
      return MH_HISTOGRAM("server.op.dql_query.us");
    case Opcode::kStats:
      return MH_HISTOGRAM("server.op.stats.us");
    case Opcode::kShutdown:
      return MH_HISTOGRAM("server.op.shutdown.us");
    case Opcode::kGetTrace:
      return MH_HISTOGRAM("server.op.get_trace.us");
    case Opcode::kGetMetrics:
      return MH_HISTOGRAM("server.op.get_metrics.us");
  }
  return MH_HISTOGRAM("server.op.unknown.us");
}

}  // namespace

ModelHubServer::ModelHubServer(Env* env, std::string repo_root,
                               ServerOptions options)
    : env_(env),
      repo_root_(std::move(repo_root)),
      options_(options),
      slow_log_(static_cast<size_t>(std::max(1, options_.slow_log_capacity))) {}

ModelHubServer::~ModelHubServer() { (void)Stop(); }

Status ModelHubServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("server already running");
  }
  MH_ASSIGN_OR_RETURN(Repository repo, Repository::Open(env_, repo_root_));
  repo_.emplace(std::move(repo));
  // Eagerly resolve the archive reader so worker threads never race on a
  // cold cache. A repository that was never archived serves snapshots
  // from staging instead.
  if (auto archive = repo_->SharedArchive(); archive.ok()) {
    (*archive)->EnableChunkCache(true);
  }
  MH_ASSIGN_OR_RETURN(Listener listener,
                      Listener::Bind(options_.host, options_.port));
  listener_.emplace(std::move(listener));
  coalescer_ = std::make_unique<SnapshotCoalescer>(
      [this](const std::string& key, int planes) {
        return FetchSnapshot(key, planes);
      },
      options_.coalesce_linger_ms);
  retrieval_pool_ =
      std::make_unique<ThreadPool>(std::max(1, options_.retrieval_threads));
  workers_ = std::make_unique<ThreadPool>(std::max(1, options_.num_workers));

  stopping_.store(false);
  halt_.store(false);
  started_at_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  MH_COUNTER("server.starts.count")->Increment();
  UpdateUptimeGauge();
  for (int i = 0; i < workers_->num_threads(); ++i) {
    workers_->Schedule(&worker_group_, [this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (options_.enable_maintenance) {
    maintenance_ = std::make_unique<LifecycleDaemon>(env_, repo_root_,
                                                     options_.maintenance);
    // The plan swap: after a cycle re-archives, the server atomically
    // adopts the new generation. In-flight retrievals finish on their
    // pinned old reader; the superseded generation is swept by a later
    // GC once those pins drain.
    maintenance_->set_reload_callback([this] {
      if (auto reloaded = repo_->ReloadArchive(); reloaded.ok()) {
        (*reloaded)->EnableChunkCache(true);
      }
    });
    // Budget throttling: compaction yields at task boundaries while
    // request traffic is queued (bounded backoff so a saturated queue
    // cannot stall maintenance forever).
    maintenance_->set_yield([this] {
      for (int i = 0; i < 200 && !stopping_.load(); ++i) {
        bool busy;
        {
          std::lock_guard<std::mutex> lock(queue_mu_);
          busy = !pending_.empty();
        }
        if (!busy) break;
        MH_COUNTER("lifecycle.yield.count")->Increment();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    const Status maintain_started = maintenance_->Start();
    if (!maintain_started.ok()) {
      (void)Stop();
      return maintain_started;
    }
  }
  return Status::OK();
}

int ModelHubServer::port() const {
  return listener_.has_value() ? listener_->port() : 0;
}

void ModelHubServer::RequestStop() {
  // Only atomic stores and a pipe write — callable from signal handlers.
  stopping_.store(true);
  if (maintenance_ != nullptr) maintenance_->RequestStop();
  if (listener_.has_value()) listener_->Wake();
}

void ModelHubServer::WaitUntilStopRequested() const {
  while (!stopping_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

Status ModelHubServer::Stop() {
  if (!running_.load()) return Status::OK();
  RequestStop();
  if (maintenance_ != nullptr) (void)maintenance_->Stop();
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
    MH_GAUGE("server.queue.depth")->Set(0);
  }
  for (PendingConn& pc : leftover) {
    Shed(std::move(pc.sock), "server draining");
  }
  workers_.reset();
  retrieval_pool_.reset();
  coalescer_.reset();
  maintenance_.reset();
  listener_.reset();
  repo_.reset();
  UpdateUptimeGauge();
  MH_COUNTER("server.stops.count")->Increment();
  running_.store(false, std::memory_order_release);
  return Status::OK();
}

uint64_t ModelHubServer::coalesce_hits() const {
  return coalescer_ != nullptr ? coalescer_->hits() : 0;
}

uint64_t ModelHubServer::coalesce_misses() const {
  return coalescer_ != nullptr ? coalescer_->misses() : 0;
}

void ModelHubServer::UpdateUptimeGauge() const {
  MH_GAUGE("server.uptime_seconds")
      ->Set(static_cast<int64_t>(ElapsedUs(started_at_) / 1000000));
}

void ModelHubServer::Shed(Socket sock, const char* reason) {
  MH_COUNTER("server.shed.count")->Increment();
  // Opcode 0: the request was never read, so there is nothing to echo.
  (void)WriteFrame(&sock, 0,
                   EncodeResponsePayload(Status::Unavailable(reason), ""),
                   Deadline::AfterMs(1000));
}

void ModelHubServer::AcceptLoop() {
  // Drain choreography: once stopping_ flips, keep accepting and serving
  // for drain_grace_ms (PING advertises draining, so routers steer away
  // on their own schedule) before halting. Grace 0 halts immediately —
  // the classic drain.
  std::optional<std::chrono::steady_clock::time_point> halt_at;
  for (;;) {
    if (stopping_.load() && !halt_at.has_value()) {
      if (options_.drain_grace_ms <= 0) break;
      halt_at = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(options_.drain_grace_ms);
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
    MH_COUNTER("server.accepted.count")->Increment();
    std::unique_lock<std::mutex> lock(queue_mu_);
    const size_t queued = pending_.size();
    if (queued >= static_cast<size_t>(options_.queue_capacity) ||
        active_connections_.load() + static_cast<int>(queued) >=
            options_.max_connections) {
      lock.unlock();
      Shed(accepted.MoveValue(), "server at capacity");
      continue;
    }
    pending_.push_back(
        {accepted.MoveValue(), std::chrono::steady_clock::now()});
    MH_GAUGE("server.queue.depth")->Set(static_cast<int64_t>(pending_.size()));
    lock.unlock();
    queue_cv_.notify_one();
  }
  // Accepting is over: halt the workers (in-flight responses still
  // complete — ServeConnection only checks halt_ between requests).
  halt_.store(true);
  queue_cv_.notify_all();
}

void ModelHubServer::WorkerLoop() {
  for (;;) {
    PendingConn pc;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [&] { return halt_.load() || !pending_.empty(); });
      if (halt_.load()) break;
      pc = std::move(pending_.front());
      pending_.pop_front();
      MH_GAUGE("server.queue.depth")
          ->Set(static_cast<int64_t>(pending_.size()));
    }
    const uint64_t waited_us = ElapsedUs(pc.enqueued);
    MH_HISTOGRAM("server.queue.wait.us")->Record(waited_us);
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
    MH_GAUGE("server.connections.active")->Add(1);
    ServeConnection(std::move(pc.sock));
    MH_GAUGE("server.connections.active")->Add(-1);
    active_connections_.fetch_sub(1);
  }
}

void ModelHubServer::ServeConnection(Socket sock) {
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
        MH_COUNTER("server.errors.count")->Increment();
      }
      break;
    }
    MH_COUNTER("server.bytes.in")
        ->Add(request.payload.size() + kFrameOverheadBytes);

    std::string result;
    Status status;
    const TraceContext ctx = ContextFromFrame(request);
    uint64_t latency_us = 0;
    {
      // The request's trace context governs every span recorded below it
      // — including retrieval/PAS spans on the pool threads, which
      // inherit it through ThreadPool::Schedule.
      ScopedTraceContext trace_scope(ctx);
      TraceSpan span("server.request");
      span.Annotate("op", std::string(OpcodeToString(request.opcode)));
      const auto dispatched_at = std::chrono::steady_clock::now();
      if (request.version != kWireVersion) {
        status = Status::InvalidArgument(
            "unsupported wire version " + std::to_string(request.version));
      } else {
        status = Dispatch(request, &result);
      }
      latency_us = ElapsedUs(dispatched_at);
      OpLatency(request.opcode)->Record(latency_us);
      span.Annotate("status", std::string(StatusCodeToString(status.code())));
      span.Annotate("result_bytes", static_cast<uint64_t>(result.size()));
    }
    MH_COUNTER("server.requests.count")->Increment();
    if (!status.ok()) MH_COUNTER("server.errors.count")->Increment();
    const bool after_deadline = ctx.deadline_expired();
    if (after_deadline) {
      MH_COUNTER("server.deadline.expired.count")->Increment();
    }
    if (options_.slow_request_us > 0 &&
        latency_us >= static_cast<uint64_t>(options_.slow_request_us)) {
      SlowRequestEntry entry;
      entry.op = std::string(OpcodeToString(request.opcode));
      entry.latency_us = latency_us;
      entry.status = std::string(StatusCodeToString(status.code()));
      entry.trace_hi = ctx.trace_hi;
      entry.trace_lo = ctx.trace_lo;
      entry.after_deadline = after_deadline;
      entry.unix_us = UnixMicros();
      slow_log_.Record(std::move(entry));
      MH_COUNTER("server.slow_requests.count")->Increment();
    }

    const std::string wire =
        EncodeResponseFrame(request.opcode, status, result);
    MH_COUNTER("server.bytes.out")->Add(wire.size());
    const Status written = sock.WriteFull(
        wire.data(), wire.size(), Deadline::AfterMs(options_.io_timeout_ms));
    if (!written.ok()) break;
    if (request.opcode == static_cast<uint8_t>(Opcode::kShutdown)) {
      RequestStop();
      break;
    }
  }
}

Status ModelHubServer::Dispatch(const Frame& request, std::string* out) {
  switch (static_cast<Opcode>(request.opcode)) {
    case Opcode::kPing: {
      // The reply leads with the bare "pong" liveness token (old clients
      // key on that) and appends load/lifecycle state so a router can
      // steer away from a draining or backed-up server before requests
      // start failing (ParsePingReply in net/client.h).
      size_t queued;
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queued = pending_.size();
      }
      *out = std::string("pong state=") +
             (stopping_.load() ? "draining" : "serving") +
             " queue=" + std::to_string(queued) +
             " active=" + std::to_string(active_connections_.load());
      return Status::OK();
    }
    case Opcode::kListModels:
      return HandleListModels(out);
    case Opcode::kGetSnapshot:
      return HandleGetSnapshot(request, out);
    case Opcode::kDqlQuery:
      return HandleDqlQuery(request, out);
    case Opcode::kStats:
      return HandleStats(out);
    case Opcode::kGetTrace:
      return HandleGetTrace(out);
    case Opcode::kGetMetrics:
      *out = MetricRegistry::Global()->ToPrometheusText();
      return Status::OK();
    case Opcode::kShutdown:
      *out = "draining";
      return Status::OK();
  }
  return Status::InvalidArgument("unknown opcode " +
                                 std::to_string(request.opcode));
}

Status ModelHubServer::HandleListModels(std::string* out) {
  MH_ASSIGN_OR_RETURN(auto versions, repo_->List());
  for (const ModelVersionInfo& info : versions) {
    char row[320];
    std::snprintf(row, sizeof(row), "%s %s %lld %.3f %s\n", info.name.c_str(),
                  info.parent.empty() ? "-" : info.parent.c_str(),
                  static_cast<long long>(info.num_snapshots),
                  info.best_accuracy, info.archived ? "archived" : "staged");
    out->append(row);
  }
  return Status::OK();
}

Status ModelHubServer::HandleGetSnapshot(const Frame& request,
                                         std::string* out) {
  std::string model;
  int64_t sequence = -1;
  int planes = 0;
  MH_RETURN_IF_ERROR(DecodeGetSnapshotRequest(Slice(request.payload), &model,
                                              &sequence, &planes));
  if (sequence < 0) {
    MH_ASSIGN_OR_RETURN(const int64_t count, repo_->NumSnapshots(model));
    if (count == 0) {
      return Status::NotFound("version has no snapshots: " + model);
    }
    sequence = count - 1;
  }
  const std::string key = model + "/s" + std::to_string(sequence);
  // Feed the lifecycle daemon's heat map: every request counts, even
  // ones the coalescer folds into an in-flight retrieval.
  if (maintenance_ != nullptr) {
    maintenance_->access_tracker()->RecordAccess(key);
  }
  MH_ASSIGN_OR_RETURN(auto payload, coalescer_->Fetch(key, planes));
  *out = *payload;
  return Status::OK();
}

Result<std::string> ModelHubServer::FetchSnapshot(const std::string& key,
                                                  int planes) {
  // The key was assembled by HandleGetSnapshot as "<model>/s<sequence>".
  const size_t sep = key.rfind("/s");
  MH_CHECK(sep != std::string::npos);
  const std::string model = key.substr(0, sep);
  const int64_t sequence = std::atoll(key.c_str() + sep + 2);

  // Grab a shared handle to the current reader: the maintenance daemon
  // may swap the cache mid-retrieval, but this handle keeps its
  // generation pinned (chunk files undeletable) until we drop it.
  std::shared_ptr<ArchiveReader> archive = repo_->CachedArchive();
  const auto in_archive = [&key](const std::shared_ptr<ArchiveReader>& a) {
    return a != nullptr &&
           std::find(a->snapshot_names().begin(), a->snapshot_names().end(),
                     key) != a->snapshot_names().end();
  };

  if (planes == 0) {
    if (in_archive(archive)) {
      MH_ASSIGN_OR_RETURN(
          auto sets, archive->RetrieveSnapshotsParallel(
                         {key}, retrieval_pool_.get(), ParallelScheme::kShared));
      return SerializeParams(sets[0]);
    }
    // Staged (or never archived): read through the repository.
    auto params = repo_->GetSnapshotParams(model, sequence);
    if (params.ok()) return SerializeParams(*params);
    // Staging miss: the maintenance daemon (its own Repository instance)
    // may have migrated staged snapshots into a fresh archive generation
    // behind our catalog snapshot. Reload and retry before failing.
    if (auto reloaded = repo_->ReloadArchive();
        reloaded.ok() && in_archive(*reloaded)) {
      (*reloaded)->EnableChunkCache(true);
      MH_ASSIGN_OR_RETURN(
          auto sets, (*reloaded)->RetrieveSnapshotsParallel(
                         {key}, retrieval_pool_.get(), ParallelScheme::kShared));
      return SerializeParams(sets[0]);
    }
    return params.status();
  }

  if (archive == nullptr) {
    return Status::FailedPrecondition(
        "progressive retrieval requires a PAS archive (run dlv archive)");
  }
  MH_ASSIGN_OR_RETURN(auto bounds,
                      archive->RetrieveSnapshotBounds(key, planes));
  std::string text =
      "snapshot " + key + " planes=" + std::to_string(planes) + "\n";
  for (const auto& [name, matrix] : bounds) {
    double sum = 0.0;
    for (int64_t r = 0; r < matrix.rows(); ++r) {
      for (int64_t c = 0; c < matrix.cols(); ++c) {
        sum += matrix.At(r, c).Width();
      }
    }
    const double cells =
        static_cast<double>(matrix.rows()) * static_cast<double>(matrix.cols());
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s %lldx%lld max_width=%.6g mean_width=%.6g\n",
                  name.c_str(), static_cast<long long>(matrix.rows()),
                  static_cast<long long>(matrix.cols()),
                  static_cast<double>(matrix.MaxWidth()),
                  cells > 0 ? sum / cells : 0.0);
    text.append(row);
  }
  return text;
}

Status ModelHubServer::HandleDqlQuery(const Frame& request, std::string* out) {
  // Read-only engine: the serving path never mutates the repository, so
  // concurrent DQL requests need no catalog locking.
  DqlOptions options;
  options.commit_results = false;
  DqlEngine engine(&*repo_, options);
  MH_ASSIGN_OR_RETURN(DqlResult result, engine.Run(request.payload));
  switch (result.kind) {
    case dql::Query::Kind::kSelect:
      out->append(std::to_string(result.model_names.size()) +
                  " model version(s):\n");
      for (const std::string& name : result.model_names) {
        out->append("  " + name + "\n");
      }
      break;
    case dql::Query::Kind::kSlice:
    case dql::Query::Kind::kConstruct:
      out->append(std::to_string(result.networks.size()) +
                  " derived network(s):\n");
      for (const NetworkDef& def : result.networks) {
        out->append("  " + def.name() + " (" +
                    std::to_string(def.nodes().size()) + " nodes)\n");
      }
      break;
    case dql::Query::Kind::kEvaluate:
      out->append(std::to_string(result.evaluated.size()) +
                  " model(s) kept:\n");
      for (const EvaluatedModel& model : result.evaluated) {
        char row[320];
        std::snprintf(row, sizeof(row), "  %s loss=%.4f acc=%.3f\n",
                      model.name.c_str(), model.loss, model.accuracy);
        out->append(row);
      }
      break;
  }
  if (result.analyzed) {
    out->append("\nquery plan (explain analyze):\n" + result.RenderPlan());
  }
  return Status::OK();
}

Status ModelHubServer::HandleStats(std::string* out) {
  UpdateUptimeGauge();
  std::string json = MetricRegistry::Global()->Snapshot().ToJson();
  // Splice the slow-request ring and the MAINTAIN_STATUS surface in as
  // top-level sections next to counters/gauges/histograms.
  json.pop_back();
  json += ",\"slow_requests\":" + slow_log_.ToJson();
  MaintenanceStatus maintain;
  if (maintenance_ != nullptr) maintain = maintenance_->status();
  json += ",\"maintenance\":" + maintain.ToJson() + "}";
  *out = std::move(json);
  return Status::OK();
}

Status ModelHubServer::HandleGetTrace(std::string* out) {
  AppendTraceDump(out, CollectTraceDump("modelhubd@" + options_.host + ":" +
                                        std::to_string(port())));
  return Status::OK();
}

namespace {

volatile std::sig_atomic_t g_stop_signal = 0;

void OnStopSignal(int) { g_stop_signal = 1; }

}  // namespace

int RunServerMain(Env* env, const std::string& repo_root,
                  ServerOptions options) {
  ModelHubServer server(env, repo_root, std::move(options));
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "modelhubd: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("modelhubd listening on %s:%d\n", server.options().host.c_str(),
              server.port());
  std::fflush(stdout);
  g_stop_signal = 0;
  std::signal(SIGTERM, OnStopSignal);
  std::signal(SIGINT, OnStopSignal);
  while (g_stop_signal == 0 && !server.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "modelhubd: draining\n");
  const Status stopped = server.Stop();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  if (!stopped.ok()) {
    std::fprintf(stderr, "modelhubd: %s\n", stopped.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace modelhub
