#include "server/modelhubd.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dql/engine.h"
#include "pas/archive.h"

namespace modelhub {
namespace {

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

FrameServerRole ServerRole() {
  return {
      .name = "server",
      .request_span = "server.request",
      .starts = MH_COUNTER("server.starts.count"),
      .stops = MH_COUNTER("server.stops.count"),
      .accepted = MH_COUNTER("server.accepted.count"),
      .shed = MH_COUNTER("server.shed.count"),
      .requests = MH_COUNTER("server.requests.count"),
      .errors = MH_COUNTER("server.errors.count"),
      .deadline_expired = MH_COUNTER("server.deadline.expired.count"),
      .slow_requests = MH_COUNTER("server.slow_requests.count"),
      .bytes_in = MH_COUNTER("server.bytes.in"),
      .bytes_out = MH_COUNTER("server.bytes.out"),
      .queue_depth = MH_GAUGE("server.queue.depth"),
      .connections_active = MH_GAUGE("server.connections.active"),
      .uptime_seconds = MH_GAUGE("server.uptime_seconds"),
      .queue_wait_us = MH_HISTOGRAM("server.queue.wait.us"),
      .op_latency = OpLatency,
  };
}

}  // namespace

ModelHubServer::ModelHubServer(Env* env, std::string repo_root,
                               ServerOptions options)
    : env_(env),
      repo_root_(std::move(repo_root)),
      options_(options),
      frontend_(options_, options_.drain_grace_ms, ServerRole(),
                [this](const Frame& request, std::string* out) {
                  return Dispatch(request, out);
                }) {}

ModelHubServer::~ModelHubServer() { (void)Stop(); }

Status ModelHubServer::Start() {
  if (running()) {
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
  coalescer_ = std::make_unique<SnapshotCoalescer>(
      [this](const std::string& key, int planes) {
        return FetchSnapshot(key, planes);
      },
      options_.coalesce_linger_ms);
  retrieval_pool_ =
      std::make_unique<ThreadPool>(std::max(1, options_.retrieval_threads));
  MH_RETURN_IF_ERROR(frontend_.Start());
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
      for (int i = 0; i < 200 && !frontend_.stop_requested(); ++i) {
        if (frontend_.queued() == 0) break;
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

void ModelHubServer::RequestStop() {
  // Only atomic stores and pipe writes — callable from signal handlers.
  frontend_.RequestStop();
  if (maintenance_ != nullptr) maintenance_->RequestStop();
}

Status ModelHubServer::Stop() {
  if (!running()) return Status::OK();
  RequestStop();
  if (maintenance_ != nullptr) (void)maintenance_->Stop();
  frontend_.Stop();
  retrieval_pool_.reset();
  coalescer_.reset();
  maintenance_.reset();
  repo_.reset();
  return Status::OK();
}

uint64_t ModelHubServer::coalesce_hits() const {
  return coalescer_ != nullptr ? coalescer_->hits() : 0;
}

uint64_t ModelHubServer::coalesce_misses() const {
  return coalescer_ != nullptr ? coalescer_->misses() : 0;
}

Status ModelHubServer::Dispatch(const Frame& request, std::string* out) {
  switch (static_cast<Opcode>(request.opcode)) {
    case Opcode::kPing:
      *out = frontend_.PingReply();
      return Status::OK();
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
      // The frontend starts the drain once this reply is written.
      if (maintenance_ != nullptr) maintenance_->RequestStop();
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
    // One row-major pass: each width is summed into a double in element
    // order and folded into the max (IntervalMatrix::MaxWidth's rule).
    const float* lo = matrix.lo().data().data();
    const float* hi = matrix.hi().data().data();
    double sum = 0.0;
    float max_width = 0.0f;
    for (size_t i = 0; i < matrix.lo().data().size(); ++i) {
      const float width = hi[i] - lo[i];
      sum += width;
      max_width = std::max(max_width, width);
    }
    const double cells =
        static_cast<double>(matrix.rows()) * static_cast<double>(matrix.cols());
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s %lldx%lld max_width=%.6g mean_width=%.6g\n",
                  name.c_str(), static_cast<long long>(matrix.rows()),
                  static_cast<long long>(matrix.cols()),
                  static_cast<double>(max_width),
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
  frontend_.UpdateUptimeGauge();
  std::string json = MetricRegistry::Global()->Snapshot().ToJson();
  // Splice the slow-request ring and the MAINTAIN_STATUS surface in as
  // top-level sections next to counters/gauges/histograms.
  json.pop_back();
  json += ",\"slow_requests\":" + frontend_.slow_log().ToJson();
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
  return WaitForStopSignal(
      "modelhubd", [&] { return server.stop_requested(); },
      [&] { return server.Stop(); });
}

}  // namespace modelhub
