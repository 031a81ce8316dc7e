#include "router/router.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "common/json.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "net/client.h"

namespace modelhub {
namespace {

/// Faults worth burning retry budget on. kUnavailable / kDeadlineExceeded
/// cover refused connects, sheds, and expired budgets; kIOError and
/// kCorruption cover a connection torn mid-frame by a dying backend. Any
/// other code is the backend's definitive answer (NotFound, bad DQL, ...)
/// and retrying it elsewhere would return the same thing.
bool RetryableStatus(const Status& status) {
  return status.IsUnavailable() || status.IsDeadlineExceeded() ||
         status.IsIOError() || status.IsCorruption();
}

Rng& JitterRng() {
  // Per-thread so concurrent workers do not share backoff phase (retry
  // storms synchronizing across workers is exactly what jitter prevents).
  thread_local Rng rng(static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count() ^
      (std::hash<std::thread::id>{}(std::this_thread::get_id()) << 1)));
  return rng;
}

Result<Endpoint> ParseEndpoint(const std::string& text) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    return Status::InvalidArgument("endpoint '" + text +
                                   "' is not host:port");
  }
  Endpoint endpoint;
  endpoint.host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_text.c_str(), &end, 10);
  if (port_text.empty() || end == nullptr || *end != '\0' || port < 1 ||
      port > 65535) {
    return Status::InvalidArgument("endpoint '" + text +
                                   "' has an invalid port");
  }
  endpoint.port = static_cast<int>(port);
  return endpoint;
}

std::string Trim(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

FrameServerRole RouterRole() {
  return {
      .name = "router",
      .request_span = "router.request",
      .starts = MH_COUNTER("router.starts.count"),
      .stops = MH_COUNTER("router.stops.count"),
      .accepted = MH_COUNTER("router.accepted.count"),
      .shed = MH_COUNTER("router.shed.count"),
      .requests = MH_COUNTER("router.requests.count"),
      .errors = MH_COUNTER("router.errors.count"),
      .deadline_expired = MH_COUNTER("router.deadline.expired.count"),
      .slow_requests = MH_COUNTER("router.slow_requests.count"),
      .bytes_in = MH_COUNTER("router.bytes.in"),
      .bytes_out = MH_COUNTER("router.bytes.out"),
      .queue_depth = MH_GAUGE("router.queue.depth"),
      .connections_active = MH_GAUGE("router.connections.active"),
      .uptime_seconds = MH_GAUGE("router.uptime_seconds"),
      .queue_wait_us = MH_HISTOGRAM("router.queue.wait.us"),
      // Every op is one forward or a local answer: one histogram for all.
      .op_latency =
          [](uint8_t) { return MH_HISTOGRAM("router.op.forward.us"); },
  };
}

}  // namespace

size_t FleetTopology::num_backends() const {
  size_t total = 0;
  for (const Shard& shard : shards) total += shard.replicas.size();
  return total;
}

Result<FleetTopology> FleetTopology::Parse(const std::string& spec) {
  FleetTopology topology;
  size_t start = 0;
  for (;;) {
    const size_t end = spec.find(';', start);
    const std::string shard_spec = Trim(
        end == std::string::npos ? spec.substr(start)
                                 : spec.substr(start, end - start));
    if (shard_spec.empty()) {
      return Status::InvalidArgument(
          "fleet topology has an empty shard (spec: '" + spec + "')");
    }
    Shard shard;
    shard.name = "shard" + std::to_string(topology.shards.size());
    size_t rstart = 0;
    for (;;) {
      const size_t rend = shard_spec.find(',', rstart);
      const std::string replica_spec = Trim(
          rend == std::string::npos ? shard_spec.substr(rstart)
                                    : shard_spec.substr(rstart, rend - rstart));
      if (replica_spec.empty()) {
        return Status::InvalidArgument("shard '" + shard.name +
                                       "' has an empty replica endpoint");
      }
      MH_ASSIGN_OR_RETURN(Endpoint endpoint, ParseEndpoint(replica_spec));
      shard.replicas.push_back(std::move(endpoint));
      if (rend == std::string::npos) break;
      rstart = rend + 1;
    }
    topology.shards.push_back(std::move(shard));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return topology;
}

ModelHubRouter::ModelHubRouter(FleetTopology topology, RouterOptions options)
    : topology_(std::move(topology)),
      options_(options),
      ring_(options.vnodes_per_shard),
      // The router drains without grace: nothing steers around it.
      frontend_(options_, /*drain_grace_ms=*/0, RouterRole(),
                [this](const Frame& request, std::string* out) {
                  return Dispatch(request, out);
                }) {}

ModelHubRouter::~ModelHubRouter() { (void)Stop(); }

Status ModelHubRouter::Start() {
  if (running()) {
    return Status::FailedPrecondition("router already running");
  }
  if (topology_.shards.empty()) {
    return Status::InvalidArgument("fleet topology has no shards");
  }
  shards_.clear();
  shard_by_name_.clear();
  ring_ = HashRing(options_.vnodes_per_shard);

  CircuitBreaker::Options breaker_options;
  breaker_options.failure_threshold = std::max(1, options_.failure_threshold);
  breaker_options.open_ms = std::max(1, options_.breaker_open_ms);
  ClientOptions backend_options;
  backend_options.connect_timeout_ms = options_.backend_connect_timeout_ms;
  backend_options.op_timeout_ms = options_.backend_op_timeout_ms;
  backend_options.max_frame_bytes = options_.max_frame_bytes;

  for (size_t i = 0; i < topology_.shards.size(); ++i) {
    const FleetTopology::Shard& shard = topology_.shards[i];
    if (shard.replicas.empty()) {
      return Status::InvalidArgument("shard '" + shard.name +
                                     "' has no replicas");
    }
    auto runtime = std::make_unique<ShardRuntime>();
    runtime->name = shard.name;
    for (const Endpoint& endpoint : shard.replicas) {
      runtime->replicas.push_back(
          std::make_unique<Backend>(endpoint, static_cast<int>(i),
                                    breaker_options, backend_options));
    }
    ring_.AddNode(shard.name);
    shard_by_name_.emplace(shard.name, runtime.get());
    shards_.push_back(std::move(runtime));
  }

  UpdateHealthGauges();
  MH_RETURN_IF_ERROR(frontend_.Start());
  probe_thread_ = std::thread([this] { ProbeLoop(); });
  return Status::OK();
}

Status ModelHubRouter::Stop() {
  if (!running()) return Status::OK();
  frontend_.Stop();
  if (probe_thread_.joinable()) probe_thread_.join();
  // The shard table survives Stop (tests inspect breaker states after a
  // drain) but pooled backend sockets are released now.
  for (const auto& shard : shards_) {
    for (const auto& backend : shard->replicas) backend->InvalidatePool();
  }
  return Status::OK();
}

const std::string& ModelHubRouter::ShardForModel(std::string_view model) const {
  return ring_.NodeFor(model);
}

std::vector<ModelHubRouter::BackendStatus> ModelHubRouter::BackendStatuses()
    const {
  std::vector<BackendStatus> statuses;
  for (const auto& shard : shards_) {
    for (const auto& backend : shard->replicas) {
      BackendStatus status;
      status.name = backend->endpoint().Name();
      status.shard = backend->shard();
      status.breaker = backend->breaker().state();
      status.draining = backend->draining();
      status.consecutive_failures = backend->breaker().consecutive_failures();
      statuses.push_back(std::move(status));
    }
  }
  return statuses;
}

std::pair<int64_t, int64_t> ModelHubRouter::CountHealthyBackends() const {
  int64_t healthy = 0;
  int64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& backend : shard->replicas) {
      ++total;
      if (backend->breaker().state() == CircuitBreaker::State::kClosed &&
          !backend->draining()) {
        ++healthy;
      }
    }
  }
  return {healthy, total};
}

bool ModelHubRouter::AllBackendsHealthy() const {
  const auto [healthy, total] = CountHealthyBackends();
  return total > 0 && healthy == total;
}

void ModelHubRouter::UpdateHealthGauges() const {
  const auto [healthy, total] = CountHealthyBackends();
  MH_GAUGE("router.backends.healthy")->Set(healthy);
  MH_GAUGE("router.backends.total")->Set(total);
}

Status ModelHubRouter::Dispatch(const Frame& request, std::string* out) {
  switch (static_cast<Opcode>(request.opcode)) {
    case Opcode::kPing:
      return HandlePing(out);
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
      return HandleGetMetrics(out);
    case Opcode::kShutdown:
      // Drains the router only; backends keep serving for any other
      // frontend (DESIGN.md §11 drain ordering).
      *out = "draining";
      return Status::OK();
  }
  return Status::InvalidArgument("unknown opcode " +
                                 std::to_string(request.opcode));
}

Status ModelHubRouter::HandlePing(std::string* out) {
  const auto [healthy, total] = CountHealthyBackends();
  // Same shape as modelhubd's reply (ParsePingReply ignores the extra
  // role/healthy/backends tokens), so anything that can health-check a
  // backend can health-check a router.
  *out = frontend_.PingReply() +
         " role=router healthy=" + std::to_string(healthy) +
         " backends=" + std::to_string(total);
  return Status::OK();
}

Status ModelHubRouter::HandleGetSnapshot(const Frame& request,
                                         std::string* out) {
  std::string model;
  int64_t sequence = -1;
  int planes = 0;
  MH_RETURN_IF_ERROR(DecodeGetSnapshotRequest(Slice(request.payload), &model,
                                              &sequence, &planes));
  const std::string& shard_name = ring_.NodeFor(model);
  const auto it = shard_by_name_.find(shard_name);
  MH_CHECK(it != shard_by_name_.end());
  return ForwardToShard(it->second, request.opcode, request.payload, out);
}

Status ModelHubRouter::HandleListModels(std::string* out) {
  // Fan out to one healthy replica per shard; identical rows from shards
  // that replicate the same catalog collapse to one.
  std::set<std::string> seen;
  for (const auto& shard : shards_) {
    std::string text;
    MH_RETURN_IF_ERROR(ForwardToShard(
        shard.get(), static_cast<uint8_t>(Opcode::kListModels), "", &text));
    size_t start = 0;
    while (start < text.size()) {
      size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      const std::string row = text.substr(start, end - start);
      if (!row.empty() && seen.insert(row).second) {
        out->append(row);
        out->push_back('\n');
      }
      start = end + 1;
    }
  }
  return Status::OK();
}

Status ModelHubRouter::HandleDqlQuery(const Frame& request, std::string* out) {
  // Every shard runs the query over its own catalog; blocks are labelled
  // when the fleet has more than one shard so per-shard answers stay
  // attributable.
  for (const auto& shard : shards_) {
    std::string text;
    MH_RETURN_IF_ERROR(ForwardToShard(shard.get(), request.opcode,
                                      request.payload, &text));
    if (shards_.size() > 1) {
      out->append("-- " + shard->name + " --\n");
    }
    out->append(text);
    if (!text.empty() && text.back() != '\n') out->push_back('\n');
  }
  return Status::OK();
}

Status ModelHubRouter::HandleStats(std::string* out) {
  frontend_.UpdateUptimeGauge();
  UpdateHealthGauges();
  std::string own = MetricRegistry::Global()->Snapshot().ToJson();
  // Splice the slow-request ring into the router's own section as a
  // fourth top-level key next to counters/gauges/histograms.
  own.pop_back();
  own += ",\"slow_requests\":" + frontend_.slow_log().ToJson() + "}";
  std::string json = "{\"router\":";
  json += own;
  json += ",\"backends\":{";
  bool first = true;
  for (const auto& shard : shards_) {
    for (const auto& backend : shard->replicas) {
      if (!first) json += ",";
      first = false;
      json += JsonString(backend->endpoint().Name()) + ":{";
      json += "\"shard\":" + JsonString(shard->name);
      json += ",\"breaker\":\"";
      json += BreakerStateToString(backend->breaker().state());
      json += "\"";
      json += ",\"draining\":";
      json += backend->draining() ? "true" : "false";
      std::string stats;
      const Status fetched =
          TryBackend(backend.get(), static_cast<uint8_t>(Opcode::kStats), "",
                     &stats);
      if (fetched.ok()) {
        json += ",\"stats\":" + stats;
      } else {
        json += ",\"error\":" + JsonString(fetched.ToString());
      }
      json += "}";
    }
  }
  json += "}}";
  *out = std::move(json);
  return Status::OK();
}

Status ModelHubRouter::HandleGetTrace(std::string* out) {
  // Own section first, then a best-effort section from every backend: a
  // dead or breaker-refused backend contributes nothing rather than
  // failing the whole fleet merge.
  AppendTraceDump(out, CollectTraceDump("router@" + options_.host + ":" +
                                        std::to_string(port())));
  for (const auto& shard : shards_) {
    for (const auto& backend : shard->replicas) {
      std::string section;
      const Status fetched =
          TryBackend(backend.get(), static_cast<uint8_t>(Opcode::kGetTrace),
                     "", &section);
      if (fetched.ok()) out->append(section);
    }
  }
  return Status::OK();
}

Status ModelHubRouter::HandleGetMetrics(std::string* out) {
  frontend_.UpdateUptimeGauge();
  UpdateHealthGauges();
  std::set<std::string> seen_types;
  AppendPrometheusWithLabel(out, MetricRegistry::Global()->ToPrometheusText(),
                            "node=\"router\"", &seen_types);
  for (const auto& shard : shards_) {
    for (const auto& backend : shard->replicas) {
      std::string text;
      const Status fetched =
          TryBackend(backend.get(), static_cast<uint8_t>(Opcode::kGetMetrics),
                     "", &text);
      if (!fetched.ok()) continue;  // Best-effort, like GET_TRACE.
      const std::string label =
          "node=\"" + backend->endpoint().Name() + "\"";
      AppendPrometheusWithLabel(out, text, label, &seen_types);
    }
  }
  return Status::OK();
}

Backend* ModelHubRouter::PickReplica(ShardRuntime* shard, uint64_t start,
                                     int attempt) {
  const size_t n = shard->replicas.size();
  // First pass: healthy, non-draining replicas. The +attempt rotation
  // makes a retry lead with a different replica than the one that just
  // failed.
  for (size_t i = 0; i < n; ++i) {
    Backend* candidate =
        shard->replicas[(start + static_cast<uint64_t>(attempt) + i) % n]
            .get();
    if (candidate->draining()) continue;
    if (!candidate->breaker().Allow()) continue;
    return candidate;
  }
  // Second pass: a draining backend still answers reads — better than
  // shedding when it is the only replica left standing.
  for (size_t i = 0; i < n; ++i) {
    Backend* candidate =
        shard->replicas[(start + static_cast<uint64_t>(attempt) + i) % n]
            .get();
    if (candidate->breaker().Allow()) return candidate;
  }
  return nullptr;
}

Status ModelHubRouter::TryBackend(Backend* backend, uint8_t opcode,
                                  std::string_view payload, std::string* out) {
  // One span per attempt: the outbound CallDetailed reads CurrentSpanId()
  // inside this scope, so the backend's server.request parents to this
  // span and a failover shows up as sibling router.forward spans.
  TraceSpan span("router.forward");
  span.Annotate("backend", backend->endpoint().Name());
  Result<ModelHubClient> client = backend->Acquire();
  if (!client.ok()) {
    if (backend->breaker().RecordFailure()) {
      MH_COUNTER("router.breaker.opens.count")->Increment();
    }
    return client.status();
  }
  Result<WireResponse> response = client->CallDetailed(opcode, payload);
  if (!response.ok()) {
    // Transport fault mid-exchange: this socket is unusable and any
    // pooled siblings into the same dead process probably are too.
    backend->InvalidatePool();
    if (backend->breaker().RecordFailure()) {
      MH_COUNTER("router.breaker.opens.count")->Increment();
    }
    return response.status();
  }
  const Status remote = std::move(response->remote);
  if (remote.IsUnavailable() || remote.IsDeadlineExceeded()) {
    // The backend shed us (draining / at capacity) and closes the
    // connection after a shed, so the socket is not pooled.
    if (backend->breaker().RecordFailure()) {
      MH_COUNTER("router.breaker.opens.count")->Increment();
    }
    return remote;
  }
  // A definitive answer — success or a server-side error like NotFound —
  // proves the backend healthy.
  if (backend->breaker().RecordSuccess()) {
    MH_COUNTER("router.breaker.closes.count")->Increment();
  }
  backend->Release(std::move(*client));
  *out = std::move(response->result);
  return remote;
}

Status ModelHubRouter::ForwardToShard(ShardRuntime* shard, uint8_t opcode,
                                      std::string_view payload,
                                      std::string* out) {
  const uint64_t start = shard->rr.fetch_add(1, std::memory_order_relaxed);
  const size_t num_replicas = shard->replicas.size();
  const int max_attempts = std::max(1, options_.max_attempts);
  Status last = Status::Unavailable("no admittable replica");
  Backend* previous = nullptr;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (stop_requested()) break;
    Backend* backend = PickReplica(shard, start, attempt);
    if (backend == nullptr) break;  // Every breaker open: shed fast.
    if (attempt > 0) {
      MH_COUNTER("router.retries.count")->Increment();
      if (backend != previous) {
        MH_COUNTER("router.failovers.count")->Increment();
      }
    }
    previous = backend;
    const Status status = TryBackend(backend, opcode, payload, out);
    if (!RetryableStatus(status)) return status;  // OK or definitive error.
    last = status;
    // Backoff only once the whole replica set has been tried this round —
    // failing over to a different live replica should not wait.
    if (attempt + 1 < max_attempts &&
        static_cast<size_t>(attempt + 1) >= num_replicas) {
      const int shift = std::min(attempt, 10);
      const int base =
          std::min(options_.retry_backoff_max_ms,
                   std::max(1, options_.retry_backoff_base_ms) << shift);
      const uint64_t wait_ms =
          static_cast<uint64_t>(base) / 2 +
          JitterRng().Uniform(static_cast<uint64_t>(base) / 2 + 1);
      for (uint64_t slept = 0; slept < wait_ms && !stop_requested();
           slept += 5) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<uint64_t>(5, wait_ms - slept)));
      }
    }
  }
  MH_COUNTER("router.shed.count")->Increment();
  return Status::Unavailable("shard " + shard->name +
                             " unavailable: " + last.message());
}

void ModelHubRouter::ProbeLoop() {
  while (!stop_requested()) {
    for (const auto& shard : shards_) {
      for (const auto& backend : shard->replicas) {
        if (stop_requested()) return;
        CircuitBreaker& breaker = backend->breaker();
        const CircuitBreaker::State state = breaker.state();
        if (state == CircuitBreaker::State::kHalfOpen) {
          continue;  // Someone else's probe is in flight.
        }
        if (state == CircuitBreaker::State::kOpen && !breaker.Allow()) {
          continue;  // Still cooling down.
        }
        MH_COUNTER("router.probe.count")->Increment();
        ClientOptions probe_options;
        probe_options.connect_timeout_ms = options_.probe_timeout_ms;
        probe_options.op_timeout_ms = options_.probe_timeout_ms;
        Status probe;
        Result<ModelHubClient> client = ModelHubClient::Connect(
            backend->endpoint().host, backend->endpoint().port, probe_options);
        if (!client.ok()) {
          probe = client.status();
        } else {
          Result<std::string> pong = client->Ping();
          if (!pong.ok()) {
            probe = pong.status();
          } else {
            Result<PingInfo> info = ParsePingReply(*pong);
            if (!info.ok()) {
              probe = info.status();
            } else {
              backend->set_draining(info->draining());
            }
          }
        }
        if (probe.ok()) {
          if (breaker.RecordSuccess()) {
            MH_COUNTER("router.breaker.closes.count")->Increment();
          }
        } else {
          MH_COUNTER("router.probe.failures.count")->Increment();
          backend->InvalidatePool();
          if (breaker.RecordFailure()) {
            MH_COUNTER("router.breaker.opens.count")->Increment();
          }
        }
      }
    }
    UpdateHealthGauges();
    const int interval = std::max(10, options_.probe_interval_ms);
    for (int slept = 0; slept < interval && !stop_requested(); slept += 10) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min(10, interval - slept)));
    }
  }
}

int RunRouterMain(FleetTopology topology, RouterOptions options) {
  const size_t num_shards = topology.shards.size();
  const size_t num_backends = topology.num_backends();
  ModelHubRouter router(std::move(topology), std::move(options));
  const Status started = router.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "modelhub-router: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("modelhub-router listening on %s:%d (%zu shards, %zu backends)\n",
              router.options().host.c_str(), router.port(), num_shards,
              num_backends);
  std::fflush(stdout);
  return WaitForStopSignal(
      "modelhub-router", [&] { return router.stop_requested(); },
      [&] { return router.Stop(); });
}

}  // namespace modelhub
