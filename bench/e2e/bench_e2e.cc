// bench_e2e: one workload of the end-to-end benchmark, run in-process
// against the real stack over loopback and on-disk repositories (PosixEnv,
// so the mmap chunk path runs):
//
//   read:  client -> [router] -> modelhubd -> coalescer -> retrieval
//          -> chunk store -> codec
//   write: dlv commit -> PAS archive (solver, sketch, tile encode, dedup)
//
// Usage:
//   bench_e2e --workload=<pull_hot|pull_cold|explore|ingest> --seed=N
//             [--seconds=S] [--trace] [--smoke] [--work=DIR]
//             [--trace-out=FILE]
//   bench_e2e --list-registry-names
//
// Prints one JSON run record as the last line of stdout (progress goes to
// stderr) and exits non-zero when any output was wrong or a run guard
// tripped. Every server runs with deployment defaults, except that explore
// shortens its lifecycle daemon's interval so cycles run inside the window.
// bench/e2e/run.py builds this binary and drives it.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/random.h"
#include "common/trace.h"
#include "corpus.h"
#include "dlv/repository.h"
#include "layers.h"
#include "net/client.h"
#include "pas/archive.h"
#include "router/router.h"
#include "server/modelhubd.h"

namespace modelhub {
namespace e2e {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Closed-loop load: each client thread owns one connection and sends its
/// next request only after the previous reply (training jobs and inference
/// replicas waiting for their checkpoint).
constexpr int kClients = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Served workloads report p99 of each op type, ingest (cycles of a third
/// of a second) p75; each needs at least ten samples beyond it.
constexpr double kServedTailPct = 99.0;
constexpr size_t kServedMinSamples = 1000;
constexpr double kIngestTailPct = 75.0;
constexpr size_t kIngestMinSamples = 40;
/// Sampled keys whose bounds replies are checked against the true weights.
constexpr int kBoundsCheckKeys = 16;
/// explore's lifecycle daemon period: about one cycle per 8 s of traffic.
/// The default (60 s) would never fire inside a run.
constexpr int kMaintenanceIntervalMs = 8000;
/// The chunk cache each server's archive reader has by default (64 MiB per
/// chunk store, pas/chunk_store.h). Only used to describe the corpus.
constexpr double kDefaultChunkCacheBytes = 64.0 * (1 << 20);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  bool list_registry_names = false;
  std::string work_dir = "build-e2e/work";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* flag) -> std::optional<std::string> {
      const std::string prefix = std::string(flag) + "=";
      if (arg.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
      return arg.substr(prefix.size());
    };
    if (auto v = value("--workload")) {
      args->workload = *v;
    } else if (auto v = value("--seed")) {
      args->seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--seconds")) {
      args->seconds = std::atof(v->c_str());
    } else if (auto v = value("--work")) {
      args->work_dir = *v;
    } else if (auto v = value("--trace-out")) {
      args->trace_out = *v;
    } else if (arg == "--trace") {
      args->trace = true;
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else if (arg == "--list-registry-names") {
      args->list_registry_names = true;
    } else {
      std::fprintf(stderr, "bench_e2e: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return args->list_registry_names ||
         (!args->workload.empty() && args->seconds > 0.0);
}

// ---------------------------------------------------------------------------
// JSON output.

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// Builds one JSON object field by field.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += JsonString(key) + ":" + json;
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonStrings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonString(items[i]);
  }
  return out + "]";
}

std::string JsonNumbers(const std::vector<double>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonNumber(items[i]);
  }
  return out + "]";
}

std::string JsonMetrics(const MetricSet& set) {
  JsonObject obj;
  for (const auto& e : set.entries()) {
    obj.Raw(e.name,
            JsonObject().Num("value", e.value).Str("unit", e.unit).str());
  }
  return obj.str();
}

// ---------------------------------------------------------------------------
// Run record and small measurement helpers.

/// Operation failures, guard violations and their first messages.
class FailureLog {
 public:
  void Add(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    if (messages_.size() < 20) messages_.push_back(what);
    std::fprintf(stderr, "bench_e2e: FAILED %s\n", what.c_str());
  }
  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  mutable std::mutex mu_;
  uint64_t count_ = 0;
  std::vector<std::string> messages_;
};

struct RunRecord {
  uint64_t attempted = 0;
  FailureLog failures;
  std::vector<std::string> guards;
  MetricSet end_to_end;
  MetricSet per_layer;
  JsonObject corpus;
  JsonObject ops;
  JsonObject setup;
  std::vector<std::string> missing_counters;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return Percentile(v, 50.0);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::atof(line.c_str() + 6) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// `dlv archive` defaults: PAS-PT, alpha 2.0, auto threads, dedup and
/// similarity pairing on.
ArchiveOptions DlvArchiveDefaults() {
  ArchiveOptions options;
  options.solver = ArchiveSolver::kPasPt;
  options.budget_alpha = 2.0;
  return options;
}

// ---------------------------------------------------------------------------
// Operations and their oracle.

enum class Op : uint8_t { kPull, kBounds, kQuery, kList };
constexpr const char* kOpNames[] = {"pull", "bounds", "query", "list"};
constexpr int kNumOps = 4;

struct Sample {
  Op op = Op::kPull;
  bool ok = false;
  double start_s = 0.0;  ///< Since the window began.
  double ms = 0.0;
  /// Exact pulls: the key's index in Corpus::Keys() and the reply's hash,
  /// held to byte identity with the reference reader after the window.
  int64_t key = -1;
  uint64_t hash = 0;
};

/// What a served workload sends and to whom.
struct ServedSpec {
  CorpusSpec corpus;
  bool router = false;
  bool maintenance = false;
  /// Op mix; LIST_MODELS takes the remainder.
  double pull = 1.0;
  double bounds = 0.0;
  double query = 0.0;
  /// Pulls name every (version, sequence) uniformly; otherwise they ask
  /// for a version's latest snapshot, Zipf(1.1) with the newest hottest.
  bool uniform_keys = false;

  double Share(Op op) const {
    switch (op) {
      case Op::kPull:
        return pull;
      case Op::kBounds:
        return bounds;
      case Op::kQuery:
        return query;
      case Op::kList:
        break;
    }
    return 1.0 - pull - bounds - query;
  }
};

std::optional<ServedSpec> ServedSpecFor(const std::string& workload,
                                        bool smoke) {
  ServedSpec spec;
  spec.corpus = smoke ? CorpusSpec{4, 2, Scale::kSmoke}
                      : CorpusSpec{8, 4, Scale::kFull};
  if (workload == "pull_hot") {
    spec.router = true;
  } else if (workload == "pull_cold") {
    if (!smoke) spec.corpus.versions = 16;
    spec.uniform_keys = true;
  } else if (workload == "explore") {
    spec.maintenance = true;
    spec.pull = 0.2;
    spec.bounds = 0.4;
    spec.query = 0.3;
  } else {
    return std::nullopt;
  }
  return spec;
}

struct Choice {
  Op op = Op::kPull;
  size_t version = 0;     ///< Index into Corpus::versions.
  int64_t sequence = -1;  ///< -1 = latest.
  int planes = 0;
  size_t probe = 0;
};

/// Cumulative Zipf(1.1) weights of ranks 1..n.
std::vector<double> ZipfCdf(size_t n) {
  std::vector<double> cdf;
  double total = 0.0;
  for (size_t rank = 1; rank <= n; ++rank) {
    total += std::pow(static_cast<double>(rank), -1.1);
    cdf.push_back(total);
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// Draws one client thread's op sequence from its own seeded RNG. Exact
/// pulls either name any (version, sequence) uniformly or ask for a
/// version's latest snapshot, Zipf-ranked with the newest version hottest.
/// Bounds reads browse every (version, sequence) uniformly.
class OpPicker {
 public:
  OpPicker(const Corpus& corpus, const ServedSpec& spec, uint64_t seed)
      : corpus_(corpus),
        spec_(spec),
        rng_(seed),
        version_cdf_(ZipfCdf(corpus.versions.size())),
        next_probe_(static_cast<size_t>(rng_.Uniform(3))) {}

  Choice Next() {
    Choice c;
    const double u = rng_.NextDouble();
    if (u < spec_.pull) {
      c.op = Op::kPull;
      if (spec_.uniform_keys) {
        UniformKey(&c);
      } else {
        c.version = corpus_.versions.size() - 1 - Draw(version_cdf_);
      }
    } else if (u < spec_.pull + spec_.bounds) {
      c.op = Op::kBounds;
      UniformKey(&c);
      c.planes = 1 + static_cast<int>(rng_.Uniform(2));
    } else if (u < spec_.pull + spec_.bounds + spec_.query) {
      c.op = Op::kQuery;
      c.probe = next_probe_++ % 3;
    } else {
      c.op = Op::kList;
    }
    return c;
  }

 private:
  void UniformKey(Choice* c) {
    const size_t per = static_cast<size_t>(corpus_.spec.snapshots);
    const size_t key = static_cast<size_t>(
        rng_.Uniform(static_cast<uint64_t>(corpus_.NumKeys())));
    c->version = key / per;
    c->sequence = static_cast<int64_t>(key % per);
  }

  /// 0-based rank drawn from `cdf`.
  size_t Draw(const std::vector<double>& cdf) {
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng_.NextDouble()) -
        cdf.begin());
    return std::min(rank, cdf.size() - 1);
  }

  const Corpus& corpus_;
  const ServedSpec& spec_;
  Rng rng_;
  std::vector<double> version_cdf_;
  size_t next_probe_;
};

/// Checks every reply against what the generator predicts. Each Check*
/// returns "" when the reply is right, else what was wrong.
class Oracle {
 public:
  explicit Oracle(const Corpus& corpus)
      : corpus_(corpus), probes_(corpus.DqlProbes()) {
    for (const VersionPlan& v : corpus.versions) versions_.insert(v.name);
  }

  const Corpus& corpus() const { return corpus_; }
  const std::vector<DqlProbe>& probes() const { return probes_; }

  /// Index of (version, sequence) in Corpus::Keys(); -1 means latest.
  int64_t KeyIndex(size_t version, int64_t sequence) const {
    const int64_t per = corpus_.spec.snapshots;
    return static_cast<int64_t>(version) * per +
           (sequence < 0 ? per - 1 : sequence);
  }
  std::string Key(size_t version, int64_t sequence) const {
    return SnapshotKeyOf(corpus_.versions[version].name,
                         sequence < 0 ? corpus_.spec.snapshots - 1 : sequence);
  }

  /// Names, shapes and sampled elements against the generator's truth.
  std::string CheckPull(size_t version, int64_t sequence,
                        const std::vector<NamedParam>& params) const {
    const std::string key = Key(version, sequence);
    auto it = corpus_.samples.find(key);
    if (it == corpus_.samples.end()) return "no expected content for " + key;
    const std::string error = CompareToSample(params, it->second);
    return error.empty() ? "" : key + ": " + error;
  }

  std::string CheckBounds(size_t version, int64_t sequence, int planes,
                          const std::string& reply) const {
    const std::string key = Key(version, sequence);
    std::istringstream in(reply);
    std::string line;
    if (!std::getline(in, line) ||
        line != "snapshot " + key + " planes=" + std::to_string(planes)) {
      return "bad bounds header for " + key;
    }
    std::set<std::string> seen;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::istringstream row(line);
      std::string name, shape, max_width, mean_width;
      row >> name >> shape >> max_width >> mean_width;
      if (!FiniteField(max_width, "max_width=") ||
          !FiniteField(mean_width, "mean_width=")) {
        return "non-finite bounds width for " + key + " " + name;
      }
      seen.insert(name);
    }
    const auto& names = corpus_.family_params[static_cast<size_t>(
        corpus_.versions[version].family)];
    if (seen != std::set<std::string>(names.begin(), names.end())) {
      return "bounds reply for " + key + " does not list every parameter";
    }
    return "";
  }

  std::string CheckQuery(size_t probe, const std::string& reply) const {
    std::istringstream in(reply);
    std::string line;
    std::getline(in, line);  // "<n> model version(s):" / "... network(s):"
    std::set<std::string> names;
    while (std::getline(in, line)) {
      const size_t begin = line.find_first_not_of(' ');
      if (begin == std::string::npos) continue;
      std::string name = line.substr(begin);
      const size_t paren = name.find(" (");
      if (paren != std::string::npos) name.resize(paren);
      names.insert(name);
    }
    if (names != probes_[probe].expected) {
      return "DQL answer differs from prediction: " + probes_[probe].statement;
    }
    return "";
  }

  std::string CheckList(const std::string& reply) const {
    std::istringstream in(reply);
    std::string line;
    std::set<std::string> names;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      names.insert(line.substr(0, line.find(' ')));
    }
    return names == versions_ ? "" : "LIST_MODELS misses or adds versions";
  }

 private:
  static bool FiniteField(const std::string& token, const std::string& key) {
    if (token.compare(0, key.size(), key) != 0) return false;
    const double v = std::strtod(token.c_str() + key.size(), nullptr);
    return std::isfinite(v) && v >= 0.0;
  }

  const Corpus& corpus_;
  std::vector<DqlProbe> probes_;
  std::set<std::string> versions_;
};

/// Runs `fn` and stores its wall time in `*ms`. When traced, the call runs
/// under a fresh sampled trace context inside a `span_name` span, so the
/// program's own client -> router -> server -> retrieval spans chain below
/// it.
template <typename Fn>
auto Timed(bool traced, const char* span_name, double* ms, Fn&& fn) {
  const auto start = Clock::now();
  std::optional<ScopedTraceContext> scope;
  std::optional<TraceSpan> span;
  if (traced) {
    scope.emplace(MakeSampledTraceContext());
    span.emplace(span_name);
  }
  auto result = fn();
  span.reset();
  scope.reset();
  *ms = SecondsSince(start) * 1000.0;
  return result;
}

Sample RunOp(ModelHubClient* client, const Choice& c, const Oracle& oracle,
             bool traced, Clock::time_point t0, std::string* error) {
  Sample s;
  s.op = c.op;
  s.start_s = SecondsSince(t0);
  const std::string& version = oracle.corpus().versions[c.version].name;
  switch (c.op) {
    case Op::kPull: {
      auto r = Timed(traced, "bench.client.pull", &s.ms, [&] {
        return client->GetSnapshot(version, c.sequence);
      });
      *error = r.ok() ? oracle.CheckPull(c.version, c.sequence, *r)
                      : r.status().ToString();
      if (r.ok()) {
        s.key = oracle.KeyIndex(c.version, c.sequence);
        s.hash = HashParams(*r);
      }
      break;
    }
    case Op::kBounds: {
      auto r = Timed(traced, "bench.client.bounds", &s.ms, [&] {
        return client->GetSnapshotBounds(version, c.sequence, c.planes);
      });
      *error = r.ok() ? oracle.CheckBounds(c.version, c.sequence, c.planes, *r)
                      : r.status().ToString();
      break;
    }
    case Op::kQuery: {
      auto r = Timed(traced, "bench.client.query", &s.ms, [&] {
        return client->Query(oracle.probes()[c.probe].statement);
      });
      *error = r.ok() ? oracle.CheckQuery(c.probe, *r) : r.status().ToString();
      break;
    }
    case Op::kList: {
      auto r = Timed(traced, "bench.client.list", &s.ms,
                     [&] { return client->ListModels(); });
      *error = r.ok() ? oracle.CheckList(*r) : r.status().ToString();
      break;
    }
  }
  if (!error->empty()) *error = std::string(kOpNames[static_cast<int>(c.op)]) +
                                 ": " + *error;
  s.ok = error->empty();
  return s;
}

// ---------------------------------------------------------------------------
// The served stack.

/// modelhubd backends (one, or two shards behind a modelhub-router), all
/// with deployment-default options and serving one repository directory.
class Fleet {
 public:
  Fleet() = default;
  ~Fleet() { Stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  Status Start(Env* env, const std::string& root, const ServedSpec& spec) {
    const int backends = spec.router ? 2 : 1;
    for (int i = 0; i < backends; ++i) {
      ServerOptions options;
      if (spec.maintenance) {
        options.enable_maintenance = true;
        options.maintenance.interval_ms = kMaintenanceIntervalMs;
      }
      servers_.push_back(std::make_unique<ModelHubServer>(env, root, options));
      MH_RETURN_IF_ERROR(servers_.back()->Start());
    }
    if (spec.router) {
      FleetTopology topology;
      for (size_t i = 0; i < servers_.size(); ++i) {
        topology.shards.push_back(
            {"shard" + std::to_string(i),
             {Endpoint{"127.0.0.1", servers_[i]->port()}}});
      }
      router_ = std::make_unique<ModelHubRouter>(topology);
      MH_RETURN_IF_ERROR(router_->Start());
    }
    return Status::OK();
  }

  int port() const {
    return router_ != nullptr ? router_->port() : servers_.front()->port();
  }
  LifecycleDaemon* maintenance() const {
    return servers_.empty() ? nullptr : servers_.front()->maintenance();
  }

  void Stop() {
    if (router_ != nullptr) (void)router_->Stop();
    router_.reset();
    for (auto& server : servers_) (void)server->Stop();
    servers_.clear();
  }

 private:
  std::vector<std::unique_ptr<ModelHubServer>> servers_;
  std::unique_ptr<ModelHubRouter> router_;
};

/// Polls the embedded maintenance daemon and records when cycles ran, so
/// ops overlapping a cycle can be told apart from the rest.
class CyclePoller {
 public:
  CyclePoller() = default;
  ~CyclePoller() { Stop(); }
  CyclePoller(const CyclePoller&) = delete;
  CyclePoller& operator=(const CyclePoller&) = delete;

  void Start(LifecycleDaemon* daemon, Clock::time_point t0) {
    if (daemon == nullptr) return;
    stop_.store(false);
    thread_ = std::thread([this, daemon, t0] {
      std::optional<double> open;
      while (!stop_.load()) {
        const bool busy = daemon->status().cycle_in_progress;
        const double now = SecondsSince(t0);
        if (busy && !open.has_value()) open = now;
        if (!busy && open.has_value()) {
          intervals_.push_back({*open, now});
          open.reset();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (open.has_value()) intervals_.push_back({*open, SecondsSince(t0)});
    });
  }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Stop().
  const std::vector<std::pair<double, double>>& intervals() const {
    return intervals_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::pair<double, double>> intervals_;
  std::thread thread_;
};

Result<std::vector<ModelHubClient>> ConnectClients(int port) {
  std::vector<ModelHubClient> clients;
  for (int i = 0; i < kClients; ++i) {
    MH_ASSIGN_OR_RETURN(ModelHubClient client,
                        ModelHubClient::Connect("127.0.0.1", port));
    clients.push_back(std::move(client));
  }
  return clients;
}

/// One client thread per connection, each running the ops `next` yields
/// for it until it yields none. A failed op is logged and its connection
/// reopened.
std::vector<Sample> RunClients(
    std::vector<ModelHubClient>* clients, int port, const Oracle& oracle,
    bool traced, Clock::time_point t0, FailureLog* failures,
    const std::function<std::optional<Choice>(size_t)>& next) {
  std::vector<std::vector<Sample>> per_thread(clients->size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients->size(); ++i) {
    threads.emplace_back([&, i] {
      ModelHubClient* client = &(*clients)[i];
      while (const std::optional<Choice> c = next(i)) {
        std::string error;
        per_thread[i].push_back(RunOp(client, *c, oracle, traced, t0, &error));
        if (!error.empty()) {
          failures->Add(error);
          auto fresh = ModelHubClient::Connect("127.0.0.1", port);
          if (fresh.ok()) *client = fresh.MoveValue();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Sample> all;
  for (const auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  return all;
}

struct Window {
  std::vector<Sample> samples;
  double seconds = 0.0;
};

/// One measured window: every client thread draws from its own OpPicker
/// until `seconds` elapse. If by then some timed op type (any but
/// LIST_MODELS) has been sent fewer than `min_per_type` times, the window
/// runs on until each has, for at most half as long again; a slow machine
/// then still gets the samples its p99 needs. Sample start times are taken
/// from `t0`.
Window RunWindow(std::vector<ModelHubClient>* clients, int port,
                 const Corpus& corpus, const ServedSpec& spec,
                 const Oracle& oracle, uint64_t seed, double seconds,
                 size_t min_per_type, bool traced, Clock::time_point t0,
                 FailureLog* failures) {
  std::vector<OpPicker> pickers;
  for (size_t i = 0; i < clients->size(); ++i) {
    pickers.emplace_back(corpus, spec, seed * 1000003ull + i);
  }
  const auto after = [](double s) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
  };
  const auto start = Clock::now();
  const auto deadline = after(seconds);
  const auto hard_deadline = after(1.5 * seconds);
  std::array<std::atomic<size_t>, kNumOps> sent{};
  const auto enough = [&] {
    for (Op op : {Op::kPull, Op::kBounds, Op::kQuery}) {
      if (spec.Share(op) > 0.0 &&
          sent[static_cast<int>(op)].load() < min_per_type) {
        return false;
      }
    }
    return true;
  };
  Window w;
  w.samples = RunClients(
      clients, port, oracle, traced, t0, failures,
      [&](size_t i) -> std::optional<Choice> {
        const auto now = Clock::now();
        if (now >= deadline && (now >= hard_deadline || enough())) {
          return std::nullopt;
        }
        const Choice c = pickers[i].Next();
        sent[static_cast<int>(c.op)].fetch_add(1);
        return c;
      });
  w.seconds = SecondsSince(start);
  return w;
}

/// The warm-up pass: every key the workload can request, each DQL
/// statement and LIST once, so caches fill before timing.
uint64_t WarmUp(std::vector<ModelHubClient>* clients, int port,
                const Corpus& corpus, const ServedSpec& spec,
                const Oracle& oracle, FailureLog* failures) {
  std::vector<Choice> work;
  for (size_t v = 0; v < corpus.versions.size(); ++v) {
    if (spec.uniform_keys) {
      for (int s = 0; s < corpus.spec.snapshots; ++s) {
        work.push_back({Op::kPull, v, s, 0, 0});
      }
    } else {
      work.push_back({Op::kPull, v, -1, 0, 0});
    }
    if (spec.bounds > 0.0) {
      for (int s = 0; s < corpus.spec.snapshots; ++s) {
        work.push_back({Op::kBounds, v, s, 1, 0});
        work.push_back({Op::kBounds, v, s, 2, 0});
      }
    }
  }
  if (spec.query > 0.0) {
    for (size_t p = 0; p < oracle.probes().size(); ++p) {
      work.push_back({Op::kQuery, 0, -1, 0, p});
    }
  }
  if (spec.Share(Op::kList) > 0.0) {
    work.push_back({Op::kList, 0, -1, 0, 0});
  }
  std::atomic<size_t> next{0};
  RunClients(clients, port, oracle, false, Clock::now(), failures,
             [&](size_t) -> std::optional<Choice> {
               const size_t j = next.fetch_add(1);
               if (j >= work.size()) return std::nullopt;
               return work[j];
             });
  return work.size();
}

// ---------------------------------------------------------------------------
// Repository set-up and replay.

struct RepoBuild {
  double init_s = 0.0;
  double commit_s = 0.0;
  double archive_s = 0.0;
  double stored_ratio = 0.0;
};

double SystemSeconds(const RepoBuild& b) {
  return b.init_s + b.commit_s + b.archive_s;
}

/// `dlv init`, one commit per version, `dlv archive`. Only the calls into
/// the program are timed: generating a version and reading back its
/// parent's latest snapshot (a fine-tune job loading its checkpoint) are
/// input preparation.
Status BuildRepo(Env* env, const std::string& root, Corpus* corpus,
                 RepoBuild* out) {
  std::error_code ec;
  fs::remove_all(root, ec);
  auto start = Clock::now();
  MH_ASSIGN_OR_RETURN(Repository repo, Repository::Init(env, root));
  out->init_s = SecondsSince(start);
  for (size_t v = 0; v < corpus->versions.size(); ++v) {
    const VersionPlan& plan = corpus->versions[v];
    std::optional<std::vector<NamedParam>> parent;
    if (!plan.parent.empty()) {
      MH_ASSIGN_OR_RETURN(parent, repo.GetSnapshotParams(plan.parent, -1));
    }
    const std::vector<NamedParam>* base = parent ? &*parent : nullptr;
    MH_ASSIGN_OR_RETURN(CommitRequest commit, corpus->MakeCommit(v, base));
    MH_RETURN_IF_ERROR(corpus->Record(v, commit, base));
    start = Clock::now();
    MH_RETURN_IF_ERROR(repo.Commit(commit).status());
    out->commit_s += SecondsSince(start);
  }
  start = Clock::now();
  MH_RETURN_IF_ERROR(repo.Archive(DlvArchiveDefaults()).status());
  out->archive_s = SecondsSince(start);
  out->stored_ratio = static_cast<double>(DirBytes(fs::path(root) / "pas")) /
                      static_cast<double>(corpus->raw_bytes);
  return Status::OK();
}

/// Content hash of every key, in Corpus::Keys() order, as
/// ArchiveReader::RetrieveSnapshot reads it from the archive now.
std::vector<uint64_t> ReferenceHashes(Env* env, const std::string& root,
                                      const Corpus& corpus, RunRecord* rec) {
  const std::vector<std::string> keys = corpus.Keys();
  std::vector<uint64_t> hashes(keys.size(), 0);
  auto reader = ArchiveReader::Open(env, (fs::path(root) / "pas").string());
  if (!reader.ok()) {
    rec->failures.Add("reference read: " + reader.status().ToString());
    return hashes;
  }
  for (size_t k = 0; k < keys.size(); ++k) {
    ++rec->attempted;
    auto params = reader->RetrieveSnapshot(keys[k]);
    if (!params.ok()) {
      rec->failures.Add("reference read " + keys[k] + ": " +
                        params.status().ToString());
      continue;
    }
    hashes[k] = HashParams(*params);
  }
  return hashes;
}

/// Holds every exact pull to byte identity with ArchiveReader::
/// RetrieveSnapshot of the archive generation that served it. Without
/// maintenance cycles that is `final_ref`. With them, a pull that ended
/// before the first cycle began was served by the generation `initial_ref`
/// was read from, and one that began after the last cycle ended by the final
/// generation. Pulls in between may come from a generation that no longer
/// exists after the window; they are held to the sampled truth only.
void CheckByteIdentity(const std::vector<Sample>& served,
                       const std::vector<uint64_t>& initial_ref,
                       const std::vector<uint64_t>& final_ref,
                       const std::vector<std::pair<double, double>>& cycles,
                       RunRecord* rec) {
  uint64_t pulls = 0, checked = 0, differs = 0;
  for (const Sample& s : served) {
    if (s.key < 0 || !s.ok) continue;
    ++pulls;
    const std::vector<uint64_t>* reference = nullptr;
    if (cycles.empty() || s.start_s >= cycles.back().second) {
      reference = &final_ref;
    } else if (s.start_s + s.ms / 1000.0 < cycles.front().first &&
               !initial_ref.empty()) {
      reference = &initial_ref;
    }
    if (reference == nullptr) continue;
    ++checked;
    if (s.hash != (*reference)[static_cast<size_t>(s.key)]) ++differs;
  }
  if (differs > 0) {
    rec->failures.Add(std::to_string(differs) +
                      " served snapshots differ from "
                      "ArchiveReader::RetrieveSnapshot");
  }
  rec->ops.Num("exact_pulls", static_cast<double>(pulls))
      .Num("byte_identity_checked", static_cast<double>(checked));
}

/// After the window: re-reads every workload key straight from the archive
/// (no server) with ArchiveReader::RetrieveSnapshot, checks every element
/// against the regenerated truth (within rounding) and, for sampled keys,
/// that RetrieveSnapshotBounds intervals contain it. Returns each key's
/// content hash, the reference for byte identity. Adds the (r) per-layer
/// metrics and the corpus' cache fit.
std::vector<uint64_t> ReplayAndVerify(Env* env, const std::string& root,
                                      const Corpus& corpus, bool check_bounds,
                                      uint64_t seed, RunRecord* rec) {
  const std::vector<std::string> keys = corpus.Keys();
  std::vector<uint64_t> reference(keys.size(), 0);
  auto opened = ArchiveReader::Open(env, (fs::path(root) / "pas").string());
  if (!opened.ok()) {
    rec->failures.Add("replay: " + opened.status().ToString());
    return reference;
  }
  ArchiveReader& reader = *opened;
  // An unbounded cache decodes each chunk once, so after the pass it holds
  // exactly the decoded working set of the keys.
  reader.EnableChunkCache(true);
  reader.SetChunkCacheCapacity(1ull << 40);
  std::set<size_t> bounds_keys;
  if (check_bounds) {
    Rng rng(seed ^ 0xB0B0ull);
    while (bounds_keys.size() <
           std::min<size_t>(kBoundsCheckKeys, keys.size())) {
      bounds_keys.insert(static_cast<size_t>(rng.Uniform(keys.size())));
    }
  }
  const size_t per = static_cast<size_t>(corpus.spec.snapshots);
  std::vector<NamedParam> latest, previous;
  double total_ms = 0.0;
  uint64_t vertices = 0, matrices = 0;
  const Status regenerated = corpus.Regenerate(
      [&](size_t v, const CommitRequest& commit) -> Status {
        for (size_t s = 0; s < commit.snapshots.size(); ++s) {
          const size_t k = v * per + s;
          RetrievalStats stats;
          const auto start = Clock::now();
          auto params = reader.RetrieveSnapshot(keys[k], &stats);
          total_ms += SecondsSince(start) * 1000.0;
          ++rec->attempted;
          if (!params.ok()) {
            rec->failures.Add("replay " + keys[k] + ": " +
                              params.status().ToString());
            continue;
          }
          const std::string error =
              CompareToTruth(*params, commit.snapshots[s].params);
          if (!error.empty()) {
            rec->failures.Add("archived " + keys[k] + ": " + error);
          }
          reference[k] = HashParams(*params);
          vertices += stats.vertices_resolved;
          matrices += params->size();
          if (bounds_keys.count(k) > 0) {
            ++rec->attempted;
            const int planes = 1 + static_cast<int>(k % 2);
            auto bounds = reader.RetrieveSnapshotBounds(keys[k], planes);
            bool contained = bounds.ok();
            for (const NamedParam& p : *params) {
              if (!contained) break;
              auto it = bounds->find(p.name);
              contained = it != bounds->end() && it->second.Contains(p.value);
            }
            if (!contained) {
              rec->failures.Add("bounds of " + keys[k] +
                                " do not contain the archived weights");
            }
          }
          if (v == 0 && s + 1 == per) latest = std::move(*params);
          if (v == 0 && s + 2 == per) previous = std::move(*params);
        }
        return Status::OK();
      });
  if (!regenerated.ok()) {
    rec->failures.Add("replay: " + regenerated.ToString());
  }
  const double working_set_mb =
      static_cast<double>(reader.store_stats().cache_bytes) / 1e6;
  rec->per_layer.Add("pas.retrieve.direct_ms",
                     total_ms / static_cast<double>(keys.size()), "ms");
  rec->per_layer.Add("pas.retrieve.useful_ratio",
                     matrices > 0 ? static_cast<double>(matrices) /
                                        static_cast<double>(vertices)
                                  : 0.0,
                     "ratio");
  rec->per_layer.Add("pas.chunk.working_set_mb", working_set_mb, "MB");
  rec->corpus.Num("working_set_mb", working_set_mb)
      .Num("chunk_cache_mb", kDefaultChunkCacheBytes / 1e6)
      .Num("working_set_over_cache",
           working_set_mb * 1e6 / kDefaultChunkCacheBytes)
      .Num("chain_vertices_per_matrix",
           matrices > 0 ? static_cast<double>(vertices) /
                              static_cast<double>(matrices)
                        : 0.0);

  // Codec replay on the largest matrix's last delta of the first version
  // (a root: every matrix moves between its snapshots).
  size_t largest = 0;
  for (size_t p = 0; p < latest.size(); ++p) {
    if (latest[p].value.size() > latest[largest].value.size()) largest = p;
  }
  if (latest.empty() || previous.size() != latest.size()) {
    rec->failures.Add("replay: first version's last two snapshots missing");
    return reference;
  }
  AddReplayMetrics(latest, previous[largest].value, latest[largest].value,
                   &rec->per_layer);
  return reference;
}

void DescribeCorpus(const Corpus& corpus, RunRecord* rec) {
  const double identical =
      corpus.matrices > 0 ? static_cast<double>(corpus.identical_matrices) /
                                static_cast<double>(corpus.matrices)
                          : 0.0;
  const double raw_mb = static_cast<double>(corpus.raw_bytes) / 1e6;
  // "child<parent" per fine-tune, "name*" for the retrained version.
  std::string lineage;
  for (const VersionPlan& v : corpus.versions) {
    if (!lineage.empty()) lineage += ' ';
    lineage += v.name + (v.retrained ? "*" : "");
    if (!v.parent.empty()) lineage += "<" + v.parent;
  }
  rec->corpus.Num("versions", static_cast<double>(corpus.versions.size()))
      .Num("snapshots_per_version", corpus.spec.snapshots)
      .Num("raw_mb", raw_mb)
      .Num("identical_matrix_share", identical)
      .Str("lineage", lineage);
  std::fprintf(stderr,
               "bench_e2e: corpus %zu versions x %d snapshots, %.1f raw MB, "
               "%.0f%% of matrices bit-identical to their predecessor; "
               "lineage %s\n",
               corpus.versions.size(), corpus.spec.snapshots, raw_mb,
               100.0 * identical, lineage.c_str());
}

/// Latency summary of one op type (or all, when `op` is null).
JsonObject SummarizeOps(const std::vector<Sample>& samples,
                        std::optional<Op> op, std::vector<double>* sorted_out) {
  std::vector<double> ms;
  uint64_t failed = 0;
  for (const Sample& s : samples) {
    if (op.has_value() && s.op != *op) continue;
    if (s.ok) {
      ms.push_back(s.ms);
    } else {
      ++failed;
    }
  }
  std::sort(ms.begin(), ms.end());
  JsonObject obj;
  obj.Num("count", static_cast<double>(ms.size()))
      .Num("failed", static_cast<double>(failed))
      .Num("p50_ms", Percentile(ms, 50.0));
  if (ms.size() >= kServedMinSamples) obj.Num("p99_ms", Percentile(ms, 99.0));
  if (sorted_out != nullptr) *sorted_out = std::move(ms);
  return obj;
}

/// p90 of ops that overlapped a maintenance cycle over p90 of the rest
/// (0 when either side has fewer than 100 samples).
double StallRatio(const std::vector<Sample>& samples,
                  const std::vector<std::pair<double, double>>& cycles,
                  JsonObject* detail) {
  std::vector<double> during, rest;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    const double end = s.start_s + s.ms / 1000.0;
    bool overlaps = false;
    for (const auto& [b, e] : cycles) {
      if (s.start_s < e && end > b) overlaps = true;
    }
    (overlaps ? during : rest).push_back(s.ms);
  }
  std::sort(during.begin(), during.end());
  std::sort(rest.begin(), rest.end());
  detail->Num("overlapping_ops", static_cast<double>(during.size()))
      .Num("other_ops", static_cast<double>(rest.size()))
      .Num("cycles_seen", static_cast<double>(cycles.size()));
  if (during.size() < 100 || rest.size() < 100) return 0.0;
  return Percentile(during, 90.0) / Percentile(rest, 90.0);
}

/// Geometric mean over op types of one percentile of each type's sorted
/// latencies.
double GeoMeanPercentile(const std::vector<std::vector<double>>& by_type,
                         double p) {
  double log_sum = 0.0;
  for (const std::vector<double>& sorted : by_type) {
    log_sum += std::log(Percentile(sorted, p));
  }
  return std::exp(log_sum / static_cast<double>(by_type.size()));
}

/// Records the end-to-end metrics shared by every workload. `by_type` holds
/// the sorted latencies of each op type the workload times: exact pulls on
/// pull_hot and pull_cold; pulls, bounds reads and DQL queries on explore;
/// cycles on ingest. p50_ms and tail_ms are the geometric mean over the
/// types of each type's median and tail, so every type weighs the same
/// whatever its share of the mix: doubling one of explore's three raises
/// both by 26%.
void AddEndToEnd(const std::vector<double>& setup_s, double ops_per_s,
                 const std::vector<std::vector<double>>& by_type,
                 double tail_pct, size_t min_samples, double stored_ratio,
                 double peak_rss_mb, bool guard_tail, RunRecord* rec) {
  rec->end_to_end.Add("setup_s", Median(setup_s), "s");
  rec->end_to_end.Add("ops_per_s", ops_per_s, "1/s");
  rec->end_to_end.Add("p50_ms", GeoMeanPercentile(by_type, 50.0), "ms");
  rec->end_to_end.Add("tail_ms", GeoMeanPercentile(by_type, tail_pct), "ms");
  rec->end_to_end.Add("stored_ratio", stored_ratio, "ratio");
  rec->end_to_end.Add("peak_rss_mb", peak_rss_mb, "MB");
  for (const std::vector<double>& sorted : by_type) {
    if (guard_tail && sorted.size() < min_samples) {
      rec->guards.push_back("tail_ms (p" + JsonNumber(tail_pct) + ") needs " +
                            std::to_string(min_samples) +
                            " samples of each op type, got " +
                            std::to_string(sorted.size()));
    }
  }
}

/// Arms the recorder for a traced window sized so nothing drops.
void BeginTrace(size_t capacity) {
  TraceRecorder* recorder = TraceRecorder::Global();
  recorder->SetCapacity(capacity);
  recorder->Clear();
  recorder->SetEnabled(true);
}

/// Ends the traced window: adds the (t) metrics, the dropped-span count and
/// writes the Chrome/Perfetto trace.
void EndTrace(uint64_t traced_ops, const std::string& trace_out,
              RunRecord* rec) {
  TraceRecorder* recorder = TraceRecorder::Global();
  recorder->SetEnabled(false);
  const uint64_t dropped = recorder->dropped_spans();
  const std::vector<TraceEvent> events = recorder->Snapshot();
  AddTraceMetrics(ComputeSelfTimes(events), traced_ops, &rec->per_layer);
  rec->per_layer.Add("trace.dropped_events", static_cast<double>(dropped),
                     "count");
  if (dropped > 0) {
    rec->guards.push_back("trace dropped " + std::to_string(dropped) +
                          " events");
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    out << recorder->ToChromeTraceJson();
  }
  recorder->SetCapacity(1);
  recorder->Clear();
}

// ---------------------------------------------------------------------------
// Workloads.

void RunServed(const Args& args, const ServedSpec& spec,
               const std::string& work, RunRecord* rec) {
  Env* env = Env::Default();
  Corpus corpus = PlanCorpus(spec.corpus, args.seed);
  const Oracle oracle(corpus);
  const int reps = args.trace ? 1 : kSetupReps;

  Fleet fleet;
  std::vector<ModelHubClient> clients;
  std::vector<double> setup_s, commit_mbps, archive_mbps;
  std::string root;
  double stored_ratio = 0.0;
  // What the archive holds before the lifecycle daemon first replaces it.
  std::vector<uint64_t> initial_ref;
  for (int rep = 0; rep < reps; ++rep) {
    root = (fs::path(work) / ("repo" + std::to_string(rep))).string();
    RepoBuild build;
    Status built = BuildRepo(env, root, &corpus, &build);
    if (!built.ok()) {
      rec->failures.Add("setup: " + built.ToString());
      return;
    }
    if (spec.maintenance && rep + 1 == reps) {
      initial_ref = ReferenceHashes(env, root, corpus, rec);
    }
    const auto start = Clock::now();
    Status started = fleet.Start(env, root, spec);
    using Clients = Result<std::vector<ModelHubClient>>;
    Clients connected =
        started.ok() ? ConnectClients(fleet.port()) : Clients(started);
    if (!connected.ok()) {
      rec->failures.Add("setup: " + connected.status().ToString());
      return;
    }
    clients = connected.MoveValue();
    rec->attempted += WarmUp(&clients, fleet.port(), corpus, spec, oracle,
                             &rec->failures);
    setup_s.push_back(SystemSeconds(build) + SecondsSince(start));
    const double raw_mb = static_cast<double>(corpus.raw_bytes) / 1e6;
    commit_mbps.push_back(raw_mb / build.commit_s);
    archive_mbps.push_back(raw_mb / build.archive_s);
    stored_ratio = build.stored_ratio;
    if (rep == 0) DescribeCorpus(corpus, rec);
    std::fprintf(stderr,
                 "bench_e2e: set-up %d: commit %.2fs archive %.2fs serve+warm "
                 "%.2fs\n",
                 rep, build.commit_s, build.archive_s, SecondsSince(start));
    if (rep + 1 < reps) {
      clients.clear();
      fleet.Stop();
      std::error_code ec;
      fs::remove_all(root, ec);
    }
  }
  rec->setup.Raw("seconds", JsonNumbers(setup_s))
      .Raw("commit_mbps", JsonNumbers(commit_mbps))
      .Raw("archive_mbps", JsonNumbers(archive_mbps));

  // Measured window(s). A traced run splits its time: the untraced half
  // gives the end-to-end numbers and the untraced throughput, the traced
  // half the spans. Counters and maintenance overlap cover both halves, so
  // they see the same stretch of the run (and its lifecycle cycles) as an
  // untraced run does.
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  CounterWindow counters;
  CyclePoller poller;
  counters.Begin();
  const auto t0 = Clock::now();
  poller.Start(spec.maintenance ? fleet.maintenance() : nullptr, t0);
  const Window window = RunWindow(
      &clients, fleet.port(), corpus, spec, oracle, args.seed,
      untraced_seconds, args.trace ? 0 : kServedMinSamples, false, t0,
      &rec->failures);
  const auto count_ok = [](const std::vector<Sample>& samples) {
    return static_cast<uint64_t>(std::count_if(
        samples.begin(), samples.end(), [](const Sample& s) { return s.ok; }));
  };
  uint64_t ok_ops = count_ok(window.samples);
  rec->attempted += window.samples.size();
  const double ops_per_s = static_cast<double>(ok_ops) / window.seconds;
  std::vector<Sample> all_samples = window.samples;

  if (args.trace) {
    BeginTrace(window.samples.size() * 16 + 200000);
    const Window traced = RunWindow(&clients, fleet.port(), corpus, spec,
                                    oracle, args.seed + 1,
                                    args.seconds - untraced_seconds, 0, true,
                                    t0, &rec->failures);
    rec->attempted += traced.samples.size();
    EndTrace(traced.samples.size(), args.trace_out, rec);
    const uint64_t traced_ok = count_ok(traced.samples);
    rec->per_layer.Add("trace.overhead_frac",
                       1.0 - static_cast<double>(traced_ok) / traced.seconds /
                                 ops_per_s,
                       "ratio");
    ok_ops += traced_ok;
    all_samples.insert(all_samples.end(), traced.samples.begin(),
                       traced.samples.end());
  }
  counters.End();
  const double peak_rss_mb = PeakRssMb();
  poller.Stop();
  clients.clear();
  fleet.Stop();

  rec->ops.Num("window_s", window.seconds)
      .Raw("all", SummarizeOps(window.samples, std::nullopt, nullptr).str());
  // Completions per second of the window: stalls show as dips.
  std::vector<double> per_second(static_cast<size_t>(window.seconds) + 1, 0.0);
  for (const Sample& s : window.samples) {
    const size_t second = static_cast<size_t>(s.start_s + s.ms / 1000.0);
    if (s.ok) per_second[std::min(second, per_second.size() - 1)] += 1;
  }
  rec->ops.Raw("per_second", JsonNumbers(per_second));
  // Latencies per op type; LIST_MODELS is counted in ops_per_s only.
  std::vector<std::vector<double>> timed_types;
  for (int op = 0; op < kNumOps; ++op) {
    std::vector<double> op_sorted;
    const JsonObject summary =
        SummarizeOps(window.samples, static_cast<Op>(op), &op_sorted);
    if (!op_sorted.empty()) rec->ops.Raw(kOpNames[op], summary.str());
    if (static_cast<Op>(op) == Op::kList) continue;
    if (spec.Share(static_cast<Op>(op)) > 0.0) timed_types.push_back(op_sorted);
    rec->per_layer.Add(std::string("client.") + kOpNames[op] + "_p50_ms",
                       Percentile(op_sorted, 50.0), "ms");
    rec->per_layer.Add(std::string("client.") + kOpNames[op] + "_p99_ms",
                       Percentile(op_sorted, 99.0), "ms");
  }
  AddEndToEnd(setup_s, ops_per_s, timed_types, kServedTailPct,
              kServedMinSamples, stored_ratio, peak_rss_mb, !args.trace, rec);

  WindowFacts facts;
  facts.ops = ok_ops;
  facts.routed = spec.router;
  AddCounterMetrics(&counters, facts, &rec->per_layer);
  JsonObject stall;
  rec->per_layer.Add("lifecycle.stall_ratio",
                     StallRatio(all_samples, poller.intervals(), &stall),
                     "ratio");
  rec->ops.Raw("maintenance_overlap", stall.str());
  rec->per_layer.Add("dlv.commit_mbps", Median(commit_mbps), "MB/s");
  rec->per_layer.Add("dlv.archive_mbps", Median(archive_mbps), "MB/s");
  rec->missing_counters = counters.missing();
  const std::vector<uint64_t> final_ref =
      ReplayAndVerify(env, root, corpus, spec.bounds > 0.0, args.seed, rec);
  CheckByteIdentity(all_samples, initial_ref, final_ref, poller.intervals(),
                    rec);
}

struct CycleResult {
  RepoBuild build;
  double total_s = 0.0;
};

/// One ingest cycle: fresh repository, commit every version, archive with
/// dlv defaults — then an untimed round trip of one snapshot per version.
Result<CycleResult> IngestCycle(Env* env, const std::string& root,
                                const Corpus& corpus,
                                const std::vector<CommitRequest>& commits,
                                const Oracle& oracle, bool traced,
                                RunRecord* rec) {
  std::error_code ec;
  fs::remove_all(root, ec);
  CycleResult out;
  auto r = Timed(traced, "bench.ingest.cycle", &out.total_s,
                 [&]() -> Status {
                   auto start = Clock::now();
                   MH_ASSIGN_OR_RETURN(Repository repo,
                                       Repository::Init(env, root));
                   out.build.init_s = SecondsSince(start);
                   start = Clock::now();
                   for (const CommitRequest& commit : commits) {
                     MH_RETURN_IF_ERROR(repo.Commit(commit).status());
                   }
                   out.build.commit_s = SecondsSince(start);
                   start = Clock::now();
                   MH_RETURN_IF_ERROR(
                       repo.Archive(DlvArchiveDefaults()).status());
                   out.build.archive_s = SecondsSince(start);
                   return Status::OK();
                 });
  out.total_s /= 1000.0;
  MH_RETURN_IF_ERROR(r);
  out.build.stored_ratio =
      static_cast<double>(DirBytes(fs::path(root) / "pas")) /
      static_cast<double>(corpus.raw_bytes);
  MH_ASSIGN_OR_RETURN(Repository repo, Repository::Open(env, root));
  MH_ASSIGN_OR_RETURN(ArchiveReader * reader, repo.OpenArchive());
  for (size_t v = 0; v < corpus.versions.size(); ++v) {
    ++rec->attempted;
    const std::string key = oracle.Key(v, -1);
    auto params = reader->RetrieveSnapshot(key);
    const std::string error =
        params.ok()
            ? CompareToTruth(*params, commits[v].snapshots.back().params)
            : params.status().ToString();
    if (!error.empty()) {
      rec->failures.Add("ingest round trip of " + key + ": " + error);
    }
  }
  return out;
}

void RunIngest(const Args& args, const std::string& work, RunRecord* rec) {
  Env* env = Env::Default();
  Corpus corpus = PlanCorpus(
      CorpusSpec{4, args.smoke ? 2 : 4, args.smoke ? Scale::kSmoke
                                                   : Scale::kIngest},
      args.seed);
  // Set-up: generating the corpus, the only input ingest prepares. It is
  // small, so it is kept in memory; each repetition regenerates it, and
  // Corpus::Record checks that every snapshot comes out the same.
  std::vector<CommitRequest> commits;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    const auto start = Clock::now();
    commits.clear();
    for (size_t v = 0; v < corpus.versions.size(); ++v) {
      const VersionPlan& plan = corpus.versions[v];
      const std::vector<NamedParam>* parent = nullptr;
      for (size_t p = 0; p < v; ++p) {
        if (corpus.versions[p].name == plan.parent) {
          parent = &commits[p].snapshots.back().params;
        }
      }
      auto commit = corpus.MakeCommit(v, parent);
      Status recorded =
          commit.ok() ? corpus.Record(v, *commit, parent) : commit.status();
      if (!recorded.ok()) {
        rec->failures.Add("corpus: " + recorded.ToString());
        return;
      }
      commits.push_back(commit.MoveValue());
    }
    setup_s.push_back(SecondsSince(start));
  }
  DescribeCorpus(corpus, rec);
  const Oracle oracle(corpus);
  const std::string root = (fs::path(work) / "repo").string();
  const double raw_mb = static_cast<double>(corpus.raw_bytes) / 1e6;

  // One discarded warm-up cycle: the first archive build in a process is
  // cold.
  auto warm = IngestCycle(env, root, corpus, commits, oracle, false, rec);
  if (!warm.ok()) {
    rec->failures.Add("ingest warm-up: " + warm.status().ToString());
    return;
  }
  const double stored_ratio = warm->build.stored_ratio;
  rec->setup.Raw("seconds", JsonNumbers(setup_s))
      .Num("warm_up_cycle_s", warm->total_s);

  // Cycles until the window ends, but never fewer than the tail needs
  // (within 3x the window).
  const auto run_cycles = [&](double seconds, size_t min_cycles, bool traced,
                              std::vector<CycleResult>* out) {
    const auto t0 = Clock::now();
    while (SecondsSince(t0) < seconds ||
           (out->size() < min_cycles && SecondsSince(t0) < 3 * seconds)) {
      ++rec->attempted;
      auto cycle = IngestCycle(env, root, corpus, commits, oracle, traced, rec);
      if (!cycle.ok()) {
        rec->failures.Add("ingest: " + cycle.status().ToString());
        return;
      }
      out->push_back(*cycle);
    }
  };
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  CounterWindow counters;
  counters.Begin();
  std::vector<CycleResult> cycles;
  run_cycles(untraced_seconds, args.trace ? 0 : kIngestMinSamples, false,
             &cycles);
  const double peak_rss_mb = PeakRssMb();

  std::vector<double> ms, commit_mbps, archive_mbps;
  double busy_s = 0.0;
  for (const CycleResult& c : cycles) {
    ms.push_back(c.total_s * 1000.0);
    busy_s += c.total_s;
    commit_mbps.push_back(raw_mb / c.build.commit_s);
    archive_mbps.push_back(raw_mb / c.build.archive_s);
  }
  std::sort(ms.begin(), ms.end());
  const double ops_per_s =
      busy_s > 0.0 ? static_cast<double>(cycles.size()) / busy_s : 0.0;

  std::vector<CycleResult> traced;
  if (args.trace) {
    BeginTrace(cycles.size() * 4000 + 200000);
    run_cycles(args.seconds - untraced_seconds, 1, true, &traced);
    EndTrace(traced.size(), args.trace_out, rec);
    double traced_busy = 0.0;
    for (const CycleResult& c : traced) traced_busy += c.total_s;
    rec->per_layer.Add(
        "trace.overhead_frac",
        traced_busy > 0.0 && ops_per_s > 0.0
            ? 1.0 - static_cast<double>(traced.size()) / traced_busy / ops_per_s
            : 0.0,
        "ratio");
  }
  counters.End();

  rec->ops.Raw("cycle", JsonObject()
                            .Num("count", static_cast<double>(ms.size()))
                            .Num("p50_ms", Percentile(ms, 50.0))
                            .Num("p75_ms", Percentile(ms, 75.0))
                            .str());
  AddEndToEnd(setup_s, ops_per_s, {ms}, kIngestTailPct, kIngestMinSamples,
              stored_ratio, peak_rss_mb, !args.trace, rec);
  WindowFacts facts;
  facts.ops = cycles.size() + traced.size();
  AddCounterMetrics(&counters, facts, &rec->per_layer);
  rec->per_layer.Add("lifecycle.stall_ratio", 0.0, "ratio");
  for (const char* op : {"pull", "bounds", "query"}) {
    rec->per_layer.Add(std::string("client.") + op + "_p50_ms", 0.0, "ms");
    rec->per_layer.Add(std::string("client.") + op + "_p99_ms", 0.0, "ms");
  }
  rec->per_layer.Add("dlv.commit_mbps", Median(commit_mbps), "MB/s");
  rec->per_layer.Add("dlv.archive_mbps", Median(archive_mbps), "MB/s");
  rec->missing_counters = counters.missing();
  ReplayAndVerify(env, root, corpus, false, args.seed, rec);
}

/// Prints every registry name AddCounterMetrics reads, one per line.
int ListRegistryNames() {
  CounterWindow window;
  MetricSet unused;
  for (bool routed : {false, true}) {
    WindowFacts facts;
    facts.routed = routed;
    AddCounterMetrics(&window, facts, &unused);
  }
  const std::set<std::string> names(window.read().begin(),
                                    window.read().end());
  for (const std::string& name : names) std::printf("%s\n", name.c_str());
  return 0;
}

std::string RecordJson(const Args& args, RunRecord* rec) {
  const bool correct = rec->failures.count() == 0 && rec->guards.empty();
  JsonObject obj;
  obj.Str("workload", args.workload)
      .Num("seed", static_cast<double>(args.seed))
      .Num("seconds", args.seconds)
      .Bool("trace", args.trace)
      .Bool("smoke", args.smoke)
      .Str("compiler", __VERSION__)
#ifdef NDEBUG
      .Bool("ndebug", true)
#else
      .Bool("ndebug", false)
#endif
      .Num("hardware_threads", std::thread::hardware_concurrency())
      .Bool("correct", correct)
      .Num("attempted",
           static_cast<double>(std::max<uint64_t>(1, rec->attempted)))
      .Num("failed", static_cast<double>(rec->failures.count()))
      .Raw("failures", JsonStrings(rec->failures.messages()))
      .Raw("guards", JsonStrings(rec->guards))
      .Raw("corpus", rec->corpus.str())
      .Raw("setup", rec->setup.str())
      .Raw("ops", rec->ops.str())
      .Raw("end_to_end", JsonMetrics(rec->end_to_end))
      .Raw("per_layer", JsonMetrics(rec->per_layer))
      .Raw("missing_counters", JsonStrings(rec->missing_counters));
  return obj.str();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=<pull_hot|pull_cold|explore|"
                 "ingest> --seed=N [--seconds=S] [--trace] [--smoke] "
                 "[--work=DIR] [--trace-out=FILE]\n"
                 "       bench_e2e --list-registry-names\n");
    return 2;
  }
  if (args.list_registry_names) return ListRegistryNames();
  const std::optional<ServedSpec> served =
      ServedSpecFor(args.workload, args.smoke);
  if (!served.has_value() && args.workload != "ingest") {
    std::fprintf(stderr, "bench_e2e: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string work =
      (fs::path(args.work_dir) /
       (args.workload + "-" + std::to_string(::getpid())))
          .string();
  std::error_code ec;
  fs::create_directories(work, ec);
  RunRecord rec;
  if (served.has_value()) {
    RunServed(args, *served, work, &rec);
  } else {
    RunIngest(args, work, &rec);
  }
  fs::remove_all(work, ec);
  const std::string json = RecordJson(args, &rec);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return rec.failures.count() == 0 && rec.guards.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace modelhub

int main(int argc, char** argv) { return modelhub::e2e::Main(argc, argv); }
