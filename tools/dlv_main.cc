// dlv — the ModelHub command-line client (Table II of the paper).
//
//   model version management:   init, commit (via demo), copy, archive
//   model exploration:          list, desc, diff, eval
//   model enumeration:          query "<DQL>"
//   remote interaction:         publish, search, pull
//
// `dlv demo` populates a repository with the synthetic modeler so every
// other command has something to act on (the paper's modelers would use
// the caffe wrapper here; the demo plays that role).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "data/dataset.h"
#include "data/synthetic_modeler.h"
#include "dlv/fsck.h"
#include "dlv/layout.h"
#include "dlv/report.h"
#include "dlv/repository.h"
#include "dql/engine.h"
#include "hub/hub.h"
#include "lifecycle/daemon.h"
#include "lifecycle/gc.h"
#include "net/client.h"
#include "pas/archive.h"
#include "router/router.h"
#include "server/modelhubd.h"

namespace modelhub {
namespace {

/// One row of the usage block. The table is the single source of truth for
/// the subcommand surface: Usage() renders it, and cli_test asserts that
/// every dispatched command appears here.
struct CommandHelp {
  const char* section;
  const char* syntax;
  const char* help;  ///< '\n' continues onto an aligned follow-up line.
};

constexpr CommandHelp kCommands[] = {
    {"model version management", "dlv init <repo>", "create a repository"},
    {"model version management", "dlv demo <repo> [versions]",
     "populate via the synthetic modeler"},
    {"model version management", "dlv copy <repo> <src> <new>",
     "scaffold a version from another"},
    {"model version management", "dlv archive <repo> [solver] [alpha]",
     "compact snapshots into PAS\n(solver: pas-pt pas-mt last mst spt;\n"
     "--archive-threads=N pins the write\npipeline, 1=one worker, default\n"
     "auto; --tile-rows=N pins encode tiling)"},
    {"model version management", "dlv fsck <repo> [--quarantine]",
     "verify repository integrity;\n--quarantine sets orphans aside"},
    {"model version management", "dlv maintain <repo> [--interval <ms>]",
     "run one lifecycle maintenance\ncycle (access-aware re-archival +\n"
     "plan swap + chunk GC); --interval\nkeeps the daemon running"},
    {"model version management", "dlv gc <repo> [--dry-run]",
     "sweep unreferenced archive\ngenerations and quarantined files\n"
     "(--dry-run reports without\ndeleting)"},
    {"model exploration", "dlv list <repo>", "versions, lineage, accuracy"},
    {"model exploration", "dlv desc <repo> <model>", "describe one version"},
    {"model exploration", "dlv diff <repo> <a> <b>",
     "compare two versions (metadata)"},
    {"model exploration", "dlv pdiff <repo> <a> <b>",
     "compare learned parameters"},
    {"model exploration", "dlv compare <repo> <a> <b> [samples]",
     "run both on data, report agreement"},
    {"model exploration", "dlv eval <repo> <model> [samples]",
     "run latest snapshot on fresh data"},
    {"model exploration", "dlv retrieve <repo> <model> [scheme] [threads]",
     "recreate the latest snapshot from\nthe PAS archive and print retrieval\n"
     "stats (scheme: shared independent\nsequential; default shared)"},
    {"model enumeration", "dlv query <repo> \"<DQL>\"",
     "run a DQL statement (prefix with\nexplain analyze for operator stats)"},
    {"model enumeration", "dlv report <repo> <out.html>",
     "render an HTML exploration report"},
    {"remote interaction", "dlv publish <hub> <repo> <user> <name>",
     "host a repository (--compact\narchives staged snapshots first)"},
    {"remote interaction", "dlv search <hub> [pattern]",
     "find hosted model versions"},
    {"remote interaction", "dlv pull <hub> <user> <name> <dest>",
     "download a hosted repository"},
    {"serving", "dlv serve <repo> [port] [--linger <ms>]",
     "serve the repository over TCP\n(modelhubd; SIGTERM or a shutdown\n"
     "rpc drains gracefully)"},
    {"serving", "dlv serve --fleet <topology> [port]",
     "route across modelhubd backends\n(topology: ';' separates shards,\n"
     "',' replicas — health checks,\nbreakers, retries, failover)"},
    {"serving", "dlv rpc <host:port> <op> [args]",
     "call a running modelhubd (ops: ping\nlist-models get-snapshot query "
     "stats\nmetrics shutdown; exit 3 = server\nunreachable; --retries=N "
     "reconnects\nand reissues on transport faults;\n--trace samples a "
     "distributed trace\nand prints its id to stderr)"},
    {"observability", "dlv stats <repo|host:port> [--json|--prom]",
     "run a probe workload and dump the\nmetrics registry (--prom emits\n"
     "Prometheus text; a host:port target\nscrapes a running server "
     "instead);\n--trace <file> also writes a local\nChrome trace"},
    {"observability", "dlv trace --fleet <host:port> [out.json]",
     "pull span buffers from every node\nbehind the target (router fans "
     "out\nto its backends) and merge them\ninto one Chrome/Perfetto trace"},
    {"observability", "dlv dedup-stats <repo> [--json]",
     "report cross-model chunk\ndeduplication: logical vs stored\nbytes, "
     "shared and cross-generation\nreferences, dedup ratio"},
};

int Usage() {
  std::fprintf(stderr, "usage: dlv <command> [args]\n");
  const char* section = "";
  for (const CommandHelp& cmd : kCommands) {
    if (std::strcmp(section, cmd.section) != 0) {
      section = cmd.section;
      std::fprintf(stderr, "\n%s:\n", section);
    }
    const char* text = cmd.help;
    bool first = true;
    while (text != nullptr) {
      const char* newline = std::strchr(text, '\n');
      const int len =
          newline ? static_cast<int>(newline - text)
                  : static_cast<int>(std::strlen(text));
      std::fprintf(stderr, "  %-43s %.*s\n", first ? cmd.syntax : "", len,
                   text);
      text = newline ? newline + 1 : nullptr;
      first = false;
    }
  }
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "dlv: %s\n", status.ToString().c_str());
  return 1;
}

Result<Dataset> DatasetForRepo(const Repository& repo) {
  // Synthesize a task matching the first version's input shape and class
  // count, deterministic per repository.
  MH_ASSIGN_OR_RETURN(auto versions, repo.List());
  if (versions.empty()) {
    return Status::FailedPrecondition("repository has no model versions");
  }
  MH_ASSIGN_OR_RETURN(NetworkDef def, repo.GetNetwork(versions[0].name));
  MH_ASSIGN_OR_RETURN(Network net, Network::Create(def));
  GlyphOptions options;
  options.num_samples = 256;
  options.num_classes = static_cast<int>(net.num_outputs());
  options.image_size = def.in_height();
  options.seed = 12345;
  return MakeGlyphDataset(options);
}

int CmdInit(Env* env, const std::string& root) {
  auto repo = Repository::Init(env, root);
  if (!repo.ok()) return Fail(repo.status());
  std::printf("initialized empty dlv repository at %s\n", root.c_str());
  return 0;
}

int CmdDemo(Env* env, const std::string& root, int versions) {
  auto repo = Repository::Open(env, root);
  if (!repo.ok()) return Fail(repo.status());
  ModelerOptions options;
  options.num_versions = versions;
  options.snapshots_per_version = 3;
  options.train_iterations = 60;
  options.num_classes = 6;
  options.image_size = 16;
  options.dataset_samples = 256;
  auto names = RunSyntheticModeler(&*repo, options);
  if (!names.ok()) return Fail(names.status());
  std::printf("committed %zu model versions:\n", names->size());
  for (const auto& name : *names) std::printf("  %s\n", name.c_str());
  return 0;
}

int CmdList(Env* env, const std::string& root) {
  auto repo = Repository::Open(env, root);
  if (!repo.ok()) return Fail(repo.status());
  auto versions = repo->List();
  if (!versions.ok()) return Fail(versions.status());
  std::printf("%-20s %-20s %6s %9s %9s\n", "name", "parent", "snaps",
              "best_acc", "state");
  for (const auto& info : *versions) {
    std::printf("%-20s %-20s %6lld %9.3f %9s\n", info.name.c_str(),
                info.parent.empty() ? "-" : info.parent.c_str(),
                static_cast<long long>(info.num_snapshots),
                info.best_accuracy, info.archived ? "archived" : "staged");
  }
  return 0;
}

int CmdDesc(Env* env, const std::string& root, const std::string& model) {
  auto repo = Repository::Open(env, root);
  if (!repo.ok()) return Fail(repo.status());
  auto description = repo->Describe(model);
  if (!description.ok()) return Fail(description.status());
  std::printf("%s", description->c_str());
  return 0;
}

int CmdDiff(Env* env, const std::string& root, const std::string& a,
            const std::string& b) {
  auto repo = Repository::Open(env, root);
  if (!repo.ok()) return Fail(repo.status());
  auto diff = repo->Diff(a, b);
  if (!diff.ok()) return Fail(diff.status());
  std::printf("%s", diff->c_str());
  return 0;
}

int CmdParamDiff(Env* env, const std::string& root, const std::string& a,
                 const std::string& b) {
  auto repo = Repository::Open(env, root);
  if (!repo.ok()) return Fail(repo.status());
  auto entries = repo->DiffParameters(a, b);
  if (!entries.ok()) return Fail(entries.status());
  std::printf("%-16s %12s %10s %s\n", "parameter", "L2 dist", "relative",
              "notes");
  for (const auto& entry : *entries) {
    const char* note = entry.only_in_a    ? "only in first"
                       : entry.only_in_b  ? "only in second"
                       : entry.shape_changed ? "shape changed"
                                             : "";
    std::printf("%-16s %12.5f %9.2f%% %s\n", entry.name.c_str(),
                entry.l2_distance, entry.relative_distance * 100, note);
  }
  return 0;
}

int CmdCompare(Env* env, const std::string& root, const std::string& a,
               const std::string& b, int64_t samples) {
  auto repo = Repository::Open(env, root);
  if (!repo.ok()) return Fail(repo.status());
  auto data = DatasetForRepo(*repo);
  if (!data.ok()) return Fail(data.status());
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < std::min(samples, data->size()); ++i) {
    indices.push_back(i);
  }
  Tensor batch;
  std::vector<int> labels;
  data->Gather(indices, &batch, &labels);
  auto comparison = repo->CompareOnData(a, b, batch);
  if (!comparison.ok()) return Fail(comparison.status());
  int correct_a = 0;
  int correct_b = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    correct_a += comparison->labels_a[i] == labels[i];
    correct_b += comparison->labels_b[i] == labels[i];
  }
  std::printf("%zu samples: %s %.1f%%, %s %.1f%%, agreement %.1f%%\n",
              labels.size(), a.c_str(), 100.0 * correct_a / labels.size(),
              b.c_str(), 100.0 * correct_b / labels.size(),
              comparison->agreement * 100);
  return 0;
}

int CmdCopy(Env* env, const std::string& root, const std::string& src,
            const std::string& dst) {
  auto repo = Repository::Open(env, root);
  if (!repo.ok()) return Fail(repo.status());
  auto id = repo->Copy(src, dst);
  if (!id.ok()) return Fail(id.status());
  std::printf("scaffolded %s from %s\n", dst.c_str(), src.c_str());
  return 0;
}

int CmdEval(Env* env, const std::string& root, const std::string& model,
            int64_t samples) {
  auto repo = Repository::Open(env, root);
  if (!repo.ok()) return Fail(repo.status());
  auto data = DatasetForRepo(*repo);
  if (!data.ok()) return Fail(data.status());
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < std::min(samples, data->size()); ++i) {
    indices.push_back(i);
  }
  Tensor batch;
  std::vector<int> labels;
  data->Gather(indices, &batch, &labels);
  auto predicted = repo->Eval(model, batch);
  if (!predicted.ok()) return Fail(predicted.status());
  int correct = 0;
  for (size_t i = 0; i < predicted->size(); ++i) {
    if ((*predicted)[i] == labels[i]) ++correct;
  }
  std::printf("evaluated %zu samples: accuracy %.1f%%\n", predicted->size(),
              100.0 * correct / predicted->size());
  return 0;
}

int CmdRetrieve(Env* env, const std::string& root, const std::string& model,
                const std::string& scheme, int threads) {
  auto repo = Repository::Open(env, root);
  if (!repo.ok()) return Fail(repo.status());
  auto archive = repo->OpenArchive();
  if (!archive.ok()) return Fail(archive.status());
  auto count = repo->NumSnapshots(model);
  if (!count.ok()) return Fail(count.status());
  if (*count == 0) {
    return Fail(Status::NotFound("version has no snapshots: " + model));
  }
  const std::string key = model + "/s" + std::to_string(*count - 1);
  RetrievalStats stats;
  Result<std::vector<NamedParam>> params(Status::Internal("unset"));
  if (scheme == "sequential") {
    params = (*archive)->RetrieveSnapshot(key, &stats);
  } else if (scheme == "shared" || scheme == "independent") {
    ThreadPool pool(threads);
    auto sets = (*archive)->RetrieveSnapshotsParallel(
        {key}, &pool,
        scheme == "shared" ? ParallelScheme::kShared
                           : ParallelScheme::kIndependent,
        &stats);
    if (sets.ok()) {
      params = std::move((*sets)[0]);
    } else {
      params = sets.status();
    }
  } else {
    std::fprintf(stderr, "dlv: unknown retrieval scheme %s\n", scheme.c_str());
    return 2;
  }
  if (!params.ok()) return Fail(params.status());
  uint64_t weights = 0;
  for (const auto& param : *params) {
    weights += static_cast<uint64_t>(param.value.size());
  }
  std::printf(
      "retrieved %s: %zu matrices (%llu weights) via %s scheme\n"
      "  chain vertices resolved %llu, chunk fetches %llu, cache hits %llu, "
      "evictions %llu\n"
      "  compressed bytes read %llu, wall %.2f ms\n",
      key.c_str(), params->size(), static_cast<unsigned long long>(weights),
      scheme.c_str(),
      static_cast<unsigned long long>(stats.vertices_resolved),
      static_cast<unsigned long long>(stats.chunk_fetches),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_evictions),
      static_cast<unsigned long long>(stats.bytes_read), stats.wall_ms);
  return 0;
}

int CmdArchive(Env* env, const std::string& root, const std::string& solver,
               double alpha, int archive_threads, int tile_rows) {
  auto repo = Repository::Open(env, root);
  if (!repo.ok()) return Fail(repo.status());
  ArchiveOptions options;
  options.budget_alpha = alpha;
  options.archive_threads = archive_threads;
  options.tile_rows = tile_rows;
  if (solver == "pas-pt") {
    options.solver = ArchiveSolver::kPasPt;
  } else if (solver == "pas-mt") {
    options.solver = ArchiveSolver::kPasMt;
  } else if (solver == "last") {
    options.solver = ArchiveSolver::kLast;
    options.last_alpha = alpha > 0 ? alpha : 2.0;
  } else if (solver == "mst") {
    options.solver = ArchiveSolver::kMst;
  } else if (solver == "spt") {
    options.solver = ArchiveSolver::kSpt;
  } else {
    std::fprintf(stderr, "dlv: unknown solver %s\n", solver.c_str());
    return 2;
  }
  auto report = repo->Archive(options);
  if (!report.ok()) return Fail(report.status());
  std::printf(
      "archived %d matrices with %s: storage %.0f bytes "
      "(MST %.0f, materialized %.0f), budgets %s\n"
      "  write pipeline: %d threads, %llu raw bytes -> %llu stored, "
      "encode %.2f ms, commit %.2f ms, wall %.2f ms\n",
      report->num_vertices, solver.c_str(), report->storage_cost,
      report->mst_storage_cost, report->spt_storage_cost,
      report->budgets_satisfied ? "satisfied" : "violated",
      report->pipeline.threads,
      static_cast<unsigned long long>(report->pipeline.raw_bytes),
      static_cast<unsigned long long>(report->pipeline.compressed_bytes),
      report->pipeline.encode_ms_total, report->pipeline.commit_ms,
      report->pipeline.wall_ms);
  return 0;
}

int CmdFsck(Env* env, const std::string& root, bool quarantine) {
  FsckOptions options;
  options.quarantine = quarantine;
  auto report = RunFsck(env, root, options);
  if (!report.ok()) return Fail(report.status());
  std::printf("%s", report->ToString().c_str());
  return report->clean() ? 0 : 1;
}

void PrintMaintenanceOutcomes(const MaintenanceStatus& status) {
  for (const TaskOutcome& task : status.last_outcomes) {
    std::printf("  %-10s %-10s %8.2f ms%s%s\n", task.name.c_str(),
                std::string(TaskOutcome::StateName(task.state)).c_str(),
                task.wall_ms, task.message.empty() ? "" : "  ",
                task.message.c_str());
  }
  std::printf(
      "cycles: %llu completed, %llu failed, %llu skipped; "
      "generation %llu, %llu byte(s) reclaimed\n",
      static_cast<unsigned long long>(status.cycles_completed),
      static_cast<unsigned long long>(status.cycles_failed),
      static_cast<unsigned long long>(status.cycles_skipped),
      static_cast<unsigned long long>(status.archive_generation),
      static_cast<unsigned long long>(status.bytes_reclaimed_total));
}

std::atomic<bool> g_maintain_stop{false};

void OnMaintainSignal(int) { g_maintain_stop.store(true); }

/// `dlv maintain`: one synchronous lifecycle cycle (re-archive with
/// access-aware budgets, swap, GC), or — with --interval — the periodic
/// daemon in the foreground until SIGTERM/SIGINT.
int CmdMaintain(Env* env, const std::string& root, int interval_ms) {
  LifecycleOptions options;
  // Standalone runs have no serving path feeding the access tracker, so
  // never skip a cycle for lack of recorded accesses.
  options.min_accesses_between_cycles = 0;
  if (interval_ms <= 0) {
    LifecycleDaemon daemon(env, root, options);
    const Status run = daemon.RunOnce();
    PrintMaintenanceOutcomes(daemon.status());
    if (!run.ok()) return Fail(run);
    return 0;
  }
  options.interval_ms = interval_ms;
  LifecycleDaemon daemon(env, root, options);
  g_maintain_stop.store(false);
  std::signal(SIGINT, OnMaintainSignal);
  std::signal(SIGTERM, OnMaintainSignal);
  const Status started = daemon.Start();
  if (!started.ok()) return Fail(started);
  std::printf("dlv maintain: cycling every %d ms (SIGTERM stops)\n",
              interval_ms);
  std::fflush(stdout);
  while (!g_maintain_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  daemon.RequestStop();
  const Status stopped = daemon.Stop();
  PrintMaintenanceOutcomes(daemon.status());
  if (!stopped.ok()) return Fail(stopped);
  return 0;
}

int CmdGc(Env* env, const std::string& root, bool dry_run) {
  GcOptions options;
  options.dry_run = dry_run;
  auto report = RunArchiveGc(env, root, options);
  if (!report.ok()) return Fail(report.status());
  std::printf("%s", report->ToString().c_str());
  return 0;
}

/// `dlv dedup-stats`: how much content-addressed chunk dedup is saving on
/// this repository's committed archive generation.
int CmdDedupStats(Env* env, const std::string& root, bool json) {
  auto reader = ArchiveReader::Open(env, repo_layout::PasDir(root));
  if (!reader.ok()) return Fail(reader.status());
  const ArchiveDedupStats stats = reader->ComputeDedupStats();
  if (json) {
    std::printf(
        "{\"generation\": %llu, \"plane_refs\": %llu, "
        "\"unique_chunks\": %llu, \"shared_refs\": %llu, "
        "\"cross_file_refs\": %llu, \"logical_bytes\": %llu, "
        "\"stored_bytes\": %llu, \"dedup_ratio\": %.4f}\n",
        static_cast<unsigned long long>(reader->generation()),
        static_cast<unsigned long long>(stats.plane_refs),
        static_cast<unsigned long long>(stats.unique_chunks),
        static_cast<unsigned long long>(stats.shared_refs),
        static_cast<unsigned long long>(stats.cross_file_refs),
        static_cast<unsigned long long>(stats.logical_bytes),
        static_cast<unsigned long long>(stats.stored_bytes), stats.ratio());
    return 0;
  }
  std::printf(
      "dedup stats for generation %llu:\n"
      "  plane references   %llu (%llu unique chunk(s), %llu shared, "
      "%llu cross-generation)\n"
      "  logical bytes      %llu\n"
      "  stored bytes       %llu\n"
      "  dedup ratio        %.2fx\n",
      static_cast<unsigned long long>(reader->generation()),
      static_cast<unsigned long long>(stats.plane_refs),
      static_cast<unsigned long long>(stats.unique_chunks),
      static_cast<unsigned long long>(stats.shared_refs),
      static_cast<unsigned long long>(stats.cross_file_refs),
      static_cast<unsigned long long>(stats.logical_bytes),
      static_cast<unsigned long long>(stats.stored_bytes), stats.ratio());
  return 0;
}

/// Exercises every instrumented subsystem inside this process. The metrics
/// registry is per-process, so a bare `dlv stats` in a fresh process would
/// otherwise have nothing to report: the probe commits synthetic versions
/// into a scratch in-memory repository, archives them (solver + codec
/// metrics), retrieves a snapshot (chunk-store + retrieval metrics), and
/// runs one DQL statement (dql.op.* metrics).
Status RunStatsProbe() {
  MemEnv mem;
  MH_ASSIGN_OR_RETURN(Repository repo, Repository::Init(&mem, "/probe"));
  ModelerOptions options;
  options.num_versions = 2;
  options.snapshots_per_version = 2;
  options.train_iterations = 8;
  options.num_classes = 4;
  options.image_size = 12;
  options.dataset_samples = 64;
  MH_ASSIGN_OR_RETURN(auto names, RunSyntheticModeler(&repo, options));
  ArchiveOptions archive_options;
  archive_options.solver = ArchiveSolver::kPasPt;
  archive_options.budget_alpha = 2.0;
  MH_RETURN_IF_ERROR(repo.Archive(archive_options).status());
  MH_ASSIGN_OR_RETURN(auto archive, repo.OpenArchive());
  MH_ASSIGN_OR_RETURN(const int64_t count, repo.NumSnapshots(names.back()));
  RetrievalStats stats;
  const std::string key = names.back() + "/s" + std::to_string(count - 1);
  MH_RETURN_IF_ERROR(archive->RetrieveSnapshot(key, &stats).status());
  DqlEngine engine(&repo);
  MH_RETURN_IF_ERROR(
      engine.Run("select m where m.num_snapshots >= 0").status());
  // Serving leg: an ephemeral in-process modelhubd against the probe
  // repository, so server.* metrics (uptime gauge, start/stop counters,
  // request/latency instruments) are populated too. Traffic is strictly
  // sequential single-client — MemEnv is not thread-safe, and a ping
  // touches no Env state from the worker thread.
  ModelHubServer server(&mem, "/probe", ServerOptions{});
  MH_RETURN_IF_ERROR(server.Start());
  MH_ASSIGN_OR_RETURN(ModelHubClient client,
                      ModelHubClient::Connect("127.0.0.1", server.port()));
  MH_RETURN_IF_ERROR(client.Ping().status());
  MH_RETURN_IF_ERROR(server.Stop());
  return Status::OK();
}

int CmdStats(Env* env, const std::string& root, bool json, bool prom,
             const std::string& trace_path) {
  TraceRecorder* recorder = TraceRecorder::Global();
  if (!trace_path.empty()) {
    recorder->SetEnabled(true);
    recorder->Clear();
  }
  auto repo = Repository::Open(env, root);
  if (!repo.ok()) return Fail(repo.status());
  auto versions = repo->List();
  if (!versions.ok()) return Fail(versions.status());
  // Retrieve one archived snapshot of the real repository, if it has any,
  // so the dump reflects actual data and not only the probe.
  for (const auto& info : *versions) {
    if (!info.archived) continue;
    auto archive = repo->OpenArchive();
    auto count = repo->NumSnapshots(info.name);
    if (!archive.ok() || !count.ok() || *count == 0) break;
    RetrievalStats stats;
    const std::string key =
        info.name + "/s" + std::to_string(*count - 1);
    (*archive)->RetrieveSnapshot(key, &stats).status();
    break;
  }
  const Status probe = RunStatsProbe();
  if (!probe.ok()) return Fail(probe);
  MH_GAUGE("dlv.repo.versions")
      ->Set(static_cast<int64_t>(versions->size()));
  const MetricsSnapshot snapshot = MetricRegistry::Global()->Snapshot();
  if (prom) {
    std::printf("%s", snapshot.ToPrometheusText().c_str());
  } else if (json) {
    std::printf("%s\n", snapshot.ToJson().c_str());
  } else {
    std::printf("%s", snapshot.ToText().c_str());
  }
  if (!trace_path.empty()) {
    const Status written =
        env->WriteFile(trace_path, recorder->ToChromeTraceJson());
    if (!written.ok()) return Fail(written);
    std::fprintf(stderr, "dlv: wrote %llu trace span(s) to %s\n",
                 static_cast<unsigned long long>(recorder->total_spans()),
                 trace_path.c_str());
  }
  return 0;
}

int CmdQuery(Env* env, const std::string& root, const std::string& text) {
  auto repo = Repository::Open(env, root);
  if (!repo.ok()) return Fail(repo.status());
  DqlEngine engine(&*repo);
  auto data = DatasetForRepo(*repo);
  if (data.ok()) engine.RegisterDataset("default", &*data);
  auto result = engine.Run(text);
  if (!result.ok()) return Fail(result.status());
  switch (result->kind) {
    case dql::Query::Kind::kSelect:
      std::printf("%zu model version(s):\n", result->model_names.size());
      for (const auto& name : result->model_names) {
        std::printf("  %s\n", name.c_str());
      }
      break;
    case dql::Query::Kind::kSlice:
    case dql::Query::Kind::kConstruct:
      std::printf("%zu derived network(s) committed:\n",
                  result->networks.size());
      for (const auto& def : result->networks) {
        std::printf("  %s (%zu nodes)\n", def.name().c_str(),
                    def.nodes().size());
      }
      break;
    case dql::Query::Kind::kEvaluate:
      std::printf("%zu model(s) kept:\n", result->evaluated.size());
      for (const auto& model : result->evaluated) {
        std::printf("  %-28s loss=%.4f acc=%.3f\n", model.name.c_str(),
                    model.loss, model.accuracy);
      }
      break;
  }
  if (result->analyzed) {
    std::printf("\nquery plan (explain analyze):\n%s",
                result->RenderPlan().c_str());
  }
  return 0;
}

int CmdReport(Env* env, const std::string& root, const std::string& path) {
  auto repo = Repository::Open(env, root);
  if (!repo.ok()) return Fail(repo.status());
  auto html = RenderHtmlReport(*repo);
  if (!html.ok()) return Fail(html.status());
  const Status status = env->WriteFile(path, *html);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu bytes to %s\n", html->size(), path.c_str());
  return 0;
}

int CmdPublish(Env* env, const std::string& hub_root,
               const std::string& repo_root, const std::string& user,
               const std::string& name, bool compact) {
  ModelHubService hub(env, hub_root);
  PublishOptions options;
  options.compact = compact;
  options.archive.budget_alpha = 2.0;
  const Status status = hub.Publish(repo_root, user, name, options);
  if (!status.ok()) return Fail(status);
  std::printf("published %s as %s/%s%s\n", repo_root.c_str(), user.c_str(),
              name.c_str(), compact ? " (compacted)" : "");
  return 0;
}

int CmdSearch(Env* env, const std::string& hub_root,
              const std::string& pattern) {
  ModelHubService hub(env, hub_root);
  auto hits = hub.Search(pattern);
  if (!hits.ok()) return Fail(hits.status());
  std::printf("%zu hit(s):\n", hits->size());
  for (const auto& hit : *hits) {
    std::printf("  %s/%s :: %-20s acc=%.3f snaps=%lld\n", hit.user.c_str(),
                hit.repo_name.c_str(), hit.version_name.c_str(),
                hit.best_accuracy,
                static_cast<long long>(hit.num_snapshots));
  }
  return 0;
}

int CmdServe(Env* env, const std::string& root, int port, int linger_ms) {
  ServerOptions options;
  options.port = port;
  options.coalesce_linger_ms = linger_ms;
  return RunServerMain(env, root, options);
}

/// Splits "host:port" — all-digit port 1..65535, no '/' anywhere. The
/// false return is how `dlv stats` tells a repository path apart from a
/// server endpoint to scrape.
bool ParseHostPort(const std::string& target, std::string* host, int* port) {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  if (colon + 1 >= target.size()) return false;
  if (target.find('/') != std::string::npos) return false;
  long value = 0;
  for (size_t i = colon + 1; i < target.size(); ++i) {
    const char c = target[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
    if (value > 65535) return false;
  }
  if (value == 0) return false;
  *host = target.substr(0, colon);
  *port = static_cast<int>(value);
  return true;
}

/// rpc exit codes: 0 = ok, 1 = the server returned an error, 2 = usage,
/// 3 = could not reach a server (refused / unreachable / timed out).
/// Server-side errors carry a "server: " message prefix (net/client.h),
/// which distinguishes them from locally generated transport faults of
/// the same status code (e.g. a load-shedding server's kUnavailable).
int RpcFail(const Status& status) {
  std::fprintf(stderr, "dlv: %s\n", status.ToString().c_str());
  const bool transport =
      (status.IsUnavailable() || status.IsDeadlineExceeded()) &&
      status.message().rfind("server: ", 0) != 0;
  return transport ? 3 : 1;
}

/// True for faults worth reconnecting over: this hop could not reach or
/// keep the peer, as opposed to the server answering with an error.
bool RetryableRpcFault(const Status& status) {
  return (status.IsUnavailable() || status.IsDeadlineExceeded() ||
          status.IsIOError()) &&
         status.message().rfind("server: ", 0) != 0;
}

/// One attempt of an rpc op over an established connection. Returns 0 on
/// success (result already printed), 2 on usage, or 1 with *error set.
int RunRpcOp(ModelHubClient& client, const std::string& op,
             const std::vector<std::string>& args, Status* error) {
  auto fail = [&](const Status& status) {
    *error = status;
    return 1;
  };
  if (op == "ping") {
    auto pong = client.Ping();
    if (!pong.ok()) return fail(pong.status());
    std::printf("%s\n", pong->c_str());
    return 0;
  }
  if (op == "list-models") {
    auto rows = client.ListModels();
    if (!rows.ok()) return fail(rows.status());
    std::printf("%s", rows->c_str());
    return 0;
  }
  if (op == "get-snapshot" && !args.empty()) {
    const int64_t sequence = args.size() > 1 ? std::atoll(args[1].c_str()) : -1;
    const int planes = args.size() > 2 ? std::atoi(args[2].c_str()) : 0;
    if (planes > 0) {
      auto bounds = client.GetSnapshotBounds(args[0], sequence, planes);
      if (!bounds.ok()) return fail(bounds.status());
      std::printf("%s", bounds->c_str());
      return 0;
    }
    auto params = client.GetSnapshot(args[0], sequence);
    if (!params.ok()) return fail(params.status());
    uint64_t weights = 0;
    for (const auto& param : *params) {
      weights += static_cast<uint64_t>(param.value.size());
    }
    std::printf("retrieved %s: %zu parameters (%llu weights)\n",
                args[0].c_str(), params->size(),
                static_cast<unsigned long long>(weights));
    return 0;
  }
  if (op == "query" && args.size() == 1) {
    auto result = client.Query(args[0]);
    if (!result.ok()) return fail(result.status());
    std::printf("%s", result->c_str());
    return 0;
  }
  if (op == "stats") {
    auto json = client.Stats();
    if (!json.ok()) return fail(json.status());
    std::printf("%s\n", json->c_str());
    return 0;
  }
  if (op == "metrics") {
    auto text = client.Metrics();
    if (!text.ok()) return fail(text.status());
    std::printf("%s", text->c_str());
    return 0;
  }
  if (op == "shutdown") {
    const Status status = client.Shutdown();
    if (!status.ok()) return fail(status);
    std::printf("server draining\n");
    return 0;
  }
  return Usage();
}

int CmdRpc(const std::string& target, const std::string& op,
           const std::vector<std::string>& args, int retries, bool traced) {
  std::string host;
  int port = 0;
  if (!ParseHostPort(target, &host, &port)) return Usage();
  // The connect leg rides out a restart window inside Connect itself
  // (connect_retries); the loop below re-establishes the connection when
  // an op dies mid-flight (peer restarted between connect and call).
  ClientOptions options;
  options.connect_retries = retries;
  // --trace: sample a fresh distributed-trace context scoped to this
  // process; every attempt below then rides the wire with a trace header,
  // and the id printed here is what `dlv trace --fleet` keys on.
  std::optional<ScopedTraceContext> trace_scope;
  if (traced) {
    TraceContext ctx = MakeSampledTraceContext();
    ctx.has_deadline = true;
    ctx.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(options.op_timeout_ms);
    std::fprintf(stderr, "dlv: trace id %s\n", ctx.TraceIdHex().c_str());
    trace_scope.emplace(ctx);
  }
  Status last = Status::OK();
  for (int attempt = 0;; ++attempt) {
    auto client = ModelHubClient::Connect(host, port, options);
    if (client.ok()) {
      const int code = RunRpcOp(*client, op, args, &last);
      if (code != 1) return code;
    } else {
      last = client.status();
    }
    if (!RetryableRpcFault(last) || attempt >= retries) return RpcFail(last);
    const int wait_ms =
        std::min(2000, 50 << std::min(attempt, 5));
    std::fprintf(stderr, "dlv: %s; retry %d/%d in %d ms\n",
                 last.ToString().c_str(), attempt + 1, retries, wait_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
  }
}

/// `dlv stats <host:port>`: scrape a running server/router instead of
/// probing a local repository — --prom asks GET_METRICS (node-labeled
/// fleet text through the router), otherwise the STATS JSON document.
int CmdStatsRemote(const std::string& host, int port, bool prom) {
  auto client = ModelHubClient::Connect(host, port);
  if (!client.ok()) return RpcFail(client.status());
  auto body = prom ? client->Metrics() : client->Stats();
  if (!body.ok()) return RpcFail(body.status());
  if (prom) {
    std::printf("%s", body->c_str());
  } else {
    std::printf("%s\n", body->c_str());
  }
  return 0;
}

/// `dlv trace --fleet`: one GET_TRACE against the target (a router fans
/// the request out to every backend and concatenates the sections), then
/// merge the per-node span buffers into a single Chrome/Perfetto timeline.
int CmdTrace(Env* env, const std::string& target,
             const std::string& out_path) {
  std::string host;
  int port = 0;
  if (!ParseHostPort(target, &host, &port)) return Usage();
  auto client = ModelHubClient::Connect(host, port);
  if (!client.ok()) return RpcFail(client.status());
  auto dump = client->GetTraceDump();
  if (!dump.ok()) return RpcFail(dump.status());
  std::vector<TraceNodeDump> dumps;
  const Status parsed = ParseTraceDumps(Slice(*dump), &dumps);
  if (!parsed.ok()) return Fail(parsed);
  uint64_t spans = 0;
  for (const TraceNodeDump& node : dumps) spans += node.events.size();
  const std::string merged = MergeTraceDumps(dumps);
  if (out_path.empty()) {
    std::printf("%s\n", merged.c_str());
  } else {
    const Status written = env->WriteFile(out_path, merged);
    if (!written.ok()) return Fail(written);
  }
  std::fprintf(stderr, "dlv: merged %llu span(s) from %zu node(s)%s%s\n",
               static_cast<unsigned long long>(spans), dumps.size(),
               out_path.empty() ? "" : " into ", out_path.c_str());
  return 0;
}

int CmdPull(Env* env, const std::string& hub_root, const std::string& user,
            const std::string& name, const std::string& dest) {
  ModelHubService hub(env, hub_root);
  auto repo = hub.Pull(user, name, dest);
  if (!repo.ok()) return Fail(repo.status());
  std::printf("pulled %s/%s to %s\n", user.c_str(), name.c_str(),
              dest.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Env* env = Env::Default();
  const std::string command = argv[1];
  auto arg = [&](int i) -> std::string {
    return i < argc ? argv[i] : std::string();
  };
  if (command == "init" && argc == 3) return CmdInit(env, arg(2));
  if (command == "demo" && argc >= 3) {
    return CmdDemo(env, arg(2), argc > 3 ? std::atoi(argv[3]) : 5);
  }
  if (command == "list" && argc == 3) return CmdList(env, arg(2));
  if (command == "desc" && argc == 4) return CmdDesc(env, arg(2), arg(3));
  if (command == "diff" && argc == 5) {
    return CmdDiff(env, arg(2), arg(3), arg(4));
  }
  if (command == "copy" && argc == 5) {
    return CmdCopy(env, arg(2), arg(3), arg(4));
  }
  if (command == "pdiff" && argc == 5) {
    return CmdParamDiff(env, arg(2), arg(3), arg(4));
  }
  if (command == "compare" && argc >= 5) {
    return CmdCompare(env, arg(2), arg(3), arg(4),
                      argc > 5 ? std::atoll(argv[5]) : 64);
  }
  if (command == "eval" && argc >= 4) {
    return CmdEval(env, arg(2), arg(3), argc > 4 ? std::atoll(argv[4]) : 64);
  }
  if (command == "retrieve" && argc >= 4) {
    return CmdRetrieve(env, arg(2), arg(3), argc > 4 ? arg(4) : "shared",
                       argc > 5 ? std::atoi(argv[5]) : 4);
  }
  if (command == "archive" && argc >= 3) {
    std::string solver = "pas-pt";
    double alpha = 2.0;
    int archive_threads = 0;  // Auto.
    int tile_rows = 0;        // Auto.
    int positional = 0;
    for (int i = 3; i < argc; ++i) {
      const std::string flag = arg(i);
      constexpr std::string_view kThreadsFlag = "--archive-threads=";
      constexpr std::string_view kTileRowsFlag = "--tile-rows=";
      if (flag.rfind(kThreadsFlag, 0) == 0) {
        archive_threads =
            std::atoi(flag.c_str() + kThreadsFlag.size());
      } else if (flag == "--archive-threads" && i + 1 < argc) {
        archive_threads = std::atoi(argv[++i]);
      } else if (flag.rfind(kTileRowsFlag, 0) == 0) {
        tile_rows = std::atoi(flag.c_str() + kTileRowsFlag.size());
      } else if (flag == "--tile-rows" && i + 1 < argc) {
        tile_rows = std::atoi(argv[++i]);
      } else if (!flag.empty() && flag[0] == '-') {
        return Usage();
      } else if (positional == 0) {
        solver = flag;
        ++positional;
      } else if (positional == 1) {
        alpha = std::atof(flag.c_str());
        ++positional;
      } else {
        return Usage();
      }
    }
    return CmdArchive(env, arg(2), solver, alpha, archive_threads, tile_rows);
  }
  if (command == "fsck" && (argc == 3 || argc == 4)) {
    const bool quarantine = argc == 4 && arg(3) == "--quarantine";
    if (argc == 4 && !quarantine) return Usage();
    return CmdFsck(env, arg(2), quarantine);
  }
  if (command == "maintain" && argc >= 3) {
    int interval_ms = 0;
    for (int i = 3; i < argc; ++i) {
      if (arg(i) == "--interval" && i + 1 < argc) {
        interval_ms = std::atoi(argv[++i]);
        if (interval_ms <= 0) return Usage();
      } else {
        return Usage();
      }
    }
    return CmdMaintain(env, arg(2), interval_ms);
  }
  if (command == "gc" && (argc == 3 || argc == 4)) {
    const bool dry_run = argc == 4 && arg(3) == "--dry-run";
    if (argc == 4 && !dry_run) return Usage();
    return CmdGc(env, arg(2), dry_run);
  }
  if (command == "dedup-stats" && (argc == 3 || argc == 4)) {
    const bool json = argc == 4 && arg(3) == "--json";
    if (argc == 4 && !json) return Usage();
    return CmdDedupStats(env, arg(2), json);
  }
  if (command == "query" && argc == 4) return CmdQuery(env, arg(2), arg(3));
  if (command == "report" && argc == 4) {
    return CmdReport(env, arg(2), arg(3));
  }
  if (command == "publish" && (argc == 6 || argc == 7)) {
    bool compact = false;
    if (argc == 7) {
      if (arg(6) != "--compact") return Usage();
      compact = true;
    }
    return CmdPublish(env, arg(2), arg(3), arg(4), arg(5), compact);
  }
  if (command == "search" && argc >= 3) {
    return CmdSearch(env, arg(2), argc > 3 ? arg(3) : "");
  }
  if (command == "pull" && argc == 6) {
    return CmdPull(env, arg(2), arg(3), arg(4), arg(5));
  }
  if (command == "serve" && argc >= 3 && arg(2) == "--fleet") {
    if (argc < 4 || argc > 5) return Usage();
    auto topology = FleetTopology::Parse(arg(3));
    if (!topology.ok()) return Fail(topology.status());
    RouterOptions options;
    if (argc == 5) {
      options.port = std::atoi(argv[4]);
      if (options.port <= 0) return Usage();
    }
    return RunRouterMain(std::move(*topology), options);
  }
  if (command == "serve" && argc >= 3) {
    int port = 0;
    int linger_ms = 0;
    bool bad_flag = false;
    for (int i = 3; i < argc; ++i) {
      const std::string flag = arg(i);
      if (flag == "--linger" && i + 1 < argc) {
        linger_ms = std::atoi(argv[++i]);
      } else if (!flag.empty() && flag[0] != '-') {
        port = std::atoi(flag.c_str());
      } else {
        bad_flag = true;
      }
    }
    if (bad_flag) return Usage();
    return CmdServe(env, arg(2), port, linger_ms);
  }
  if (command == "rpc" && argc >= 4) {
    int retries = 0;
    bool traced = false;
    std::vector<std::string> positional;
    constexpr std::string_view kRetriesFlag = "--retries=";
    for (int i = 2; i < argc; ++i) {
      const std::string flag = arg(i);
      if (flag.rfind(kRetriesFlag, 0) == 0) {
        retries = std::atoi(flag.c_str() + kRetriesFlag.size());
        if (retries < 0) return Usage();
      } else if (flag == "--trace") {
        traced = true;
      } else {
        positional.push_back(flag);
      }
    }
    if (positional.size() < 2) return Usage();
    std::vector<std::string> rest(positional.begin() + 2, positional.end());
    return CmdRpc(positional[0], positional[1], rest, retries, traced);
  }
  if (command == "trace" && argc >= 4 && arg(2) == "--fleet") {
    if (argc > 5) return Usage();
    return CmdTrace(env, arg(3), argc == 5 ? arg(4) : "");
  }
  if (command == "stats" && argc >= 3) {
    bool json = false;
    bool prom = false;
    std::string trace_path;
    for (int i = 3; i < argc; ++i) {
      const std::string flag = arg(i);
      if (flag == "--json") {
        json = true;
      } else if (flag == "--prom") {
        prom = true;
      } else if (flag == "--trace" && i + 1 < argc) {
        trace_path = arg(++i);
      } else {
        return Usage();
      }
    }
    std::string host;
    int port = 0;
    if (ParseHostPort(arg(2), &host, &port)) {
      if (!trace_path.empty()) return Usage();
      return CmdStatsRemote(host, port, prom);
    }
    return CmdStats(env, arg(2), json, prom, trace_path);
  }
  return Usage();
}

}  // namespace
}  // namespace modelhub

int main(int argc, char** argv) { return modelhub::Main(argc, argv); }
