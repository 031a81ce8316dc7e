// Table V — "Recreation Performance Comparison of Storage Plans".
//
// The paper measures average snapshot recreation time for three storage
// plans — full materialization (SPT), minimum storage (MST), and a
// moderate PAS plan (alpha = 1.6) — under full retrieval and partial
// retrieval (2 bytes / 1 byte per float), for the independent, parallel
// and computation-sharing schemes of Table III. We build the same three
// archives from an SD-mini repository and time actual snapshot
// retrievals from disk, using the per-call RetrievalStats so bytes and
// chunk fetches per scheme are measured rather than modeled.
//
// Beyond the paper's per-snapshot rows, the bench also times a
// "checkout" of every snapshot in one batch — the workload where the
// computation-sharing scheduler decodes each shared delta-chain prefix
// once instead of once per descendant matrix.
//
// Emits BENCH_retrieval.json (per-plan, per-scheme latency + bytes +
// fetches) so the retrieval perf trajectory is tracked across PRs.
//
// Expected shape: materialization retrieves fastest at the largest
// footprint; min-storage is smallest but slowest (delta chains); PAS sits
// between; partial retrieval of high-order bytes is several times faster
// than any full retrieval; shared checkout fetches strictly fewer chunks
// than independent checkout on delta-chained plans.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/env.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "data/synthetic_modeler.h"
#include "dlv/repository.h"
#include "pas/archive.h"

namespace {

using namespace modelhub;
using bench::Check;

/// Accumulated per-scheme measurements (averaged per snapshot on print).
struct SchemeTotals {
  double ms = 0.0;
  uint64_t bytes = 0;
  uint64_t fetches = 0;

  void Accumulate(const RetrievalStats& stats) {
    ms += stats.wall_ms;
    bytes += stats.bytes_read;
    fetches += stats.chunk_fetches;
  }
};

struct PlanMeasurement {
  std::string label;
  uint64_t stored_bytes = 0;
  int snapshots = 0;
  SchemeTotals sequential;   ///< Reusable scheme: one memo per call.
  SchemeTotals independent;  ///< One private chain per matrix, on a pool.
  SchemeTotals shared;       ///< Computation-sharing vertex scheduler.
  SchemeTotals checkout_independent;  ///< All snapshots in one batch.
  SchemeTotals checkout_shared;
  double partial2_ms = 0.0;
  double partial1_ms = 0.0;
};

void AppendSchemeJson(std::string* out, const char* name,
                      const SchemeTotals& totals, int divisor) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "\"%s\":{\"ms\":%.3f,\"bytes\":%llu,\"chunk_fetches\":%llu}",
                name, totals.ms / divisor,
                static_cast<unsigned long long>(totals.bytes),
                static_cast<unsigned long long>(totals.fetches));
  out->append(buffer);
}

}  // namespace

int main() {
  Env* env = Env::Default();
  const std::string work = "/tmp/mh_table5_bench";
  (void)env->CreateDirs(work);

  MemEnv repo_env;
  auto repo = Repository::Init(&repo_env, "sd");
  Check(repo.status(), "init");
  ModelerOptions modeler;
  modeler.num_versions = 6;
  modeler.snapshots_per_version = 4;
  modeler.train_iterations = 48;
  modeler.num_classes = 6;
  modeler.image_size = 16;
  modeler.dataset_samples = 192;
  if (bench::QuickMode()) {
    modeler.num_versions = 2;
    modeler.snapshots_per_version = 2;
    modeler.train_iterations = 8;
    modeler.dataset_samples = 64;
  }
  auto names = RunSyntheticModeler(&*repo, modeler);
  Check(names.status(), "modeler");

  struct PlanCase {
    const char* label;
    ArchiveOptions options;
  };
  std::vector<PlanCase> cases;
  {
    PlanCase materialization{"materialization (SPT)", {}};
    materialization.options.solver = ArchiveSolver::kSpt;
    cases.push_back(materialization);
    PlanCase min_storage{"min storage (MST)", {}};
    min_storage.options.solver = ArchiveSolver::kMst;
    cases.push_back(min_storage);
    PlanCase pas{"PAS (alpha=1.6)", {}};
    pas.options.solver = ArchiveSolver::kPasPt;
    pas.options.budget_alpha = 1.6;
    cases.push_back(pas);
  }

  ThreadPool pool(4);
  std::vector<PlanMeasurement> measurements;
  for (size_t c = 0; c < cases.size(); ++c) {
    // Rebuild the archive under this plan. Each case gets its own dir.
    const std::string dir = work + "/plan" + std::to_string(c);
    ArchiveBuilder builder(env, dir);
    for (const auto& name : *names) {
      auto count = repo->NumSnapshots(name);
      Check(count.status(), "count");
      std::string prev;
      for (int64_t s = 0; s < *count; ++s) {
        auto params = repo->GetSnapshotParams(name, s);
        Check(params.status(), "params");
        const std::string key = name + "/s" + std::to_string(s);
        Check(builder.AddSnapshot(key, *params), "add snapshot");
        if (!prev.empty()) Check(builder.AddDeltaCandidate(prev, key), "cand");
        prev = key;
      }
    }
    auto report = builder.Build(cases[c].options);
    Check(report.status(), "build");
    auto reader = ArchiveReader::Open(env, dir);
    Check(reader.status(), "open");

    PlanMeasurement plan;
    plan.label = cases[c].label;
    plan.stored_bytes = reader->TotalStoredBytes();
    RetrievalStats stats;
    for (const auto& snapshot : reader->snapshot_names()) {
      Check(reader->RetrieveSnapshot(snapshot, &stats).status(), "sequential");
      plan.sequential.Accumulate(stats);
      Check(reader
                ->RetrieveSnapshotsParallel({snapshot}, &pool,
                                            ParallelScheme::kIndependent,
                                            &stats)
                .status(),
            "independent");
      plan.independent.Accumulate(stats);
      Check(reader
                ->RetrieveSnapshotsParallel({snapshot}, &pool,
                                            ParallelScheme::kShared, &stats)
                .status(),
            "shared");
      plan.shared.Accumulate(stats);
      ++plan.snapshots;
    }
    // Whole-archive checkout: the multi-snapshot batch where shared
    // delta-chain prefixes exist (adjacent checkpoints chain off each
    // other), so the scheduler's sharing is visible in fetch counts.
    Check(reader
              ->RetrieveSnapshotsParallel(reader->snapshot_names(), &pool,
                                          ParallelScheme::kIndependent, &stats)
              .status(),
          "checkout independent");
    plan.checkout_independent.Accumulate(stats);
    Check(reader
              ->RetrieveSnapshotsParallel(reader->snapshot_names(), &pool,
                                          ParallelScheme::kShared, &stats)
              .status(),
          "checkout shared");
    plan.checkout_shared.Accumulate(stats);
    // Partial retrieval (first k byte planes) per snapshot.
    for (const auto& snapshot : reader->snapshot_names()) {
      Stopwatch watch;
      Check(reader->RetrieveSnapshotBounds(snapshot, 2).status(), "bounds2");
      plan.partial2_ms += watch.ElapsedMillis();
      watch.Restart();
      Check(reader->RetrieveSnapshotBounds(snapshot, 1).status(), "bounds1");
      plan.partial1_ms += watch.ElapsedMillis();
    }
    measurements.push_back(plan);
  }

  std::printf("%-22s %12s | %9s %9s %9s | %12s %12s | %9s %9s\n", "plan",
              "bytes", "seq", "indep", "shared", "checkout-ind",
              "checkout-shr", "2B", "1B");
  for (const auto& plan : measurements) {
    std::printf(
        "%-22s %12llu | %8.2fms %8.2fms %8.2fms | %7.2fms/%4llu "
        "%7.2fms/%4llu | %8.2fms %8.2fms\n",
        plan.label.c_str(), static_cast<unsigned long long>(plan.stored_bytes),
        plan.sequential.ms / plan.snapshots,
        plan.independent.ms / plan.snapshots, plan.shared.ms / plan.snapshots,
        plan.checkout_independent.ms,
        static_cast<unsigned long long>(plan.checkout_independent.fetches),
        plan.checkout_shared.ms,
        static_cast<unsigned long long>(plan.checkout_shared.fetches),
        plan.partial2_ms / plan.snapshots, plan.partial1_ms / plan.snapshots);
  }
  std::printf(
      "\nshape check (paper Table V): materialization fastest/largest, "
      "min-storage smallest/slowest, PAS in between; 2-byte and 1-byte "
      "partial reads beat full retrieval; checkout-shared fetches <= "
      "checkout-independent fetches, strictly fewer on delta plans.\n");

  // --- BENCH_retrieval.json: the perf trajectory artifact.
  std::string json = "{\"bench\":\"table5_retrieval\",\"plans\":[";
  for (size_t i = 0; i < measurements.size(); ++i) {
    const PlanMeasurement& plan = measurements[i];
    if (i > 0) json.push_back(',');
    json += "{\"plan\":\"" + plan.label + "\",\"stored_bytes\":" +
            std::to_string(plan.stored_bytes) + ",\"per_snapshot\":{";
    AppendSchemeJson(&json, "sequential", plan.sequential, plan.snapshots);
    json.push_back(',');
    AppendSchemeJson(&json, "independent", plan.independent, plan.snapshots);
    json.push_back(',');
    AppendSchemeJson(&json, "shared", plan.shared, plan.snapshots);
    json += "},\"checkout_all\":{";
    AppendSchemeJson(&json, "independent", plan.checkout_independent, 1);
    json.push_back(',');
    AppendSchemeJson(&json, "shared", plan.checkout_shared, 1);
    char partial[128];
    std::snprintf(partial, sizeof(partial),
                  "},\"partial_ms\":{\"planes2\":%.3f,\"planes1\":%.3f}}",
                  plan.partial2_ms / plan.snapshots,
                  plan.partial1_ms / plan.snapshots);
    json += partial;
  }
  json += "]";
  bench::AppendMetricsJson(&json);
  json += "}\n";
  const char* json_path = "BENCH_retrieval.json";
  Check(env->WriteFile(json_path, json), "write json");
  std::printf("wrote %s\n", json_path);
  return 0;
}
