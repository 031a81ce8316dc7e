// Lifecycle maintenance tests: the interruptible task graph, the access
// tracker, mark-epoch chunk GC (including pin protection of in-flight
// retrievals), daemon cycles end-to-end, and crash sweeps with a
// maintenance cycle actively compacting.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/fault_env.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "dlv/fsck.h"
#include "dlv/layout.h"
#include "dlv/repository.h"
#include "lifecycle/access_tracker.h"
#include "lifecycle/daemon.h"
#include "lifecycle/gc.h"
#include "lifecycle/task_graph.h"
#include "nn/trainer.h"
#include "nn/zoo.h"
#include "pas/archive.h"
#include "pas/generation_pins.h"

namespace modelhub {
namespace {

void CommitTrained(Repository* repo, const std::string& name, uint64_t seed) {
  const Dataset ds = MakeBlobDataset(64, 4, 12, 0.05f, seed);
  NetworkDef def = MiniVgg(4, 12, 1);
  def.set_name(name);
  auto net = Network::Create(def);
  ASSERT_TRUE(net.ok());
  Rng rng(seed);
  net->InitializeWeights(&rng);
  TrainOptions options;
  options.iterations = 20;
  options.snapshot_every = 10;
  options.seed = seed;
  auto trained = TrainNetwork(&*net, ds, options);
  ASSERT_TRUE(trained.ok());
  CommitRequest request;
  request.name = name;
  request.network = def;
  request.snapshots = trained->snapshots;
  ASSERT_TRUE(repo->Commit(request).ok());
}

void ExpectSameParams(const std::vector<NamedParam>& got,
                      const std::vector<NamedParam>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_TRUE(got[i].value.ApproxEquals(want[i].value, 1e-5f));
  }
}

// -------------------------------------------------------- MaintenanceGraph

TEST(MaintenanceGraphTest, RunsTasksInDependencyOrder) {
  MaintenanceGraph graph;
  std::vector<std::string> order;
  ASSERT_TRUE(graph.Add("a", {}, [&] { order.push_back("a"); return Status::OK(); }).ok());
  ASSERT_TRUE(graph.Add("b", {"a"}, [&] { order.push_back("b"); return Status::OK(); }).ok());
  ASSERT_TRUE(graph.Add("c", {"a", "b"}, [&] { order.push_back("c"); return Status::OK(); }).ok());
  ASSERT_TRUE(graph.Run().ok());
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
  for (const TaskOutcome& outcome : graph.outcomes()) {
    EXPECT_EQ(outcome.state, TaskOutcome::State::kOk) << outcome.name;
  }
}

TEST(MaintenanceGraphTest, DependenciesMustBeRegisteredFirst) {
  MaintenanceGraph graph;
  EXPECT_FALSE(graph.Add("b", {"a"}, [] { return Status::OK(); }).ok());
}

TEST(MaintenanceGraphTest, FailureSkipsDependentsButNotSiblings) {
  MaintenanceGraph graph;
  bool sibling_ran = false;
  bool dependent_ran = false;
  ASSERT_TRUE(
      graph.Add("broken", {}, [] { return Status::IOError("boom"); }).ok());
  ASSERT_TRUE(graph
                  .Add("dependent", {"broken"},
                       [&] {
                         dependent_ran = true;
                         return Status::OK();
                       })
                  .ok());
  ASSERT_TRUE(graph
                  .Add("sibling", {},
                       [&] {
                         sibling_ran = true;
                         return Status::OK();
                       })
                  .ok());
  const Status run = graph.Run();
  EXPECT_TRUE(run.IsIOError()) << run.ToString();
  EXPECT_FALSE(dependent_ran);
  EXPECT_TRUE(sibling_ran);
  EXPECT_EQ(graph.outcomes()[0].state, TaskOutcome::State::kFailed);
  EXPECT_EQ(graph.outcomes()[1].state, TaskOutcome::State::kSkipped);
  EXPECT_EQ(graph.outcomes()[2].state, TaskOutcome::State::kOk);
}

TEST(MaintenanceGraphTest, CancellationLandsAtTaskBoundary) {
  MaintenanceGraph graph;
  CancelToken cancel;
  int second_ran = 0;
  ASSERT_TRUE(graph
                  .Add("first", {},
                       [&] {
                         cancel.Cancel();  // Mid-task: current task finishes.
                         return Status::OK();
                       })
                  .ok());
  ASSERT_TRUE(graph
                  .Add("second", {"first"},
                       [&] {
                         ++second_ran;
                         return Status::OK();
                       })
                  .ok());
  const Status run = graph.Run(&cancel);
  EXPECT_TRUE(run.IsUnavailable()) << run.ToString();
  EXPECT_EQ(second_ran, 0);
  EXPECT_EQ(graph.outcomes()[0].state, TaskOutcome::State::kOk);
  EXPECT_EQ(graph.outcomes()[1].state, TaskOutcome::State::kCancelled);
}

TEST(MaintenanceGraphTest, YieldHookRunsBeforeEveryTask) {
  MaintenanceGraph graph;
  int yields = 0;
  ASSERT_TRUE(graph.Add("a", {}, [] { return Status::OK(); }).ok());
  ASSERT_TRUE(graph.Add("b", {"a"}, [] { return Status::OK(); }).ok());
  ASSERT_TRUE(graph.Run(nullptr, [&] { ++yields; }).ok());
  EXPECT_EQ(yields, 2);
}

// ----------------------------------------------------------- AccessTracker

TEST(AccessTrackerTest, RecordsDecaysAndDropsColdKeys) {
  AccessTracker tracker;
  tracker.RecordAccess("m/s0");
  tracker.RecordAccess("m/s0");
  tracker.RecordAccess("m/s1");
  EXPECT_EQ(tracker.total_accesses(), 3u);
  auto heat = tracker.HeatSnapshot();
  EXPECT_DOUBLE_EQ(heat["m/s0"], 2.0);
  EXPECT_DOUBLE_EQ(heat["m/s1"], 1.0);

  tracker.Decay(0.5);
  heat = tracker.HeatSnapshot();
  EXPECT_DOUBLE_EQ(heat["m/s0"], 1.0);
  // The monotonic total never decays.
  EXPECT_EQ(tracker.total_accesses(), 3u);

  // Repeated decay drives keys below the floor and evicts them.
  for (int i = 0; i < 40; ++i) tracker.Decay(0.5);
  EXPECT_TRUE(tracker.HeatSnapshot().empty());
}

// ----------------------------------------------------------------- Chunk GC

TEST(LifecycleGcTest, ReclaimsSupersededGenerationsOnceUnpinned) {
  MemEnv env;
  auto repo = Repository::Init(&env, "r");
  ASSERT_TRUE(repo.ok());
  // Dedup off: this test is about full reclamation of a superseded
  // generation, which needs generation 2 to materialize everything
  // instead of referencing generation 1's chunks (shared-chunk survival
  // is covered by SharedChunksSurviveGcUnderConcurrentRetrieval).
  ArchiveOptions no_dedup;
  no_dedup.enable_dedup = false;
  CommitTrained(&*repo, "m1", 1);
  ASSERT_TRUE(repo->Archive(no_dedup).ok());  // Generation 1.
  auto gen = ReadArchiveGeneration(&env, "r/pas");
  ASSERT_TRUE(gen.ok());
  ASSERT_EQ(*gen, 1u);

  // Pin generation 1 (as an in-flight retrieval would), then supersede it:
  // the rebuild's own cleanup must leave the pinned generation in place.
  auto pin = GenerationPinRegistry::Global()->Pin(&env, "r/pas", 1);
  CommitTrained(&*repo, "m2", 2);
  ASSERT_TRUE(repo->Archive(no_dedup).ok());  // Generation 2.
  EXPECT_TRUE(env.FileExists("r/pas/chunks-1.bin"));
  EXPECT_TRUE(env.FileExists("r/pas/chunks-2.bin"));

  // Dry run while pinned: stale is visible, nothing reclaimable.
  GcOptions dry;
  dry.dry_run = true;
  auto planned = RunArchiveGc(&env, "r", dry);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->current_generation, 2u);
  EXPECT_GE(planned->stale_files, 1u);
  EXPECT_GE(planned->pinned_files, 1u);
  EXPECT_EQ(planned->reclaimed_files, 0u);
  ASSERT_EQ(planned->pending_generations.size(), 1u);
  EXPECT_EQ(planned->pending_generations[0], 1u);

  // A real sweep while pinned must not touch the generation either.
  auto pinned_sweep = RunArchiveGc(&env, "r");
  ASSERT_TRUE(pinned_sweep.ok());
  EXPECT_EQ(pinned_sweep->reclaimed_files, 0u);
  EXPECT_TRUE(env.FileExists("r/pas/chunks-1.bin"));

  // Dropping the pin makes the next sweep conclusive.
  pin.reset();
  auto swept = RunArchiveGc(&env, "r");
  ASSERT_TRUE(swept.ok());
  EXPECT_GE(swept->reclaimed_files, 1u);
  EXPECT_GT(swept->reclaimed_bytes, 0u);
  EXPECT_FALSE(env.FileExists("r/pas/chunks-1.bin"));

  // Everything stays retrievable from the current generation.
  auto reader = ArchiveReader::Open(&env, "r/pas");
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->RetrieveSnapshot("m1/s0").ok());
  EXPECT_TRUE(reader->RetrieveSnapshot("m2/s0").ok());
}

TEST(LifecycleGcTest, EmptyRepositoryYieldsEmptyReport) {
  MemEnv env;
  auto repo = Repository::Init(&env, "r");
  ASSERT_TRUE(repo.ok());
  auto report = RunArchiveGc(&env, "r");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->stale_files, 0u);
  EXPECT_EQ(report->reclaimed_files, 0u);
}

// The headline GC-safety regression: a parallel retrieval in flight on a
// superseded generation holds its pin while sweeps run concurrently — the
// chunk files must survive until the reader is gone, and every retrieval
// must return the original bytes. Runs threads against the real Env, so
// the TSan job exercises the registry and sweep paths for races.
TEST(LifecycleGcTest, PinProtectsInFlightParallelRetrieval) {
  Env* env = Env::Default();
  const std::string root = ::testing::TempDir() + "/mh_lifecycle_gc_pin";
  RemoveTree(env, root);
  auto repo = Repository::Init(env, root);
  ASSERT_TRUE(repo.ok());
  // Dedup off so generation 1 is fully superseded (no shared chunks) and
  // the pin alone is what keeps its files alive.
  ArchiveOptions no_dedup;
  no_dedup.enable_dedup = false;
  CommitTrained(&*repo, "m1", 11);
  ASSERT_TRUE(repo->Archive(no_dedup).ok());  // Generation 1.
  auto want = repo->GetSnapshotParams("m1", 0);
  ASSERT_TRUE(want.ok());

  // Hold a reader (and thus a pin) on generation 1, then supersede it.
  const std::string pas_dir = repo_layout::PasDir(root);
  auto opened = ArchiveReader::Open(env, pas_dir);
  ASSERT_TRUE(opened.ok());
  std::optional<ArchiveReader> reader(std::move(*opened));
  ASSERT_EQ(reader->generation(), 1u);
  CommitTrained(&*repo, "m2", 12);
  ASSERT_TRUE(repo->Archive(no_dedup).ok());  // Generation 2.
  const std::string old_chunks = JoinPath(pas_dir, "chunks-1.bin");
  ASSERT_TRUE(env->FileExists(old_chunks));

  std::atomic<bool> done{false};
  std::atomic<int> failed{0};
  std::thread retriever([&] {
    ThreadPool pool(4);
    for (int i = 0; i < 20; ++i) {
      RetrievalStats stats;
      auto sets = reader->RetrieveSnapshotsParallel(
          {"m1/s0"}, &pool, ParallelScheme::kShared, &stats);
      if (!sets.ok() || sets->size() != 1 || (*sets)[0].empty()) {
        failed.fetch_add(1);
        break;
      }
    }
    done.store(true);
  });

  uint64_t max_pinned = 0;
  while (!done.load()) {
    auto report = RunArchiveGc(env, root);
    ASSERT_TRUE(report.ok());
    max_pinned = std::max(max_pinned, report->pinned_files);
    // The pinned generation's bytes must never be freed mid-retrieval.
    EXPECT_TRUE(env->FileExists(old_chunks));
  }
  retriever.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GE(max_pinned, 1u);

  // The pinned reader still decodes the original values.
  auto params = reader->RetrieveSnapshot("m1/s0");
  ASSERT_TRUE(params.ok()) << params.status().ToString();
  ExpectSameParams(*params, *want);

  // Dropping the reader releases the pin; the next sweep reclaims.
  reader.reset();
  auto swept = RunArchiveGc(env, root);
  ASSERT_TRUE(swept.ok());
  EXPECT_GE(swept->reclaimed_files, 1u);
  EXPECT_FALSE(env->FileExists(old_chunks));

  // The committed generation is untouched.
  auto current = ArchiveReader::Open(env, pas_dir);
  ASSERT_TRUE(current.ok());
  auto after = current->RetrieveSnapshot("m1/s0");
  ASSERT_TRUE(after.ok());
  ExpectSameParams(*after, *want);
  RemoveTree(env, root);
}

// DESIGN.md §15: a chunk written by generation 1 and still referenced by
// generation 2 through cross-generation dedup must survive sweeps of the
// superseded generation — even with parallel retrievals in flight on the
// current generation — and becomes reclaimable only once a later build
// stops referencing it.
TEST(LifecycleGcTest, SharedChunksSurviveGcUnderConcurrentRetrieval) {
  Env* env = Env::Default();
  const std::string root = ::testing::TempDir() + "/mh_lifecycle_gc_shared";
  RemoveTree(env, root);
  auto repo = Repository::Init(env, root);
  ASSERT_TRUE(repo.ok());
  CommitTrained(&*repo, "m1", 51);
  ASSERT_TRUE(repo->Archive(ArchiveOptions()).ok());  // Generation 1.
  CommitTrained(&*repo, "m2", 52);
  ASSERT_TRUE(repo->Archive(ArchiveOptions()).ok());  // Generation 2.
  auto want = repo->GetSnapshotParams("m1", 0);
  ASSERT_TRUE(want.ok());

  // Generation 2 re-archives m1 bit-identically, so dedup must have kept
  // its planes in the generation-1 file and referenced them.
  const std::string pas_dir = repo_layout::PasDir(root);
  const std::string shared_chunks = JoinPath(pas_dir, "chunks-1.bin");
  ASSERT_TRUE(env->FileExists(shared_chunks));
  auto manifest_files = ReadArchiveManifestFiles(env, pas_dir);
  ASSERT_TRUE(manifest_files.ok());
  ASSERT_NE(std::find(manifest_files->begin(), manifest_files->end(),
                      std::string("chunks-1.bin")),
            manifest_files->end())
      << "generation 2 does not share generation 1 chunks";

  // Sweeps race a reader resolving snapshots that live in the shared
  // file; the file must never disappear and every retrieval must match.
  std::atomic<bool> done{false};
  std::atomic<int> failed{0};
  std::thread retriever([&] {
    auto opened = ArchiveReader::Open(env, pas_dir);
    if (!opened.ok()) {
      failed.fetch_add(1);
      done.store(true);
      return;
    }
    ThreadPool pool(4);
    for (int i = 0; i < 20; ++i) {
      auto sets = opened->RetrieveSnapshotsParallel(
          {"m1/s0"}, &pool, ParallelScheme::kShared);
      if (!sets.ok() || sets->size() != 1) {
        failed.fetch_add(1);
        break;
      }
    }
    done.store(true);
  });
  uint64_t max_shared = 0;
  while (!done.load()) {
    auto report = RunArchiveGc(env, root);
    ASSERT_TRUE(report.ok());
    max_shared = std::max(max_shared, report->shared_files);
    EXPECT_EQ(report->reclaimed_files, 0u);
    EXPECT_TRUE(env->FileExists(shared_chunks));
  }
  retriever.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GE(max_shared, 1u);

  // A build that stops referencing the shared file (dedup off rewrites
  // every payload) finally makes it reclaimable. A pin held across the
  // rebuild (an in-flight retrieval on the old plan) defers that to the
  // sweep: stale now, but protected until the pin drains.
  auto pin = GenerationPinRegistry::Global()->Pin(env, pas_dir, 1);
  ArchiveOptions no_dedup;
  no_dedup.enable_dedup = false;
  ASSERT_TRUE(repo->Archive(no_dedup).ok());  // Generation 3.
  ASSERT_TRUE(env->FileExists(shared_chunks));
  auto deferred = RunArchiveGc(env, root);
  ASSERT_TRUE(deferred.ok());
  EXPECT_GE(deferred->pinned_files, 1u);
  EXPECT_TRUE(env->FileExists(shared_chunks));
  pin.reset();
  auto swept = RunArchiveGc(env, root);
  ASSERT_TRUE(swept.ok());
  EXPECT_GE(swept->reclaimed_files, 1u);
  EXPECT_FALSE(env->FileExists(shared_chunks));

  // Everything still reads back from the rematerialized generation.
  auto current = ArchiveReader::Open(env, pas_dir);
  ASSERT_TRUE(current.ok());
  auto after = current->RetrieveSnapshot("m1/s0");
  ASSERT_TRUE(after.ok());
  ExpectSameParams(*after, *want);
  RemoveTree(env, root);
}

// -------------------------------------------------------- LifecycleDaemon

TEST(LifecycleDaemonTest, RunOnceReencodesSwapsAndReclaims) {
  MemEnv env;
  std::vector<NamedParam> want_m1;
  std::vector<NamedParam> want_m2;
  {
    // Scoped so the setup repository's cached reader (and its generation
    // pin) is gone before the cycle runs — only the explicit serving
    // reader below holds generation 1.
    auto repo = Repository::Init(&env, "r");
    ASSERT_TRUE(repo.ok());
    CommitTrained(&*repo, "m1", 21);
    ASSERT_TRUE(repo->Archive(ArchiveOptions()).ok());  // Generation 1.
    CommitTrained(&*repo, "m2", 22);  // Staged; the cycle migrates it.
    auto m1 = repo->GetSnapshotParams("m1", 0);
    auto m2 = repo->GetSnapshotParams("m2", 0);
    ASSERT_TRUE(m1.ok());
    ASSERT_TRUE(m2.ok());
    want_m1 = std::move(*m1);
    want_m2 = std::move(*m2);
  }

  // Emulate the embedding server: a live reader pins generation 1 across
  // the re-encode, and the swap callback drops it — so the cycle's GC leg
  // (not the builder's cleanup) is what reclaims the old generation.
  auto opened = ArchiveReader::Open(&env, "r/pas");
  ASSERT_TRUE(opened.ok());
  std::optional<ArchiveReader> serving_reader(std::move(*opened));
  int reloads = 0;

  LifecycleOptions options;
  options.min_accesses_between_cycles = 0;
  LifecycleDaemon daemon(&env, "r", options);
  daemon.set_reload_callback([&] {
    serving_reader.reset();
    ++reloads;
  });
  daemon.access_tracker()->RecordAccess("m1/s0");
  daemon.access_tracker()->RecordAccess("m1/s0");

  const Status run = daemon.RunOnce();
  ASSERT_TRUE(run.ok()) << run.ToString();
  EXPECT_EQ(reloads, 1);

  const MaintenanceStatus status = daemon.status();
  EXPECT_EQ(status.cycles_completed, 1u);
  EXPECT_EQ(status.cycles_failed, 0u);
  EXPECT_TRUE(status.last_error.empty());
  EXPECT_GE(status.archive_generation, 2u);
  EXPECT_GE(status.hot_snapshots, 1u);   // m1/s0 was accessed.
  EXPECT_GE(status.cold_snapshots, 1u);  // The untouched snapshots.
  // The sweep accounted for generation 1 one way or the other: reclaimed,
  // or kept alive because the re-encoded manifest still references its
  // chunks through cross-generation dedup.
  EXPECT_TRUE(status.bytes_reclaimed_total > 0 || status.shared_files > 0)
      << status.ToJson();
  ASSERT_EQ(status.last_outcomes.size(), 4u);
  for (const TaskOutcome& outcome : status.last_outcomes) {
    EXPECT_EQ(outcome.state, TaskOutcome::State::kOk) << outcome.name;
  }
  const std::string json = status.ToJson();
  EXPECT_NE(json.find("\"cycles_completed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"last_tasks\""), std::string::npos);

  // The superseded generation is gone unless the new manifest shares its
  // chunks; every snapshot — archived before the cycle or staged — reads
  // back identical from the new plan either way.
  EXPECT_EQ(env.FileExists("r/pas/chunks-1.bin"), status.shared_files > 0);
  auto reopened = Repository::Open(&env, "r");
  ASSERT_TRUE(reopened.ok());
  auto got_m1 = reopened->GetSnapshotParams("m1", 0);
  auto got_m2 = reopened->GetSnapshotParams("m2", 0);
  ASSERT_TRUE(got_m1.ok());
  ASSERT_TRUE(got_m2.ok());
  ExpectSameParams(*got_m1, want_m1);
  ExpectSameParams(*got_m2, want_m2);

  auto fsck = RunFsck(&env, "r");
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck->clean()) << fsck->ToString();
}

TEST(LifecycleDaemonTest, IdleHubSkipsCycles) {
  MemEnv env;
  auto repo = Repository::Init(&env, "r");
  ASSERT_TRUE(repo.ok());
  LifecycleOptions options;
  options.interval_ms = 20;
  options.min_accesses_between_cycles = 1;
  LifecycleDaemon daemon(&env, "r", options);
  ASSERT_TRUE(daemon.Start().ok());
  // No accesses arrive, so every due cycle is skipped — and the skipped
  // path never touches the (thread-unsafe) MemEnv.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (daemon.status().cycles_skipped < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(daemon.Stop().ok());
  const MaintenanceStatus status = daemon.status();
  EXPECT_GE(status.cycles_skipped, 2u);
  EXPECT_EQ(status.cycles_started, 0u);
}

// ------------------------------------------------------- Crash sweeps
//
// The PR 1/5 discipline extended to the daemon: fail (or tear) the k-th
// Env mutation during a full maintenance cycle for every k until one runs
// fault-free. After every crash the repository must recover to a state
// where all snapshots read back identical and fsck is clean (after
// quarantining plain orphans).

void SweepMaintenanceCrashes(bool torn) {
  MemEnv base;
  auto seeded = Repository::Init(&base, "r");
  ASSERT_TRUE(seeded.ok());
  CommitTrained(&*seeded, "m1", 31);
  ASSERT_TRUE(seeded->Archive(ArchiveOptions()).ok());
  CommitTrained(&*seeded, "m2", 32);
  auto m1_want = seeded->GetSnapshotParams("m1", 0);
  auto m2_want = seeded->GetSnapshotParams("m2", 0);
  ASSERT_TRUE(m1_want.ok());
  ASSERT_TRUE(m2_want.ok());

  bool completed = false;
  for (int k = 1; k < 300 && !completed; ++k) {
    MemEnv env = base;
    FaultInjectionEnv fault(&env);
    {
      LifecycleOptions options;
      options.min_accesses_between_cycles = 0;
      LifecycleDaemon daemon(&fault, "r", options);
      daemon.access_tracker()->RecordAccess("m1/s0");
      if (torn) {
        fault.TornWriteNthMutation(k);
      } else {
        fault.FailNthMutation(k);
      }
      const Status run = daemon.RunOnce();
      completed = run.ok() && !fault.crashed();
    }
    // Recovery path: reopen against the raw env, as a restart would.
    auto reopened = Repository::Open(&env, "r");
    ASSERT_TRUE(reopened.ok()) << "crash at mutation " << k << ": "
                               << reopened.status().ToString();
    const std::vector<std::pair<std::string, const std::vector<NamedParam>*>>
        expected = {{"m1", &*m1_want}, {"m2", &*m2_want}};
    for (const auto& [name, want] : expected) {
      auto got = reopened->GetSnapshotParams(name, 0);
      ASSERT_TRUE(got.ok()) << name << " after crash at mutation " << k
                            << ": " << got.status().ToString();
      ASSERT_EQ(got->size(), want->size());
      for (size_t p = 0; p < got->size(); ++p) {
        EXPECT_TRUE((*got)[p].value.ApproxEquals((*want)[p].value, 1e-5f))
            << name << " param " << p << " after crash at mutation " << k;
      }
    }
    // Stale generations and interrupted rebuilds are notes; anything
    // worse must be a plain orphan that quarantining clears.
    FsckOptions quarantine;
    quarantine.quarantine = true;
    auto fsck = RunFsck(&env, "r", quarantine);
    ASSERT_TRUE(fsck.ok());
    for (const std::string& defect : fsck->defects) {
      EXPECT_NE(defect.find("orphaned"), std::string::npos)
          << "crash at mutation " << k << ": " << defect;
    }
    auto again = RunFsck(&env, "r");
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->clean())
        << "crash at mutation " << k << ":\n" << again->ToString();
  }
  EXPECT_TRUE(completed) << "maintenance cycle never ran fault-free";
}

TEST(LifecycleCrashTest, CycleIsAtomicUnderEveryCrashPoint) {
  SweepMaintenanceCrashes(/*torn=*/false);
}

TEST(LifecycleCrashTest, CycleIsAtomicUnderTornWrites) {
  SweepMaintenanceCrashes(/*torn=*/true);
}

// ------------------------------------------------------------ fsck + GC

TEST(LifecycleFsckTest, PendingGcGenerationsAreNotesNotDefects) {
  MemEnv env;
  auto repo = Repository::Init(&env, "r");
  ASSERT_TRUE(repo.ok());
  // Dedup off so generation 1 becomes genuinely stale (pending GC) rather
  // than staying referenced through shared chunks.
  ArchiveOptions no_dedup;
  no_dedup.enable_dedup = false;
  CommitTrained(&*repo, "m1", 41);
  ASSERT_TRUE(repo->Archive(no_dedup).ok());
  auto pin = GenerationPinRegistry::Global()->Pin(&env, "r/pas", 1);
  CommitTrained(&*repo, "m2", 42);
  ASSERT_TRUE(repo->Archive(no_dedup).ok());
  ASSERT_TRUE(env.FileExists("r/pas/chunks-1.bin"));

  // A healthy post-compaction repository: pending-GC state is reported,
  // but the verdict is clean (exit 0 for `dlv fsck`).
  auto report = RunFsck(&env, "r");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
  bool noted = false;
  for (const std::string& note : report->notes) {
    if (note.find("pending-GC generation 1") != std::string::npos &&
        note.find("byte(s)") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted) << report->ToString();

  // After the sweep the note disappears and the repo stays clean.
  pin.reset();
  ASSERT_TRUE(RunArchiveGc(&env, "r").ok());
  auto after = RunFsck(&env, "r");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->clean()) << after->ToString();
  for (const std::string& note : after->notes) {
    EXPECT_EQ(note.find("pending-GC"), std::string::npos) << note;
  }
}

}  // namespace
}  // namespace modelhub
