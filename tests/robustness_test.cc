// Failure-injection and robustness tests: corrupted artifacts, missing
// files, partially written state, and garbage inputs must produce clean
// Status errors — never crashes, hangs, or silent wrong answers.

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/fault_env.h"
#include "common/random.h"
#include "data/dataset.h"
#include "dlv/fsck.h"
#include "dlv/repository.h"
#include "dql/parser.h"
#include "nn/network_def.h"
#include "nn/trainer.h"
#include "nn/zoo.h"
#include "pas/archive.h"

namespace modelhub {
namespace {

/// Builds a CommitRequest with trained snapshots, hyperparameters and
/// associated files — every artifact class the commit protocol publishes.
void BuildTrainedRequest(const std::string& name, uint64_t seed,
                         CommitRequest* out) {
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
  out->name = name;
  out->network = def;
  out->snapshots = trained->snapshots;
  out->hyperparams = {{"seed", std::to_string(seed)}};
  out->files = {{"train.cfg", "lr=0.1\nseed=" + std::to_string(seed) + "\n"}};
}

void CommitTrained(Repository* repo, const std::string& name, uint64_t seed) {
  CommitRequest request;
  BuildTrainedRequest(name, seed, &request);
  ASSERT_TRUE(repo->Commit(request).ok());
}

// --------------------------------------------------------- repo artifacts

TEST(RobustnessTest, MissingStagingFileIsCleanError) {
  MemEnv env;
  auto repo = Repository::Init(&env, "r");
  ASSERT_TRUE(repo.ok());
  CommitTrained(&*repo, "m", 1);
  // Delete one staged snapshot file behind the repository's back.
  ASSERT_TRUE(env.DeleteFile("r/staging/m.s0.params").ok());
  auto params = repo->GetSnapshotParams("m", 0);
  EXPECT_TRUE(params.status().IsNotFound());
  // The other snapshot is still readable.
  EXPECT_TRUE(repo->GetSnapshotParams("m", 1).ok());
}

TEST(RobustnessTest, CorruptStagingFileIsCleanError) {
  MemEnv env;
  auto repo = Repository::Init(&env, "r");
  ASSERT_TRUE(repo.ok());
  CommitTrained(&*repo, "m", 2);
  ASSERT_TRUE(env.WriteFile("r/staging/m.s0.params", "garbage!").ok());
  auto params = repo->GetSnapshotParams("m", 0);
  EXPECT_FALSE(params.ok());
}

TEST(RobustnessTest, CorruptCatalogIsCleanError) {
  MemEnv env;
  auto repo = Repository::Init(&env, "r");
  ASSERT_TRUE(repo.ok());
  CommitTrained(&*repo, "m", 3);
  auto contents = env.ReadFile("r/catalog.bin");
  ASSERT_TRUE(contents.ok());
  std::string corrupted = *contents;
  corrupted[corrupted.size() / 2] ^= 0x5A;
  ASSERT_TRUE(env.WriteFile("r/catalog.bin", corrupted).ok());
  // Reopening either fails cleanly or (if the flip landed in a string
  // payload) opens; both are acceptable, crashes are not.
  auto reopened = Repository::Open(&env, "r");
  if (reopened.ok()) {
    (void)reopened->List();
  }
  SUCCEED();
}

TEST(RobustnessTest, TruncatedCatalogPrefixesAreCleanErrors) {
  MemEnv env;
  auto repo = Repository::Init(&env, "r");
  ASSERT_TRUE(repo.ok());
  CommitTrained(&*repo, "m", 4);
  auto contents = env.ReadFile("r/catalog.bin");
  ASSERT_TRUE(contents.ok());
  for (size_t len : {size_t{0}, size_t{3}, contents->size() / 4,
                     contents->size() / 2, contents->size() - 1}) {
    ASSERT_TRUE(env.WriteFile("r/catalog.bin", contents->substr(0, len)).ok());
    auto reopened = Repository::Open(&env, "r");
    EXPECT_FALSE(reopened.ok()) << "prefix length " << len;
  }
}

TEST(RobustnessTest, ArchiveManifestCorruptionDetected) {
  MemEnv env;
  auto repo = Repository::Init(&env, "r");
  ASSERT_TRUE(repo.ok());
  CommitTrained(&*repo, "m", 5);
  ArchiveOptions options;
  ASSERT_TRUE(repo->Archive(options).ok());
  auto manifest = env.ReadFile("r/pas/manifest.bin");
  ASSERT_TRUE(manifest.ok());
  // Truncations of the manifest must be rejected at open or read time.
  for (size_t len : {size_t{0}, size_t{4}, manifest->size() / 2}) {
    ASSERT_TRUE(
        env.WriteFile("r/pas/manifest.bin", manifest->substr(0, len)).ok());
    auto reader = ArchiveReader::Open(&env, "r/pas");
    EXPECT_FALSE(reader.ok()) << "manifest prefix " << len;
  }
  // Restore and corrupt the chunk file payload instead.
  ASSERT_TRUE(env.WriteFile("r/pas/manifest.bin", *manifest).ok());
  auto chunks = env.ReadFile("r/pas/chunks-1.bin");
  ASSERT_TRUE(chunks.ok());
  std::string corrupted = *chunks;
  corrupted[64] ^= 0xFF;  // Inside some chunk payload.
  ASSERT_TRUE(env.WriteFile("r/pas/chunks-1.bin", corrupted).ok());
  auto reader = ArchiveReader::Open(&env, "r/pas");
  ASSERT_TRUE(reader.ok());  // Index intact.
  // Some retrieval must fail with Corruption; none may return wrong data
  // silently for the damaged chunk (CRC covers every chunk).
  bool saw_corruption = false;
  for (const auto& snapshot : reader->snapshot_names()) {
    auto params = reader->RetrieveSnapshot(snapshot);
    if (!params.ok()) {
      EXPECT_TRUE(params.status().IsCorruption());
      saw_corruption = true;
    }
  }
  EXPECT_TRUE(saw_corruption);
}

TEST(RobustnessTest, ReArchiveAfterNewCommits) {
  // Archive, commit more, archive again: everything stays readable.
  MemEnv env;
  auto repo = Repository::Init(&env, "r");
  ASSERT_TRUE(repo.ok());
  CommitTrained(&*repo, "m1", 6);
  ASSERT_TRUE(repo->Archive(ArchiveOptions()).ok());
  auto before = repo->GetSnapshotParams("m1", 0);
  ASSERT_TRUE(before.ok());
  CommitTrained(&*repo, "m2", 7);
  ASSERT_TRUE(repo->Archive(ArchiveOptions()).ok());
  auto after = repo->GetSnapshotParams("m1", 0);
  ASSERT_TRUE(after.ok());
  for (size_t i = 0; i < after->size(); ++i) {
    EXPECT_TRUE((*after)[i].value.ApproxEquals((*before)[i].value, 1e-5f));
  }
  EXPECT_TRUE(repo->GetSnapshotParams("m2", 1).ok());
}

// ------------------------------------------------- crash-safety sweeps

/// Asserts version `name` is fully readable and its snapshots match the
/// request that committed it (the "fully-new" half of the atomicity check).
void ExpectFullyCommitted(const Repository& repo, const CommitRequest& want) {
  for (size_t s = 0; s < want.snapshots.size(); ++s) {
    auto params = repo.GetSnapshotParams(want.name, static_cast<int64_t>(s));
    ASSERT_TRUE(params.ok()) << want.name << " snapshot " << s << ": "
                             << params.status().ToString();
    ASSERT_EQ(params->size(), want.snapshots[s].params.size());
    for (size_t p = 0; p < params->size(); ++p) {
      EXPECT_TRUE((*params)[p].value.ApproxEquals(
          want.snapshots[s].params[p].value, 1e-7f));
    }
  }
  for (const auto& [file_name, contents] : want.files) {
    auto stored = repo.GetFile(want.name, file_name);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(*stored, contents);
  }
}

/// Fails the k-th mutating filesystem operation during Commit for every k
/// until the commit runs fault-free, reopening and checking fully-old or
/// fully-new state after every crash. `torn` additionally tears the
/// faulted write, leaving a partial `*.tmp` dropping recovery must sweep.
void SweepCommitCrashes(bool torn) {
  MemEnv base;
  auto seeded = Repository::Init(&base, "r");
  ASSERT_TRUE(seeded.ok());
  CommitRequest m1_request;
  BuildTrainedRequest("m1", 11, &m1_request);
  ASSERT_TRUE(seeded->Commit(m1_request).ok());
  CommitRequest request;
  BuildTrainedRequest("m2", 12, &request);
  bool completed = false;
  for (int k = 1; k < 200 && !completed; ++k) {
    MemEnv env = base;  // Fresh pre-commit state for every crash point.
    FaultInjectionEnv fault(&env);
    auto repo = Repository::Open(&fault, "r");
    ASSERT_TRUE(repo.ok());
    if (torn) {
      fault.TornWriteNthMutation(k);
    } else {
      fault.FailNthMutation(k);
    }
    auto id = repo->Commit(request);
    completed = id.ok() && !fault.crashed();
    // Reopen against the raw env — the post-crash recovery path.
    auto reopened = Repository::Open(&env, "r");
    ASSERT_TRUE(reopened.ok()) << "crash at mutation " << k << ": "
                               << reopened.status().ToString();
    ExpectFullyCommitted(*reopened, m1_request);
    auto info = reopened->GetInfo("m2");
    if (id.ok() || info.ok()) {
      // Past the commit point (even if the journal delete crashed): the
      // new version must be fully there.
      ASSERT_TRUE(info.ok()) << "crash at mutation " << k;
      ExpectFullyCommitted(*reopened, request);
    } else {
      EXPECT_TRUE(info.status().IsNotFound()) << "crash at mutation " << k;
    }
    // Either way the recovered tree must be internally consistent.
    auto fsck = RunFsck(&env, "r");
    ASSERT_TRUE(fsck.ok());
    EXPECT_TRUE(fsck->clean())
        << "crash at mutation " << k << ":\n" << fsck->ToString();
  }
  EXPECT_TRUE(completed) << "commit never ran fault-free";
}

TEST(CrashSafetyTest, CommitIsAtomicUnderEveryCrashPoint) {
  SweepCommitCrashes(/*torn=*/false);
}

TEST(CrashSafetyTest, CommitIsAtomicUnderTornWrites) {
  SweepCommitCrashes(/*torn=*/true);
}

/// Crash sweep over a re-archive: kill (or tear) the k-th Env mutation for
/// every k until the build survives fault-free, and verify atomicity after
/// each crash. `archive_threads` exercises the parallel write pipeline —
/// its encode workers never touch the Env, so every mutation still happens
/// on the committer thread in serial order and the sweep must behave
/// exactly like a one-worker build's.
void SweepArchiveCrashes(int archive_threads, bool torn) {
  // Baseline: one archived generation plus freshly staged snapshots, so a
  // crashed re-archive must preserve a previous archive AND staging files.
  MemEnv base;
  auto seeded = Repository::Init(&base, "r");
  ASSERT_TRUE(seeded.ok());
  CommitTrained(&*seeded, "m1", 21);
  ASSERT_TRUE(seeded->Archive(ArchiveOptions()).ok());
  CommitTrained(&*seeded, "m2", 22);
  auto m1_want = seeded->GetSnapshotParams("m1", 0);
  auto m2_want = seeded->GetSnapshotParams("m2", 0);
  ASSERT_TRUE(m1_want.ok());
  ASSERT_TRUE(m2_want.ok());
  ArchiveOptions options;
  options.archive_threads = archive_threads;
  bool completed = false;
  for (int k = 1; k < 200 && !completed; ++k) {
    MemEnv env = base;
    FaultInjectionEnv fault(&env);
    auto repo = Repository::Open(&fault, "r");
    ASSERT_TRUE(repo.ok());
    if (torn) {
      fault.TornWriteNthMutation(k);
    } else {
      fault.FailNthMutation(k);
    }
    completed = repo->Archive(options).ok() && !fault.crashed();
    auto reopened = Repository::Open(&env, "r");
    ASSERT_TRUE(reopened.ok()) << "crash at mutation " << k;
    // Every snapshot stays readable with unchanged values, whichever side
    // of the commit point the crash landed on.
    const std::vector<std::pair<std::string, const std::vector<NamedParam>*>>
        expected = {{"m1", &*m1_want}, {"m2", &*m2_want}};
    for (const auto& [name, want] : expected) {
      auto got = reopened->GetSnapshotParams(name, 0);
      ASSERT_TRUE(got.ok()) << name << " after crash at mutation " << k
                            << ": " << got.status().ToString();
      ASSERT_EQ(got->size(), want->size());
      for (size_t p = 0; p < got->size(); ++p) {
        EXPECT_TRUE((*got)[p].value.ApproxEquals((*want)[p].value, 1e-5f));
      }
    }
    // A crash between the commit point and cleanup may leave orphans
    // (stale generations, staging leftovers); fsck must flag nothing
    // worse, and quarantining them must leave the repository clean.
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
  EXPECT_TRUE(completed) << "archive never ran fault-free";
}

TEST(CrashSafetyTest, ArchiveIsAtomicUnderEveryCrashPoint) {
  SweepArchiveCrashes(/*archive_threads=*/1, /*torn=*/false);
}

TEST(CrashSafetyTest, ParallelArchiveIsAtomicUnderEveryCrashPoint) {
  SweepArchiveCrashes(/*archive_threads=*/8, /*torn=*/false);
}

TEST(CrashSafetyTest, ParallelArchiveIsAtomicUnderTornWrites) {
  SweepArchiveCrashes(/*archive_threads=*/8, /*torn=*/true);
}

// ----------------------------------------------------------------- fsck

TEST(FsckTest, CleanRepositoryPassesAndEveryCorruptionIsDetected) {
  MemEnv env;
  auto repo = Repository::Init(&env, "r");
  ASSERT_TRUE(repo.ok());
  CommitTrained(&*repo, "m1", 31);
  ASSERT_TRUE(repo->Archive(ArchiveOptions()).ok());
  CommitTrained(&*repo, "m2", 32);
  auto clean = RunFsck(&env, "r");
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->clean()) << clean->ToString();

  auto expect_defect = [&](const std::string& label) {
    auto report = RunFsck(&env, "r");
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report->clean()) << label << " was not detected";
  };
  auto original = [&](const std::string& path) {
    auto bytes = env.ReadFile(path);
    EXPECT_TRUE(bytes.ok());
    return bytes.ok() ? *bytes : std::string();
  };

  // Bit flip inside the archive's chunk payloads.
  const std::string chunks = "r/pas/chunks-1.bin";
  const std::string chunk_bytes = original(chunks);
  std::string flipped = chunk_bytes;
  flipped[64] ^= 0x01;
  ASSERT_TRUE(env.WriteFile(chunks, flipped).ok());
  expect_defect("chunk bit flip");
  ASSERT_TRUE(env.WriteFile(chunks, chunk_bytes).ok());

  // Truncated staging file.
  const std::string staging = "r/staging/m2.s0.params";
  const std::string staging_bytes = original(staging);
  ASSERT_TRUE(
      env.WriteFile(staging, staging_bytes.substr(0, staging_bytes.size() / 2))
          .ok());
  expect_defect("staging truncation");
  ASSERT_TRUE(env.WriteFile(staging, staging_bytes).ok());

  // Deleted chunk file.
  ASSERT_TRUE(env.DeleteFile(chunks).ok());
  expect_defect("deleted chunk file");
  ASSERT_TRUE(env.WriteFile(chunks, chunk_bytes).ok());

  // Corrupt content-addressed object (name no longer matches content).
  auto objects = env.ListDir("r/objects");
  ASSERT_TRUE(objects.ok());
  ASSERT_FALSE(objects->empty());
  const std::string object = JoinPath("r/objects", (*objects)[0]);
  const std::string object_bytes = original(object);
  ASSERT_TRUE(env.WriteFile(object, object_bytes + "x").ok());
  expect_defect("object corruption");
  ASSERT_TRUE(env.WriteFile(object, object_bytes).ok());

  // Truncated archive manifest.
  const std::string manifest = "r/pas/manifest.bin";
  const std::string manifest_bytes = original(manifest);
  ASSERT_TRUE(
      env.WriteFile(manifest, manifest_bytes.substr(0, 10)).ok());
  expect_defect("manifest truncation");
  ASSERT_TRUE(env.WriteFile(manifest, manifest_bytes).ok());

  // Back to clean after every restore.
  auto restored = RunFsck(&env, "r");
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->clean()) << restored->ToString();
}

TEST(FsckTest, QuarantinesOrphansOnRequest) {
  MemEnv env;
  auto repo = Repository::Init(&env, "r");
  ASSERT_TRUE(repo.ok());
  CommitTrained(&*repo, "m", 41);
  ASSERT_TRUE(env.WriteFile("r/staging/stray.params", "junk").ok());
  ASSERT_TRUE(env.WriteFile("r/objects/deadbeef-4", "junk").ok());
  auto report = RunFsck(&env, "r");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->defects.size(), 2u) << report->ToString();
  FsckOptions options;
  options.quarantine = true;
  auto repaired = RunFsck(&env, "r", options);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->repairs.size(), 2u) << repaired->ToString();
  EXPECT_FALSE(env.FileExists("r/staging/stray.params"));
  EXPECT_TRUE(env.FileExists("r/quarantine/stray.params"));
  auto clean = RunFsck(&env, "r");
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->clean()) << clean->ToString();
  // The repository itself was untouched.
  auto reopened = Repository::Open(&env, "r");
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->GetSnapshotParams("m", 1).ok());
}

// Builds that kept a chunk index left `pas/chunk_index.bin` next to the
// manifest. Nothing reads it any more: whatever its bytes, fsck must not
// call it an orphan, and the next archive deletes it.
TEST(FsckTest, LegacyChunkIndexFileIsHarmless) {
  MemEnv env;
  auto repo = Repository::Init(&env, "r");
  ASSERT_TRUE(repo.ok());
  CommitTrained(&*repo, "m1", 51);
  ASSERT_TRUE(repo->Archive(ArchiveOptions()).ok());
  const std::string index_path = "r/pas/chunk_index.bin";
  ASSERT_TRUE(env.WriteFile(index_path, "MHCI1\n\x07junk").ok());
  auto report = RunFsck(&env, "r");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();

  CommitTrained(&*repo, "m2", 52);
  ASSERT_TRUE(repo->Archive(ArchiveOptions()).ok());
  EXPECT_FALSE(env.FileExists(index_path));
  auto again = RunFsck(&env, "r");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->clean()) << again->ToString();
  auto reopened = Repository::Open(&env, "r");
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->GetSnapshotParams("m1", 0).ok());
  EXPECT_TRUE(reopened->GetSnapshotParams("m2", 0).ok());
}

// ------------------------------------------------------------ parse fuzz

TEST(RobustnessTest, NetworkDefParserSurvivesMutations) {
  const std::string good = MiniVgg(4, 12, 1).Serialize();
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = good;
    // Flip, delete or insert a few random bytes.
    const int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      const size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = static_cast<char>(32 + rng.Uniform(95));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(32 + rng.Uniform(95)));
      }
    }
    // Either parses (to something valid or not) or errors; never crashes.
    auto parsed = NetworkDef::Parse(mutated);
    if (parsed.ok()) {
      (void)parsed->Validate();
    }
  }
  SUCCEED();
}

TEST(RobustnessTest, DqlParserSurvivesMutations) {
  const std::string good =
      "evaluate m from \"x%\" with config = default "
      "vary config.base_lr in [0.1, 0.01] keep top(2, m[\"loss\"], 50)";
  Rng rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = good;
    const int edits = 1 + static_cast<int>(rng.Uniform(5));
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      const size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = static_cast<char>(32 + rng.Uniform(95));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(32 + rng.Uniform(95)));
      }
    }
    (void)dql::Parse(mutated);
  }
  SUCCEED();
}

TEST(RobustnessTest, ParamsParserSurvivesMutations) {
  Rng rng(103);
  FloatMatrix m(6, 6);
  m.FillGaussian(&rng, 1.0f);
  const std::string good = SerializeParams({{"w", m}});
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = good;
    const size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(rng.Uniform(256));
    auto parsed = ParseParams(Slice(mutated));
    (void)parsed;  // Error or value; never a crash.
  }
  SUCCEED();
}

}  // namespace
}  // namespace modelhub
