// Differential test harness for cross-model deduplication: the same
// fine-tuned family is archived with dedup on and off under an identical
// delta plan, and the dedup-on archive must be byte-for-byte
// indistinguishable at every read surface — exact retrieval, parallel
// retrieval, and progressive bounds at every plane count — while storing
// strictly fewer bytes. Also covers cross-generation chunk reuse, the
// refusal to borrow a corrupt prior chunk, the (codec, stored bytes) dedup
// key, and concurrent retrieval of shared chunks (run under TSan in CI).

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "pas/archive.h"
#include "pas/chunk_store.h"
#include "pas/content_hash.h"
#include "pas/parallel_archiver.h"

namespace modelhub {
namespace {

struct Family {
  std::vector<std::string> names;
  std::vector<std::vector<NamedParam>> snapshots;
};

/// Base checkpoint plus `variants` fine-tunes that each sparsely mutate
/// one parameter and keep the rest frozen. No lineage is declared —
/// the archive only learns about the sharing through content.
Family MakeFamily(int variants, int num_params, int64_t rows, int64_t cols,
                  uint64_t seed = 11) {
  Family family;
  Rng rng(seed);
  std::vector<FloatMatrix> base(static_cast<size_t>(num_params));
  for (auto& m : base) {
    m = FloatMatrix(rows, cols);
    m.FillGaussian(&rng, 0.1f);
  }
  auto add = [&](const std::string& name,
                 const std::vector<FloatMatrix>& params) {
    family.names.push_back(name);
    std::vector<NamedParam> named;
    for (int p = 0; p < num_params; ++p) {
      named.push_back({"w" + std::to_string(p),
                       params[static_cast<size_t>(p)]});
    }
    family.snapshots.push_back(std::move(named));
  };
  add("fam@base", base);
  for (int v = 0; v < variants; ++v) {
    std::vector<FloatMatrix> tuned = base;
    auto& head = tuned[static_cast<size_t>(v % num_params)].data();
    for (size_t i = static_cast<size_t>(v); i < head.size(); i += 41) {
      head[i] += static_cast<float>(rng.NextGaussian()) * 0.02f;
    }
    add("fam@ft" + std::to_string(v), tuned);
  }
  return family;
}

Result<ArchiveBuildReport> BuildFamily(Env* env, const std::string& dir,
                                       const Family& family,
                                       const ArchiveOptions& options) {
  ArchiveBuilder builder(env, dir);
  for (size_t s = 0; s < family.names.size(); ++s) {
    MH_RETURN_IF_ERROR(
        builder.AddSnapshot(family.names[s], family.snapshots[s]));
  }
  return builder.Build(options);
}

/// Bitwise equality, not ApproxEquals: dedup must never change a single
/// stored bit.
void ExpectBitIdentical(const std::vector<NamedParam>& a,
                        const std::vector<NamedParam>& b,
                        const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].name, b[i].name) << context;
    const auto& da = a[i].value.data();
    const auto& db = b[i].value.data();
    ASSERT_EQ(da.size(), db.size()) << context << " " << a[i].name;
    EXPECT_EQ(
        std::memcmp(da.data(), db.data(), da.size() * sizeof(float)), 0)
        << context << " param " << a[i].name << " differs";
  }
}

void ExpectBitIdenticalMatrix(const FloatMatrix& a, const FloatMatrix& b,
                              const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size() * sizeof(float)),
            0)
      << context;
}

// The headline differential: dedup on vs off with identical similarity
// settings on both sides. Every snapshot of a 9-model family retrieves
// byte-identically, progressive bounds agree plane for plane, and the
// dedup side stores strictly fewer chunk bytes.
TEST(DedupTest, FamilyRetrievesByteIdenticalWithDedupOnAndOff) {
  const Family family = MakeFamily(8, 4, 48, 64);
  MemEnv env;
  ArchiveOptions on;
  on.enable_dedup = true;
  ArchiveOptions off = on;
  off.enable_dedup = false;
  ASSERT_TRUE(on.enable_similarity_pairing == off.enable_similarity_pairing);
  auto report_on = BuildFamily(&env, "on", family, on);
  ASSERT_TRUE(report_on.ok()) << report_on.status().ToString();
  auto report_off = BuildFamily(&env, "off", family, off);
  ASSERT_TRUE(report_off.ok()) << report_off.status().ToString();

  // The logical encode is plan-identical; only physical placement differs.
  EXPECT_EQ(report_on->pipeline.compressed_bytes,
            report_off->pipeline.compressed_bytes);
  EXPECT_GT(report_on->pipeline.dedup_intra_hits, 0u);
  EXPECT_GT(report_on->pipeline.dedup_saved_bytes, 0u);
  EXPECT_EQ(report_off->pipeline.dedup_intra_hits, 0u);
  EXPECT_EQ(report_off->pipeline.dedup_saved_bytes, 0u);

  auto reader_on = ArchiveReader::Open(&env, "on");
  ASSERT_TRUE(reader_on.ok());
  auto reader_off = ArchiveReader::Open(&env, "off");
  ASSERT_TRUE(reader_off.ok());

  // Strictly fewer stored bytes, and the savings match the pipeline's.
  EXPECT_LT(reader_on->TotalStoredBytes(), reader_off->TotalStoredBytes());
  EXPECT_EQ(reader_off->TotalStoredBytes() - reader_on->TotalStoredBytes(),
            report_on->pipeline.dedup_saved_bytes);

  const ArchiveDedupStats stats = reader_on->ComputeDedupStats();
  EXPECT_GT(stats.shared_refs, 0u);
  EXPECT_GT(stats.ratio(), 1.0);

  for (const std::string& name : family.names) {
    auto a = reader_on->RetrieveSnapshot(name);
    auto b = reader_off->RetrieveSnapshot(name);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectBitIdentical(*a, *b, "exact " + name);
    for (int planes = 1; planes <= 4; ++planes) {
      auto ba = reader_on->RetrieveSnapshotBounds(name, planes);
      auto bb = reader_off->RetrieveSnapshotBounds(name, planes);
      ASSERT_TRUE(ba.ok()) << ba.status().ToString();
      ASSERT_TRUE(bb.ok()) << bb.status().ToString();
      ASSERT_EQ(ba->size(), bb->size());
      for (const auto& [param, interval] : *ba) {
        auto it = bb->find(param);
        ASSERT_NE(it, bb->end()) << param;
        const std::string context =
            name + "/" + param + " planes=" + std::to_string(planes);
        ExpectBitIdenticalMatrix(interval.lo(), it->second.lo(),
                                 "lo " + context);
        ExpectBitIdenticalMatrix(interval.hi(), it->second.hi(),
                                 "hi " + context);
      }
    }
  }
}

// With the delta plan held fixed (similarity pairing off on both sides,
// no lineage declared) every variant materializes independently without
// dedup, so the on/off byte ratio is the honest dedup win. The CI
// smoke job gates the same number above 1.5x via bench_archival.
TEST(DedupTest, FixedPlanFamilyDedupRatioExceedsGate) {
  const Family family = MakeFamily(8, 4, 48, 64);
  MemEnv env;
  ArchiveOptions on;
  on.enable_dedup = true;
  on.enable_similarity_pairing = false;
  ArchiveOptions off = on;
  off.enable_dedup = false;
  ASSERT_TRUE(BuildFamily(&env, "on", family, on).ok());
  ASSERT_TRUE(BuildFamily(&env, "off", family, off).ok());
  auto reader_on = ArchiveReader::Open(&env, "on");
  ASSERT_TRUE(reader_on.ok());
  auto reader_off = ArchiveReader::Open(&env, "off");
  ASSERT_TRUE(reader_off.ok());
  const double ratio =
      static_cast<double>(reader_off->TotalStoredBytes()) /
      static_cast<double>(reader_on->TotalStoredBytes());
  EXPECT_GT(ratio, 1.5) << "dedup ratio regressed";
  // The per-archive accounting agrees with the two-archive measurement.
  const ArchiveDedupStats stats = reader_on->ComputeDedupStats();
  EXPECT_EQ(stats.logical_bytes, reader_off->TotalStoredBytes());
  EXPECT_EQ(stats.stored_bytes, reader_on->TotalStoredBytes());
  for (const std::string& name : family.names) {
    auto a = reader_on->RetrieveSnapshot(name);
    auto b = reader_off->RetrieveSnapshot(name);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectBitIdentical(*a, *b, name);
  }
}

// A second Build into the same archive directory reuses chunks from the
// prior generation, found by hashing the chunks the committed manifest
// references, instead of rewriting them; the new manifest references both
// generations' files, and no chunk index file is written.
TEST(DedupTest, SecondGenerationReusesPriorChunks) {
  Family family = MakeFamily(4, 4, 48, 64);
  MemEnv env;
  ArchiveOptions options;  // Dedup on by default.
  ASSERT_TRUE(BuildFamily(&env, "archive", family, options).ok());
  auto gen1 = ArchiveReader::Open(&env, "archive");
  ASSERT_TRUE(gen1.ok());
  const uint64_t gen1_stored = gen1->TotalStoredBytes();

  // One more fine-tune arrives; re-archive the whole family.
  Family grown = MakeFamily(5, 4, 48, 64);
  auto report = BuildFamily(&env, "archive", grown, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->pipeline.dedup_prior_hits, 0u);

  auto gen2 = ArchiveReader::Open(&env, "archive");
  ASSERT_TRUE(gen2.ok());
  EXPECT_GT(gen2->generation(), gen1->generation());
  const ArchiveDedupStats stats = gen2->ComputeDedupStats();
  EXPECT_GT(stats.cross_file_refs, 0u);
  bool references_gen1 = false;
  for (const std::string& name : gen2->data_files()) {
    if (name.find("chunks-1") != std::string::npos) references_gen1 = true;
  }
  EXPECT_TRUE(references_gen1) << "gen 2 should borrow gen 1 chunks";
  // Reuse means gen 2 appended less than a from-scratch family costs.
  EXPECT_LT(gen2->TotalStoredBytes(), gen1_stored + gen1_stored / 2);
  EXPECT_FALSE(env.FileExists(JoinPath("archive", "chunk_index.bin")));

  for (size_t s = 0; s < grown.names.size(); ++s) {
    auto params = gen2->RetrieveSnapshot(grown.names[s]);
    ASSERT_TRUE(params.ok()) << params.status().ToString();
    ExpectBitIdentical(*params, grown.snapshots[s], grown.names[s]);
  }
}

// A prior chunk whose stored bytes fail their CRC is never borrowed: the
// re-archive holds the correct bytes and appends its own copy, so the new
// generation reads back exactly what the builder was given. (Repository::
// Archive would stop earlier, reading s0 back from the damaged archive.)
TEST(DedupTest, CorruptPriorChunkIsNotBorrowed) {
  const Family family = MakeFamily(1, 4, 48, 64);
  MemEnv env;
  ArchiveOptions options;  // Dedup on by default.
  {
    ArchiveBuilder builder(&env, "archive");
    ASSERT_TRUE(builder.AddSnapshot("s0", family.snapshots[0]).ok());
    ASSERT_TRUE(builder.Build(options).ok());
  }
  const std::string chunks = JoinPath("archive", "chunks-1.bin");
  auto bytes = env.ReadFile(chunks);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  (*bytes)[10] ^= 0x01;  // Inside chunk 0's payload.
  ASSERT_TRUE(env.WriteFile(chunks, *bytes).ok());

  ArchiveBuilder builder(&env, "archive");
  ASSERT_TRUE(builder.AddSnapshot("s0", family.snapshots[0]).ok());
  ASSERT_TRUE(builder.AddSnapshot("s1", family.snapshots[1]).ok());
  auto report = builder.Build(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->pipeline.dedup_prior_hits, 0u);  // The intact chunks.
  auto reader = ArchiveReader::Open(&env, "archive");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto s0 = reader->RetrieveSnapshot("s0");
  ASSERT_TRUE(s0.ok()) << s0.status().ToString();
  ExpectBitIdentical(*s0, family.snapshots[0], "s0");
}

// Dedup keys a chunk on its codec and its stored bytes. A gaussian
// matrix's sign/exponent plane shrinks under deflate-lite and its three
// mantissa planes do not, so the pipeline stores plane 0 deflated and
// planes 1-3 raw. A prior chunk offered under the same stored bytes but
// the other codec is not shared; one under the same codec is.
TEST(DedupTest, SameBytesUnderAnotherCodecAreNotShared) {
  Rng rng(31);
  FloatMatrix weights(48, 64);
  weights.FillGaussian(&rng, 0.1f);
  MemEnv env;
  const CodecType codec = CodecType::kDeflateLite;
  ChunkStoreWriter first(&env, "first.bin");
  ParallelArchiver::Job job{&weights, nullptr, DeltaKind::kMaterialized,
                            &first};
  ASSERT_TRUE(ParallelArchiver::Run({job}, codec, 2).ok());
  ASSERT_TRUE(first.Finish().ok());
  auto stored = ChunkStoreReader::Open(&env, "first.bin");
  ASSERT_TRUE(stored.ok());
  ASSERT_EQ(stored->num_chunks(), static_cast<uint32_t>(kNumPlanes));
  std::vector<std::string> bytes;
  for (uint32_t p = 0; p < kNumPlanes; ++p) {
    ASSERT_EQ(stored->ref(p).codec, p == 0 ? codec : CodecType::kNull) << p;
    auto payload = stored->GetCompressed(p);
    ASSERT_TRUE(payload.ok());
    bytes.push_back(*payload);
  }

  ParallelArchiver::DedupContext dedup;
  dedup.prior_files = {"first.bin"};
  // Planes 0 and 1: their exact stored bytes, under the other codec.
  dedup.prior.emplace(StoredChunkKey(CodecType::kNull, Slice(bytes[0])),
                      ParallelArchiver::DedupContext::PriorChunk{0, 0});
  dedup.prior.emplace(StoredChunkKey(codec, Slice(bytes[1])),
                      ParallelArchiver::DedupContext::PriorChunk{0, 1});
  // Plane 2: the same codec and bytes, so it is shared.
  dedup.prior.emplace(StoredChunkKey(CodecType::kNull, Slice(bytes[2])),
                      ParallelArchiver::DedupContext::PriorChunk{0, 2});
  ChunkStoreWriter second(&env, "second.bin");
  job.destination = &second;
  ArchivePipelineStats stats;
  auto placements =
      ParallelArchiver::Run({job}, codec, 2, &stats, 0, &dedup);
  ASSERT_TRUE(placements.ok()) << placements.status().ToString();
  ASSERT_EQ(placements->size(), 1u);
  const ParallelArchiver::Placement& placed = (*placements)[0];
  EXPECT_EQ(placed.prior_file[0], -1);
  EXPECT_EQ(placed.prior_file[1], -1);
  EXPECT_EQ(placed.prior_file[2], 0);
  EXPECT_EQ(placed.chunk_ids[2], 2u);
  EXPECT_EQ(placed.prior_file[3], -1);
  EXPECT_EQ(stats.dedup_prior_hits, 1u);
  EXPECT_EQ(second.num_chunks(), 3u);
}

// Shared chunks under concurrent parallel retrieval: several threads
// pull overlapping snapshot sets through one reader (shared chunk cache,
// shared stores) while another reader works the same directory. Run
// under TSan in CI; assertions are on values, the interleaving is the
// point.
TEST(DedupTest, ConcurrentRetrievalOfSharedChunks) {
  const Family family = MakeFamily(8, 3, 32, 48);
  MemEnv env;
  ArchiveOptions options;
  ASSERT_TRUE(BuildFamily(&env, "archive", family, options).ok());
  auto reader = ArchiveReader::Open(&env, "archive");
  ASSERT_TRUE(reader.ok());
  ThreadPool pool(4);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        const std::string name =
            family.names[static_cast<size_t>((t + round) %
                                             family.names.size())];
        auto sets = reader->RetrieveSnapshotsParallel(
            {name, family.names[0]}, &pool, ParallelScheme::kShared);
        if (!sets.ok() || sets->size() != 2) {
          ++failures;
          continue;
        }
        const auto& expect =
            family.snapshots[static_cast<size_t>((t + round) %
                                                 family.names.size())];
        if ((*sets)[0].size() != expect.size()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Full differential sweep after the race.
  for (size_t s = 0; s < family.names.size(); ++s) {
    auto params = reader->RetrieveSnapshot(family.names[s]);
    ASSERT_TRUE(params.ok());
    ExpectBitIdentical(*params, family.snapshots[s], family.names[s]);
  }
}

}  // namespace
}  // namespace modelhub
