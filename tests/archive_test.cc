#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>

#include "common/checked_io.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/env.h"
#include "common/fault_env.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/random.h"
#include "data/dataset.h"
#include "nn/network.h"
#include "nn/trainer.h"
#include "nn/zoo.h"
#include "pas/archive.h"
#include "pas/chunk_store.h"
#include "pas/progressive.h"

namespace modelhub {
namespace {

// ------------------------------------------------------------ ChunkStore

TEST(ChunkStoreTest, WriteReadRoundTrip) {
  MemEnv env;
  ChunkStoreWriter writer(&env, "store.bin");
  Rng rng(1);
  std::vector<std::string> payloads;
  for (int i = 0; i < 10; ++i) {
    std::string data(100 + rng.Uniform(1000), '\0');
    for (auto& c : data) c = static_cast<char>(rng.Uniform(8));  // Low entropy.
    payloads.push_back(data);
    auto id = writer.Put(Slice(data), i % 2 == 0 ? CodecType::kDeflateLite
                                                 : CodecType::kNull);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, static_cast<uint32_t>(i));
  }
  ASSERT_TRUE(writer.Finish().ok());

  auto reader = ChunkStoreReader::Open(&env, "store.bin");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_chunks(), 10u);
  for (int i = 0; i < 10; ++i) {
    auto data = reader->Get(static_cast<uint32_t>(i));
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(*data, payloads[static_cast<size_t>(i)]);
  }
  EXPECT_GT(reader->bytes_read(), 0u);
  EXPECT_TRUE(reader->Get(10).status().IsInvalidArgument());
}

TEST(ChunkStoreTest, PutAfterFinishRejected) {
  MemEnv env;
  ChunkStoreWriter writer(&env, "s.bin");
  ASSERT_TRUE(writer.Put(Slice("abc", 3), CodecType::kNull).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.Put(Slice("d", 1), CodecType::kNull).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ChunkStoreTest, CorruptionDetected) {
  MemEnv env;
  ChunkStoreWriter writer(&env, "s.bin");
  std::string data(4096, 'x');
  ASSERT_TRUE(writer.Put(Slice(data), CodecType::kDeflateLite).ok());
  ASSERT_TRUE(writer.Finish().ok());
  // Flip a payload byte.
  auto contents = env.ReadFile("s.bin");
  ASSERT_TRUE(contents.ok());
  std::string corrupted = *contents;
  corrupted[10] ^= 0x40;
  ASSERT_TRUE(env.WriteFile("s.bin", corrupted).ok());
  auto reader = ChunkStoreReader::Open(&env, "s.bin");
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->Get(0).status().IsCorruption());
}

TEST(ChunkStoreTest, TruncatedFileDetected) {
  MemEnv env;
  ChunkStoreWriter writer(&env, "s.bin");
  ASSERT_TRUE(writer.Put(Slice("abcabcabc", 9), CodecType::kNull).ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto contents = env.ReadFile("s.bin");
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(env.WriteFile("s.bin", contents->substr(0, 8)).ok());
  EXPECT_FALSE(ChunkStoreReader::Open(&env, "s.bin").ok());
}

TEST(ChunkStoreTest, CacheAvoidsRefetch) {
  MemEnv env;
  ChunkStoreWriter writer(&env, "s.bin");
  std::string data(1 << 14, 'z');
  ASSERT_TRUE(writer.Put(Slice(data), CodecType::kRle).ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = ChunkStoreReader::Open(&env, "s.bin");
  ASSERT_TRUE(reader.ok());
  reader->EnableCache(true);
  ASSERT_TRUE(reader->Get(0).ok());
  const uint64_t first = reader->bytes_read();
  ASSERT_TRUE(reader->Get(0).ok());
  EXPECT_EQ(reader->bytes_read(), first);  // Cache hit: no new bytes.
}

TEST(ChunkStoreTest, LruEvictionKeepsCacheUnderBoundAndCountsBytes) {
  MemEnv env;
  ChunkStoreWriter writer(&env, "s.bin");
  Rng rng(3);
  std::vector<std::string> payloads;
  for (int i = 0; i < 16; ++i) {
    std::string data(1024, '\0');
    for (auto& c : data) c = static_cast<char>(rng.Uniform(256));
    payloads.push_back(data);
    ASSERT_TRUE(writer.Put(Slice(data), CodecType::kNull).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = ChunkStoreReader::Open(&env, "s.bin");
  ASSERT_TRUE(reader.ok());
  reader->EnableCache(true);
  // Room for exactly eight chunks; each chunk sits exactly at the
  // per-entry admission cap (bound / kCacheAdmitFraction = 1024).
  const uint64_t bound = 8 * 1024;
  reader->SetCacheCapacity(bound);
  uint64_t total_stored = 0;
  for (uint32_t i = 0; i < 16; ++i) total_stored += reader->ref(i).stored_size;
  // First pass: every Get misses; the cache never exceeds its bound.
  for (uint32_t i = 0; i < 16; ++i) {
    auto data = reader->Get(i);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(*data, payloads[i]);
    EXPECT_LE(reader->stats().cache_bytes, bound);
  }
  ChunkStoreStats stats = reader->stats();
  EXPECT_EQ(stats.bytes_read, total_stored);
  EXPECT_EQ(stats.chunk_fetches, 16u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_evictions, 8u);  // 16 inserted, 8 resident.
  // The most recently used eight (8..15) are resident; rereads are free.
  for (uint32_t i = 8; i < 16; ++i) ASSERT_TRUE(reader->Get(i).ok());
  EXPECT_EQ(reader->stats().bytes_read, total_stored);
  EXPECT_EQ(reader->stats().cache_hits, 8u);
  // An evicted chunk refetches from disk: bytes_read stays truthful
  // across evictions rather than freezing at the first-pass total.
  auto evicted = reader->Get(0);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(*evicted, payloads[0]);
  stats = reader->stats();
  EXPECT_EQ(stats.bytes_read, total_stored + reader->ref(0).stored_size);
  EXPECT_EQ(stats.chunk_fetches, 17u);
  EXPECT_LE(stats.cache_bytes, bound);
}

TEST(ChunkStoreTest, OversizedChunkDoesNotEvictResidentWorkingSet) {
  // Regression: admission used to accept any chunk up to the full cache
  // bound, so one large single-use payload flushed the entire resident
  // working set. A chunk above bound / kCacheAdmitFraction must bypass
  // the cache without disturbing what is already resident.
  MemEnv env;
  ChunkStoreWriter writer(&env, "s.bin");
  std::string small(512, 's');
  std::string big(2048, 'b');  // > 8192 / 8, < 8192.
  ASSERT_TRUE(writer.Put(Slice(small), CodecType::kNull).ok());
  ASSERT_TRUE(writer.Put(Slice(big), CodecType::kNull).ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = ChunkStoreReader::Open(&env, "s.bin");
  ASSERT_TRUE(reader.ok());
  reader->EnableCache(true);
  reader->SetCacheCapacity(8192);
  ASSERT_TRUE(reader->Get(0).ok());  // Small chunk becomes resident.
  ASSERT_TRUE(reader->Get(1).ok());  // Big chunk: bypasses, evicts nothing.
  ASSERT_TRUE(reader->Get(1).ok());  // Still not cached: refetches.
  ASSERT_TRUE(reader->Get(0).ok());  // Small chunk is still resident.
  const ChunkStoreStats stats = reader->stats();
  EXPECT_EQ(stats.chunk_fetches, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_evictions, 0u);
  EXPECT_EQ(stats.cache_bytes, small.size());
}

TEST(ChunkStoreTest, ChunkLargerThanCapacityBypassesCache) {
  MemEnv env;
  ChunkStoreWriter writer(&env, "s.bin");
  std::string big(1 << 12, 'a');
  ASSERT_TRUE(writer.Put(Slice(big), CodecType::kNull).ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = ChunkStoreReader::Open(&env, "s.bin");
  ASSERT_TRUE(reader.ok());
  reader->EnableCache(true);
  reader->SetCacheCapacity(1024);  // Smaller than the one chunk.
  ASSERT_TRUE(reader->Get(0).ok());
  ASSERT_TRUE(reader->Get(0).ok());
  const ChunkStoreStats stats = reader->stats();
  EXPECT_EQ(stats.chunk_fetches, 2u);  // Never cached, so fetched twice.
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_bytes, 0u);
}

TEST(ChunkStoreTest, ConcurrentGetsWithCacheEnabled) {
  MemEnv env;
  ChunkStoreWriter writer(&env, "s.bin");
  Rng rng(9);
  std::vector<std::string> payloads;
  for (int i = 0; i < 16; ++i) {
    std::string data(1024 + rng.Uniform(1024), '\0');
    for (auto& c : data) c = static_cast<char>(rng.Uniform(7));
    payloads.push_back(data);
    ASSERT_TRUE(writer.Put(Slice(data), CodecType::kDeflateLite).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = ChunkStoreReader::Open(&env, "s.bin");
  ASSERT_TRUE(reader.ok());
  reader->EnableCache(true);
  // Tight enough to force concurrent evictions, but with an admission cap
  // (capacity / 8 = 2048) that still accepts every chunk (raw <= 2047).
  reader->SetCacheCapacity(16384);
  ThreadPool pool(4);
  WaitGroup group;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    pool.Schedule(&group, [&, t] {
      for (int i = 0; i < 16; ++i) {
        const uint32_t id = static_cast<uint32_t>((i * 7 + t * 3) % 16);
        auto data = reader->Get(id);
        if (!data.ok() || *data != payloads[id]) mismatches.fetch_add(1);
      }
    });
  }
  group.Wait();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(reader->stats().cache_bytes, 16384u);
}

TEST(ChunkStoreTest, MmapReadPathRoundTripsOnDisk) {
  // On a real filesystem the reader maps the chunk file and serves Get /
  // Verify zero-copy out of the mapping. Results must be identical to the
  // MemEnv read() path used everywhere else in this suite.
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "/mh_chunk_mmap";
  ASSERT_TRUE(env->CreateDirs(dir).ok());
  const std::string path = dir + "/s.bin";
  ChunkStoreWriter writer(env, path);
  Rng rng(11);
  std::vector<std::string> payloads;
  const CodecType codecs[] = {CodecType::kNull, CodecType::kRle,
                              CodecType::kDeflateLite};
  for (int i = 0; i < 6; ++i) {
    std::string data(512 + rng.Uniform(4096), '\0');
    for (auto& c : data) c = static_cast<char>(rng.Uniform(17));
    payloads.push_back(data);
    ASSERT_TRUE(writer.Put(Slice(data), codecs[i % 3]).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = ChunkStoreReader::Open(env, path);
  ASSERT_TRUE(reader.ok());
  for (uint32_t i = 0; i < 6; ++i) {
    auto data = reader->Get(i);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(*data, payloads[i]);
    EXPECT_TRUE(reader->Verify(i).ok());
  }
  // Fetch accounting is identical to the read() path.
  const ChunkStoreStats stats = reader->stats();
  EXPECT_EQ(stats.chunk_fetches, 6u);
  uint64_t total_stored = 0;
  for (uint32_t i = 0; i < 6; ++i) total_stored += reader->ref(i).stored_size;
  EXPECT_EQ(stats.bytes_read, total_stored);
}

TEST(ChunkStoreTest, MmapPathStillDetectsCorruption) {
  // A corrupted payload must fail through BOTH paths: the mapped CRC
  // check falls back to ranged reads, whose retry then reports
  // Corruption (the mapping and the file agree on the bad bytes).
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "/mh_chunk_mmap_bad";
  ASSERT_TRUE(env->CreateDirs(dir).ok());
  const std::string path = dir + "/s.bin";
  ChunkStoreWriter writer(env, path);
  std::string data(4096, 'q');
  ASSERT_TRUE(writer.Put(Slice(data), CodecType::kRle).ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto contents = env->ReadFile(path);
  ASSERT_TRUE(contents.ok());
  std::string corrupted = *contents;
  corrupted[10] ^= 0x40;  // Payload byte.
  ASSERT_TRUE(env->WriteFile(path, corrupted).ok());
  auto reader = ChunkStoreReader::Open(env, path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->Get(0).status().IsCorruption());
  EXPECT_TRUE(reader->GetCompressed(0).status().IsCorruption());
  EXPECT_TRUE(reader->Verify(0).IsCorruption());
}

/// A MemEnv whose next ranged read fails once with an IOError.
class FlakyReadEnv : public MemEnv {
 public:
  void FailNextRead() { fail_next_read_ = true; }

  Result<std::string> ReadFileRange(const std::string& path, uint64_t offset,
                                    uint64_t length) override {
    if (fail_next_read_) {
      fail_next_read_ = false;
      return Status::IOError("injected transient read fault: " + path);
    }
    return MemEnv::ReadFileRange(path, offset, length);
  }

 private:
  bool fail_next_read_ = false;
};

TEST(ChunkStoreTest, VerifyRetriesOneTransientReadFault) {
  // Every verified chunk read retries a single failed ranged read: fsck's
  // Verify must not report a defect that Get and GetCompressed ride out.
  FlakyReadEnv env;
  ChunkStoreWriter writer(&env, "store.bin");
  const std::string data(4096, 'q');
  ASSERT_TRUE(writer.Put(Slice(data), CodecType::kRle).ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = ChunkStoreReader::Open(&env, "store.bin");
  ASSERT_TRUE(reader.ok());
  env.FailNextRead();
  auto raw = reader->Get(0);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(*raw, data);
  env.FailNextRead();
  EXPECT_TRUE(reader->GetCompressed(0).ok());
  env.FailNextRead();
  const Status verified = reader->Verify(0);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
}

TEST(ChunkStoreTest, PlaneThatDoesNotShrinkIsStoredRaw) {
  // A payload the codec cannot shrink below the null frame
  // (varint(n) + n) is stored in that frame under kNull; one it can
  // shrink keeps the codec. Both read back unchanged.
  MemEnv env;
  ChunkStoreWriter writer(&env, "s.bin");
  Rng rng(5);
  std::string noise(4096, '\0');
  for (auto& c : noise) c = static_cast<char>(rng.Uniform(256));
  std::string skewed(4096, '\0');
  for (auto& c : skewed) c = static_cast<char>(rng.Uniform(4));
  ASSERT_TRUE(writer.Put(Slice(noise), CodecType::kDeflateLite).ok());
  ASSERT_TRUE(writer.Put(Slice(skewed), CodecType::kDeflateLite).ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = ChunkStoreReader::Open(&env, "s.bin");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ref(0).codec, CodecType::kNull);
  EXPECT_EQ(reader->ref(0).stored_size, noise.size() + 2);  // varint(4096)
  EXPECT_EQ(reader->ref(1).codec, CodecType::kDeflateLite);
  EXPECT_LT(reader->ref(1).stored_size, skewed.size());
  auto got_noise = reader->Get(0);
  auto got_skewed = reader->Get(1);
  ASSERT_TRUE(got_noise.ok());
  ASSERT_TRUE(got_skewed.ok());
  EXPECT_EQ(*got_noise, noise);
  EXPECT_EQ(*got_skewed, skewed);
}

TEST(ChunkStoreTest, MappedRawChunkIsReadInPlace) {
  // On a mapped file a raw chunk is served from the mapping and never
  // cached: the cache holds only the chunk that cost a decode. Each raw
  // Get is still one fetch of its stored bytes, CRC-checked every time.
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "/mh_chunk_raw_in_place";
  ASSERT_TRUE(env->CreateDirs(dir).ok());
  const std::string path = dir + "/s.bin";
  ChunkStoreWriter writer(env, path);
  Rng rng(7);
  std::string noise(4096, '\0');
  for (auto& c : noise) c = static_cast<char>(rng.Uniform(256));
  std::string skewed(4096, '\0');
  for (auto& c : skewed) c = static_cast<char>(rng.Uniform(4));
  ASSERT_TRUE(writer.Put(Slice(noise), CodecType::kDeflateLite).ok());
  ASSERT_TRUE(writer.Put(Slice(skewed), CodecType::kDeflateLite).ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = ChunkStoreReader::Open(env, path);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->ref(0).codec, CodecType::kNull);
  ASSERT_EQ(reader->ref(1).codec, CodecType::kDeflateLite);
  reader->EnableCache(true);
  const Counter* raw_reads =
      MetricRegistry::Global()->GetCounter("pas.chunk.read.raw");
  const uint64_t raw_reads_before = raw_reads->value();
  const Histogram* raw_read_us =
      MetricRegistry::Global()->GetHistogram("pas.chunk.read.raw.us");
  const uint64_t raw_read_us_before = raw_read_us->Snapshot().count;
  const Histogram* fetch_us =
      MetricRegistry::Global()->GetHistogram("pas.chunk.fetch.us");
  const uint64_t fetch_us_before = fetch_us->Snapshot().count;
  for (int round = 0; round < 2; ++round) {
    ChunkStoreStats call;
    auto raw = reader->Get(0, &call);
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(*raw, noise);
    EXPECT_EQ(call.chunk_fetches, 1u);
    EXPECT_EQ(call.cache_hits, 0u);
    EXPECT_EQ(call.bytes_read, reader->ref(0).stored_size);
    auto decoded = reader->Get(1);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, skewed);
  }
  EXPECT_EQ(raw_reads->value() - raw_reads_before, 2u);
  // Each in-place read records its latency; decodes stay in fetch.us.
  EXPECT_EQ(raw_read_us->Snapshot().count - raw_read_us_before, 2u);
  EXPECT_EQ(fetch_us->Snapshot().count - fetch_us_before, 1u);
  const ChunkStoreStats stats = reader->stats();
  EXPECT_EQ(stats.cache_bytes, skewed.size());
  EXPECT_EQ(stats.chunk_fetches, 3u);  // Two raw reads, one decode.
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.bytes_read,
            2 * reader->ref(0).stored_size + reader->ref(1).stored_size);

  // The in-place read keeps the checksum: a flipped payload byte of the
  // raw chunk is Corruption through a fresh reader's mapping.
  auto contents = env->ReadFile(path);
  ASSERT_TRUE(contents.ok());
  std::string corrupted = *contents;
  corrupted[static_cast<size_t>(reader->ref(0).offset) + 100] ^= 0x40;
  ASSERT_TRUE(env->WriteFile(path, corrupted).ok());
  auto fresh = ChunkStoreReader::Open(env, path);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->Get(0).status().IsCorruption());
  EXPECT_TRUE(fresh->Get(1).ok());
}

TEST(ChunkStoreTest, UnknownCodecIdIsCorruption) {
  // The footer index has no checksum of its own, so a codec byte this
  // build does not know must fail Open, not decode as the null codec.
  MemEnv env;
  ChunkStoreWriter writer(&env, "s.bin");
  const std::string data(4096, 'q');
  ASSERT_TRUE(writer.Put(Slice(data), CodecType::kNull).ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto contents = env.ReadFile("s.bin");
  ASSERT_TRUE(contents.ok());
  std::string bad = *contents;
  // Tail: fixed64 index offset | fixed64 count | 8-byte magic. An index
  // entry is offset, stored size, raw size (fixed64 each), crc (fixed32),
  // then the codec byte.
  Slice tail(bad.data() + bad.size() - 24, 8);
  uint64_t index_offset = 0;
  ASSERT_TRUE(GetFixed64(&tail, &index_offset).ok());
  bad[static_cast<size_t>(index_offset) + 28] = 0x7F;
  ASSERT_TRUE(env.WriteFile("s.bin", bad).ok());
  EXPECT_TRUE(ChunkStoreReader::Open(&env, "s.bin").status().IsCorruption());
}

// --------------------------------------------------------------- Archive

/// Trains a mini model and returns its checkpoint snapshots.
std::vector<TrainSnapshot> TrainSnapshots(uint64_t seed, int64_t iters = 60,
                                          int64_t every = 20) {
  const Dataset ds = MakeBlobDataset(128, 4, 12, 0.05f, seed);
  auto net = Network::Create(MiniVgg(4, 12, 1));
  EXPECT_TRUE(net.ok());
  Rng rng(seed);
  net->InitializeWeights(&rng);
  TrainOptions options;
  options.iterations = iters;
  options.snapshot_every = every;
  options.seed = seed;
  auto result = TrainNetwork(&*net, ds, options);
  EXPECT_TRUE(result.ok());
  return result->snapshots;
}

class ArchiveTest : public ::testing::Test {
 protected:
  void BuildArchive(const ArchiveOptions& options) {
    const auto snapshots = TrainSnapshots(42);
    ASSERT_EQ(snapshots.size(), 3u);
    ArchiveBuilder builder(&env_, "archive");
    for (size_t i = 0; i < snapshots.size(); ++i) {
      names_.push_back("v1/s" + std::to_string(i));
      ASSERT_TRUE(builder.AddSnapshot(names_.back(), snapshots[i].params).ok());
      originals_.push_back(snapshots[i].params);
    }
    for (size_t i = 1; i < snapshots.size(); ++i) {
      ASSERT_TRUE(builder.AddDeltaCandidate(names_[i - 1], names_[i]).ok());
    }
    auto report = builder.Build(options);
    ASSERT_TRUE(report.ok());
    report_ = *report;
  }

  MemEnv env_;
  std::vector<std::string> names_;
  std::vector<std::vector<NamedParam>> originals_;
  ArchiveBuildReport report_;
};

TEST_F(ArchiveTest, XorArchiveRoundTripsBitExactly) {
  ArchiveOptions options;
  options.solver = ArchiveSolver::kMst;
  options.delta_kind = DeltaKind::kXor;
  BuildArchive(options);
  auto reader = ArchiveReader::Open(&env_, "archive");
  ASSERT_TRUE(reader.ok());
  for (size_t s = 0; s < names_.size(); ++s) {
    auto params = reader->RetrieveSnapshot(names_[s]);
    ASSERT_TRUE(params.ok());
    ASSERT_EQ(params->size(), originals_[s].size());
    for (size_t p = 0; p < params->size(); ++p) {
      EXPECT_EQ((*params)[p].name, originals_[s][p].name);
      EXPECT_TRUE((*params)[p].value.BitEquals(originals_[s][p].value))
          << names_[s] << "/" << (*params)[p].name;
    }
  }
}

TEST_F(ArchiveTest, SubArchiveRoundTripsWithinRounding) {
  ArchiveOptions options;
  options.solver = ArchiveSolver::kPasPt;
  options.budget_alpha = 2.0;
  options.delta_kind = DeltaKind::kSub;
  BuildArchive(options);
  auto reader = ArchiveReader::Open(&env_, "archive");
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(report_.budgets_satisfied);
  for (size_t s = 0; s < names_.size(); ++s) {
    auto params = reader->RetrieveSnapshot(names_[s]);
    ASSERT_TRUE(params.ok());
    for (size_t p = 0; p < params->size(); ++p) {
      EXPECT_TRUE(
          (*params)[p].value.ApproxEquals(originals_[s][p].value, 1e-5f));
    }
  }
}

TEST_F(ArchiveTest, DeltaArchiveSmallerThanMaterializedArchive) {
  // Adjacent checkpoints are similar, so the MST plan (deltas allowed)
  // must store less than the SPT plan (everything materialized).
  ArchiveOptions options;
  options.solver = ArchiveSolver::kMst;
  BuildArchive(options);
  EXPECT_LT(report_.mst_storage_cost, report_.spt_storage_cost);
  EXPECT_DOUBLE_EQ(report_.storage_cost, report_.mst_storage_cost);
}

TEST_F(ArchiveTest, SingleMatrixRetrieval) {
  ArchiveOptions options;
  BuildArchive(options);
  auto reader = ArchiveReader::Open(&env_, "archive");
  ASSERT_TRUE(reader.ok());
  auto names = reader->ParamNames(names_[2]);
  ASSERT_TRUE(names.ok());
  EXPECT_FALSE(names->empty());
  auto matrix = reader->RetrieveMatrix(names_[2], (*names)[0]);
  ASSERT_TRUE(matrix.ok());
  EXPECT_TRUE(matrix->ApproxEquals(originals_[2][0].value, 1e-5f));
  EXPECT_TRUE(
      reader->RetrieveMatrix("nope", "x").status().IsNotFound());
  EXPECT_TRUE(reader->RetrieveSnapshot("nope").status().IsNotFound());
}

TEST_F(ArchiveTest, PartialBoundsContainTruth) {
  ArchiveOptions options;
  options.solver = ArchiveSolver::kPasPt;
  options.budget_alpha = 1.6;
  BuildArchive(options);
  auto reader = ArchiveReader::Open(&env_, "archive");
  ASSERT_TRUE(reader.ok());
  for (int planes = 1; planes <= 4; ++planes) {
    auto bounds = reader->RetrieveSnapshotBounds(names_[2], planes);
    ASSERT_TRUE(bounds.ok()) << planes;
    for (const auto& param : originals_[2]) {
      auto it = bounds->find(param.name);
      ASSERT_NE(it, bounds->end());
      // Sub deltas introduce one rounding step per chain hop; allow a hair
      // of slack beyond pure containment.
      const IntervalMatrix& im = it->second;
      for (int64_t i = 0; i < param.value.size(); ++i) {
        const float truth = param.value.data()[static_cast<size_t>(i)];
        EXPECT_GE(truth,
                  im.lo().data()[static_cast<size_t>(i)] - 1e-5f);
        EXPECT_LE(truth,
                  im.hi().data()[static_cast<size_t>(i)] + 1e-5f);
      }
    }
  }
}

TEST_F(ArchiveTest, PartialReadsFetchFewerBytes) {
  ArchiveOptions options;
  BuildArchive(options);
  auto reader = ArchiveReader::Open(&env_, "archive");
  ASSERT_TRUE(reader.ok());
  reader->ResetByteCounter();
  ASSERT_TRUE(reader->RetrieveSnapshotBounds(names_[2], 1).ok());
  const uint64_t one_plane = reader->bytes_read();
  reader->ResetByteCounter();
  ASSERT_TRUE(reader->RetrieveSnapshotBounds(names_[2], 4).ok());
  const uint64_t all_planes = reader->bytes_read();
  EXPECT_LT(one_plane, all_planes / 2);
}

TEST(ArchiveBuilderTest, AdaptiveDeltaAcrossShapeChange) {
  // A fine-tuned model whose final layer was re-targeted: same parameter
  // names, one shape change. The archive should still delta the matching
  // layers and use an adaptive delta for the changed one.
  MemEnv env;
  Rng rng(3);
  std::vector<NamedParam> base = {{"conv1.W", FloatMatrix(8, 25)},
                                  {"fc.W", FloatMatrix(4, 32)}};
  for (auto& p : base) p.value.FillGaussian(&rng, 0.1f);
  std::vector<NamedParam> finetuned = base;
  // conv stays the same shape with tiny drift; fc grows to 6 outputs.
  for (auto& v : finetuned[0].value.data()) v += rng.UniformFloat(-1e-4f, 1e-4f);
  FloatMatrix new_fc(6, 32);
  new_fc.FillGaussian(&rng, 0.1f);
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < 32; ++c) {
      new_fc.At(r, c) = base[1].value.At(r, c) + rng.UniformFloat(-1e-4f, 1e-4f);
    }
  }
  finetuned[1].value = new_fc;

  ArchiveBuilder builder(&env, "arch");
  ASSERT_TRUE(builder.AddSnapshot("base", base).ok());
  ASSERT_TRUE(builder.AddSnapshot("ft", finetuned).ok());
  ASSERT_TRUE(builder.AddDeltaCandidate("base", "ft").ok());
  ArchiveOptions options;
  options.solver = ArchiveSolver::kMst;
  auto report = builder.Build(options);
  ASSERT_TRUE(report.ok());

  auto reader = ArchiveReader::Open(&env, "arch");
  ASSERT_TRUE(reader.ok());
  auto restored = reader->RetrieveSnapshot("ft");
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), 2u);
  EXPECT_TRUE((*restored)[0].value.ApproxEquals(finetuned[0].value, 1e-5f));
  EXPECT_TRUE((*restored)[1].value.ApproxEquals(finetuned[1].value, 1e-5f));
  // Partial bounds still contain the truth through the adaptive chain.
  auto bounds = reader->RetrieveSnapshotBounds("ft", 2);
  ASSERT_TRUE(bounds.ok());
  for (const auto& param : finetuned) {
    const IntervalMatrix& im = bounds->at(param.name);
    for (int64_t i = 0; i < param.value.size(); ++i) {
      const float truth = param.value.data()[static_cast<size_t>(i)];
      EXPECT_GE(truth, im.lo().data()[static_cast<size_t>(i)] - 1e-5f);
      EXPECT_LE(truth, im.hi().data()[static_cast<size_t>(i)] + 1e-5f);
    }
  }
}

TEST(ArchiveBuilderTest, LossyStorageSchemeShrinksArchive) {
  MemEnv env;
  Rng rng(9);
  std::vector<NamedParam> params = {{"w", FloatMatrix(64, 64)}};
  params[0].value.FillGaussian(&rng, 0.1f);

  auto build = [&](const char* dir, FloatScheme scheme) {
    ArchiveBuilder builder(&env, dir);
    EXPECT_TRUE(builder.AddSnapshot("s", params).ok());
    ArchiveOptions options;
    options.storage_scheme = scheme;
    EXPECT_TRUE(builder.Build(options).ok());
    auto reader = ArchiveReader::Open(&env, dir);
    EXPECT_TRUE(reader.ok());
    return std::move(*reader);
  };
  ArchiveReader lossless = build("a1", {FloatSchemeKind::kFloat32, 32});
  ArchiveReader quant8 = build("a2", {FloatSchemeKind::kQuantUniform, 8});
  ArchiveReader quant4 = build("a3", {FloatSchemeKind::kQuantUniform, 4});

  // Byte-plane segmentation spreads a quantized value's redundancy across
  // four streams, so the gain grows as levels shrink: 8-bit quantization
  // saves a little, 4-bit (16 distinct floats -> <= 16 symbols per plane)
  // saves a lot.
  EXPECT_LT(quant8.TotalStoredBytes(), lossless.TotalStoredBytes());
  EXPECT_LT(quant4.TotalStoredBytes(), lossless.TotalStoredBytes() * 7 / 10);
  auto restored = quant4.RetrieveSnapshot("s");
  ASSERT_TRUE(restored.ok());
  // Bounded quantization error: range ~[-0.45, 0.45], 16 bins -> half a
  // bin is ~0.03.
  EXPECT_TRUE((*restored)[0].value.ApproxEquals(params[0].value, 0.05f));
}

TEST(ArchiveBuilderTest, InputValidation) {
  MemEnv env;
  ArchiveBuilder builder(&env, "a");
  EXPECT_TRUE(builder.AddSnapshot("s", {}).IsInvalidArgument());
  std::vector<NamedParam> params = {{"w", FloatMatrix(2, 2)}};
  params[0].value.Fill(1.0f);
  ASSERT_TRUE(builder.AddSnapshot("s", params).ok());
  EXPECT_TRUE(builder.AddSnapshot("s", params).IsAlreadyExists());
  EXPECT_TRUE(builder.AddDeltaCandidate("s", "s").IsInvalidArgument());
  EXPECT_TRUE(builder.AddDeltaCandidate("s", "missing").IsNotFound());
  ArchiveOptions options;
  ASSERT_TRUE(builder.Build(options).ok());
  EXPECT_EQ(builder.Build(options).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ArchiveBuilderTest, RejectedSnapshotLeavesNoTrace) {
  // A snapshot rejected for a duplicate parameter registers nothing: its
  // name stays free, and the archive holds exactly what was accepted.
  MemEnv env;
  Rng rng(5);
  FloatMatrix m(3, 4);
  FloatMatrix n(3, 4);
  m.FillGaussian(&rng, 0.1f);
  n.FillGaussian(&rng, 0.1f);
  ArchiveBuilder builder(&env, "arch");
  EXPECT_TRUE(
      builder.AddSnapshot("x", {{"w", m}, {"w", n}}).IsAlreadyExists());
  const std::vector<NamedParam> y = {{"w", n}};
  const std::vector<NamedParam> x = {{"w", m}, {"b", n}};
  ASSERT_TRUE(builder.AddSnapshot("y", y).ok());
  ASSERT_TRUE(builder.AddSnapshot("x", x).ok());
  ArchiveOptions options;
  options.enable_similarity_pairing = false;  // Every matrix materialized.
  ASSERT_TRUE(builder.Build(options).ok());
  auto reader = ArchiveReader::Open(&env, "arch");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  for (const auto& [name, params] :
       {std::make_pair("y", &y), std::make_pair("x", &x)}) {
    SCOPED_TRACE(name);
    auto restored = reader->RetrieveSnapshot(name);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ASSERT_EQ(restored->size(), params->size());
    for (size_t p = 0; p < params->size(); ++p) {
      EXPECT_EQ((*restored)[p].name, (*params)[p].name);
      EXPECT_TRUE((*restored)[p].value.BitEquals((*params)[p].value));
    }
  }
}

TEST(ArchiveBuilderTest, StorageGraphTakesSimilarityPairsAsVertexIds) {
  // Two one-matrix snapshots are vertices 1 and 2. A similarity pair adds
  // its delta edge after the materialization edges; an id outside 1..2 is
  // InvalidArgument.
  std::vector<NamedParam> a = {{"w", FloatMatrix(4, 4)}};
  std::vector<NamedParam> b = {{"w", FloatMatrix(4, 4)}};
  a[0].value.Fill(1.0f);
  b[0].value.Fill(2.0f);
  const std::vector<SnapshotSpec> specs = {{"a", &a}, {"b", &b}};
  int first_similarity_edge = -2;
  auto graph = BuildMatrixStorageGraph(specs, {}, ArchiveOptions(), nullptr,
                                       {{1, 2}}, &first_similarity_edge);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ASSERT_EQ(graph->edges().size(), 3u);
  EXPECT_EQ(first_similarity_edge, 2);
  EXPECT_EQ(graph->edge(2).u, 1);
  EXPECT_EQ(graph->edge(2).v, 2);
  for (const std::pair<int, int>& bad :
       {std::make_pair(1, 3), std::make_pair(0, 1)}) {
    EXPECT_TRUE(BuildMatrixStorageGraph(specs, {}, ArchiveOptions(), nullptr,
                                        {bad})
                    .status()
                    .IsInvalidArgument());
  }
}

/// A seeded lineage corpus for the pinned-bytes test, built from integer
/// draws only (Irwin-Hall sums of uniforms, no libm), so its floats are
/// the same on every platform. Snapshot `@0` is random; each later one
/// drifts every matrix except conv1, which freezes at `@2` so dedup has
/// identical planes to share; `ft@0` fine-tunes `lin@2` with a widened
/// head (a shape change, hence an adaptive delta).
std::vector<std::pair<std::string, std::vector<NamedParam>>> PinnedCorpus(
    int lineage_length) {
  Rng rng(2417);
  auto noise = [&rng](float scale) {
    float sum = 0.0f;
    for (int i = 0; i < 4; ++i) sum += static_cast<float>(rng.NextDouble());
    return (sum - 2.0f) * scale;
  };
  std::vector<NamedParam> current = {{"conv1.W", FloatMatrix(24, 75)},
                                     {"conv2.W", FloatMatrix(32, 288)},
                                     {"fc.W", FloatMatrix(10, 512)},
                                     {"fc.b", FloatMatrix(1, 10)}};
  for (auto& param : current) {
    for (float& v : param.value.data()) v = noise(0.1f);
  }
  std::vector<std::pair<std::string, std::vector<NamedParam>>> corpus;
  for (int s = 0; s < lineage_length; ++s) {
    if (s > 0) {
      for (size_t p = 0; p < current.size(); ++p) {
        if (p == 0 && s >= 2) continue;  // conv1 frozen from @2 on.
        for (float& v : current[p].value.data()) v += noise(0.004f);
      }
    }
    corpus.emplace_back("lin@" + std::to_string(s), current);
    if (s == 2) {
      std::vector<NamedParam> tuned = current;
      FloatMatrix head(12, 512);
      for (int64_t r = 0; r < head.rows(); ++r) {
        for (int64_t c = 0; c < head.cols(); ++c) {
          head.At(r, c) = r < 10 ? current[2].value.At(r, c) + noise(0.01f)
                                 : noise(0.1f);
        }
      }
      tuned[2].value = std::move(head);
      tuned[3].value = FloatMatrix(1, 12);
      for (float& v : tuned[3].value.data()) v = noise(0.1f);
      corpus.emplace_back("ft@0", std::move(tuned));
    }
  }
  return corpus;
}

/// "name:crc32 ..." over every file under `dir`, in name order. The
/// manifest is CRC'd without its CRC footer: the CRC-32 of a message
/// followed by its own CRC is the same constant for every message.
std::string FileCrcs(Env* env, const std::string& dir) {
  auto names = env->ListDir(dir);
  EXPECT_TRUE(names.ok());
  std::string out;
  for (const std::string& name : names.ok() ? *names
                                            : std::vector<std::string>{}) {
    const std::string path = JoinPath(dir, name);
    auto data = name == "manifest.bin" ? ReadChecked(env, path)
                                       : env->ReadFile(path);
    EXPECT_TRUE(data.ok()) << name;
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x",
                  Crc32(Slice(data.ok() ? *data : std::string())));
    out += (out.empty() ? "" : " ") + name + ":" + crc;
  }
  return out;
}

TEST(ArchiveBuilderTest, WritePathBytesArePinned) {
  // What Build writes is a pure function of the corpus and the options.
  // The CRCs below were recorded from the archive files a build wrote
  // before the write pipeline reused the cost model's trial encodes; any
  // change to the bytes on disk must be deliberate and re-record them.
  // Generation 2 adds one snapshot to the same lineage and re-archives,
  // so prior-generation dedup and garbage collection are pinned too.
  struct PinnedCase {
    const char* label;
    std::function<void(ArchiveOptions*)> configure;
    const char* crcs[2];  // After generation 1 and 2.
  };
  const std::vector<PinnedCase> cases = {
      {"dlv defaults",
       [](ArchiveOptions* o) { o->budget_alpha = 2.0; },
       {"chunks-1.bin:7f8fd6c6 manifest.bin:a65108f5",
        "chunks-1.bin:7f8fd6c6 chunks-2.bin:cd12f88f manifest.bin:01b0cb60"}},
      {"mst",
       [](ArchiveOptions* o) { o->solver = ArchiveSolver::kMst; },
       {"chunks-1.bin:6eeddfae manifest.bin:3dd9ecdd",
        "chunks-1.bin:6eeddfae chunks-2.bin:4371fb28 manifest.bin:85b4fa4a"}},
      {"pas-mt xor 1.6",
       [](ArchiveOptions* o) {
         o->solver = ArchiveSolver::kPasMt;
         o->delta_kind = DeltaKind::kXor;
         o->budget_alpha = 1.6;
       },
       {"chunks-1.bin:b6a9da8a manifest.bin:5025a28c",
        "chunks-1.bin:b6a9da8a chunks-2.bin:74d0377e manifest.bin:7a36763b"}},
      {"remote tier",
       [](ArchiveOptions* o) {
         o->budget_alpha = 2.0;
         o->enable_remote_tier = true;
       },
       {"chunks-1.bin:e1ad90c1 manifest.bin:98591273 remote-1.bin:28f0b62a",
        "chunks-1.bin:e1ad90c1 chunks-2.bin:fa1d84dd manifest.bin:17dccd2f "
        "remote-1.bin:28f0b62a remote-2.bin:607d618f"}},
      {"spt one thread no dedup",
       [](ArchiveOptions* o) {
         o->solver = ArchiveSolver::kSpt;
         o->archive_threads = 1;
         o->enable_dedup = false;
       },
       {"chunks-1.bin:b3f8c5bb manifest.bin:3b494db7",
        "chunks-2.bin:9397bfd9 manifest.bin:ba1f42c3"}},
  };
  for (const PinnedCase& pinned : cases) {
    SCOPED_TRACE(pinned.label);
    MemEnv env;
    for (int generation = 1; generation <= 2; ++generation) {
      SCOPED_TRACE("generation " + std::to_string(generation));
      const auto corpus = PinnedCorpus(generation == 1 ? 3 : 4);
      ArchiveBuilder builder(&env, "pas");
      std::string previous;
      for (const auto& [name, params] : corpus) {
        ASSERT_TRUE(builder.AddSnapshot(name, params).ok());
        if (!previous.empty()) {
          ASSERT_TRUE(builder.AddDeltaCandidate(previous, name).ok());
        }
        if (name.rfind("lin@", 0) == 0) previous = name;
      }
      ArchiveOptions options;
      pinned.configure(&options);
      auto report = builder.Build(options);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(FileCrcs(&env, "pas"), pinned.crcs[generation - 1]);
      // The materialized roots commit their trial's bytes, and their
      // mantissa planes are null-framed without a codec attempt.
      EXPECT_GT(report->pipeline.planes_from_trial, 0u);
      EXPECT_GT(report->pipeline.planes_null_framed, 0u);
    }
  }
}

TEST(ArchiveBuilderTest, EdgeStoredTheOtherWayCarriesNoTrial) {
  // The lineage edge s0 -> s1 is tried as s1 against s0. Here s1 (the
  // first 16 rows of s0 plus noise in the low bits) is cheaper to
  // materialize than s0, so the MST stores s0 against s1 instead: an
  // adaptive delta of s0's shape whose planes 1-3 compress (48 rows of
  // zeros) although the trial's (all noise) did not. That job must carry
  // no trial, so its planes are encoded fresh, not null-framed.
  Rng rng(31);
  std::vector<NamedParam> s0 = {{"w", FloatMatrix(64, 64)}};
  std::vector<NamedParam> s1 = {{"w", FloatMatrix(16, 64)}};
  for (int64_t r = 0; r < 16; ++r) {
    for (int64_t c = 0; c < 64; ++c) {
      s0[0].value.At(r, c) = static_cast<float>(rng.NextGaussian()) * 0.1f;
      s1[0].value.At(r, c) =
          s0[0].value.At(r, c) + rng.UniformFloat(-1e-6f, 1e-6f);
    }
  }
  ArchiveOptions options;
  options.solver = ArchiveSolver::kMst;
  options.enable_similarity_pairing = false;
  const std::vector<SnapshotSpec> specs = {{"s0", &s0}, {"s1", &s1}};
  auto graph = BuildMatrixStorageGraph(specs, {{0, 1}}, options);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  auto plan = SolveMst(*graph);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->Parent(2), 0);  // s1 materialized ...
  ASSERT_EQ(plan->Parent(1), 2);  // ... and s0 stored against it.

  MemEnv env;
  ArchiveBuilder builder(&env, "pas");
  ASSERT_TRUE(builder.AddSnapshot("s0", s0).ok());
  ASSERT_TRUE(builder.AddSnapshot("s1", s1).ok());
  ASSERT_TRUE(builder.AddDeltaCandidate("s0", "s1").ok());
  auto report = builder.Build(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Only s1's materialization trial reached the pipeline.
  EXPECT_EQ(report->pipeline.planes_from_trial +
                report->pipeline.planes_null_framed,
            static_cast<uint64_t>(kNumPlanes));
  auto delta = ComputeDelta(s0[0].value, s1[0].value, DeltaKind::kAdaptiveSub);
  ASSERT_TRUE(delta.ok());
  const auto planes = SegmentFloats(*delta);
  auto store = ChunkStoreReader::Open(&env, "pas/chunks-1.bin");
  ASSERT_TRUE(store.ok());
  int shrunk = 0;
  for (int p = 0; p < kNumPlanes; ++p) {
    SCOPED_TRACE("plane " + std::to_string(p));
    std::string want;
    auto codec = EncodeChunk(Slice(planes[p]), options.codec, &want);
    ASSERT_TRUE(codec.ok());
    shrunk += *codec != CodecType::kNull ? 1 : 0;
    const uint32_t id = static_cast<uint32_t>(p);  // s0 is job 0.
    EXPECT_EQ(store->ref(id).codec, *codec);
    auto stored = store->GetCompressed(id);
    ASSERT_TRUE(stored.ok());
    EXPECT_TRUE(*stored == want);
  }
  EXPECT_EQ(shrunk, kNumPlanes);
}

/// A MemEnv whose ListDir fails while `fail_list_dir` is set, as a
/// directory listing does when the process is out of file descriptors.
class FailingListDirEnv : public MemEnv {
 public:
  bool fail_list_dir = false;

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    if (fail_list_dir) {
      return Status::IOError("injected listing failure: " + path);
    }
    return MemEnv::ListDir(path);
  }
};

TEST(ArchiveBuilderTest, RebuildFailsWhenTheDirectoryCannotBeListed) {
  // Build numbers the new generation from the files it lists. A failed
  // listing must fail the build: assuming generation 1 would replace a
  // live chunks-1.bin in place and leave the manifest naming it twice.
  FailingListDirEnv env;
  const auto corpus = PinnedCorpus(3);
  auto add_corpus = [&](ArchiveBuilder* builder) {
    for (size_t s = 0; s < corpus.size(); ++s) {
      ASSERT_TRUE(builder->AddSnapshot(corpus[s].first, corpus[s].second).ok());
    }
  };
  {
    ArchiveBuilder first(&env, "pas");
    add_corpus(&first);
    ASSERT_TRUE(first.Build(ArchiveOptions()).ok());
  }
  // Second generation: every snapshot re-archived from the first's files
  // would need dedup to reference chunks-1.bin.
  auto before = env.ListDir("pas");
  ASSERT_TRUE(before.ok());
  std::map<std::string, std::string> files;
  for (const std::string& name : *before) {
    auto data = env.ReadFile(JoinPath("pas", name));
    ASSERT_TRUE(data.ok());
    files[name] = *data;
  }
  env.fail_list_dir = true;
  ArchiveBuilder second(&env, "pas");
  add_corpus(&second);
  ArchiveOptions options;
  options.solver = ArchiveSolver::kSpt;  // A different plan than the first.
  const auto report = second.Build(options);
  EXPECT_TRUE(report.status().IsIOError()) << report.status().ToString();
  env.fail_list_dir = false;

  auto after = env.ListDir("pas");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
  for (const auto& [name, data] : files) {
    auto now = env.ReadFile(JoinPath("pas", name));
    ASSERT_TRUE(now.ok()) << name;
    EXPECT_TRUE(*now == data) << name << " changed";
  }
  auto reader = ArchiveReader::Open(&env, "pas");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto s0 = reader->RetrieveSnapshot(corpus[0].first);
  ASSERT_TRUE(s0.ok()) << s0.status().ToString();
  ASSERT_EQ(s0->size(), corpus[0].second.size());
  for (size_t p = 0; p < s0->size(); ++p) {
    SCOPED_TRACE((*s0)[p].name);
    EXPECT_TRUE((*s0)[p].value.BitEquals(corpus[0].second[p].value));
  }
}

TEST_F(ArchiveTest, ParallelRetrievalMatchesSequential) {
  ArchiveOptions options;
  options.solver = ArchiveSolver::kPasPt;
  options.budget_alpha = 2.0;
  BuildArchive(options);
  auto reader = ArchiveReader::Open(&env_, "archive");
  ASSERT_TRUE(reader.ok());
  ThreadPool pool(4);
  for (const auto& name : names_) {
    auto sequential = reader->RetrieveSnapshot(name);
    ASSERT_TRUE(sequential.ok());
    auto sets = reader->RetrieveSnapshotsParallel({name}, &pool);
    ASSERT_TRUE(sets.ok());
    const std::vector<NamedParam>* parallel = &(*sets)[0];
    ASSERT_EQ(parallel->size(), sequential->size());
    for (size_t p = 0; p < parallel->size(); ++p) {
      EXPECT_EQ((*parallel)[p].name, (*sequential)[p].name);
      EXPECT_TRUE((*parallel)[p].value.BitEquals((*sequential)[p].value));
    }
  }
  EXPECT_TRUE(reader->RetrieveSnapshotsParallel({"nope"}, &pool)
                  .status()
                  .IsNotFound());
}

/// `count` checkpoints of a seeded drift: snapshot 0 holds gaussian
/// matrices on a 1/1024 grid (an initializer's short mantissas, so it is
/// the cheapest snapshot to materialize and Prim roots every chain there),
/// and each later snapshot adds small gaussian steps to the one before, as
/// training does. Every matrix is at least 32x32 floats, so an XOR delta
/// against the previous checkpoint (a near-zero sign/exponent plane and a
/// sparse high-mantissa plane) stores smaller than a materialization.
/// Matrices whose planes are only a few hundred bytes would not: their
/// codec frames do not shrink, both edges store raw, and the min-storage
/// solver rightly keeps the materialization.
std::vector<std::vector<NamedParam>> DriftingSnapshots(uint64_t seed,
                                                       int count) {
  const std::pair<int64_t, int64_t> shapes[] = {
      {32, 32}, {64, 32}, {32, 48}, {48, 48}};
  Rng rng(seed);
  std::vector<std::vector<NamedParam>> snapshots(1);
  for (size_t m = 0; m < std::size(shapes); ++m) {
    FloatMatrix value(shapes[m].first, shapes[m].second);
    value.FillGaussian(&rng, 0.1f);
    for (float& v : value.data()) v = std::round(v * 1024.0f) / 1024.0f;
    snapshots[0].push_back({"w" + std::to_string(m), std::move(value)});
  }
  for (int s = 1; s < count; ++s) {
    snapshots.push_back(snapshots.back());
    for (NamedParam& param : snapshots.back()) {
      for (float& v : param.value.data()) {
        v += static_cast<float>(rng.NextGaussian()) * 1e-3f;
      }
    }
  }
  return snapshots;
}

// Fixture with >= 4-deep delta chains: six checkpoints of one drifting
// run, adjacent-pair candidates, min-storage solver — every non-root
// vertex deltas off the previous checkpoint, so the last snapshots sit
// five and six links from the materialized roots.
class DeepChainArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto snapshots = DriftingSnapshots(11, 6);
    ASSERT_EQ(snapshots.size(), 6u);
    ArchiveBuilder builder(&env_, "deep");
    for (size_t i = 0; i < snapshots.size(); ++i) {
      names_.push_back("v1/s" + std::to_string(i));
      ASSERT_TRUE(builder.AddSnapshot(names_.back(), snapshots[i]).ok());
      originals_.push_back(snapshots[i]);
    }
    for (size_t i = 1; i < snapshots.size(); ++i) {
      ASSERT_TRUE(builder.AddDeltaCandidate(names_[i - 1], names_[i]).ok());
    }
    ArchiveOptions options;
    options.solver = ArchiveSolver::kMst;
    options.delta_kind = DeltaKind::kXor;  // Bit-exact round trips.
    // These tests exercise retrieval concurrency and cache-eviction
    // behavior, which needs every plane to be a distinct chunk; dedup
    // would shrink the working set below the cache bounds probed here
    // (dedup has its own differential suite in dedup_test.cc).
    options.enable_dedup = false;
    options.enable_similarity_pairing = false;
    ASSERT_TRUE(builder.Build(options).ok());
  }

  MemEnv env_;
  std::vector<std::string> names_;
  std::vector<std::vector<NamedParam>> originals_;
};

// The tentpole acceptance check: retrieving a set of snapshots whose
// delta chains share a prefix, the computation-sharing scheduler fetches
// strictly fewer chunks than the independent per-matrix scheme, with
// bit-identical results to sequential RetrieveSnapshot.
TEST_F(DeepChainArchiveTest, SharedSchemeFetchesStrictlyFewerChunks) {
  auto reader = ArchiveReader::Open(&env_, "deep");
  ASSERT_TRUE(reader.ok());
  ThreadPool pool(4);
  const std::vector<std::string> wanted = {names_[4], names_[5]};

  RetrievalStats independent_stats;
  auto independent = reader->RetrieveSnapshotsParallel(
      wanted, &pool, ParallelScheme::kIndependent, &independent_stats);
  ASSERT_TRUE(independent.ok());
  RetrievalStats shared_stats;
  auto shared = reader->RetrieveSnapshotsParallel(
      wanted, &pool, ParallelScheme::kShared, &shared_stats);
  ASSERT_TRUE(shared.ok());

  // Depth floor: retrieving s5 alone touches more than 4 vertices per
  // parameter on average, so by pigeonhole at least one delta chain is
  // >= 5 vertices (>= 4 delta links) deep — the regime the acceptance
  // criterion targets. (The solver may materialize a few mid-chain
  // vertices where a delta stores worse, so exact counts are plan-
  // dependent.)
  const uint64_t params = originals_[0].size();
  RetrievalStats tail_stats;
  ASSERT_TRUE(reader->RetrieveSnapshot(names_[5], &tail_stats).ok());
  EXPECT_GT(tail_stats.vertices_resolved, 4 * params);
  // Sharing decodes each union vertex once; independent re-decodes the
  // shared s0..s4 prefix for every descendant matrix.
  EXPECT_LE(shared_stats.vertices_resolved, 6 * params);
  EXPECT_GT(independent_stats.vertices_resolved,
            shared_stats.vertices_resolved);
  EXPECT_LT(shared_stats.chunk_fetches, independent_stats.chunk_fetches);
  EXPECT_LT(shared_stats.bytes_read, independent_stats.bytes_read);
  EXPECT_GT(shared_stats.chunk_fetches, 0u);

  ASSERT_EQ(shared->size(), wanted.size());
  ASSERT_EQ(independent->size(), wanted.size());
  for (size_t s = 0; s < wanted.size(); ++s) {
    auto sequential = reader->RetrieveSnapshot(wanted[s]);
    ASSERT_TRUE(sequential.ok());
    ASSERT_EQ((*shared)[s].size(), sequential->size());
    ASSERT_EQ((*independent)[s].size(), sequential->size());
    for (size_t p = 0; p < sequential->size(); ++p) {
      EXPECT_EQ((*shared)[s][p].name, (*sequential)[p].name);
      EXPECT_TRUE((*shared)[s][p].value.BitEquals((*sequential)[p].value));
      EXPECT_TRUE(
          (*independent)[s][p].value.BitEquals((*sequential)[p].value));
    }
  }
}

// Two threads driving parallel retrievals through ONE shared pool must
// not interfere: each call waits on its own WaitGroup, not on the pool's
// global in-flight count. (Run under TSan in CI.)
TEST_F(DeepChainArchiveTest, ConcurrentRetrievalsShareOnePool) {
  auto reader = ArchiveReader::Open(&env_, "deep");
  ASSERT_TRUE(reader.ok());
  ThreadPool pool(3);
  std::atomic<int> failures{0};
  auto retrieve_loop = [&](size_t index, int rounds) {
    for (int r = 0; r < rounds; ++r) {
      auto sets = reader->RetrieveSnapshotsParallel({names_[index]}, &pool);
      if (!sets.ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::vector<NamedParam>* params = &(*sets)[0];
      const auto& truth = originals_[index];
      if (params->size() != truth.size()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t p = 0; p < truth.size(); ++p) {
        if (!(*params)[p].value.BitEquals(truth[p].value)) {
          failures.fetch_add(1);
          return;
        }
      }
    }
  };
  std::thread a([&] { retrieve_loop(3, 4); });
  std::thread b([&] { retrieve_loop(5, 4); });
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);
  // The pool is still healthy for unrelated work afterwards.
  std::atomic<bool> ran{false};
  pool.Schedule([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

// The chunk cache honors its configured byte bound during real
// retrievals, and bounded eviction does not corrupt results.
TEST_F(DeepChainArchiveTest, CacheBoundHeldDuringRetrieval) {
  auto reader = ArchiveReader::Open(&env_, "deep");
  ASSERT_TRUE(reader.ok());
  reader->EnableChunkCache(true);
  const uint64_t bound = 32 * 1024;
  reader->SetChunkCacheCapacity(bound);
  ThreadPool pool(4);
  for (const auto& name : names_) {
    auto params = reader->RetrieveSnapshotsParallel({name}, &pool);
    ASSERT_TRUE(params.ok());
    EXPECT_LE(reader->store_stats().cache_bytes, bound);
  }
  const ChunkStoreStats stats = reader->store_stats();
  EXPECT_GT(stats.cache_evictions, 0u);
  // Second pass: correctness with a warm-but-bounded cache.
  for (size_t s = 0; s < names_.size(); ++s) {
    auto params = reader->RetrieveSnapshot(names_[s]);
    ASSERT_TRUE(params.ok());
    EXPECT_LE(reader->store_stats().cache_bytes, bound);
    ASSERT_EQ(params->size(), originals_[s].size());
    for (size_t p = 0; p < params->size(); ++p) {
      EXPECT_TRUE((*params)[p].value.BitEquals(originals_[s][p].value));
    }
  }
}

TEST_F(DeepChainArchiveTest, BatchRetrievalValidation) {
  auto reader = ArchiveReader::Open(&env_, "deep");
  ASSERT_TRUE(reader.ok());
  ThreadPool pool(2);
  // Unknown member of the batch: NotFound, no hang, pool reusable.
  EXPECT_TRUE(reader->RetrieveSnapshotsParallel({names_[0], "nope"}, &pool)
                  .status()
                  .IsNotFound());
  // Empty batch: trivially succeeds.
  auto empty = reader->RetrieveSnapshotsParallel({}, &pool);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  // Duplicate snapshots are each materialized in request order.
  auto dup = reader->RetrieveSnapshotsParallel({names_[2], names_[2]}, &pool);
  ASSERT_TRUE(dup.ok());
  ASSERT_EQ(dup->size(), 2u);
  ASSERT_EQ((*dup)[0].size(), (*dup)[1].size());
  for (size_t p = 0; p < (*dup)[0].size(); ++p) {
    EXPECT_TRUE((*dup)[0][p].value.BitEquals((*dup)[1][p].value));
  }
}

// Per-call stats are exact while other retrievals overlap on the same
// reader: each call's Gets add up to its own chain vertices, and the calls
// together account for every counter the stores moved. (Run under TSan in
// CI.)
TEST_F(DeepChainArchiveTest, RetrievalStatsExactUnderConcurrency) {
  auto reader = ArchiveReader::Open(&env_, "deep");
  ASSERT_TRUE(reader.ok());
  reader->EnableChunkCache(true);
  reader->SetChunkCacheCapacity(64 * 1024);  // Small enough to evict.
  ThreadPool pool(4);
  const ChunkStoreStats before = reader->store_stats();
  std::mutex mu;
  RetrievalStats sum;
  int calls = 0;
  int failed = 0;
  int inexact = 0;
  auto retrieve_loop = [&](size_t thread) {
    for (size_t round = 0; round < 8; ++round) {
      const std::string& name = names_[(thread + round) % names_.size()];
      RetrievalStats stats;
      const bool ok =
          (thread + round) % 2 == 0
              ? reader->RetrieveSnapshot(name, &stats).ok()
              : reader->RetrieveSnapshotsParallel({name}, &pool,
                                                  ParallelScheme::kShared,
                                                  &stats)
                    .ok();
      std::lock_guard<std::mutex> lock(mu);
      ++calls;
      if (!ok) ++failed;
      if (stats.chunk_fetches + stats.cache_hits !=
          kNumPlanes * stats.vertices_resolved) {
        ++inexact;
      }
      sum.chunk_fetches += stats.chunk_fetches;
      sum.cache_hits += stats.cache_hits;
      sum.cache_evictions += stats.cache_evictions;
      sum.bytes_read += stats.bytes_read;
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) threads.emplace_back(retrieve_loop, t);
  for (auto& thread : threads) thread.join();
  const ChunkStoreStats after = reader->store_stats();
  EXPECT_EQ(calls, 32);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(inexact, 0);
  EXPECT_EQ(sum.chunk_fetches, after.chunk_fetches - before.chunk_fetches);
  EXPECT_EQ(sum.cache_hits, after.cache_hits - before.cache_hits);
  EXPECT_EQ(sum.cache_evictions,
            after.cache_evictions - before.cache_evictions);
  EXPECT_EQ(sum.bytes_read, after.bytes_read - before.bytes_read);
  EXPECT_GT(sum.cache_hits, 0u);
  EXPECT_GT(sum.cache_evictions, 0u);
}

// Partial bounds are undefined over XOR deltas, so a snapshot whose chains
// hold one needs all four planes; at four planes the XOR vertices resolve
// exactly and the bounds collapse onto the exact weights.
TEST_F(DeepChainArchiveTest, XorBoundsNeedAllFourPlanes) {
  auto reader = ArchiveReader::Open(&env_, "deep");
  ASSERT_TRUE(reader.ok());
  for (size_t s = 0; s < names_.size(); ++s) {
    SCOPED_TRACE(names_[s]);
    RetrievalStats stats;
    auto exact = reader->RetrieveSnapshot(names_[s], &stats);
    ASSERT_TRUE(exact.ok());
    // Every delta of this archive is XOR, so any chain longer than its own
    // vertex holds one.
    const bool has_xor = stats.vertices_resolved > exact->size();
    if (s + 1 == names_.size()) {
      EXPECT_TRUE(has_xor);
    }
    for (int planes = 1; planes < kNumPlanes; ++planes) {
      EXPECT_EQ(reader->RetrieveSnapshotBounds(names_[s], planes)
                    .status()
                    .IsInvalidArgument(),
                has_xor)
          << planes;
    }
    auto bounds = reader->RetrieveSnapshotBounds(names_[s], kNumPlanes);
    ASSERT_TRUE(bounds.ok());
    ASSERT_EQ(bounds->size(), exact->size());
    for (const NamedParam& param : *exact) {
      const IntervalMatrix& im = bounds->at(param.name);
      EXPECT_TRUE(im.lo().BitEquals(param.value)) << param.name;
      EXPECT_TRUE(im.hi().BitEquals(param.value)) << param.name;
    }
  }
}

TEST(ArchiveTierTest, RemoteTierChosenWhenCheaperAndBudgetsPushBack) {
  // The paper's multi-tier edges: remote is cheaper to hold but slower to
  // recreate from. With no budgets, everything drifts remote; with tight
  // budgets, payloads stay local.
  MemEnv env;
  const auto snapshots = TrainSnapshots(21, 40, 20);
  auto build = [&](const char* dir, double budget_alpha) {
    ArchiveBuilder builder(&env, dir);
    std::vector<std::string> names;
    for (size_t i = 0; i < snapshots.size(); ++i) {
      names.push_back("m/s" + std::to_string(i));
      EXPECT_TRUE(builder.AddSnapshot(names.back(), snapshots[i].params).ok());
      if (i > 0) {
        EXPECT_TRUE(builder.AddDeltaCandidate(names[i - 1], names[i]).ok());
      }
    }
    ArchiveOptions options;
    options.solver = ArchiveSolver::kPasMt;
    options.enable_remote_tier = true;
    options.remote_storage_discount = 0.5;
    options.remote_read_penalty = 8.0;
    options.budget_alpha = budget_alpha;
    auto report = builder.Build(options);
    EXPECT_TRUE(report.ok());
    return *report;
  };
  const ArchiveBuildReport unconstrained = build("a_loose", 0.0);
  // No budgets: the 50% storage discount wins everywhere.
  EXPECT_EQ(unconstrained.remote_payloads, unconstrained.num_vertices);
  const ArchiveBuildReport constrained = build("a_tight", 1.05);
  // Tight budgets (1.05x the all-local SPT): the x8 remote read penalty is
  // unaffordable, so most payloads must stay local.
  EXPECT_TRUE(constrained.budgets_satisfied);
  EXPECT_LT(constrained.remote_payloads, constrained.num_vertices / 2);

  // Both archives round trip, remote store included.
  for (const char* dir : {"a_loose", "a_tight"}) {
    auto reader = ArchiveReader::Open(&env, dir);
    ASSERT_TRUE(reader.ok());
    for (size_t s = 0; s < snapshots.size(); ++s) {
      auto params = reader->RetrieveSnapshot("m/s" + std::to_string(s));
      ASSERT_TRUE(params.ok()) << dir;
      for (size_t p = 0; p < params->size(); ++p) {
        EXPECT_TRUE((*params)[p].value.ApproxEquals(
            snapshots[s].params[p].value, 1e-5f));
      }
    }
  }
  // The loose archive actually wrote a remote store file.
  EXPECT_TRUE(env.FileExists("a_loose/remote-1.bin"));
}

TEST(ArchiveTierTest, PartialBoundsWorkAcrossTiers) {
  MemEnv env;
  const auto snapshots = TrainSnapshots(22, 40, 20);
  ArchiveBuilder builder(&env, "arch");
  ASSERT_TRUE(builder.AddSnapshot("a", snapshots[0].params).ok());
  ASSERT_TRUE(builder.AddSnapshot("b", snapshots[1].params).ok());
  ASSERT_TRUE(builder.AddDeltaCandidate("a", "b").ok());
  ArchiveOptions options;
  options.enable_remote_tier = true;
  auto report = builder.Build(options);
  ASSERT_TRUE(report.ok());
  auto reader = ArchiveReader::Open(&env, "arch");
  ASSERT_TRUE(reader.ok());
  auto bounds = reader->RetrieveSnapshotBounds("b", 2);
  ASSERT_TRUE(bounds.ok());
  for (const auto& param : snapshots[1].params) {
    EXPECT_TRUE(bounds->count(param.name));
  }
}

// Property sweep: every solver x delta kind must produce an archive whose
// snapshots read back (bit-exactly for XOR, within rounding for SUB).
using ArchiveSweepCase = std::tuple<ArchiveSolver, DeltaKind, double>;

class ArchiveSweepTest : public ::testing::TestWithParam<ArchiveSweepCase> {};

TEST_P(ArchiveSweepTest, RoundTripsUnderEveryConfiguration) {
  const auto& [solver, delta_kind, alpha] = GetParam();
  MemEnv env;
  const auto snapshots = TrainSnapshots(7, 40, 20);
  ASSERT_GE(snapshots.size(), 2u);
  ArchiveBuilder builder(&env, "arch");
  std::vector<std::string> names;
  for (size_t i = 0; i < snapshots.size(); ++i) {
    names.push_back("m/s" + std::to_string(i));
    ASSERT_TRUE(builder.AddSnapshot(names.back(), snapshots[i].params).ok());
    if (i > 0) {
      ASSERT_TRUE(builder.AddDeltaCandidate(names[i - 1], names[i]).ok());
    }
  }
  ArchiveOptions options;
  options.solver = solver;
  options.delta_kind = delta_kind;
  options.budget_alpha = alpha;
  auto report = builder.Build(options);
  ASSERT_TRUE(report.ok());
  if (alpha >= 1.0 && (solver == ArchiveSolver::kPasMt ||
                       solver == ArchiveSolver::kPasPt ||
                       solver == ArchiveSolver::kSpt)) {
    EXPECT_TRUE(report->budgets_satisfied);
  }
  auto reader = ArchiveReader::Open(&env, "arch");
  ASSERT_TRUE(reader.ok());
  for (size_t s = 0; s < names.size(); ++s) {
    auto params = reader->RetrieveSnapshot(names[s]);
    ASSERT_TRUE(params.ok());
    ASSERT_EQ(params->size(), snapshots[s].params.size());
    for (size_t p = 0; p < params->size(); ++p) {
      if (delta_kind == DeltaKind::kXor) {
        EXPECT_TRUE(
            (*params)[p].value.BitEquals(snapshots[s].params[p].value));
      } else {
        EXPECT_TRUE((*params)[p].value.ApproxEquals(
            snapshots[s].params[p].value, 1e-5f));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SolversAndDeltas, ArchiveSweepTest,
    ::testing::Combine(
        ::testing::Values(ArchiveSolver::kMst, ArchiveSolver::kSpt,
                          ArchiveSolver::kLast, ArchiveSolver::kPasMt,
                          ArchiveSolver::kPasPt),
        ::testing::Values(DeltaKind::kSub, DeltaKind::kXor),
        ::testing::Values(0.0, 1.6)));

// ----------------------------------------------------------- Progressive

TEST(ProgressiveTest, LabelsMatchFullPrecisionAndBytesShrink) {
  MemEnv env;
  // Train a glyph classifier well enough that logits separate.
  const Dataset ds = MakeGlyphDataset(
      {.num_samples = 300, .num_classes = 6, .image_size = 16, .seed = 3});
  NetworkDef def = MiniVgg(6, 16, 1);
  auto net = Network::Create(def);
  ASSERT_TRUE(net.ok());
  Rng rng(5);
  net->InitializeWeights(&rng);
  TrainOptions topt;
  topt.iterations = 150;
  topt.batch_size = 24;
  auto trained = TrainNetwork(&*net, ds, topt);
  ASSERT_TRUE(trained.ok());
  ASSERT_GT(trained->final_accuracy, 0.8);

  ArchiveBuilder builder(&env, "arch");
  ASSERT_TRUE(builder.AddSnapshot("final", net->GetParameters()).ok());
  ArchiveOptions aopt;
  ASSERT_TRUE(builder.Build(aopt).ok());
  auto reader = ArchiveReader::Open(&env, "arch");
  ASSERT_TRUE(reader.ok());

  // Evaluate 40 samples progressively.
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < 40; ++i) indices.push_back(i);
  Tensor batch;
  std::vector<int> labels;
  ds.Gather(indices, &batch, &labels);

  ProgressiveQueryEvaluator evaluator(&*reader, def);
  ProgressiveOptions popt;
  popt.top_k = 1;
  auto result = evaluator.Evaluate("final", batch, popt);
  ASSERT_TRUE(result.ok());

  // Guarantee: progressive labels equal full-precision labels.
  auto exact = net->Predict(batch);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(result->labels, *exact);

  // Most samples should resolve without all four planes, and total bytes
  // must undercut full retrieval (the point of Fig 6(d)).
  int resolved_early = result->resolved_at[1] + result->resolved_at[2] +
                       result->resolved_at[3];
  EXPECT_GT(resolved_early, 20);
  EXPECT_LT(result->bytes_read, result->full_bytes);
  // Histogram and per-sample plane lists agree.
  int histogram_total = 0;
  for (int p = 1; p <= 4; ++p) histogram_total += result->resolved_at[p];
  EXPECT_EQ(histogram_total, 40);
}

TEST(ProgressiveTest, Top5EasierThanTop1) {
  MemEnv env;
  const Dataset ds = MakeGlyphDataset(
      {.num_samples = 200, .num_classes = 10, .image_size = 16, .seed = 9});
  NetworkDef def = MiniVgg(10, 16, 1);
  auto net = Network::Create(def);
  ASSERT_TRUE(net.ok());
  Rng rng(7);
  net->InitializeWeights(&rng);
  TrainOptions topt;
  topt.iterations = 100;
  auto trained = TrainNetwork(&*net, ds, topt);
  ASSERT_TRUE(trained.ok());

  ArchiveBuilder builder(&env, "arch");
  ASSERT_TRUE(builder.AddSnapshot("final", net->GetParameters()).ok());
  ASSERT_TRUE(builder.Build(ArchiveOptions()).ok());
  auto reader = ArchiveReader::Open(&env, "arch");
  ASSERT_TRUE(reader.ok());

  std::vector<int64_t> indices;
  for (int64_t i = 0; i < 30; ++i) indices.push_back(i);
  Tensor batch;
  std::vector<int> labels;
  ds.Gather(indices, &batch, &labels);

  ProgressiveQueryEvaluator evaluator(&*reader, def);
  ProgressiveOptions top1;
  top1.top_k = 1;
  ProgressiveOptions top5;
  top5.top_k = 5;
  auto r1 = evaluator.Evaluate("final", batch, top1);
  auto r5 = evaluator.Evaluate("final", batch, top5);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r5.ok());
  // Both determinations must be internally consistent and never fetch more
  // than the full archive. (Top-5 is not universally easier than top-1:
  // separating rank 5 from rank 6 can be harder than rank 1 from rank 2,
  // so we assert soundness rather than an ordering.)
  for (const auto* r : {&*r1, &*r5}) {
    int histogram_total = 0;
    for (int p = 1; p <= 4; ++p) histogram_total += r->resolved_at[p];
    EXPECT_EQ(histogram_total, 30);
    for (int planes : r->planes_needed) {
      EXPECT_GE(planes, 1);
      EXPECT_LE(planes, 4);
    }
    EXPECT_LE(r->bytes_read, r->full_bytes * 2);
  }
  // Top-1 labels are exact by the Lemma 4 guarantee.
  auto exact = net->Predict(batch);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(r1->labels, *exact);
}

TEST(ProgressiveTest, OptionValidation) {
  MemEnv env;
  std::vector<NamedParam> params = {{"fc1.W", FloatMatrix(2, 2)}};
  params[0].value.Fill(0.5f);
  ArchiveBuilder builder(&env, "arch");
  ASSERT_TRUE(builder.AddSnapshot("s", params).ok());
  ASSERT_TRUE(builder.Build(ArchiveOptions()).ok());
  auto reader = ArchiveReader::Open(&env, "arch");
  ASSERT_TRUE(reader.ok());
  NetworkDef def("d", 1, 2, 2);
  ASSERT_TRUE(def.Append(MakeFull("fc1", 2)).ok());
  ProgressiveQueryEvaluator evaluator(&*reader, def);
  Tensor input(1, 1, 2, 2);
  ProgressiveOptions bad;
  bad.top_k = 0;
  EXPECT_TRUE(
      evaluator.Evaluate("s", input, bad).status().IsInvalidArgument());
  bad.top_k = 1;
  bad.initial_planes = 5;
  EXPECT_TRUE(
      evaluator.Evaluate("s", input, bad).status().IsInvalidArgument());
}

// Every successful Get is either a cache hit or a disk fetch — exactly
// one of the two. The counters are relaxed atomics updated from many
// threads (run under TSan in CI); after the threads join, the totals
// must balance and match the byte counter.
TEST(ChunkStoreTest, StatsConsistentUnderConcurrentAccess) {
  MemEnv env;
  ChunkStoreWriter writer(&env, "s.bin");
  Rng rng(21);
  constexpr int kChunks = 12;
  for (int i = 0; i < kChunks; ++i) {
    std::string data(512 + rng.Uniform(512), '\0');
    for (auto& c : data) c = static_cast<char>(rng.Uniform(6));
    ASSERT_TRUE(writer.Put(Slice(data), CodecType::kDeflateLite).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = ChunkStoreReader::Open(&env, "s.bin");
  ASSERT_TRUE(reader.ok());
  reader->EnableCache(true);
  // Roomy capacity: every chunk stays cached, so hits are deterministic.
  // (LruEviction covers the tight-capacity path.)
  reader->SetCacheCapacity(1 << 16);
  ThreadPool pool(4);
  WaitGroup group;
  std::atomic<uint64_t> gets{0};
  for (int t = 0; t < 8; ++t) {
    pool.Schedule(&group, [&, t] {
      for (int i = 0; i < 64; ++i) {
        const uint32_t id = static_cast<uint32_t>((i * 5 + t) % kChunks);
        if (reader->Get(id).ok()) gets.fetch_add(1);
      }
    });
  }
  group.Wait();
  const ChunkStoreStats stats = reader->stats();
  EXPECT_EQ(gets.load(), 8u * 64u);
  EXPECT_EQ(stats.chunk_fetches + stats.cache_hits, gets.load());
  EXPECT_GT(stats.chunk_fetches, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_EQ(reader->bytes_read(), stats.bytes_read);
  EXPECT_LE(stats.cache_bytes, 1u << 16);
}

// The mapped twin of StatsConsistentUnderConcurrentAccess, over a mix of
// raw chunks (read in place, never cached) and deflate chunks (decoded
// through the cache): every Get is still exactly one hit or one fetch.
// (Run under TSan in CI.)
TEST(ChunkStoreTest, MappedMixStatsExactUnderConcurrency) {
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "/mh_chunk_mapped_mix";
  ASSERT_TRUE(env->CreateDirs(dir).ok());
  const std::string path = dir + "/s.bin";
  ChunkStoreWriter writer(env, path);
  Rng rng(23);
  constexpr int kChunks = 12;
  std::vector<std::string> payloads;
  for (int i = 0; i < kChunks; ++i) {
    std::string data(512 + rng.Uniform(512), '\0');
    // Odd chunks are noise deflate-lite cannot shrink: stored raw.
    const uint64_t alphabet = i % 2 == 0 ? 6 : 256;
    for (auto& c : data) c = static_cast<char>(rng.Uniform(alphabet));
    payloads.push_back(data);
    ASSERT_TRUE(writer.Put(Slice(data), CodecType::kDeflateLite).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = ChunkStoreReader::Open(env, path);
  ASSERT_TRUE(reader.ok());
  uint64_t decoded_stored = 0;
  uint64_t decoded_raw = 0;
  for (uint32_t i = 0; i < kChunks; ++i) {
    ASSERT_EQ(reader->ref(i).codec,
              i % 2 == 0 ? CodecType::kDeflateLite : CodecType::kNull);
    if (i % 2 == 0) {
      decoded_stored += reader->ref(i).stored_size;
      decoded_raw += reader->ref(i).raw_size;
    }
  }
  reader->EnableCache(true);
  // Roomy capacity: every deflate chunk stays cached after its one fetch.
  reader->SetCacheCapacity(1 << 16);
  const Counter* raw_reads =
      MetricRegistry::Global()->GetCounter("pas.chunk.read.raw");
  const uint64_t raw_reads_before = raw_reads->value();
  const Histogram* raw_read_us =
      MetricRegistry::Global()->GetHistogram("pas.chunk.read.raw.us");
  const uint64_t raw_read_us_before = raw_read_us->Snapshot().count;
  const Histogram* fetch_us =
      MetricRegistry::Global()->GetHistogram("pas.chunk.fetch.us");
  const uint64_t fetch_us_before = fetch_us->Snapshot().count;
  ThreadPool pool(4);
  WaitGroup group;
  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> raw_gets{0};
  std::atomic<uint64_t> raw_bytes{0};
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    pool.Schedule(&group, [&, t] {
      for (int i = 0; i < 64; ++i) {
        const uint32_t id = static_cast<uint32_t>((i * 5 + t) % kChunks);
        auto data = reader->Get(id);
        if (!data.ok() || *data != payloads[id]) {
          mismatches.fetch_add(1);
          continue;
        }
        gets.fetch_add(1);
        if (id % 2 == 1) {
          raw_gets.fetch_add(1);
          raw_bytes.fetch_add(reader->ref(id).stored_size);
        }
      }
    });
  }
  group.Wait();
  const ChunkStoreStats stats = reader->stats();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(gets.load(), 8u * 64u);
  EXPECT_EQ(stats.chunk_fetches + stats.cache_hits, gets.load());
  // Raw Gets are all fetches; each deflate chunk is fetched exactly once
  // (a thread that loses the fill race counts a hit).
  EXPECT_EQ(stats.chunk_fetches, raw_gets.load() + kChunks / 2);
  EXPECT_EQ(stats.bytes_read, raw_bytes.load() + decoded_stored);
  EXPECT_EQ(raw_reads->value() - raw_reads_before, raw_gets.load());
  EXPECT_EQ(raw_read_us->Snapshot().count - raw_read_us_before,
            raw_gets.load());
  EXPECT_EQ(fetch_us->Snapshot().count - fetch_us_before, kChunks / 2u);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(reader->bytes_read(), stats.bytes_read);
  EXPECT_EQ(stats.cache_bytes, decoded_raw);
}

// Retrieval that dies partway (injected read fault) must still emit the
// stats accumulated up to the failure — an operator watching a stuck
// checkout needs to see how far it got, not stale numbers from the
// previous call.
TEST(ArchiveFaultTest, PartialRetrievalStatsOnReadError) {
  MemEnv mem;
  const auto snapshots = TrainSnapshots(7);
  ASSERT_EQ(snapshots.size(), 3u);
  std::vector<std::string> names;
  {
    ArchiveBuilder builder(&mem, "arch");
    for (size_t i = 0; i < snapshots.size(); ++i) {
      names.push_back("v/s" + std::to_string(i));
      ASSERT_TRUE(builder.AddSnapshot(names[i], snapshots[i].params).ok());
    }
    for (size_t i = 1; i < snapshots.size(); ++i) {
      ASSERT_TRUE(builder.AddDeltaCandidate(names[i - 1], names[i]).ok());
    }
    ArchiveOptions options;
    options.solver = ArchiveSolver::kMst;  // Forces delta chains.
    ASSERT_TRUE(builder.Build(options).ok());
  }
  FaultInjectionEnv fault(&mem);
  auto reader = ArchiveReader::Open(&fault, "arch");
  ASSERT_TRUE(reader.ok());
  reader->EnableChunkCache(true);
  // Warm the cache with the chain base so the failing retrieval can make
  // partial progress without touching the (faulted) disk.
  RetrievalStats stats;
  ASSERT_TRUE(reader->RetrieveSnapshot(names[0], &stats).ok());
  EXPECT_GT(stats.vertices_resolved, 0u);

  fault.FailReadsMatching("arch");
  RetrievalStats failed_stats;
  failed_stats.bytes_read = 99999999;  // Sentinel: the call must reset it.
  failed_stats.vertices_resolved = 99999999;
  auto failed = reader->RetrieveSnapshot(names[2], &failed_stats);
  ASSERT_FALSE(failed.ok());
  // Stats were reset at entry and reflect this call, not the previous one.
  EXPECT_LT(failed_stats.bytes_read, 99999999u);
  EXPECT_LT(failed_stats.vertices_resolved, 99999999u);

  // Retrieving a cached snapshot and a faulted one together: the batch
  // fails, but the emitted stats show the partial progress (the cached
  // snapshot's vertices resolved, its chunk reads served by the cache).
  ThreadPool pool(2);
  RetrievalStats partial;
  partial.bytes_read = 99999999;
  auto parallel = reader->RetrieveSnapshotsParallel(
      {names[0], names[2]}, &pool, ParallelScheme::kIndependent, &partial);
  ASSERT_FALSE(parallel.ok());
  EXPECT_LT(partial.bytes_read, 99999999u);
  EXPECT_GT(partial.vertices_resolved, 0u);
  EXPECT_GT(partial.cache_hits, 0u);

  // Disarm the fault: the same reader retrieves cleanly again.
  fault.Reset();
  ASSERT_TRUE(reader->RetrieveSnapshot(names[2]).ok());
}

// A CRC-valid manifest whose parent links form a cycle opens (Open only
// bounds each parent id), but no retrieval may recurse forever or return
// an empty matrix: every entry point reports Corruption, and fsck still
// names the chain.
TEST(ArchiveCorruptionTest, CyclicDeltaChainIsCorruption) {
  MemEnv env;
  Rng rng(5);
  std::vector<NamedParam> a = {{"w", FloatMatrix(16, 16)}};
  a[0].value.FillGaussian(&rng, 0.1f);
  std::vector<NamedParam> b = a;
  for (auto& v : b[0].value.data()) v += rng.UniformFloat(-1e-3f, 1e-3f);
  {
    ArchiveBuilder builder(&env, "arch");
    ASSERT_TRUE(builder.AddSnapshot("a", a).ok());
    ASSERT_TRUE(builder.AddSnapshot("b", b).ok());
    ASSERT_TRUE(builder.AddDeltaCandidate("a", "b").ok());
    ArchiveOptions options;
    options.solver = ArchiveSolver::kMst;
    options.delta_kind = DeltaKind::kSub;
    ASSERT_TRUE(builder.Build(options).ok());
  }
  // One of the two vertices is the materialized root, the other deltas
  // off it. Point the root's parent varint at the other vertex, so the
  // chain becomes v1 -> v2 -> v1.
  auto framed = ReadChecked(&env, "arch/manifest.bin");
  ASSERT_TRUE(framed.ok());
  std::string manifest = *framed;
  Slice in(manifest);
  in.RemovePrefix(6);  // "MHAM3\n"
  uint64_t value = 0;
  Slice text;
  ASSERT_TRUE(GetVarint64(&in, &value).ok());        // generation
  ASSERT_TRUE(GetLengthPrefixed(&in, &text).ok());   // chunk file
  ASSERT_TRUE(GetLengthPrefixed(&in, &text).ok());   // remote file
  ASSERT_TRUE(GetVarint64(&in, &value).ok());        // extra files
  ASSERT_EQ(value, 0u);
  ASSERT_TRUE(GetVarint64(&in, &value).ok());        // matrices
  ASSERT_EQ(value, 2u);
  size_t parent_at[2] = {0, 0};
  for (int v = 0; v < 2; ++v) {
    ASSERT_TRUE(GetLengthPrefixed(&in, &text).ok());  // snapshot
    ASSERT_TRUE(GetLengthPrefixed(&in, &text).ok());  // param
    ASSERT_TRUE(GetVarint64(&in, &value).ok());       // rows
    ASSERT_TRUE(GetVarint64(&in, &value).ok());       // cols
    in.RemovePrefix(2);                               // delta kind, tier
    parent_at[v] = manifest.size() - in.size();
    ASSERT_TRUE(GetVarint64(&in, &value).ok());       // parent
    for (int p = 0; p < 2 * kNumPlanes; ++p) {        // slot, chunk id
      ASSERT_TRUE(GetVarint64(&in, &value).ok());
    }
  }
  const int root = manifest[parent_at[0]] == 0 ? 0 : 1;
  ASSERT_EQ(manifest[parent_at[root]], 0);
  ASSERT_EQ(manifest[parent_at[1 - root]], root + 1);
  manifest[parent_at[root]] = static_cast<char>(2 - root);
  ASSERT_TRUE(WriteChecked(&env, "arch/manifest.bin", manifest).ok());

  auto reader = ArchiveReader::Open(&env, "arch");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ThreadPool pool(2);
  for (const std::string name : {"a", "b"}) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(reader->RetrieveMatrix(name, "w").status().IsCorruption());
    EXPECT_TRUE(reader->RetrieveSnapshot(name).status().IsCorruption());
    for (ParallelScheme scheme :
         {ParallelScheme::kShared, ParallelScheme::kIndependent}) {
      EXPECT_TRUE(reader->RetrieveSnapshotsParallel({name}, &pool, scheme)
                      .status()
                      .IsCorruption());
    }
    for (int planes = 1; planes <= kNumPlanes; ++planes) {
      EXPECT_TRUE(reader->RetrieveSnapshotBounds(name, planes)
                      .status()
                      .IsCorruption())
          << planes;
    }
  }
  bool flagged = false;
  for (const std::string& defect : reader->VerifyIntegrity()) {
    flagged |= defect.find("does not terminate") != std::string::npos;
  }
  EXPECT_TRUE(flagged);
}

// ------------------------------------------------------------ golden

// Opens the checked-in golden archive (written by an earlier build via
// tools/make_golden_archive) with today's reader. This is the format-
// compatibility contract: if this test needs the fixture regenerated to
// pass, the change broke every existing on-disk archive.
TEST(GoldenArchiveTest, TodaysReaderOpensCheckedInArchive) {
  Env* env = Env::Default();
  const std::string dir = std::string(MH_TESTDATA_DIR) + "/golden_archive";
  ASSERT_TRUE(env->FileExists(dir + "/manifest.bin"))
      << "fixture missing; regenerate with tools/make_golden_archive";
  auto reader = ArchiveReader::Open(env, dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->snapshot_names().size(), 3u);
  EXPECT_TRUE(reader->VerifyIntegrity().empty());

  // The fixture was built with kXor deltas, so retrieval is bit-exact:
  // recompute the generator's matrices and compare exactly.
  auto golden_matrix = [](int64_t rows, int64_t cols, uint64_t seed) {
    Rng rng(seed);
    FloatMatrix m(rows, cols);
    m.FillGaussian(&rng, 0.1f);
    return m;
  };
  auto drift = [](const FloatMatrix& base, uint64_t seed) {
    Rng rng(seed);
    FloatMatrix next = base;
    for (auto& v : next.data()) {
      v += static_cast<float>(rng.NextGaussian()) * 0.01f;
    }
    return next;
  };
  std::map<std::string, std::map<std::string, FloatMatrix>> want;
  want["golden@0"]["conv1"] = golden_matrix(8, 12, 101);
  want["golden@0"]["fc"] = golden_matrix(4, 10, 102);
  want["golden@1"]["conv1"] = drift(want["golden@0"]["conv1"], 201);
  want["golden@1"]["fc"] = drift(want["golden@0"]["fc"], 202);
  want["golden@2"]["conv1"] = drift(want["golden@1"]["conv1"], 301);
  want["golden@2"]["fc"] = drift(want["golden@1"]["fc"], 302);
  for (const auto& [snapshot, params] : want) {
    SCOPED_TRACE(snapshot);
    auto got = reader->RetrieveSnapshot(snapshot);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), params.size());
    for (const auto& param : *got) {
      SCOPED_TRACE(param.name);
      const auto it = params.find(param.name);
      ASSERT_TRUE(it != params.end());
      EXPECT_TRUE(param.value.BitEquals(it->second));
    }
  }
}

TEST(ArchiveSolverTest, NameCoverage) {
  EXPECT_EQ(ArchiveSolverToString(ArchiveSolver::kMst), "mst");
  EXPECT_EQ(ArchiveSolverToString(ArchiveSolver::kSpt), "spt");
  EXPECT_EQ(ArchiveSolverToString(ArchiveSolver::kLast), "last");
  EXPECT_EQ(ArchiveSolverToString(ArchiveSolver::kPasMt), "pas-mt");
  EXPECT_EQ(ArchiveSolverToString(ArchiveSolver::kPasPt), "pas-pt");
}

}  // namespace
}  // namespace modelhub
