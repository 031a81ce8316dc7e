// Property-based round-trip harness for the PAS storage stack, plus the
// differential tests that pin the archival write pipeline, byte for byte,
// to a plain ChunkStoreWriter::Put loop and multi-worker builds to
// one-worker ones.
//
// Every randomized case derives from one base seed. Failures carry a
// "seed=<n>" scope line; replay a single failing case with
//   MH_PROPERTY_SEED=<n> ./property_test
// which reruns the whole suite rooted at that seed.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "compress/codec.h"
#include "pas/archive.h"
#include "pas/delta.h"
#include "pas/float_encoding.h"
#include "pas/parallel_archiver.h"
#include "pas/segment.h"
#include "tensor/float_matrix.h"

namespace modelhub {
namespace {

uint64_t BaseSeed() {
  static const uint64_t seed = [] {
    const char* override_seed = std::getenv("MH_PROPERTY_SEED");
    if (override_seed != nullptr && *override_seed != '\0') {
      return std::strtoull(override_seed, nullptr, 10);
    }
    return 0x5EED2026ull;
  }();
  return seed;
}

// ------------------------------------------------------------ generators

enum class Pattern {
  kGaussian,    // N(0, 0.1) weights — the typical parameter matrix.
  kUniform,     // U[-3, 3).
  kConstant,    // One repeated value (maximally compressible).
  kSparse,      // Mostly zero with a few large outliers.
  kInteger,     // Small whole numbers (many shared byte planes).
  kAdversarial, // NaN / +-Inf / denormals / -0 / FLT_MAX / FLT_MIN mix.
  kCount,
};

const char* PatternName(Pattern p) {
  switch (p) {
    case Pattern::kGaussian: return "gaussian";
    case Pattern::kUniform: return "uniform";
    case Pattern::kConstant: return "constant";
    case Pattern::kSparse: return "sparse";
    case Pattern::kInteger: return "integer";
    case Pattern::kAdversarial: return "adversarial";
    case Pattern::kCount: break;
  }
  return "?";
}

bool IsFinitePattern(Pattern p) { return p != Pattern::kAdversarial; }

FloatMatrix RandomMatrix(Rng* rng, Pattern pattern) {
  const int64_t rows = 1 + static_cast<int64_t>(rng->Uniform(16));
  const int64_t cols = 1 + static_cast<int64_t>(rng->Uniform(32));
  FloatMatrix m(rows, cols);
  switch (pattern) {
    case Pattern::kGaussian:
      m.FillGaussian(rng, 0.1f);
      break;
    case Pattern::kUniform:
      m.FillUniform(rng, -3.0f, 3.0f);
      break;
    case Pattern::kConstant:
      m.Fill(rng->UniformFloat(-10.0f, 10.0f));
      break;
    case Pattern::kSparse:
      for (auto& v : m.data()) {
        v = rng->Bernoulli(0.05) ? rng->UniformFloat(-100.0f, 100.0f) : 0.0f;
      }
      break;
    case Pattern::kInteger:
      for (auto& v : m.data()) {
        v = static_cast<float>(static_cast<int>(rng->Uniform(17)) - 8);
      }
      break;
    case Pattern::kAdversarial: {
      static const float kNasty[] = {
          std::numeric_limits<float>::quiet_NaN(),
          std::numeric_limits<float>::infinity(),
          -std::numeric_limits<float>::infinity(),
          std::numeric_limits<float>::denorm_min(),
          -std::numeric_limits<float>::denorm_min(),
          -0.0f,
          0.0f,
          FLT_MAX,
          -FLT_MAX,
          FLT_MIN,
          1.0f,
          -1.0f,
      };
      for (auto& v : m.data()) {
        v = rng->Bernoulli(0.5)
                ? kNasty[rng->Uniform(sizeof(kNasty) / sizeof(kNasty[0]))]
                : rng->UniformFloat(-1e30f, 1e30f);
      }
      break;
    }
    case Pattern::kCount:
      break;
  }
  return m;
}

/// A same-shape perturbation of `base` (the typical checkpoint-to-
/// checkpoint relationship a delta edge exploits).
FloatMatrix Perturb(const FloatMatrix& base, Rng* rng, float stddev) {
  FloatMatrix next = base;
  for (auto& v : next.data()) {
    v += static_cast<float>(rng->NextGaussian()) * stddev;
  }
  return next;
}

std::string RandomPayload(Rng* rng) {
  const size_t size = 1 + rng->Uniform(4096);
  std::string payload(size, '\0');
  switch (rng->Uniform(4)) {
    case 0:  // High entropy.
      for (auto& c : payload) c = static_cast<char>(rng->Uniform(256));
      break;
    case 1:  // Low entropy (few symbols).
      for (auto& c : payload) c = static_cast<char>(rng->Uniform(5));
      break;
    case 2: {  // Long runs.
      size_t i = 0;
      while (i < size) {
        const char symbol = static_cast<char>(rng->Uniform(256));
        size_t run = 1 + rng->Uniform(300);
        while (run-- > 0 && i < size) payload[i++] = symbol;
      }
      break;
    }
    default:  // All one byte.
      std::memset(payload.data(), static_cast<int>(rng->Uniform(256)), size);
      break;
  }
  return payload;
}

// ------------------------------------------------------------ codecs

TEST(PropertyTest, CodecRoundTripIsIdentity) {
  constexpr CodecType kCodecs[] = {CodecType::kNull, CodecType::kRle,
                                   CodecType::kHuffman,
                                   CodecType::kDeflateLite};
  for (int iter = 0; iter < 40; ++iter) {
    const uint64_t seed = BaseSeed() + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const std::string payload = RandomPayload(&rng);
    for (const CodecType codec : kCodecs) {
      SCOPED_TRACE("codec=" + Codec::Get(codec)->name());
      std::string compressed;
      ASSERT_TRUE(
          Codec::Get(codec)->Compress(Slice(payload), &compressed).ok());
      std::string restored;
      ASSERT_TRUE(
          Codec::Get(codec)->Decompress(Slice(compressed), &restored).ok());
      ASSERT_EQ(restored, payload);
    }
  }
}

// ------------------------------------------------------------ segmentation

TEST(PropertyTest, SegmentAssembleRoundTripIsBitExact) {
  for (int iter = 0; iter < 60; ++iter) {
    const uint64_t seed = BaseSeed() + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const Pattern pattern =
        static_cast<Pattern>(rng.Uniform(static_cast<int>(Pattern::kCount)));
    SCOPED_TRACE(PatternName(pattern));
    const FloatMatrix m = RandomMatrix(&rng, pattern);
    const auto planes = SegmentFloats(m);
    std::vector<Slice> slices;
    for (const std::string& plane : planes) slices.emplace_back(plane);
    auto restored = AssembleFloats(m.rows(), m.cols(), slices);
    ASSERT_TRUE(restored.ok());
    ASSERT_TRUE(restored->BitEquals(m));
  }
}

TEST(PropertyTest, PartialPlaneBoundsContainTrueValues) {
  for (int iter = 0; iter < 40; ++iter) {
    const uint64_t seed = BaseSeed() + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    Pattern pattern =
        static_cast<Pattern>(rng.Uniform(static_cast<int>(Pattern::kCount)));
    if (!IsFinitePattern(pattern)) pattern = Pattern::kUniform;
    SCOPED_TRACE(PatternName(pattern));
    const FloatMatrix m = RandomMatrix(&rng, pattern);
    const auto planes = SegmentFloats(m);
    for (int k = 1; k <= kNumPlanes; ++k) {
      SCOPED_TRACE("planes=" + std::to_string(k));
      std::vector<Slice> slices;
      for (int p = 0; p < k; ++p) slices.emplace_back(planes[p]);
      auto bounds = BoundsFromPlanes(m.rows(), m.cols(), slices);
      ASSERT_TRUE(bounds.ok());
      for (int64_t r = 0; r < m.rows(); ++r) {
        for (int64_t c = 0; c < m.cols(); ++c) {
          const float v = m.At(r, c);
          ASSERT_LE(bounds->lo().At(r, c), v) << "r=" << r << " c=" << c;
          ASSERT_GE(bounds->hi().At(r, c), v) << "r=" << r << " c=" << c;
        }
      }
    }
  }
}

// ------------------------------------------------------------ deltas

TEST(PropertyTest, ExactDeltaKindsRoundTripBitExact) {
  // XOR and materialized deltas must restore the target's exact bit
  // pattern for every input, including NaN/Inf/denormal payloads.
  constexpr DeltaKind kExactKinds[] = {DeltaKind::kMaterialized,
                                       DeltaKind::kXor,
                                       DeltaKind::kAdaptiveXor};
  for (int iter = 0; iter < 60; ++iter) {
    const uint64_t seed = BaseSeed() + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const Pattern pattern =
        static_cast<Pattern>(rng.Uniform(static_cast<int>(Pattern::kCount)));
    SCOPED_TRACE(PatternName(pattern));
    const FloatMatrix target = RandomMatrix(&rng, pattern);
    FloatMatrix base(target.rows(), target.cols());
    base.FillGaussian(&rng, 0.5f);
    for (const DeltaKind kind : kExactKinds) {
      SCOPED_TRACE(std::string(DeltaKindToString(kind)));
      // Adaptive kinds must also survive a base of a different shape.
      const FloatMatrix* delta_base = &base;
      FloatMatrix small_base;
      if (kind == DeltaKind::kAdaptiveXor && rng.Bernoulli(0.5)) {
        small_base = FloatMatrix(1 + rng.Uniform(16), 1 + rng.Uniform(32));
        small_base.FillGaussian(&rng, 0.5f);
        delta_base = &small_base;
      }
      auto delta = ComputeDelta(target, *delta_base, kind);
      ASSERT_TRUE(delta.ok());
      auto restored = ApplyDelta(*delta_base, *delta, kind);
      ASSERT_TRUE(restored.ok());
      ASSERT_TRUE(restored->BitEquals(target));
    }
  }
}

TEST(PropertyTest, SubtractiveDeltaKindsRoundTripWithinRounding) {
  for (int iter = 0; iter < 60; ++iter) {
    const uint64_t seed = BaseSeed() + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    Pattern pattern =
        static_cast<Pattern>(rng.Uniform(static_cast<int>(Pattern::kCount)));
    if (!IsFinitePattern(pattern)) pattern = Pattern::kGaussian;
    SCOPED_TRACE(PatternName(pattern));
    const FloatMatrix target = RandomMatrix(&rng, pattern);
    const FloatMatrix base = Perturb(target, &rng, 0.05f);
    for (const DeltaKind kind : {DeltaKind::kSub, DeltaKind::kAdaptiveSub}) {
      SCOPED_TRACE(std::string(DeltaKindToString(kind)));
      auto delta = ComputeDelta(target, base, kind);
      ASSERT_TRUE(delta.ok());
      auto restored = ApplyDelta(base, *delta, kind);
      ASSERT_TRUE(restored.ok());
      ASSERT_EQ(restored->rows(), target.rows());
      ASSERT_EQ(restored->cols(), target.cols());
      for (int64_t i = 0; i < target.size(); ++i) {
        const float t = target.data()[static_cast<size_t>(i)];
        const float b = base.data()[static_cast<size_t>(i)];
        const float r = restored->data()[static_cast<size_t>(i)];
        // (b + (t - b)) differs from t by at most one rounding step at
        // the magnitude of the larger operand.
        const float tol =
            (std::fabs(t) + std::fabs(b)) * 1e-6f + 1e-30f;
        ASSERT_NEAR(r, t, tol) << "i=" << i;
      }
    }
  }
}

// ------------------------------------------------------------ float schemes

TEST(PropertyTest, Float32SchemeIsLosslessForAllBitPatterns) {
  for (int iter = 0; iter < 40; ++iter) {
    const uint64_t seed = BaseSeed() + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const Pattern pattern =
        static_cast<Pattern>(rng.Uniform(static_cast<int>(Pattern::kCount)));
    SCOPED_TRACE(PatternName(pattern));
    const FloatMatrix m = RandomMatrix(&rng, pattern);
    auto encoded = EncodeMatrix(m, {FloatSchemeKind::kFloat32, 32});
    ASSERT_TRUE(encoded.ok());
    auto decoded = DecodeMatrix(*encoded);
    ASSERT_TRUE(decoded.ok());
    ASSERT_TRUE(decoded->BitEquals(m));
  }
}

TEST(PropertyTest, LossySchemesStayWithinTheirErrorEnvelope) {
  struct SchemeCase {
    FloatScheme scheme;
    // Error bound as a function of the matrix's value range.
    float rel;  ///< Multiplied by max |value|.
    float abs;  ///< Additive floor (denormal cutoffs etc.).
  };
  const SchemeCase kCases[] = {
      {{FloatSchemeKind::kFloat16, 16}, 1.0f / 1024.0f, 1e-4f},
      {{FloatSchemeKind::kBFloat16, 16}, 1.0f / 128.0f, 1e-30f},
      {{FloatSchemeKind::kFixedPoint, 16}, 1.0f / 2048.0f, 1e-6f},
      {{FloatSchemeKind::kQuantUniform, 8}, 1.0f / 64.0f, 1e-6f},
      {{FloatSchemeKind::kQuantRandom, 8}, 1.0f, 1e-6f},
  };
  for (int iter = 0; iter < 30; ++iter) {
    const uint64_t seed = BaseSeed() + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    // Bounded finite values: lossy-representable by every scheme above.
    FloatMatrix m(1 + rng.Uniform(16), 1 + rng.Uniform(32));
    m.FillUniform(&rng, -2.0f, 2.0f);
    float max_abs = 0.0f;
    for (const float v : m.data()) max_abs = std::max(max_abs, std::fabs(v));
    for (const SchemeCase& test_case : kCases) {
      SCOPED_TRACE(test_case.scheme.ToString());
      Rng scheme_rng(seed ^ 0xC0DEB00Cull);
      auto encoded = EncodeMatrix(m, test_case.scheme, &scheme_rng);
      ASSERT_TRUE(encoded.ok());
      auto decoded = DecodeMatrix(*encoded);
      ASSERT_TRUE(decoded.ok());
      ASSERT_EQ(decoded->rows(), m.rows());
      ASSERT_EQ(decoded->cols(), m.cols());
      const float tol = max_abs * test_case.rel + test_case.abs;
      for (int64_t i = 0; i < m.size(); ++i) {
        ASSERT_NEAR(decoded->data()[static_cast<size_t>(i)],
                    m.data()[static_cast<size_t>(i)], tol)
            << "i=" << i;
      }
    }
  }
}

// ------------------------------------------------------------ pipeline

/// One randomized snapshot-chain corpus: `chain_len` snapshots of
/// `num_params` parameters each, adjacent snapshots registered as delta
/// candidates (the dlv archive shape).
struct Corpus {
  std::vector<std::string> names;
  std::vector<std::vector<NamedParam>> snapshots;
};

Corpus RandomCorpus(Rng* rng) {
  Corpus corpus;
  const int chain_len = 2 + static_cast<int>(rng->Uniform(3));
  const int num_params = 1 + static_cast<int>(rng->Uniform(3));
  std::vector<FloatMatrix> current(num_params);
  for (int p = 0; p < num_params; ++p) {
    current[p] = FloatMatrix(4 + rng->Uniform(12), 4 + rng->Uniform(20));
    current[p].FillGaussian(rng, 0.2f);
  }
  for (int s = 0; s < chain_len; ++s) {
    corpus.names.push_back("v1@" + std::to_string(s));
    std::vector<NamedParam> params;
    for (int p = 0; p < num_params; ++p) {
      if (s > 0) current[p] = Perturb(current[p], rng, 0.02f);
      params.push_back({"w" + std::to_string(p), current[p]});
    }
    corpus.snapshots.push_back(std::move(params));
  }
  return corpus;
}

Result<ArchiveBuildReport> BuildCorpusArchive(Env* env,
                                              const std::string& dir,
                                              const Corpus& corpus,
                                              ArchiveOptions options) {
  ArchiveBuilder builder(env, dir);
  for (size_t s = 0; s < corpus.names.size(); ++s) {
    MH_RETURN_IF_ERROR(
        builder.AddSnapshot(corpus.names[s], corpus.snapshots[s]));
    if (s > 0) {
      MH_RETURN_IF_ERROR(builder.AddDeltaCandidate(corpus.names[s - 1],
                                                   corpus.names[s]));
    }
  }
  return builder.Build(options);
}

/// All files under `dir`, name -> contents.
std::map<std::string, std::string> DirContents(Env* env,
                                               const std::string& dir) {
  std::map<std::string, std::string> out;
  auto names = env->ListDir(dir);
  EXPECT_TRUE(names.ok());
  if (!names.ok()) return out;
  for (const std::string& name : *names) {
    auto data = env->ReadFile(JoinPath(dir, name));
    EXPECT_TRUE(data.ok()) << name;
    if (data.ok()) out[name] = *data;
  }
  return out;
}

TEST(ParallelArchiverProperty, ParallelBuildsAreBitIdenticalToSerial) {
  struct OptionCase {
    const char* label;
    ArchiveOptions options;
  };
  std::vector<OptionCase> cases;
  {
    OptionCase base;
    base.label = "deflate+sub";
    cases.push_back(base);
  }
  {
    OptionCase xor_case;
    xor_case.label = "huffman+xor";
    xor_case.options.codec = CodecType::kHuffman;
    xor_case.options.delta_kind = DeltaKind::kXor;
    cases.push_back(xor_case);
  }
  {
    OptionCase remote;
    remote.label = "remote-tier";
    remote.options.enable_remote_tier = true;
    remote.options.budget_alpha = 2.0;
    cases.push_back(remote);
  }
  {
    // kQuantRandom's codebook sampling consumes a shared Rng stream; the
    // pipeline must keep that stage serial to stay deterministic.
    OptionCase quant;
    quant.label = "quant-random";
    quant.options.storage_scheme = {FloatSchemeKind::kQuantRandom, 8};
    cases.push_back(quant);
  }
  for (int iter = 0; iter < 4; ++iter) {
    const uint64_t seed = BaseSeed() + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const Corpus corpus = RandomCorpus(&rng);
    const OptionCase& test_case = cases[static_cast<size_t>(iter) %
                                        cases.size()];
    SCOPED_TRACE(test_case.label);

    MemEnv env;
    std::map<std::string, std::string> reference;
    for (const int threads : {1, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ArchiveOptions options = test_case.options;
      options.archive_threads = threads;
      const std::string dir = "archive-n" + std::to_string(threads);
      auto report = BuildCorpusArchive(&env, dir, corpus, options);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      // threads reports workers actually used; the corpus always has
      // enough tile + codec tasks to occupy the full requested pool.
      EXPECT_EQ(report->pipeline.threads, threads);
      EXPECT_EQ(report->pipeline.jobs,
                static_cast<int>(corpus.names.size() *
                                 corpus.snapshots[0].size()));
      const auto contents = DirContents(&env, dir);
      ASSERT_FALSE(contents.empty());
      if (threads == 1) {
        reference = contents;
        continue;
      }
      ASSERT_EQ(contents.size(), reference.size());
      for (const auto& [name, data] : reference) {
        const auto it = contents.find(name);
        ASSERT_TRUE(it != contents.end()) << name;
        ASSERT_TRUE(it->second == data)
            << name << " differs between threads=1 and threads=" << threads;
      }
    }
  }
}

TEST(ParallelArchiverProperty, RetrievalAgreesAcrossSchemesAndBounds) {
  for (int iter = 0; iter < 2; ++iter) {
    const uint64_t seed = BaseSeed() + 1000 + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const Corpus corpus = RandomCorpus(&rng);

    MemEnv env;
    ArchiveOptions options;
    options.delta_kind = DeltaKind::kSub;  // Bounds need sub/materialized.
    options.archive_threads = iter == 0 ? 1 : 8;
    auto report = BuildCorpusArchive(&env, "archive", corpus, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    auto reader = ArchiveReader::Open(&env, "archive");
    ASSERT_TRUE(reader.ok());
    ThreadPool pool(4);
    for (size_t s = 0; s < corpus.names.size(); ++s) {
      SCOPED_TRACE(corpus.names[s]);
      auto exact = reader->RetrieveSnapshot(corpus.names[s]);
      ASSERT_TRUE(exact.ok());
      auto parallel = reader->RetrieveSnapshotsParallel(
          {corpus.names[s]}, &pool, ParallelScheme::kShared);
      ASSERT_TRUE(parallel.ok());
      auto independent = reader->RetrieveSnapshotsParallel(
          {corpus.names[s]}, &pool, ParallelScheme::kIndependent);
      ASSERT_TRUE(independent.ok());
      ASSERT_EQ(exact->size(), corpus.snapshots[s].size());
      ASSERT_EQ((*parallel)[0].size(), exact->size());
      ASSERT_EQ((*independent)[0].size(), exact->size());
      for (size_t p = 0; p < exact->size(); ++p) {
        SCOPED_TRACE((*exact)[p].name);
        ASSERT_TRUE(
            (*parallel)[0][p].value.BitEquals((*exact)[p].value));
        ASSERT_TRUE(
            (*independent)[0][p].value.BitEquals((*exact)[p].value));
        // Sub deltas round-trip within float rounding of the chain.
        ASSERT_TRUE((*exact)[p].value.ApproxEquals(
            corpus.snapshots[s][p].value, 1e-4f));
      }
      // Progressive bounds: sound at every prefix, exact at 4 planes.
      for (int planes = 1; planes <= kNumPlanes; ++planes) {
        SCOPED_TRACE("planes=" + std::to_string(planes));
        auto bounds = reader->RetrieveSnapshotBounds(corpus.names[s], planes);
        ASSERT_TRUE(bounds.ok());
        for (size_t p = 0; p < exact->size(); ++p) {
          const auto it = bounds->find((*exact)[p].name);
          ASSERT_TRUE(it != bounds->end());
          const FloatMatrix& value = (*exact)[p].value;
          for (int64_t r = 0; r < value.rows(); ++r) {
            for (int64_t c = 0; c < value.cols(); ++c) {
              ASSERT_LE(it->second.lo().At(r, c), value.At(r, c));
              ASSERT_GE(it->second.hi().At(r, c), value.At(r, c));
              if (planes == kNumPlanes) {
                ASSERT_EQ(it->second.lo().At(r, c), it->second.hi().At(r, c));
              }
            }
          }
        }
      }
    }
  }
}

TEST(ParallelArchiverProperty, PipelinePrimitiveMatchesSerialStore) {
  // ParallelArchiver::Run against a direct ChunkStoreWriter::Put loop:
  // the stored files must be identical, chunk ids in job order. A random
  // subset of jobs carries a trial of its payload, as the cost model
  // hands one over: the codec EncodeChunk chose per plane, and the
  // encoded bytes of a random subset of those planes.
  for (int iter = 0; iter < 6; ++iter) {
    const uint64_t seed = BaseSeed() + 2000 + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    std::vector<FloatMatrix> targets;
    std::vector<FloatMatrix> bases;
    const int num_jobs = 1 + static_cast<int>(rng.Uniform(12));
    for (int j = 0; j < num_jobs; ++j) {
      const Pattern pattern = static_cast<Pattern>(
          rng.Uniform(static_cast<int>(Pattern::kCount)));
      targets.push_back(RandomMatrix(&rng, pattern));
      bases.push_back(Perturb(targets.back(), &rng, 0.1f));
    }
    MemEnv env;
    const CodecType codec =
        rng.Bernoulli(0.5) ? CodecType::kDeflateLite : CodecType::kHuffman;

    ChunkStoreWriter serial(&env, "serial.bin");
    std::vector<PlaneCodecs> trial_codecs(static_cast<size_t>(num_jobs));
    std::vector<PlaneBytes> trial_planes(static_cast<size_t>(num_jobs));
    std::vector<bool> has_trial(static_cast<size_t>(num_jobs));
    uint64_t want_from_trial = 0;
    uint64_t want_null_framed = 0;
    for (int j = 0; j < num_jobs; ++j) {
      const size_t jj = static_cast<size_t>(j);
      auto delta = ComputeDelta(targets[jj], bases[jj], DeltaKind::kXor);
      ASSERT_TRUE(delta.ok());
      const auto planes = SegmentFloats(*delta);
      has_trial[jj] = rng.Bernoulli(0.5);
      for (int p = 0; p < kNumPlanes; ++p) {
        ASSERT_TRUE(serial.Put(Slice(planes[p]), codec).ok());
        if (!has_trial[jj]) continue;
        std::string encoded;
        auto stored = EncodeChunk(Slice(planes[p]), codec, &encoded);
        ASSERT_TRUE(stored.ok());
        trial_codecs[jj][p] = *stored;
        if (rng.Bernoulli(0.5)) {
          trial_planes[jj][p] = std::move(encoded);
          ++want_from_trial;
        } else if (*stored == CodecType::kNull) {
          ++want_null_framed;
        }
      }
    }
    ASSERT_TRUE(serial.Finish().ok());

    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const std::string path = "parallel-" + std::to_string(threads) + ".bin";
      ChunkStoreWriter parallel(&env, path);
      std::vector<ParallelArchiver::Job> jobs(
          static_cast<size_t>(num_jobs));
      for (int j = 0; j < num_jobs; ++j) {
        const size_t jj = static_cast<size_t>(j);
        jobs[jj] = {&targets[jj], &bases[jj], DeltaKind::kXor, &parallel};
        if (has_trial[jj]) {
          jobs[jj].trial_codecs = &trial_codecs[jj];
          jobs[jj].trial_planes = &trial_planes[jj];
        }
      }
      ArchivePipelineStats stats;
      auto placements = ParallelArchiver::Run(jobs, codec, threads, &stats);
      ASSERT_TRUE(placements.ok());
      ASSERT_EQ(placements->size(), jobs.size());
      for (size_t j = 0; j < placements->size(); ++j) {
        for (int p = 0; p < kNumPlanes; ++p) {
          ASSERT_EQ((*placements)[j].chunk_ids[p],
                    static_cast<uint32_t>(j) * kNumPlanes +
                        static_cast<uint32_t>(p));
        }
      }
      ASSERT_TRUE(parallel.Finish().ok());
      EXPECT_EQ(stats.jobs, num_jobs);
      EXPECT_GT(stats.raw_bytes, 0u);
      EXPECT_EQ(stats.planes_from_trial, want_from_trial);
      EXPECT_EQ(stats.planes_null_framed, want_null_framed);
      auto serial_bytes = env.ReadFile("serial.bin");
      auto parallel_bytes = env.ReadFile(path);
      ASSERT_TRUE(serial_bytes.ok());
      ASSERT_TRUE(parallel_bytes.ok());
      ASSERT_TRUE(*serial_bytes == *parallel_bytes);
    }
  }
}

TEST(ParallelArchiverProperty, TileBoundariesAreByteInvariant) {
  // The tiled encode pipeline must produce the same archive for every
  // tile shape: one-row tiles (maximal boundary count), odd sizes that
  // straddle rows unevenly, and whole-matrix tiles (the pre-tiling
  // shape), across serial and parallel pools. Retrieval bounds from the
  // identical bytes must agree too. Build hands the pipeline the cost
  // model's trials, so trial-carrying jobs see every tile shape.
  const uint64_t seed = BaseSeed() + 3000;
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Rng rng(seed);
  const Corpus corpus = RandomCorpus(&rng);

  MemEnv env;
  std::map<std::string, std::string> reference;
  std::vector<double> reference_lo;
  for (const int tile_rows : {1, 3, 7, 1 << 20}) {
    for (const int threads : {1, 4, 8}) {
      SCOPED_TRACE("tile_rows=" + std::to_string(tile_rows) +
                   " threads=" + std::to_string(threads));
      ArchiveOptions options;
      options.delta_kind = DeltaKind::kSub;  // Bounds need sub.
      options.archive_threads = threads;
      options.tile_rows = tile_rows;
      const std::string dir = "archive-t" + std::to_string(tile_rows) +
                              "-n" + std::to_string(threads);
      auto report = BuildCorpusArchive(&env, dir, corpus, options);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_GE(report->pipeline.tiles, report->pipeline.jobs);
      // Every plane of a materialized job comes from its trial: held
      // bytes where the codec shrank it, else the null frame.
      EXPECT_GE(report->pipeline.planes_from_trial +
                    report->pipeline.planes_null_framed,
                static_cast<uint64_t>(kNumPlanes));
      const auto contents = DirContents(&env, dir);
      ASSERT_FALSE(contents.empty());

      auto archive = ArchiveReader::Open(&env, dir);
      ASSERT_TRUE(archive.ok());
      auto bounds = archive->RetrieveSnapshotBounds(corpus.names.back(), 2);
      ASSERT_TRUE(bounds.ok());
      std::vector<double> lo;
      for (const auto& [name, interval] : *bounds) {
        lo.push_back(interval.lo().At(0, 0));
      }

      if (reference.empty()) {
        reference = contents;
        reference_lo = lo;
        continue;
      }
      ASSERT_EQ(contents.size(), reference.size());
      for (const auto& [name, data] : reference) {
        const auto it = contents.find(name);
        ASSERT_TRUE(it != contents.end()) << name;
        ASSERT_TRUE(it->second == data) << name << " differs from reference";
      }
      ASSERT_EQ(lo, reference_lo);
    }
  }
}

TEST(ParallelArchiverProperty, WorkerCountClampsToSchedulableTasks) {
  // Regression: stats.threads used to echo the resolved knob even when
  // the job list could never occupy that many workers. A single job
  // encoded as one tile has 1 + kNumPlanes schedulable tasks, so a pool
  // of 8 must report 5.
  Rng rng(BaseSeed() + 4000);
  const FloatMatrix target = RandomMatrix(&rng, Pattern::kGaussian);
  MemEnv env;
  ChunkStoreWriter store(&env, "clamp.bin");
  std::vector<ParallelArchiver::Job> jobs(1);
  jobs[0] = {&target, nullptr, DeltaKind::kMaterialized, &store};
  ArchivePipelineStats stats;
  auto placements = ParallelArchiver::Run(jobs, CodecType::kDeflateLite, 8,
                                          &stats, 1 << 20);
  ASSERT_TRUE(placements.ok());
  EXPECT_EQ(stats.tiles, 1);
  EXPECT_EQ(stats.threads, 1 + kNumPlanes);
  EXPECT_EQ(static_cast<int>(stats.tile_encode_ms.size()), stats.tiles);
  EXPECT_EQ(static_cast<int>(stats.plane_codec_ms.size()), kNumPlanes);
}

// --------------------------------------------------------- chunk dedup

/// One random fine-tune of `base`: sparse (a few weights move), low-rank
/// (an outer-product update touches everything coherently), or noise
/// (every weight jitters). The three shapes exercise chunk dedup's
/// full spectrum from "all planes identical" to "nothing shared".
FloatMatrix MutateParam(const FloatMatrix& base, Rng* rng) {
  FloatMatrix out = base;
  switch (rng->Uniform(3)) {
    case 0: {  // Sparse.
      const size_t stride = 17 + rng->Uniform(40);
      for (size_t i = rng->Uniform(7); i < out.data().size(); i += stride) {
        out.data()[i] += static_cast<float>(rng->NextGaussian()) * 0.05f;
      }
      break;
    }
    case 1: {  // Low-rank: out += u v^T.
      std::vector<float> u(static_cast<size_t>(out.rows()));
      std::vector<float> v(static_cast<size_t>(out.cols()));
      for (auto& x : u) x = static_cast<float>(rng->NextGaussian()) * 0.05f;
      for (auto& x : v) x = static_cast<float>(rng->NextGaussian());
      for (int64_t r = 0; r < out.rows(); ++r) {
        for (int64_t c = 0; c < out.cols(); ++c) {
          out.At(r, c) += u[static_cast<size_t>(r)] *
                          v[static_cast<size_t>(c)];
        }
      }
      break;
    }
    default: {  // Noise.
      for (auto& x : out.data()) {
        x += static_cast<float>(rng->NextGaussian()) * 0.01f;
      }
      break;
    }
  }
  return out;
}

// Seeded random fine-tuned families round-trip through chunk dedup
// bit-exactly, and plane references are conserved: the manifest holds
// exactly four plane references per matrix.
TEST(ChunkDedupProperty, MutatedFamiliesRoundTripWithConservedRefcounts) {
  for (int iter = 0; iter < 3; ++iter) {
    const uint64_t seed = BaseSeed() + 4000 + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);

    const int num_params = 2 + static_cast<int>(rng.Uniform(3));
    const int variants = 4 + static_cast<int>(rng.Uniform(4));
    std::vector<FloatMatrix> base(static_cast<size_t>(num_params));
    for (auto& m : base) {
      m = FloatMatrix(8 + rng.Uniform(24), 8 + rng.Uniform(32));
      m.FillGaussian(&rng, 0.1f);
    }

    Corpus corpus;
    auto add = [&](const std::string& name,
                   const std::vector<FloatMatrix>& params) {
      corpus.names.push_back(name);
      std::vector<NamedParam> named;
      for (int p = 0; p < num_params; ++p) {
        named.push_back({"w" + std::to_string(p),
                         params[static_cast<size_t>(p)]});
      }
      corpus.snapshots.push_back(std::move(named));
    };
    add("fam@base", base);
    for (int v = 0; v < variants; ++v) {
      std::vector<FloatMatrix> tuned = base;
      // Mutate a random subset of parameters, freeze the rest.
      const int mutated = 1 + static_cast<int>(rng.Uniform(
                                  static_cast<uint32_t>(num_params)));
      for (int m = 0; m < mutated; ++m) {
        const size_t p = rng.Uniform(static_cast<uint32_t>(num_params));
        tuned[p] = MutateParam(tuned[p], &rng);
      }
      add("fam@ft" + std::to_string(v), tuned);
    }

    MemEnv env;
    ArchiveOptions options;  // Dedup + similarity pairing on by default.
    options.archive_threads = iter % 2 == 0 ? 1 : 4;
    ArchiveBuilder builder(&env, "archive");
    for (size_t s = 0; s < corpus.names.size(); ++s) {
      ASSERT_TRUE(
          builder.AddSnapshot(corpus.names[s], corpus.snapshots[s]).ok());
    }
    auto report = builder.Build(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    // Round trip: every snapshot comes back bit-exact.
    auto reader = ArchiveReader::Open(&env, "archive");
    ASSERT_TRUE(reader.ok());
    for (size_t s = 0; s < corpus.names.size(); ++s) {
      SCOPED_TRACE(corpus.names[s]);
      auto params = reader->RetrieveSnapshot(corpus.names[s]);
      ASSERT_TRUE(params.ok()) << params.status().ToString();
      ASSERT_EQ(params->size(), corpus.snapshots[s].size());
      for (size_t p = 0; p < params->size(); ++p) {
        const auto& got = (*params)[p].value.data();
        const auto& want = corpus.snapshots[s][p].value.data();
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << (*params)[p].name;
      }
    }

    // Reference conservation: 4 plane references per archived matrix —
    // dedup moves references between chunks but never creates or drops
    // one.
    const uint64_t matrices =
        corpus.names.size() * static_cast<uint64_t>(num_params);
    EXPECT_EQ(reader->ComputeDedupStats().plane_refs, matrices * 4);
  }
}

TEST(ParallelArchiverProperty, ResolveArchiveThreads) {
  EXPECT_EQ(ResolveArchiveThreads(1), 1);
  EXPECT_EQ(ResolveArchiveThreads(5), 5);
  EXPECT_GE(ResolveArchiveThreads(0), 1);
  EXPECT_LE(ResolveArchiveThreads(0), 8);
  EXPECT_EQ(ResolveArchiveThreads(-3), ResolveArchiveThreads(0));
}

TEST(ParallelArchiverProperty, ResolveTileRows) {
  EXPECT_EQ(ResolveTileRows(1, 128), 1);
  EXPECT_EQ(ResolveTileRows(17, 128), 17);
  // Auto targets ~64 KiB of floats per tile, never below one row.
  EXPECT_EQ(ResolveTileRows(0, 128), 128);     // 64Ki / (128*4).
  EXPECT_EQ(ResolveTileRows(-2, 128), 128);
  EXPECT_EQ(ResolveTileRows(0, 1 << 20), 1);   // Wide rows: one per tile.
  EXPECT_GE(ResolveTileRows(0, 0), 1);         // Degenerate shapes.
}

}  // namespace
}  // namespace modelhub
