// Archival write-pipeline benchmark: ingest MB/s of ArchiveBuilder::Build
// at 1 / 4 / 8 encode threads over one synthetic checkpoint chain, plus
// per-parameter encode latency percentiles, the planes the pipeline took
// from the cost model's trial encodes instead of encoding them again, and
// a byte-identity check of every parallel archive against the one-worker
// build. Emits BENCH_archival.json.
//
// Every thread count is built three times and reported by its median
// wall time (the run's other columns come from that median build), so one
// slow build cannot decide the speedup CI gates; every build is checked
// for byte identity. Speedup is reported against the median one-worker
// wall time of the same corpus. `hardware_threads` is included so a
// reader can judge the numbers: on a single-core container the pipeline
// cannot beat one worker no matter how many workers it spawns — the
// differential bit-identity result (and the property/robustness suites)
// carry the correctness claim, the speedup column is honest wall-clock on
// whatever hardware ran the bench.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/env.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "pas/archive.h"

namespace modelhub {
namespace {

struct Corpus {
  std::vector<std::string> names;
  std::vector<std::vector<NamedParam>> snapshots;
  uint64_t raw_bytes = 0;
};

Corpus MakeCorpus(int chain_len, int num_params, int64_t rows, int64_t cols) {
  Corpus corpus;
  Rng rng(42);
  std::vector<FloatMatrix> current(static_cast<size_t>(num_params));
  for (auto& m : current) {
    m = FloatMatrix(rows, cols);
    m.FillGaussian(&rng, 0.1f);
  }
  for (int s = 0; s < chain_len; ++s) {
    corpus.names.push_back("bench@" + std::to_string(s));
    std::vector<NamedParam> params;
    for (int p = 0; p < num_params; ++p) {
      if (s > 0) {
        for (auto& v : current[static_cast<size_t>(p)].data()) {
          v += static_cast<float>(rng.NextGaussian()) * 0.005f;
        }
      }
      params.push_back({"w" + std::to_string(p),
                        current[static_cast<size_t>(p)]});
      corpus.raw_bytes += static_cast<uint64_t>(rows) * cols * 4;
    }
    corpus.snapshots.push_back(std::move(params));
  }
  return corpus;
}

Result<ArchiveBuildReport> BuildArchive(Env* env, const std::string& dir,
                                        const Corpus& corpus, int threads) {
  ArchiveBuilder builder(env, dir);
  for (size_t s = 0; s < corpus.names.size(); ++s) {
    MH_RETURN_IF_ERROR(
        builder.AddSnapshot(corpus.names[s], corpus.snapshots[s]));
    if (s > 0) {
      MH_RETURN_IF_ERROR(builder.AddDeltaCandidate(corpus.names[s - 1],
                                                   corpus.names[s]));
    }
  }
  ArchiveOptions options;
  options.archive_threads = threads;
  return builder.Build(options);
}

/// Fine-tuned family: one base checkpoint plus `variants` descendants that
/// each mutate a single parameter sparsely and keep the rest frozen —
/// the cross-model sharing pattern content-addressed chunk dedup is built
/// for. No lineage is declared, mirroring independently uploaded
/// fine-tunes.
Corpus MakeFamilyCorpus(int variants, int num_params, int64_t rows,
                        int64_t cols) {
  Corpus corpus;
  Rng rng(7);
  std::vector<FloatMatrix> base(static_cast<size_t>(num_params));
  for (auto& m : base) {
    m = FloatMatrix(rows, cols);
    m.FillGaussian(&rng, 0.1f);
  }
  auto add = [&](const std::string& name,
                 const std::vector<FloatMatrix>& params) {
    corpus.names.push_back(name);
    std::vector<NamedParam> named;
    for (int p = 0; p < num_params; ++p) {
      named.push_back({"w" + std::to_string(p),
                       params[static_cast<size_t>(p)]});
      corpus.raw_bytes += static_cast<uint64_t>(rows) * cols * 4;
    }
    corpus.snapshots.push_back(std::move(named));
  };
  add("family@base", base);
  for (int v = 0; v < variants; ++v) {
    std::vector<FloatMatrix> tuned = base;
    auto& head = tuned[static_cast<size_t>(v % num_params)].data();
    // Sparse head update: ~2% of the weights move, the rest stay frozen.
    for (size_t i = static_cast<size_t>(v); i < head.size(); i += 53) {
      head[i] += static_cast<float>(rng.NextGaussian()) * 0.02f;
    }
    add("family@ft" + std::to_string(v), tuned);
  }
  return corpus;
}

Result<ArchiveBuildReport> BuildFamilyArchive(Env* env,
                                              const std::string& dir,
                                              const Corpus& corpus,
                                              bool dedup) {
  ArchiveBuilder builder(env, dir);
  for (size_t s = 0; s < corpus.names.size(); ++s) {
    MH_RETURN_IF_ERROR(
        builder.AddSnapshot(corpus.names[s], corpus.snapshots[s]));
  }
  ArchiveOptions options;
  options.enable_dedup = dedup;
  // Hold the delta plan fixed on both sides: the ratio below then
  // isolates what chunk dedup saves, not what pairing saves.
  options.enable_similarity_pairing = false;
  return builder.Build(options);
}

bool SameParams(const std::vector<NamedParam>& a,
                const std::vector<NamedParam>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name) return false;
    const auto& da = a[i].value.data();
    const auto& db = b[i].value.data();
    if (da.size() != db.size()) return false;
    if (std::memcmp(da.data(), db.data(), da.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

double PercentileMs(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

}  // namespace
}  // namespace modelhub

int main() {
  using namespace modelhub;
  const bool quick = bench::QuickMode();
  const Corpus corpus = quick ? MakeCorpus(3, 4, 64, 96)
                              : MakeCorpus(6, 8, 256, 384);
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("archival bench: %zu snapshots x %zu params, %.2f MB raw, "
              "%u hardware threads\n",
              corpus.names.size(), corpus.snapshots[0].size(),
              static_cast<double>(corpus.raw_bytes) / 1e6, hardware);

  struct Row {
    int threads;
    double wall_ms = 0.0;
    double ingest_mbps = 0.0;
    double speedup = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    uint64_t stored_bytes = 0;
    int tiles = 0;
    double tile_p50_ms = 0.0;
    double tile_p99_ms = 0.0;
    double codec_p50_ms = 0.0;
    double codec_p99_ms = 0.0;
    uint64_t planes_from_trial = 0;
    uint64_t planes_null_framed = 0;
  };
  std::vector<Row> rows;
  std::map<std::string, std::string> reference_files;
  double serial_wall_ms = 0.0;
  bool bit_identical = true;

  constexpr int kRepeats = 3;
  for (const int threads : {1, 4, 8}) {
    std::vector<std::pair<double, ArchiveBuildReport>> builds;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      MemEnv env;
      Stopwatch watch;
      auto report = BuildArchive(&env, "archive", corpus, threads);
      const double wall_ms = watch.ElapsedMillis();
      bench::Check(report.status(), "build");
      builds.emplace_back(wall_ms, std::move(*report));

      // Differential check: every archive must be byte-identical to the
      // first one-worker build.
      auto names = env.ListDir("archive");
      bench::Check(names.status(), "list");
      std::map<std::string, std::string> files;
      for (const std::string& name : *names) {
        auto data = env.ReadFile(JoinPath("archive", name));
        bench::Check(data.status(), "read");
        files[name] = std::move(*data);
      }
      if (reference_files.empty()) {
        reference_files = std::move(files);
      } else if (files != reference_files) {
        bit_identical = false;
        std::fprintf(stderr,
                     "FAILED: threads=%d build %d differs from serial\n",
                     threads, repeat);
      }
    }
    std::sort(builds.begin(), builds.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const double wall_ms = builds[kRepeats / 2].first;
    const ArchivePipelineStats& pipeline = builds[kRepeats / 2].second.pipeline;
    Row row;
    row.threads = threads;
    row.wall_ms = wall_ms;
    row.ingest_mbps = wall_ms > 0
        ? static_cast<double>(corpus.raw_bytes) / 1e6 / (wall_ms / 1000.0)
        : 0.0;
    if (threads == 1) serial_wall_ms = wall_ms;
    row.speedup = wall_ms > 0 ? serial_wall_ms / wall_ms : 0.0;
    row.p50_ms = PercentileMs(pipeline.job_encode_ms, 0.50);
    row.p99_ms = PercentileMs(pipeline.job_encode_ms, 0.99);
    row.stored_bytes = pipeline.compressed_bytes;
    row.tiles = pipeline.tiles;
    row.tile_p50_ms = PercentileMs(pipeline.tile_encode_ms, 0.50);
    row.tile_p99_ms = PercentileMs(pipeline.tile_encode_ms, 0.99);
    row.codec_p50_ms = PercentileMs(pipeline.plane_codec_ms, 0.50);
    row.codec_p99_ms = PercentileMs(pipeline.plane_codec_ms, 0.99);
    row.planes_from_trial = pipeline.planes_from_trial;
    row.planes_null_framed = pipeline.planes_null_framed;
    rows.push_back(row);

    std::printf(
        "threads=%d  wall %8.1f ms  ingest %7.2f MB/s  speedup %.2fx  "
        "encode p50 %.2f ms p99 %.2f ms  tiles %d (p50 %.3f p99 %.3f ms)  "
        "codec p50 %.3f p99 %.3f ms  stored %llu bytes  "
        "trial planes %llu taken, %llu null-framed\n",
        row.threads, row.wall_ms, row.ingest_mbps, row.speedup, row.p50_ms,
        row.p99_ms, row.tiles, row.tile_p50_ms, row.tile_p99_ms,
        row.codec_p50_ms, row.codec_p99_ms,
        static_cast<unsigned long long>(row.stored_bytes),
        static_cast<unsigned long long>(row.planes_from_trial),
        static_cast<unsigned long long>(row.planes_null_framed));
  }

  // Cross-model deduplication on a fine-tuned family: same corpus, same
  // delta plan, dedup on vs off. The ratio is real bytes on disk.
  const Corpus family = quick ? MakeFamilyCorpus(8, 4, 64, 96)
                              : MakeFamilyCorpus(8, 6, 192, 256);
  uint64_t family_stored_on = 0;
  uint64_t family_stored_off = 0;
  uint64_t family_unique_chunks = 0;
  uint64_t family_plane_refs = 0;
  bool family_identical = true;
  {
    MemEnv env;
    bench::Check(
        BuildFamilyArchive(&env, "on", family, /*dedup=*/true).status(),
        "family dedup-on build");
    bench::Check(
        BuildFamilyArchive(&env, "off", family, /*dedup=*/false).status(),
        "family dedup-off build");
    auto on = ArchiveReader::Open(&env, "on");
    bench::Check(on.status(), "family dedup-on open");
    auto off = ArchiveReader::Open(&env, "off");
    bench::Check(off.status(), "family dedup-off open");
    family_stored_on = on->TotalStoredBytes();
    family_stored_off = off->TotalStoredBytes();
    const ArchiveDedupStats dedup = on->ComputeDedupStats();
    family_unique_chunks = dedup.unique_chunks;
    family_plane_refs = dedup.plane_refs;
    for (const std::string& name : family.names) {
      auto a = on->RetrieveSnapshot(name);
      auto b = off->RetrieveSnapshot(name);
      bench::Check(a.status(), "family retrieve dedup-on");
      bench::Check(b.status(), "family retrieve dedup-off");
      if (!SameParams(*a, *b)) {
        family_identical = false;
        std::fprintf(stderr, "FAILED: %s differs between dedup on/off\n",
                     name.c_str());
      }
    }
  }
  const double family_ratio =
      family_stored_on > 0
          ? static_cast<double>(family_stored_off) /
                static_cast<double>(family_stored_on)
          : 0.0;
  const double family_bytes_per_model =
      static_cast<double>(family_stored_on) /
      static_cast<double>(family.names.size());
  std::printf(
      "family: %zu models  dedup on %llu bytes, off %llu bytes  "
      "ratio %.2fx  %.0f bytes/model  %llu plane refs -> %llu unique "
      "chunks  retrieval %s\n",
      family.names.size(),
      static_cast<unsigned long long>(family_stored_on),
      static_cast<unsigned long long>(family_stored_off), family_ratio,
      family_bytes_per_model,
      static_cast<unsigned long long>(family_plane_refs),
      static_cast<unsigned long long>(family_unique_chunks),
      family_identical ? "identical" : "DIFFERS");

  std::string json = "{\"bench\":\"archival\",\"raw_bytes\":" +
                     std::to_string(corpus.raw_bytes) +
                     ",\"hardware_threads\":" + std::to_string(hardware) +
                     ",\"builds_per_run\":" + std::to_string(kRepeats) +
                     ",\"bit_identical\":" +
                     (bit_identical ? "true" : "false") + ",\"runs\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"threads\":%d,\"wall_ms\":%.1f,\"ingest_mbps\":%.2f,"
                  "\"speedup_vs_serial\":%.3f,\"encode_p50_ms\":%.3f,"
                  "\"encode_p99_ms\":%.3f,\"tiles\":%d,"
                  "\"tile_p50_ms\":%.4f,\"tile_p99_ms\":%.4f,"
                  "\"codec_p50_ms\":%.4f,\"codec_p99_ms\":%.4f,"
                  "\"stored_bytes\":%llu,\"planes_from_trial\":%llu,"
                  "\"planes_null_framed\":%llu}",
                  i == 0 ? "" : ",", rows[i].threads, rows[i].wall_ms,
                  rows[i].ingest_mbps, rows[i].speedup, rows[i].p50_ms,
                  rows[i].p99_ms, rows[i].tiles, rows[i].tile_p50_ms,
                  rows[i].tile_p99_ms, rows[i].codec_p50_ms,
                  rows[i].codec_p99_ms,
                  static_cast<unsigned long long>(rows[i].stored_bytes),
                  static_cast<unsigned long long>(rows[i].planes_from_trial),
                  static_cast<unsigned long long>(rows[i].planes_null_framed));
    json += buffer;
  }
  json += "]";
  {
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        ",\"family\":{\"models\":%zu,\"raw_bytes\":%llu,"
        "\"stored_bytes_dedup_on\":%llu,\"stored_bytes_dedup_off\":%llu,"
        "\"dedup_ratio\":%.3f,\"bytes_per_model\":%.1f,"
        "\"plane_refs\":%llu,\"unique_chunks\":%llu,"
        "\"identical_retrieval\":%s}",
        family.names.size(),
        static_cast<unsigned long long>(family.raw_bytes),
        static_cast<unsigned long long>(family_stored_on),
        static_cast<unsigned long long>(family_stored_off), family_ratio,
        family_bytes_per_model,
        static_cast<unsigned long long>(family_plane_refs),
        static_cast<unsigned long long>(family_unique_chunks),
        family_identical ? "true" : "false");
    json += buffer;
  }
  bench::AppendMetricsJson(&json);
  json += "}\n";
  const char* json_path = "BENCH_archival.json";
  bench::Check(Env::Default()->WriteFile(json_path, json), "write json");
  std::printf("wrote %s\n", json_path);
  return bit_identical && family_identical ? 0 : 1;
}
