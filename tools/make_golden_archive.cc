// Regenerates the golden-archive compatibility fixture under
// tests/testdata/golden_archive/. The fixture pins the on-disk archive
// format: archive_test's GoldenArchive suite opens the *checked-in* files
// with today's reader, so any format change that breaks old archives
// fails the suite instead of silently orphaning published data.
//
//   ./make_golden_archive <output-dir>
//
// Everything is derived from fixed seeds; rerunning produces identical
// bytes (kXor deltas, so retrieval is bit-exact too). If a deliberate,
// versioned format migration ever regenerates this fixture, the old
// reader compatibility guarantee must be handled explicitly in review.

#include <cstdio>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/random.h"
#include "nn/network.h"
#include "pas/archive.h"

namespace modelhub {
namespace {

FloatMatrix GoldenMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  FloatMatrix m(rows, cols);
  m.FillGaussian(&rng, 0.1f);
  return m;
}

FloatMatrix Drift(const FloatMatrix& base, uint64_t seed) {
  Rng rng(seed);
  FloatMatrix next = base;
  for (auto& v : next.data()) {
    v += static_cast<float>(rng.NextGaussian()) * 0.01f;
  }
  return next;
}

int Run(const std::string& dir) {
  Env* env = Env::Default();
  ArchiveBuilder builder(env, dir);
  // Three-snapshot chain of two parameters — enough to exercise
  // materialized roots, delta chains, and snapshot groups.
  std::vector<NamedParam> s0 = {{"conv1", GoldenMatrix(8, 12, 101)},
                                {"fc", GoldenMatrix(4, 10, 102)}};
  std::vector<NamedParam> s1 = {{"conv1", Drift(s0[0].value, 201)},
                                {"fc", Drift(s0[1].value, 202)}};
  std::vector<NamedParam> s2 = {{"conv1", Drift(s1[0].value, 301)},
                                {"fc", Drift(s1[1].value, 302)}};
  for (const auto& [name, params] :
       std::vector<std::pair<std::string, const std::vector<NamedParam>*>>{
           {"golden@0", &s0}, {"golden@1", &s1}, {"golden@2", &s2}}) {
    const Status status = builder.AddSnapshot(name, *params);
    if (!status.ok()) {
      std::fprintf(stderr, "AddSnapshot: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  for (const auto& [from, to] : std::vector<std::pair<const char*, const char*>>{
           {"golden@0", "golden@1"}, {"golden@1", "golden@2"}}) {
    const Status status = builder.AddDeltaCandidate(from, to);
    if (!status.ok()) {
      std::fprintf(stderr, "AddDeltaCandidate: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  ArchiveOptions options;
  options.delta_kind = DeltaKind::kXor;  // Bit-exact retrieval.
  options.archive_threads = 1;  // Golden bytes from one worker
                                // (identical at any thread count).
  auto report = builder.Build(options);
  if (!report.ok()) {
    std::fprintf(stderr, "Build: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote golden archive to %s (%d matrices, storage %.0f)\n",
              dir.c_str(), report->num_vertices, report->storage_cost);
  return 0;
}

}  // namespace
}  // namespace modelhub

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_golden_archive <output-dir>\n");
    return 2;
  }
  return modelhub::Run(argv[1]);
}
