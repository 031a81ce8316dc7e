#ifndef MODELHUB_BENCH_E2E_CORPUS_H_
#define MODELHUB_BENCH_E2E_CORPUS_H_

// Seeded model-version corpus for the end-to-end benchmark. Every input the
// benchmark sends is derived from (spec, seed): the same seed gives the same
// versions, lineage, weights, logs and DQL answers. Weights come from
// Network::InitializeWeights plus cheap pseudo-Gaussian steps — no training —
// so generation is fast and bit-for-bit deterministic.

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "dlv/repository.h"
#include "nn/network.h"
#include "nn/network_def.h"

namespace modelhub {
namespace e2e {

/// Model sizes. kFull uses the ResNetStyle(10, 8, 64) / MiniVgg(10, 32, 4)
/// pair (~2.4 / ~2.2 MB per snapshot); kIngest narrows both so one ingest
/// cycle is short enough to sample its latency; kSmoke is tiny.
enum class Scale { kFull, kIngest, kSmoke };

struct CorpusSpec {
  int versions = 8;
  int snapshots = 4;
  Scale scale = Scale::kFull;
};

/// One planned model version. Family 0 is ResNetStyle ("rn_vNN"), family 1
/// MiniVgg ("vgg_vNN").
struct VersionPlan {
  std::string name;
  int family = 0;
  std::string parent;      ///< "" for roots.
  bool retrained = false;  ///< A later root, retrained from fresh weights.
  double accuracy = 0.0;   ///< Best train accuracy in its synthetic log.
};

/// A few elements of every matrix of one snapshot, with names and shapes:
/// enough to check a reply cheaply without holding the corpus in memory.
struct SnapshotSample {
  struct Matrix {
    std::string name;
    int64_t rows = 0;
    int64_t cols = 0;
    float scale = 0.0f;  ///< RMS of the matrix.
    std::vector<std::pair<uint32_t, float>> elements;  ///< (index, value).
  };
  std::vector<Matrix> matrices;
};

/// One DQL statement with the answer the generator predicts: the model
/// names listed in the server's reply, in any order.
struct DqlProbe {
  std::string statement;
  std::set<std::string> expected;
};

struct Corpus {
  CorpusSpec spec;
  uint64_t seed = 0;
  std::vector<NetworkDef> families;
  std::vector<std::vector<std::string>> family_params;  ///< Param names.
  std::vector<VersionPlan> versions;

  /// Content hash and sampled truth per snapshot key, filled by Record().
  std::map<std::string, uint64_t> hashes;
  std::map<std::string, SnapshotSample> samples;
  uint64_t raw_bytes = 0;
  uint64_t matrices = 0;
  /// Matrices bit-identical to the same-named matrix of the snapshot they
  /// derive from (frozen backbones) — the dedup opportunity.
  uint64_t identical_matrices = 0;

  /// Every (version, sequence) key, version-major.
  std::vector<std::string> Keys() const;
  int64_t NumKeys() const {
    return static_cast<int64_t>(versions.size()) * spec.snapshots;
  }

  /// The three rotating DQL statements of the explore workload.
  std::vector<DqlProbe> DqlProbes() const;

  /// Builds the commit of version `index`: its snapshots, log and lineage.
  /// A fine-tune starts from `parent_latest` (its parent's latest
  /// snapshot); roots pass nullptr.
  Result<CommitRequest> MakeCommit(
      size_t index, const std::vector<NamedParam>* parent_latest) const;

  /// Regenerates every version in lineage order (fine-tunes start from
  /// their parent's regenerated latest snapshot) and hands each commit to
  /// `visit`.
  Status Regenerate(
      const std::function<Status(size_t, const CommitRequest&)>& visit) const;

  /// Hashes and samples a generated commit's snapshots (and counts raw
  /// bytes and matrices identical to their predecessor, which for the
  /// first snapshot of a fine-tune is `parent_latest`). Fails if a
  /// snapshot hashes differently from an earlier Record of the same key —
  /// generation must be deterministic for the oracle to mean anything.
  Status Record(size_t index, const CommitRequest& commit,
                const std::vector<NamedParam>* parent_latest);
};

/// Plans versions and lineage: two roots, one later version retrained from
/// fresh weights, every other version a fine-tune of an earlier version of
/// its family. Which version is retrained and which parent each fine-tune
/// has are drawn from the seed.
Corpus PlanCorpus(const CorpusSpec& spec, uint64_t seed);

/// "<version>/s<sequence>", the archive's snapshot key.
std::string SnapshotKeyOf(const std::string& version, int64_t sequence);

/// PAS's default subtractive deltas reproduce a weight only up to float
/// rounding, once per delta on its chain. "" when `got` has the truth's
/// names and shapes and every element within 2^-16 of |truth| + the
/// matrix RMS — far above the rounding of any chain, far below what a
/// wrong matrix or high-order byte plane gives (low-order bytes are held to
/// byte identity with the archive's reference reader instead) — else the
/// first difference.
std::string CompareToTruth(const std::vector<NamedParam>& got,
                           const std::vector<NamedParam>& truth);
/// The same check against the sampled elements only.
std::string CompareToSample(const std::vector<NamedParam>& got,
                            const SnapshotSample& sample);

/// 64-bit content hash over names, shapes and float bits of a snapshot.
uint64_t HashParams(const std::vector<NamedParam>& params);

uint64_t RawBytes(const std::vector<NamedParam>& params);

}  // namespace e2e
}  // namespace modelhub

#endif  // MODELHUB_BENCH_E2E_CORPUS_H_
