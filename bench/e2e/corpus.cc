#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/random.h"
#include "nn/zoo.h"

namespace modelhub {
namespace e2e {
namespace {

/// First snapshot's step size, relative to each parameter's RMS; every
/// later snapshot halves it (training converging).
constexpr double kFirstStep = 0.05;
/// A fine-tune updates the trailing parameters holding at least this share
/// of the model's bytes (its head) and keeps the rest bit-identical.
constexpr double kHeadByteShare = 0.30;
/// Floor on the step scale, so zero-initialized biases move too.
constexpr double kMinScale = 0.01;
/// Elements per matrix the sampled truth keeps.
constexpr uint64_t kSampledElements = 64;

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 31;
  return z * 0x94D049BB133111EBull;
}

/// Irwin-Hall(4) approximation of a standard normal from one 64-bit draw:
/// Box-Muller per weight would dominate corpus generation time.
float FastGaussian(Rng* rng) {
  const uint64_t r = rng->Next();
  const uint64_t sum = (r & 0xFFFF) + ((r >> 16) & 0xFFFF) +
                       ((r >> 32) & 0xFFFF) + (r >> 48);
  return static_cast<float>((static_cast<double>(sum) - 131070.0) / 37837.0);
}

double Rms(const FloatMatrix& m) {
  if (m.size() == 0) return 0.0;
  double sum = 0.0;
  for (float v : m.data()) sum += static_cast<double>(v) * v;
  return std::sqrt(sum / static_cast<double>(m.size()));
}

/// Tolerance of CompareToTruth / CompareToSample (see corpus.h).
bool WithinRounding(float got, float truth, float scale) {
  const double tolerance =
      (std::fabs(static_cast<double>(truth)) + scale) / 65536.0;
  return std::fabs(static_cast<double>(got) - truth) <= tolerance;
}

/// Index of the first head parameter: the smallest suffix of `params`
/// holding at least kHeadByteShare of the bytes.
size_t HeadBegin(const std::vector<NamedParam>& params) {
  uint64_t total = 0;
  for (const auto& p : params) total += static_cast<uint64_t>(p.value.size());
  uint64_t suffix = 0;
  size_t begin = params.size();
  while (begin > 0 && static_cast<double>(suffix) <
                          kHeadByteShare * static_cast<double>(total)) {
    --begin;
    suffix += static_cast<uint64_t>(params[begin].value.size());
  }
  return begin;
}

std::vector<NetworkDef> FamiliesFor(Scale scale) {
  switch (scale) {
    case Scale::kFull:
      return {ResNetStyle(10, 8, 64), MiniVgg(10, 32, 4)};
    case Scale::kIngest:
      return {ResNetStyle(10, 8, 32), MiniVgg(10, 32, 2)};
    case Scale::kSmoke:
      return {ResNetStyle(10, 2, 16), MiniVgg(10, 16, 1)};
  }
  return {};
}

const char* kFamilyPrefix[] = {"rn", "vgg"};

}  // namespace

std::string SnapshotKeyOf(const std::string& version, int64_t sequence) {
  return version + "/s" + std::to_string(sequence);
}

uint64_t HashParams(const std::vector<NamedParam>& params) {
  uint64_t h = 0x243F6A8885A308D3ull;
  const auto mix = [&h](uint64_t w) {
    h = (h ^ w) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
  };
  const auto mix_bytes = [&mix](const char* data, size_t n) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      uint64_t w;
      std::memcpy(&w, data + i, 8);
      mix(w);
    }
    uint64_t tail = 0;
    std::memcpy(&tail, data + i, n - i);
    mix(tail ^ (static_cast<uint64_t>(n) << 56));
  };
  mix(params.size());
  for (const auto& p : params) {
    mix_bytes(p.name.data(), p.name.size());
    mix(static_cast<uint64_t>(p.value.rows()));
    mix(static_cast<uint64_t>(p.value.cols()));
    mix_bytes(reinterpret_cast<const char*>(p.value.data().data()),
              p.value.data().size() * sizeof(float));
  }
  return h;
}

std::string CompareToTruth(const std::vector<NamedParam>& got,
                           const std::vector<NamedParam>& truth) {
  if (got.size() != truth.size()) return "wrong parameter count";
  for (size_t p = 0; p < got.size(); ++p) {
    const FloatMatrix& g = got[p].value;
    const FloatMatrix& t = truth[p].value;
    if (got[p].name != truth[p].name || g.rows() != t.rows() ||
        g.cols() != t.cols()) {
      return "wrong name or shape of " + truth[p].name;
    }
    const float scale = static_cast<float>(Rms(t));
    for (int64_t i = 0; i < t.size(); ++i) {
      if (!WithinRounding(g.data()[i], t.data()[i], scale)) {
        return "wrong value in " + truth[p].name;
      }
    }
  }
  return "";
}

std::string CompareToSample(const std::vector<NamedParam>& got,
                            const SnapshotSample& sample) {
  if (got.size() != sample.matrices.size()) return "wrong parameter count";
  for (size_t p = 0; p < got.size(); ++p) {
    const SnapshotSample::Matrix& m = sample.matrices[p];
    const FloatMatrix& g = got[p].value;
    if (got[p].name != m.name || g.rows() != m.rows || g.cols() != m.cols) {
      return "wrong name or shape of " + m.name;
    }
    for (const auto& [index, value] : m.elements) {
      if (!WithinRounding(g.data()[index], value, m.scale)) {
        return "wrong value in " + m.name;
      }
    }
  }
  return "";
}

uint64_t RawBytes(const std::vector<NamedParam>& params) {
  uint64_t total = 0;
  for (const auto& p : params) {
    total += static_cast<uint64_t>(p.value.size()) * sizeof(float);
  }
  return total;
}

Corpus PlanCorpus(const CorpusSpec& spec, uint64_t seed) {
  Corpus corpus;
  corpus.spec = spec;
  corpus.seed = seed;
  corpus.families = FamiliesFor(spec.scale);
  for (const NetworkDef& def : corpus.families) {
    std::vector<std::string> names;
    auto net = Network::Create(def);
    if (net.ok()) {
      for (const auto& p : net->GetParameters()) names.push_back(p.name);
    }
    corpus.family_params.push_back(std::move(names));
  }
  Rng rng(MixSeed(seed, 0));
  // Versions alternate between the two families; the first of each is a
  // root. One later ResNetStyle version, drawn from the seed, is retrained
  // from fresh weights. (Always that family: a fine-tune rewrites 30% of a
  // ResNetStyle model but most of a MiniVgg one, whose fc layer dominates,
  // so which family lost a fine-tune would split stored bytes into two
  // clusters of seeds.) Every other version fine-tunes an earlier version
  // of its family, drawn uniformly from the seed.
  const int later_resnets = (spec.versions - 1) / 2;
  const int retrained =
      later_resnets > 0
          ? 2 + 2 * static_cast<int>(rng.Uniform(
                        static_cast<uint64_t>(later_resnets)))
          : -1;
  for (int i = 0; i < spec.versions; ++i) {
    VersionPlan v;
    v.family = i % 2;
    char name[32];
    std::snprintf(name, sizeof(name), "%s_v%02d", kFamilyPrefix[v.family], i);
    v.name = name;
    if (i == retrained) {
      v.retrained = true;
    } else if (i >= 2) {
      // Earlier versions of this family are i - 2, i - 4, ..., i % 2.
      const int parent =
          i - 2 * (1 + static_cast<int>(rng.Uniform(
                           static_cast<uint64_t>(i / 2))));
      v.parent = corpus.versions[static_cast<size_t>(parent)].name;
    }
    // Three decimals, kept off the 0.6 DQL threshold so the predicted
    // answer never rides on a rounding edge.
    double acc = std::round((0.3 + 0.65 * rng.NextDouble()) * 1000.0) / 1000.0;
    if (std::fabs(acc - 0.6) < 0.002) acc += 0.005;
    v.accuracy = acc;
    corpus.versions.push_back(std::move(v));
  }
  return corpus;
}

std::vector<std::string> Corpus::Keys() const {
  std::vector<std::string> keys;
  for (const VersionPlan& v : versions) {
    for (int s = 0; s < spec.snapshots; ++s) {
      keys.push_back(SnapshotKeyOf(v.name, s));
    }
  }
  return keys;
}

std::vector<DqlProbe> Corpus::DqlProbes() const {
  DqlProbe by_name{
      "select m where m.name like \"rn_%\" and m.accuracy >= 0.6", {}};
  DqlProbe by_structure{
      "select m where m.name like \"vgg_%\" and m[\"fc1\"].next has RELU()",
      {}};
  DqlProbe slice{
      "slice m2 from m1 where m1.name like \"vgg_%\" mutate "
      "m2.input = m1[\"conv1_1\"] and m2.output = m1[\"fc1\"]",
      {}};
  for (const VersionPlan& v : versions) {
    if (v.family == 0 && v.accuracy >= 0.6) by_name.expected.insert(v.name);
    if (v.family == 1) {
      by_structure.expected.insert(v.name);
      slice.expected.insert("m2_" + v.name);
    }
  }
  return {by_name, by_structure, slice};
}

Result<CommitRequest> Corpus::MakeCommit(
    size_t index, const std::vector<NamedParam>* parent_latest) const {
  const VersionPlan& v = versions[index];
  Rng rng(MixSeed(seed, index + 1));
  std::vector<NamedParam> current;
  size_t head_begin = 0;
  if (parent_latest != nullptr) {
    current = *parent_latest;
    head_begin = HeadBegin(current);
  } else {
    const NetworkDef& def = families[static_cast<size_t>(v.family)];
    MH_ASSIGN_OR_RETURN(Network net, Network::Create(def));
    net.InitializeWeights(&rng);
    current = net.GetParameters();
  }
  std::vector<double> scale(current.size(), 0.0);
  for (size_t p = head_begin; p < current.size(); ++p) {
    scale[p] = std::max(kMinScale, Rms(current[p].value));
  }

  CommitRequest request;
  request.name = v.name;
  request.network = families[static_cast<size_t>(v.family)];
  request.parent = v.parent;
  request.message = v.parent.empty()
                        ? (v.retrained ? "retrained" : "initial")
                        : "fine-tune of " + v.parent;
  double step = kFirstStep;
  for (int s = 0; s < spec.snapshots; ++s) {
    for (size_t p = head_begin; p < current.size(); ++p) {
      const float sigma = static_cast<float>(step * scale[p]);
      for (float& w : current[p].value.data()) w += sigma * FastGaussian(&rng);
    }
    request.snapshots.push_back({(s + 1) * 100, current});
    step *= 0.5;
  }
  // Synthetic training log: accuracy climbs to the planned best.
  constexpr int kLogRows = 5;
  for (int r = 0; r < kLogRows; ++r) {
    TrainLogEntry entry;
    entry.iteration = (r + 1) * spec.snapshots * 100 / kLogRows;
    entry.train_accuracy =
        r + 1 == kLogRows ? v.accuracy : v.accuracy * (r + 1) / (kLogRows + 1);
    entry.loss = 2.3 * (1.0 - entry.train_accuracy);
    entry.learning_rate = 0.01;
    request.log.push_back(entry);
  }
  request.hyperparams["base_lr"] = parent_latest != nullptr ? "0.001" : "0.01";
  request.hyperparams["family"] = kFamilyPrefix[v.family];
  return request;
}

Status Corpus::Regenerate(
    const std::function<Status(size_t, const CommitRequest&)>& visit) const {
  std::map<std::string, std::vector<NamedParam>> latest;
  for (size_t v = 0; v < versions.size(); ++v) {
    const VersionPlan& plan = versions[v];
    const std::vector<NamedParam>* parent = nullptr;
    if (!plan.parent.empty()) {
      auto it = latest.find(plan.parent);
      if (it == latest.end()) {
        return Status::Internal("parent generated after child: " + plan.name);
      }
      parent = &it->second;
    }
    MH_ASSIGN_OR_RETURN(CommitRequest commit, MakeCommit(v, parent));
    MH_RETURN_IF_ERROR(visit(v, commit));
    latest[plan.name] = std::move(commit.snapshots.back().params);
  }
  return Status::OK();
}

Status Corpus::Record(size_t index, const CommitRequest& commit,
                      const std::vector<NamedParam>* parent_latest) {
  const std::string& name = versions[index].name;
  for (size_t s = 0; s < commit.snapshots.size(); ++s) {
    const auto& params = commit.snapshots[s].params;
    const std::string key = SnapshotKeyOf(name, static_cast<int64_t>(s));
    const uint64_t h = HashParams(params);
    auto [it, inserted] = hashes.emplace(key, h);
    if (!inserted) {
      if (it->second != h) {
        return Status::Internal("corpus generation is not deterministic: " +
                                key);
      }
      continue;
    }
    raw_bytes += RawBytes(params);
    matrices += params.size();
    SnapshotSample& sample = samples[key];
    for (const NamedParam& p : params) {
      SnapshotSample::Matrix m;
      m.name = p.name;
      m.rows = p.value.rows();
      m.cols = p.value.cols();
      m.scale = static_cast<float>(Rms(p.value));
      const uint64_t n = static_cast<uint64_t>(p.value.size());
      for (uint64_t j = 0; j < std::min<uint64_t>(n, kSampledElements); ++j) {
        const uint64_t i = (j * 2654435761ull + h) % n;
        m.elements.push_back({static_cast<uint32_t>(i), p.value.data()[i]});
      }
      sample.matrices.push_back(std::move(m));
    }
    const std::vector<NamedParam>* prev =
        s > 0 ? &commit.snapshots[s - 1].params : parent_latest;
    if (prev == nullptr) continue;
    for (size_t p = 0; p < params.size() && p < prev->size(); ++p) {
      if (params[p].value.BitEquals((*prev)[p].value)) ++identical_matrices;
    }
  }
  return Status::OK();
}

}  // namespace e2e
}  // namespace modelhub
