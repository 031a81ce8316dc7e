#include "pas/archive.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <set>

#include "common/checked_io.h"
#include "common/coding.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "pas/content_hash.h"
#include "pas/sketch.h"

namespace modelhub {

namespace {

/// Manifest format versions. v2 carries one chunk id per plane, resolved
/// through the vertex's tier; v3 (cross-generation dedup) adds a list of
/// extra prior-generation data files and a per-plane store slot. New
/// builds always write v3; the reader accepts both (the golden fixture is
/// a v2 archive).
constexpr char kManifestMagicV2[] = "MHAM2\n";
constexpr char kManifestMagicV3[] = "MHAM3\n";
constexpr size_t kManifestMagicSize = 6;

/// Manifest version from the magic, or 0 for anything else.
int ManifestVersion(const std::string& framed) {
  if (framed.size() < kManifestMagicSize) return 0;
  if (framed.compare(0, kManifestMagicSize, kManifestMagicV3) == 0) return 3;
  if (framed.compare(0, kManifestMagicSize, kManifestMagicV2) == 0) return 2;
  return 0;
}

std::string ManifestPath(const std::string& dir) {
  return JoinPath(dir, "manifest.bin");
}

/// Data files are generation-numbered (chunks-3.bin) so a rebuild never
/// overwrites the generation the current manifest points at: new files are
/// written first, then the manifest — the single commit point — is
/// atomically replaced, then stale generations are garbage-collected.
std::string GenFileName(const char* prefix, uint64_t gen) {
  return std::string(prefix) + "-" + std::to_string(gen) + ".bin";
}

/// Parses `<prefix>-<gen>.bin`; returns false for any other name.
bool ParseGenFileName(const std::string& name, const char* prefix,
                      uint64_t* gen) {
  const std::string head = std::string(prefix) + "-";
  const std::string tail = ".bin";
  if (name.size() <= head.size() + tail.size() ||
      name.compare(0, head.size(), head) != 0 ||
      name.compare(name.size() - tail.size(), tail.size(), tail) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = head.size(); i < name.size() - tail.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *gen = value;
  return true;
}

/// Parses the CRC-framed manifest's header down to its generation number.
Result<uint64_t> ParseManifestGeneration(const std::string& framed) {
  if (ManifestVersion(framed) == 0) {
    return Status::Corruption("bad manifest magic");
  }
  Slice in(framed);
  in.RemovePrefix(kManifestMagicSize);
  uint64_t generation = 0;
  MH_RETURN_IF_ERROR(GetVarint64(&in, &generation));
  return generation;
}

/// Parses a manifest's referenced-file header: generation, the
/// generation's own data files, and (v3) the prior-generation files it
/// reuses chunks from. Leaves `in` positioned at the matrix table.
struct ManifestFileHeader {
  uint64_t generation = 0;
  std::string chunks_name;
  std::string remote_name;  ///< Empty when no remote tier is used.
  std::vector<std::string> extra_files;
};

Result<ManifestFileHeader> ParseManifestFileHeader(const std::string& framed,
                                                   Slice* in) {
  const int version = ManifestVersion(framed);
  if (version == 0) return Status::Corruption("bad manifest magic");
  *in = Slice(framed);
  in->RemovePrefix(kManifestMagicSize);
  ManifestFileHeader header;
  MH_RETURN_IF_ERROR(GetVarint64(in, &header.generation));
  Slice chunks_name;
  Slice remote_name;
  MH_RETURN_IF_ERROR(GetLengthPrefixed(in, &chunks_name));
  MH_RETURN_IF_ERROR(GetLengthPrefixed(in, &remote_name));
  if (chunks_name.empty()) {
    return Status::Corruption("manifest names no chunk file");
  }
  header.chunks_name = chunks_name.ToString();
  header.remote_name = remote_name.ToString();
  if (version >= 3) {
    uint64_t num_extra = 0;
    MH_RETURN_IF_ERROR(GetVarint64(in, &num_extra));
    if (num_extra > 4096) {
      return Status::Corruption("manifest extra file count out of range");
    }
    for (uint64_t i = 0; i < num_extra; ++i) {
      Slice name;
      MH_RETURN_IF_ERROR(GetLengthPrefixed(in, &name));
      if (name.empty()) {
        return Status::Corruption("manifest empty extra file name");
      }
      header.extra_files.push_back(name.ToString());
    }
  }
  return header;
}

/// The cost model's trial encode of payload `m`: its four byte planes
/// encoded as the archive stores them (EncodeChunk), so a plane the codec
/// cannot shrink is charged at its raw frame size. Returns the stored
/// size, records each plane's codec in `*codecs` and, when `held` is
/// non-null, keeps the encoded bytes of every plane the codec shrank.
double TrialEncode(const FloatMatrix& m, CodecType codec, PlaneCodecs* codecs,
                   PlaneBytes* held) {
  const auto planes = SegmentFloats(m);
  double total = 0.0;
  std::string encoded;
  for (int p = 0; p < kNumPlanes; ++p) {
    const auto stored = EncodeChunk(Slice(planes[p]), codec, &encoded);
    MH_CHECK(stored.ok());
    (*codecs)[p] = *stored;
    total += static_cast<double>(encoded.size());
    if (held != nullptr && *stored != CodecType::kNull) {
      encoded.shrink_to_fit();
      (*held)[p] = std::exchange(encoded, std::string());
    }
  }
  return total;
}

}  // namespace

std::string_view ArchiveSolverToString(ArchiveSolver solver) {
  switch (solver) {
    case ArchiveSolver::kMst:
      return "mst";
    case ArchiveSolver::kSpt:
      return "spt";
    case ArchiveSolver::kLast:
      return "last";
    case ArchiveSolver::kPasMt:
      return "pas-mt";
    case ArchiveSolver::kPasPt:
      return "pas-pt";
  }
  return "unknown";
}

Result<uint64_t> ReadArchiveGeneration(Env* env, const std::string& dir) {
  MH_ASSIGN_OR_RETURN(std::string framed, ReadChecked(env, ManifestPath(dir)));
  return ParseManifestGeneration(framed);
}

bool ParseArchiveDataFileName(const std::string& name, uint64_t* gen) {
  return ParseGenFileName(name, "chunks", gen) ||
         ParseGenFileName(name, "remote", gen);
}

Result<std::vector<std::string>> ReadArchiveManifestFiles(
    Env* env, const std::string& dir) {
  MH_ASSIGN_OR_RETURN(const std::string framed,
                      ReadChecked(env, ManifestPath(dir)));
  Slice in;
  MH_ASSIGN_OR_RETURN(const ManifestFileHeader header,
                      ParseManifestFileHeader(framed, &in));
  std::vector<std::string> files;
  files.push_back(header.chunks_name);
  if (!header.remote_name.empty()) files.push_back(header.remote_name);
  for (const std::string& name : header.extra_files) files.push_back(name);
  return files;
}

ArchiveBuilder::ArchiveBuilder(Env* env, std::string dir)
    : env_(env), dir_(std::move(dir)) {}

Status ArchiveBuilder::AddSnapshot(const std::string& name,
                                   std::vector<NamedParam> params) {
  if (params.empty()) {
    return Status::InvalidArgument("snapshot has no parameters: " + name);
  }
  for (const auto& existing : snapshot_names_) {
    if (existing == name) {
      return Status::AlreadyExists("duplicate snapshot: " + name);
    }
  }
  std::set<std::string> param_names;
  for (const auto& param : params) {
    if (param.value.empty()) {
      return Status::InvalidArgument("empty matrix: " + param.name);
    }
    if (!param_names.insert(param.name).second) {
      return Status::AlreadyExists("duplicate parameter " + param.name +
                                   " in snapshot " + name);
    }
  }
  snapshot_names_.push_back(name);
  snapshot_params_.push_back(std::move(params));
  return Status::OK();
}

Status ArchiveBuilder::AddDeltaCandidate(const std::string& from_snapshot,
                                         const std::string& to_snapshot) {
  int from = -1;
  int to = -1;
  for (size_t i = 0; i < snapshot_names_.size(); ++i) {
    if (snapshot_names_[i] == from_snapshot) from = static_cast<int>(i);
    if (snapshot_names_[i] == to_snapshot) to = static_cast<int>(i);
  }
  if (from < 0) return Status::NotFound("no snapshot: " + from_snapshot);
  if (to < 0) return Status::NotFound("no snapshot: " + to_snapshot);
  if (from == to) {
    return Status::InvalidArgument("delta candidate with itself");
  }
  candidate_pairs_.emplace_back(from, to);
  return Status::OK();
}

Result<MatrixStorageGraph> BuildMatrixStorageGraph(
    const std::vector<SnapshotSpec>& snapshots,
    const std::vector<std::pair<int, int>>& candidate_pairs,
    const ArchiveOptions& options, ThreadPool* pool,
    const std::vector<std::pair<int, int>>& vertex_pairs,
    int* first_similarity_edge, CostModelTrials* trials) {
  if (first_similarity_edge != nullptr) *first_similarity_edge = -1;
  const CodecType codec = options.codec;
  const DeltaKind delta_kind = options.delta_kind;
  MatrixStorageGraph graph;
  // Every edge optionally gets a remote twin: cheaper to hold, costlier to
  // recreate from (the paper's multi-tier parallel edges).
  auto add_tiered_edge = [&](int u, int v, double cs,
                             double cr) -> Status {
    MH_RETURN_IF_ERROR(graph.AddEdge(u, v, cs, cr, /*tier=*/0).status());
    if (options.enable_remote_tier) {
      MH_RETURN_IF_ERROR(
          graph
              .AddEdge(u, v, cs * options.remote_storage_discount,
                       cr * options.remote_read_penalty, /*tier=*/1)
              .status());
    }
    return Status::OK();
  };

  // Every edge of the graph, in edge order: one materialization edge (from
  // v0, no base) per vertex, then lineage deltas, then similarity deltas.
  // Everything that shapes the graph — vertex ids, edge order, groups — is
  // decided serially here; only the cost model below fans out.
  struct CandidateEdge {
    int u = 0;
    int v = 0;
    const FloatMatrix* base = nullptr;
    const FloatMatrix* target = nullptr;
    DeltaKind kind = DeltaKind::kMaterialized;
  };
  std::vector<CandidateEdge> candidates;

  // Vertex ids in (snapshot, param) order; candidates[v - 1] is vertex v's
  // materialization edge, so its target is the matrix v holds.
  std::vector<std::vector<int>> vertex_of(snapshots.size());
  for (size_t s = 0; s < snapshots.size(); ++s) {
    if (snapshots[s].params == nullptr || snapshots[s].params->empty()) {
      return Status::InvalidArgument("snapshot without parameters: " +
                                     snapshots[s].name);
    }
    for (const NamedParam& param : *snapshots[s].params) {
      const int v = graph.AddVertex(snapshots[s].name + "/" + param.name);
      vertex_of[s].push_back(v);
      candidates.push_back(CandidateEdge{0, v, nullptr, &param.value});
    }
  }
  const int num_matrices = static_cast<int>(candidates.size());

  // Resolve candidate pairs into concrete delta edges (cheap name and
  // shape matching only).
  for (const auto& [from_snap, to_snap] : candidate_pairs) {
    if (from_snap < 0 || to_snap < 0 ||
        from_snap >= static_cast<int>(snapshots.size()) ||
        to_snap >= static_cast<int>(snapshots.size()) ||
        from_snap == to_snap) {
      return Status::InvalidArgument("bad candidate pair");
    }
    const auto& from_params = *snapshots[static_cast<size_t>(from_snap)].params;
    const auto& to_params = *snapshots[static_cast<size_t>(to_snap)].params;
    for (size_t ti = 0; ti < to_params.size(); ++ti) {
      for (size_t fi = 0; fi < from_params.size(); ++fi) {
        if (from_params[fi].name != to_params[ti].name) continue;
        // Mismatched shapes (e.g. a re-targeted final layer) still get a
        // candidate edge via the shape-adaptive delta variants.
        const bool same_shape =
            from_params[fi].value.rows() == to_params[ti].value.rows() &&
            from_params[fi].value.cols() == to_params[ti].value.cols();
        const DeltaKind kind =
            same_shape ? delta_kind : ToAdaptive(delta_kind);
        // A materialized "delta" against a mismatched base is pointless.
        if (!same_shape && kind == DeltaKind::kMaterialized) continue;
        candidates.push_back(
            CandidateEdge{vertex_of[static_cast<size_t>(from_snap)][fi],
                          vertex_of[static_cast<size_t>(to_snap)][ti],
                          &from_params[fi].value, &to_params[ti].value, kind});
        break;
      }
    }
  }

  // Similarity-proposed matrix pairs come after the lineage candidates so
  // their edge ids form one contiguous trailing range — the builder uses
  // that boundary to count how many plan parents similarity contributed.
  const size_t first_similarity_candidate = candidates.size();
  if (!vertex_pairs.empty()) {
    std::set<std::pair<int, int>> existing;
    for (const CandidateEdge& cand : candidates) {
      existing.emplace(std::min(cand.u, cand.v), std::max(cand.u, cand.v));
    }
    for (const auto& [u, v] : vertex_pairs) {
      if (u < 1 || v < 1 || u > num_matrices || v > num_matrices) {
        return Status::InvalidArgument("vertex pair out of range");
      }
      if (u == v) continue;
      const FloatMatrix& base = *candidates[static_cast<size_t>(u) - 1].target;
      const FloatMatrix& target =
          *candidates[static_cast<size_t>(v) - 1].target;
      // Similarity pairing only proposes equal shapes; a materialized
      // "delta" would just re-store the target, so it contributes nothing.
      if (base.rows() != target.rows() || base.cols() != target.cols() ||
          delta_kind == DeltaKind::kMaterialized) {
        continue;
      }
      if (!existing.emplace(std::min(u, v), std::max(u, v)).second) {
        continue;  // Lineage (or an earlier pair) already covers this edge.
      }
      candidates.push_back(CandidateEdge{u, v, &base, &target, delta_kind});
    }
  }

  // The cost model (a trial delta + four plane encodes per edge) is the
  // expensive part of graph assembly and a pure function of the matrices,
  // so it fans out over `pool` into pre-sized slots. With `trials`, each
  // materialization trial keeps the planes the codec shrank.
  struct EdgeCost {
    double cs = 0.0;
    double raw = 0.0;
    PlaneCodecs codecs{};
    Status status = Status::OK();
  };
  std::vector<EdgeCost> costs(candidates.size());
  if (trials != nullptr) {
    *trials = CostModelTrials{};
    trials->materialized.resize(static_cast<size_t>(num_matrices));
  }
  ParallelFor(pool, candidates.size(), [&](size_t c) {
    const CandidateEdge& cand = candidates[c];
    EdgeCost& cost = costs[c];
    if (cand.base == nullptr) {
      cost.cs = TrialEncode(*cand.target, codec, &cost.codecs,
                            trials == nullptr ? nullptr
                                              : &trials->materialized[c]);
      cost.raw = static_cast<double>(cand.target->size()) * 4;
      return;
    }
    auto delta = ComputeDelta(*cand.target, *cand.base, cand.kind);
    if (!delta.ok()) {
      cost.status = delta.status();
      return;
    }
    cost.cs = TrialEncode(*delta, codec, &cost.codecs, nullptr);
    cost.raw = static_cast<double>(delta->size()) * 4;
  });

  // Assemble edges serially, in candidate order.
  for (size_t c = 0; c < candidates.size(); ++c) {
    const EdgeCost& cost = costs[c];
    MH_RETURN_IF_ERROR(cost.status);
    if (first_similarity_edge != nullptr && c == first_similarity_candidate) {
      *first_similarity_edge = static_cast<int>(graph.edges().size());
    }
    MH_RETURN_IF_ERROR(add_tiered_edge(
        candidates[c].u, candidates[c].v, cost.cs,
        cost.cs + options.recreation_raw_weight * cost.raw));
    if (trials != nullptr) {  // One entry per edge, remote twin included.
      trials->edge_codecs.resize(graph.edges().size(), cost.codecs);
    }
  }
  for (size_t s = 0; s < snapshots.size(); ++s) {
    MH_RETURN_IF_ERROR(
        graph.AddGroup(snapshots[s].name, vertex_of[s], 0.0));
  }
  return graph;
}

Result<ArchiveBuildReport> ArchiveBuilder::Build(
    const ArchiveOptions& options) {
  if (built_) return Status::FailedPrecondition("Build called twice");
  if (snapshot_params_.empty()) {
    return Status::FailedPrecondition("no snapshots added");
  }
  built_ = true;
  // Vertex v of the storage graph holds values[v - 1]: every matrix in
  // (snapshot, param) order, the numbering BuildMatrixStorageGraph uses.
  std::vector<FloatMatrix*> values;
  for (auto& params : snapshot_params_) {
    for (NamedParam& param : params) values.push_back(&param.value);
  }
  TraceSpan build_span("pas.archive.build");
  build_span.Annotate("snapshots",
                      static_cast<uint64_t>(snapshot_names_.size()));
  build_span.Annotate("matrices", static_cast<uint64_t>(values.size()));
  Stopwatch build_watch;
  MH_COUNTER("pas.archive.build.count")->Increment();

  // One pool serves every parallel phase of the build; with threads == 1
  // there is none, and each ParallelFor runs inline.
  const int threads = ResolveArchiveThreads(options.archive_threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  build_span.Annotate("threads", static_cast<uint64_t>(threads));

  // --- Optional lossy storage scheme: round every matrix through the
  // chosen representation once, up front, in place. The archive then
  // stores (and later returns) the scheme's values; quantized matrices
  // have few distinct floats and compress far better. Rounding is
  // independent per matrix for every scheme except kQuantRandom, whose
  // codebook sampling consumes a shared Rng stream in matrix order — that
  // one runs inline so the stream (and thus the archive) is identical at
  // any thread count.
  if (options.storage_scheme.kind != FloatSchemeKind::kFloat32) {
    TraceSpan scheme_span("pas.archive.scheme");
    const bool random =
        options.storage_scheme.kind == FloatSchemeKind::kQuantRandom;
    Rng scheme_rng(options.scheme_seed);
    auto round_matrix = [&](size_t i) -> Status {
      MH_ASSIGN_OR_RETURN(
          const EncodedMatrix encoded,
          EncodeMatrix(*values[i], options.storage_scheme,
                       random ? &scheme_rng : nullptr));
      MH_ASSIGN_OR_RETURN(*values[i], DecodeMatrix(encoded));
      return Status::OK();
    };
    std::vector<Status> statuses(values.size());
    ParallelFor(random ? nullptr : pool.get(), values.size(),
                [&](size_t i) { statuses[i] = round_matrix(i); });
    for (const Status& status : statuses) MH_RETURN_IF_ERROR(status);
  }

  // --- Similarity-based delta pairing (DESIGN.md §15): sketch every
  // matrix (post-scheme-rounding, so sketches see the bytes that will be
  // archived) and propose delta parents by content distance. The proposals
  // only become candidate edges; the solver still measures them against
  // lineage and materialization, so a bad pairing costs nothing but the
  // trial delta.
  std::vector<std::pair<int, int>> similarity_pairs;  // Vertex ids.
  if (options.enable_similarity_pairing && values.size() > 1) {
    TraceSpan sketch_span("pas.archive.sketch");
    std::vector<ParamSketch> sketches(values.size());
    ParallelFor(pool.get(), values.size(), [&](size_t i) {
      sketches[i] = ComputeParamSketch(*values[i]);
    });
    for (const SketchPairing& pairing :
         SimilarDeltaPairs(sketches, options.similarity_fanout,
                           options.similarity_threshold)) {
      similarity_pairs.emplace_back(pairing.from + 1, pairing.to + 1);
    }
    sketch_span.Annotate("pairs",
                         static_cast<uint64_t>(similarity_pairs.size()));
  }

  // --- Assemble the matrix storage graph (Definition 1) over views of the
  // builder's own parameter vectors.
  std::vector<SnapshotSpec> specs;
  for (size_t s = 0; s < snapshot_names_.size(); ++s) {
    specs.push_back({snapshot_names_[s], &snapshot_params_[s]});
  }
  int first_similarity_edge = -1;
  CostModelTrials trials;
  MH_ASSIGN_OR_RETURN(
      MatrixStorageGraph graph,
      BuildMatrixStorageGraph(specs, candidate_pairs_, options, pool.get(),
                              similarity_pairs, &first_similarity_edge,
                              &trials));

  // --- Budgets relative to the SPT (the alpha knob of Fig 6(c)).
  MH_ASSIGN_OR_RETURN(StoragePlan spt, SolveSpt(graph));
  MH_ASSIGN_OR_RETURN(StoragePlan mst, SolveMst(graph));
  if (options.budget_alpha > 0.0 || !options.group_budget_alpha.empty()) {
    // Groups were registered one per snapshot, in snapshot_names_ order,
    // so per-snapshot alpha overrides index groups positionally.
    auto& groups = *graph.mutable_groups();
    for (size_t g = 0; g < groups.size(); ++g) {
      double alpha = options.budget_alpha;
      if (g < snapshot_names_.size()) {
        auto it = options.group_budget_alpha.find(snapshot_names_[g]);
        if (it != options.group_budget_alpha.end()) alpha = it->second;
      }
      if (alpha > 0.0) {
        groups[g].budget =
            alpha * spt.GroupRecreationCost(groups[g], options.scheme);
      }
    }
  }

  // --- Solve.
  StoragePlan plan = mst;
  switch (options.solver) {
    case ArchiveSolver::kMst:
      break;  // Already the MST.
    case ArchiveSolver::kSpt:
      plan = spt;
      break;
    case ArchiveSolver::kLast: {
      MH_ASSIGN_OR_RETURN(plan, SolveLast(graph, options.last_alpha));
      break;
    }
    case ArchiveSolver::kPasMt: {
      MH_ASSIGN_OR_RETURN(plan, SolvePasMt(graph, options.scheme));
      break;
    }
    case ArchiveSolver::kPasPt: {
      MH_ASSIGN_OR_RETURN(plan, SolvePasPt(graph, options.scheme));
      break;
    }
  }
  // Only a vertex the plan stores materialized reuses its materialization
  // trial's bytes; free the rest now, before the pipeline allocates.
  for (size_t i = 0; i < values.size(); ++i) {
    if (plan.Parent(static_cast<int>(i) + 1) != 0) {
      trials.materialized[i] = PlaneBytes{};
    }
  }

  // --- Write chunks for the chosen tree. Remote-tier payloads go to a
  // separate store standing in for the remote service. Data files carry a
  // fresh generation number; the old generation stays untouched until the
  // manifest (the commit point) is atomically replaced below. The number
  // comes from the files listed, so a failed listing fails the build
  // (nothing is written yet): generation 1 would replace a live or
  // dedup-shared chunks-1.bin in place.
  MH_RETURN_IF_ERROR(env_->CreateDirs(dir_));
  uint64_t generation = 1;
  {
    MH_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                        env_->ListDir(dir_));
    for (const std::string& name : names) {
      uint64_t gen = 0;
      if (ParseArchiveDataFileName(name, &gen)) {
        generation = std::max(generation, gen + 1);
      }
    }
  }
  const std::string chunks_name = GenFileName("chunks", generation);
  const std::string remote_name = GenFileName("remote", generation);
  ChunkStoreWriter chunks(env_, JoinPath(dir_, chunks_name));
  ChunkStoreWriter remote_chunks(env_, JoinPath(dir_, remote_name));
  int remote_payloads = 0;
  // Resolve every matrix's plan decision into a pipeline job: which base
  // (delta parent) it encodes against, which delta kind, which store, and
  // the cost model's trial of that payload when there is one. The
  // expensive encode work (delta + segmentation + compression) fans out
  // over the pool inside ParallelArchiver::Run; the committer appends
  // chunks in job (= matrix) order, so chunk ids — and the archive bytes —
  // are identical for every thread count.
  std::vector<ParallelArchiver::Job> jobs(values.size());
  std::vector<int> tiers(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const int v = static_cast<int>(i) + 1;
    const int parent = plan.Parent(v);
    ParallelArchiver::Job& job = jobs[i];
    job.target = values[i];
    if (parent != 0) {
      job.base = values[static_cast<size_t>(parent) - 1];
      const bool same_shape = job.base->rows() == job.target->rows() &&
                              job.base->cols() == job.target->cols();
      job.delta_kind =
          same_shape ? options.delta_kind : ToAdaptive(options.delta_kind);
    }
    const StorageEdge& edge = graph.edge(plan.ParentEdge(v));
    tiers[i] = edge.tier;
    job.destination = tiers[i] == 1 ? &remote_chunks : &chunks;
    if (tiers[i] == 1) ++remote_payloads;
    // The edge's trial encoded edge.v against edge.u, with the delta kind
    // the shapes give, as above. A plan may use a delta edge the other way
    // round, storing u against v: that payload was never tried.
    if (edge.u == parent && edge.v == v) {
      job.trial_codecs = &trials.edge_codecs[static_cast<size_t>(edge.id)];
      if (parent == 0) job.trial_planes = &trials.materialized[i];
    }
  }
  // --- Cross-generation dedup context (DESIGN.md §15): planes the
  // committed generation already stores are referenced instead of
  // re-appended.
  ParallelArchiver::DedupContext dedup_ctx;
  if (options.enable_dedup) dedup_ctx = PriorChunks();
  ArchivePipelineStats pipeline_stats;
  MH_ASSIGN_OR_RETURN(
      const std::vector<ParallelArchiver::Placement> placements,
      ParallelArchiver::Run(jobs, options.codec, threads, &pipeline_stats,
                            options.tile_rows,
                            options.enable_dedup ? &dedup_ctx : nullptr));
  // Every job is committed: free the held bytes now, not after the
  // manifest write and the cleanup below. No job's trial is read again.
  trials = CostModelTrials{};
  // Extra-file table: prior-generation data files actually referenced by
  // this build's placements, in first-reference (job, plane) order. Their
  // manifest slots start at 2 (0 = local store, 1 = remote store).
  std::vector<std::string> extra_files;
  std::vector<int> slot_of_prior(dedup_ctx.prior_files.size(), -1);
  for (size_t i = 0; i < placements.size(); ++i) {
    for (int p = 0; p < kNumPlanes; ++p) {
      const int32_t pf = placements[i].prior_file[p];
      if (pf >= 0 && slot_of_prior[static_cast<size_t>(pf)] < 0) {
        slot_of_prior[static_cast<size_t>(pf)] =
            2 + static_cast<int>(extra_files.size());
        extra_files.push_back(dedup_ctx.prior_files[static_cast<size_t>(pf)]);
      }
    }
  }
  std::string manifest;  // Body; the generation header is prepended below.
  PutVarint64(&manifest, values.size());
  for (size_t s = 0, i = 0; s < snapshot_names_.size(); ++s) {
    for (const NamedParam& param : snapshot_params_[s]) {
      PutLengthPrefixed(&manifest, Slice(snapshot_names_[s]));
      PutLengthPrefixed(&manifest, Slice(param.name));
      PutVarint64(&manifest, static_cast<uint64_t>(param.value.rows()));
      PutVarint64(&manifest, static_cast<uint64_t>(param.value.cols()));
      manifest.push_back(static_cast<char>(jobs[i].delta_kind));
      manifest.push_back(static_cast<char>(tiers[i]));
      PutVarint64(&manifest,
                  static_cast<uint64_t>(plan.Parent(static_cast<int>(i) + 1)));
      for (int p = 0; p < kNumPlanes; ++p) {
        const int32_t pf = placements[i].prior_file[p];
        const int slot =
            pf >= 0 ? slot_of_prior[static_cast<size_t>(pf)] : tiers[i];
        PutVarint64(&manifest, static_cast<uint64_t>(slot));
        PutVarint64(&manifest, placements[i].chunk_ids[p]);
      }
      ++i;
    }
  }
  PutVarint64(&manifest, snapshot_names_.size());
  for (size_t s = 0, v = 1; s < snapshot_names_.size(); ++s) {
    PutLengthPrefixed(&manifest, Slice(snapshot_names_[s]));
    PutVarint64(&manifest, snapshot_params_[s].size());
    for (size_t p = 0; p < snapshot_params_[s].size(); ++p) {
      PutVarint64(&manifest, v++);
    }
  }
  // --- Publish: data files first (each written atomically), then the
  // CRC-framed manifest naming them — the commit point. A crash before the
  // manifest write leaves the previous generation fully intact; the new
  // files are unreferenced garbage collected by the next Build (or fsck).
  MH_RETURN_IF_ERROR(chunks.Finish());
  if (remote_payloads > 0) {
    MH_RETURN_IF_ERROR(remote_chunks.Finish());
  }
  std::string framed;
  framed.append(kManifestMagicV3, kManifestMagicSize);
  PutVarint64(&framed, generation);
  PutLengthPrefixed(&framed, Slice(chunks_name));
  PutLengthPrefixed(&framed,
                    Slice(remote_payloads > 0 ? remote_name : std::string()));
  PutVarint64(&framed, extra_files.size());
  for (const std::string& extra : extra_files) {
    PutLengthPrefixed(&framed, Slice(extra));
  }
  framed.append(manifest);
  MH_RETURN_IF_ERROR(WriteChecked(env_, ManifestPath(dir_), framed));
  // Builds that kept a chunk index left it next to the manifest; nothing
  // reads it, so drop it (best effort).
  (void)env_->DeleteFile(JoinPath(dir_, kLegacyChunkIndexFile));
  // --- Garbage-collect superseded generations (best effort). Generations
  // pinned by a live reader are left behind, as are prior-generation data
  // files the new manifest still references through dedup (shared chunks);
  // the lifecycle GC sweep reclaims them once unreferenced and unpinned
  // (DESIGN.md §14, §15).
  if (auto names = env_->ListDir(dir_); names.ok()) {
    std::set<std::string> referenced(extra_files.begin(), extra_files.end());
    referenced.insert(chunks_name);
    if (remote_payloads > 0) referenced.insert(remote_name);
    GenerationPinRegistry* pins = GenerationPinRegistry::Global();
    for (const std::string& name : *names) {
      uint64_t gen = 0;
      if ((ParseGenFileName(name, "chunks", &gen) ||
           ParseGenFileName(name, "remote", &gen)) &&
          gen != generation && referenced.count(name) == 0 &&
          !pins->IsPinned(env_, dir_, gen)) {
        (void)env_->DeleteFile(JoinPath(dir_, name));
      }
    }
  }

  // --- Report.
  ArchiveBuildReport report;
  report.num_vertices = graph.num_vertices() - 1;
  report.num_edges = static_cast<int>(graph.edges().size());
  report.storage_cost = plan.TotalStorageCost();
  report.mst_storage_cost = mst.TotalStorageCost();
  report.spt_storage_cost = spt.TotalStorageCost();
  report.budgets_satisfied = plan.SatisfiesBudgets(options.scheme);
  report.remote_payloads = remote_payloads;
  if (first_similarity_edge >= 0) {
    report.similarity_edges =
        static_cast<int>(graph.edges().size()) - first_similarity_edge;
    for (int v = 1; v < graph.num_vertices(); ++v) {
      if (plan.Parent(v) != 0 &&
          plan.ParentEdge(v) >= first_similarity_edge) {
        ++report.similarity_parents;
      }
    }
  }
  report.pipeline = std::move(pipeline_stats);
  MH_COUNTER("pas.archive.raw.bytes")->Add(report.pipeline.raw_bytes);
  MH_COUNTER("pas.archive.stored.bytes")
      ->Add(report.pipeline.compressed_bytes);
  for (const auto& group : graph.groups()) {
    report.group_recreation_costs.push_back(
        plan.GroupRecreationCost(group, options.scheme));
    report.group_budgets.push_back(group.budget);
  }
  MH_HISTOGRAM("pas.archive.build.us")
      ->Record(static_cast<uint64_t>(build_watch.ElapsedMillis() * 1000.0));
  MH_GAUGE("pas.archive.plan.storage_cost")
      ->Set(static_cast<int64_t>(report.storage_cost));
  build_span.Annotate("storage_cost",
                      static_cast<uint64_t>(report.storage_cost));
  return report;
}

Result<ArchiveReader> ArchiveReader::Open(Env* env, const std::string& dir) {
  ArchiveReader reader;
  // The CRC-framed manifest is the source of truth: it names the data
  // files of the committed generation, so a crash mid-rebuild (stray newer
  // generation files, no manifest update) is invisible here.
  //
  // Pin-then-reverify: pin every generation the manifest references —
  // its own plus the generations of prior data files it borrows chunks
  // from through dedup — then re-read the manifest. If the generation is
  // unchanged, any concurrent rebuild that could delete those files
  // commits its own manifest — and hence runs its pinned-generation
  // check — after our pins, so the files stay alive for this reader's
  // lifetime. If it moved, drop the pins and chase the newer generation.
  std::string manifest;
  for (int attempt = 0;; ++attempt) {
    MH_ASSIGN_OR_RETURN(manifest, ReadChecked(env, ManifestPath(dir)));
    MH_ASSIGN_OR_RETURN(const uint64_t generation,
                        ParseManifestGeneration(manifest));
    reader.pins_.clear();
    reader.pins_.push_back(
        GenerationPinRegistry::Global()->Pin(env, dir, generation));
    {
      Slice header_in;
      MH_ASSIGN_OR_RETURN(const ManifestFileHeader files,
                          ParseManifestFileHeader(manifest, &header_in));
      std::set<uint64_t> extra_gens;
      for (const std::string& name : files.extra_files) {
        uint64_t gen = 0;
        if (ParseArchiveDataFileName(name, &gen)) extra_gens.insert(gen);
      }
      extra_gens.erase(generation);
      for (uint64_t gen : extra_gens) {
        reader.pins_.push_back(
            GenerationPinRegistry::Global()->Pin(env, dir, gen));
      }
    }
    MH_ASSIGN_OR_RETURN(const std::string again,
                        ReadChecked(env, ManifestPath(dir)));
    MH_ASSIGN_OR_RETURN(const uint64_t reread,
                        ParseManifestGeneration(again));
    if (reread == generation) break;
    reader.pins_.clear();
    if (attempt >= 3) {
      return Status::Unavailable("archive is being rebuilt; retry open: " +
                                 dir);
    }
  }
  const int version = ManifestVersion(manifest);
  Slice in;
  MH_ASSIGN_OR_RETURN(const ManifestFileHeader header,
                      ParseManifestFileHeader(manifest, &in));
  reader.generation_ = header.generation;
  // Store slots: [0] local, [1] remote (null placeholder when unused),
  // [2 + k] prior-generation files shared through dedup. store_names_
  // stays aligned; data_files_ is the compacted non-empty view for fsck.
  auto open_store = [&](const std::string& name)
      -> Result<std::shared_ptr<ChunkStoreReader>> {
    MH_ASSIGN_OR_RETURN(ChunkStoreReader store,
                        ChunkStoreReader::Open(env, JoinPath(dir, name)));
    reader.data_files_.push_back(name);
    return std::make_shared<ChunkStoreReader>(std::move(store));
  };
  MH_ASSIGN_OR_RETURN(std::shared_ptr<ChunkStoreReader> local,
                      open_store(header.chunks_name));
  reader.stores_.push_back(std::move(local));
  reader.store_names_.push_back(header.chunks_name);
  if (!header.remote_name.empty()) {
    MH_ASSIGN_OR_RETURN(std::shared_ptr<ChunkStoreReader> remote,
                        open_store(header.remote_name));
    reader.stores_.push_back(std::move(remote));
  } else {
    reader.stores_.push_back(nullptr);
  }
  reader.store_names_.push_back(header.remote_name);
  for (const std::string& extra : header.extra_files) {
    MH_ASSIGN_OR_RETURN(std::shared_ptr<ChunkStoreReader> store,
                        open_store(extra));
    reader.stores_.push_back(std::move(store));
    reader.store_names_.push_back(extra);
  }
  uint64_t num_matrices = 0;
  MH_RETURN_IF_ERROR(GetVarint64(&in, &num_matrices));
  reader.vertices_.resize(static_cast<size_t>(num_matrices) + 1);
  for (uint64_t i = 1; i <= num_matrices; ++i) {
    VertexMeta& meta = reader.vertices_[static_cast<size_t>(i)];
    Slice snapshot;
    Slice param;
    MH_RETURN_IF_ERROR(GetLengthPrefixed(&in, &snapshot));
    MH_RETURN_IF_ERROR(GetLengthPrefixed(&in, &param));
    meta.snapshot = snapshot.ToString();
    meta.param = param.ToString();
    uint64_t rows = 0;
    uint64_t cols = 0;
    MH_RETURN_IF_ERROR(GetVarint64(&in, &rows));
    MH_RETURN_IF_ERROR(GetVarint64(&in, &cols));
    meta.rows = static_cast<int64_t>(rows);
    meta.cols = static_cast<int64_t>(cols);
    if (in.size() < 2) return Status::Corruption("manifest truncated");
    MH_ASSIGN_OR_RETURN(
        meta.delta_kind,
        DeltaKindFromString(DeltaKindToString(static_cast<DeltaKind>(in[0]))));
    meta.tier = in[1];
    if (meta.tier != 0 && meta.tier != 1) {
      return Status::Corruption("manifest bad tier");
    }
    in.RemovePrefix(2);
    uint64_t parent = 0;
    MH_RETURN_IF_ERROR(GetVarint64(&in, &parent));
    if (parent > num_matrices || parent == i) {
      return Status::Corruption("manifest parent out of range");
    }
    meta.parent = static_cast<int>(parent);
    if (meta.tier == 1 && reader.stores_[1] == nullptr) {
      return Status::Corruption("manifest remote vertex without remote store");
    }
    for (int p = 0; p < kNumPlanes; ++p) {
      uint64_t slot = static_cast<uint64_t>(meta.tier);
      if (version >= 3) {
        MH_RETURN_IF_ERROR(GetVarint64(&in, &slot));
      }
      if (slot >= reader.stores_.size() ||
          reader.stores_[static_cast<size_t>(slot)] == nullptr) {
        return Status::Corruption("manifest chunk slot out of range");
      }
      uint64_t chunk_id = 0;
      MH_RETURN_IF_ERROR(GetVarint64(&in, &chunk_id));
      if (chunk_id >=
          reader.stores_[static_cast<size_t>(slot)]->num_chunks()) {
        return Status::Corruption("manifest chunk id out of range");
      }
      meta.slots[p] = static_cast<uint32_t>(slot);
      meta.chunk_ids[p] = static_cast<uint32_t>(chunk_id);
    }
  }
  uint64_t num_snapshots = 0;
  MH_RETURN_IF_ERROR(GetVarint64(&in, &num_snapshots));
  for (uint64_t s = 0; s < num_snapshots; ++s) {
    Slice name;
    MH_RETURN_IF_ERROR(GetLengthPrefixed(&in, &name));
    uint64_t count = 0;
    MH_RETURN_IF_ERROR(GetVarint64(&in, &count));
    std::vector<int> members;
    for (uint64_t m = 0; m < count; ++m) {
      uint64_t vertex = 0;
      MH_RETURN_IF_ERROR(GetVarint64(&in, &vertex));
      if (vertex == 0 || vertex > num_matrices) {
        return Status::Corruption("manifest group member out of range");
      }
      members.push_back(static_cast<int>(vertex));
    }
    reader.snapshot_names_.push_back(name.ToString());
    reader.snapshot_members_.push_back(std::move(members));
  }
  // Lookup indexes: every retrieval entry point resolves names through
  // these instead of scanning all vertices with string compares.
  for (size_t s = 0; s < reader.snapshot_names_.size(); ++s) {
    reader.snapshot_index_.emplace(reader.snapshot_names_[s],
                                   static_cast<int>(s));
  }
  for (size_t v = 1; v < reader.vertices_.size(); ++v) {
    const VertexMeta& meta = reader.vertices_[v];
    reader.vertex_index_.emplace(std::make_pair(meta.snapshot, meta.param),
                                 static_cast<int>(v));
  }
  return reader;
}

int ArchiveReader::FindSnapshot(const std::string& snapshot) const {
  auto it = snapshot_index_.find(snapshot);
  return it == snapshot_index_.end() ? -1 : it->second;
}

int ArchiveReader::FindVertex(const std::string& snapshot,
                              const std::string& param) const {
  auto it = vertex_index_.find(std::make_pair(snapshot, param));
  return it == vertex_index_.end() ? -1 : it->second;
}

ChunkStoreStats ArchiveReader::store_stats() const {
  ChunkStoreStats total;
  for (const auto& store : stores_) {
    if (store == nullptr) continue;
    const ChunkStoreStats stats = store->stats();
    total.bytes_read += stats.bytes_read;
    total.chunk_fetches += stats.chunk_fetches;
    total.cache_hits += stats.cache_hits;
    total.cache_evictions += stats.cache_evictions;
    total.cache_bytes += stats.cache_bytes;
  }
  return total;
}

Result<std::vector<std::string>> ArchiveReader::ParamNames(
    const std::string& snapshot) const {
  const int s = FindSnapshot(snapshot);
  if (s < 0) return Status::NotFound("no snapshot: " + snapshot);
  std::vector<std::string> names;
  for (int v : snapshot_members_[static_cast<size_t>(s)]) {
    names.push_back(vertices_[static_cast<size_t>(v)].param);
  }
  return names;
}

/// One node of a retrieval plan: a delta-chain vertex resolved exactly
/// or as bounds. Only the node's own Resolve writes it; its children read
/// it after it resolved, the caller after Execute returns.
struct ArchiveReader::PlanNode {
  int vertex = 0;
  bool exact = true;
  int parent = -1;            ///< Node of the delta base; -1 = materialized.
  std::vector<int> children;  ///< Nodes that delta off this one.
  int uses = 0;               ///< Requests whose result this node holds.
  FloatMatrix value;          ///< Exact nodes: the full-precision matrix.
  IntervalMatrix bounds;      ///< Bounds nodes: sound per-weight bounds.
  ChunkStoreStats io;         ///< This node's chunk Gets.
  Status status = Status::OK();
};

/// Fills a RetrievalStats from the executed plan's per-node chunk reads +
/// wall time on scope exit, and feeds the `pas.retrieve.*` registry
/// instruments plus a trace span. Construct at the very top of a
/// retrieval entry point: the destructor runs on every exit path, so
/// callers get a final (partial) stats snapshot even when retrieval fails
/// mid-forest — wall time, bytes and cache counters cover the work done
/// up to the failure.
class ArchiveReader::StatsScope {
 public:
  StatsScope(RetrievalStats* stats, const char* op)
      : stats_(stats), span_(op) {
    if (stats_ != nullptr) *stats_ = RetrievalStats{};
  }

  ~StatsScope() {
    const double wall_ms = watch_.ElapsedMillis();
    if (stats_ != nullptr) {
      stats_->chunk_fetches = io_.chunk_fetches;
      stats_->cache_hits = io_.cache_hits;
      stats_->cache_evictions = io_.cache_evictions;
      stats_->bytes_read = io_.bytes_read;
      stats_->vertices_resolved = vertices_;
      stats_->wall_ms = wall_ms;
    }
    MH_COUNTER("pas.retrieve.count")->Increment();
    if (!ok_) MH_COUNTER("pas.retrieve.errors")->Increment();
    MH_COUNTER("pas.retrieve.vertices")->Add(vertices_);
    MH_COUNTER("pas.retrieve.bytes")->Add(io_.bytes_read);
    MH_HISTOGRAM("pas.retrieve.us")
        ->Record(static_cast<uint64_t>(wall_ms * 1000.0));
    if (span_.recording()) {
      span_.Annotate("vertices", vertices_);
      span_.Annotate("chunk_fetches", io_.chunk_fetches);
      span_.Annotate("bytes", io_.bytes_read);
      if (!ok_) span_.Annotate("error", std::string("true"));
    }
  }

  /// Books an executed plan: its nodes' chunk reads and resolved vertices.
  void Record(const std::vector<PlanNode>& nodes) {
    for (const PlanNode& node : nodes) {
      io_.chunk_fetches += node.io.chunk_fetches;
      io_.cache_hits += node.io.cache_hits;
      io_.cache_evictions += node.io.cache_evictions;
      io_.bytes_read += node.io.bytes_read;
      if (node.status.ok()) ++vertices_;
    }
  }
  /// Call once the operation is known to have fully succeeded.
  void MarkOk() { ok_ = true; }
  TraceSpan& span() { return span_; }

 private:
  RetrievalStats* stats_;
  ChunkStoreStats io_;
  Stopwatch watch_;
  TraceSpan span_;
  uint64_t vertices_ = 0;
  bool ok_ = false;
};

Result<std::vector<int>> ArchiveReader::Plan(
    const std::vector<int>& requests, int planes, ParallelScheme scheme,
    std::vector<PlanNode>* nodes) const {
  // (vertex, exact) -> node index; -1 while the walk that met the pair is
  // still climbing, so meeting it again means the chain is a cycle.
  std::map<std::pair<int, bool>, int> node_of;
  std::vector<int> outputs;
  for (const int request : requests) {
    if (scheme == ParallelScheme::kIndependent) node_of.clear();
    // Climb to a materialized vertex or to a node an earlier walk planned,
    // then append this walk's nodes root first.
    std::vector<std::pair<int, bool>> walk;
    int attach = -1;
    bool exact = planes == 0;
    for (int v = request; v != 0;
         v = vertices_[static_cast<size_t>(v)].parent) {
      const DeltaKind kind = vertices_[static_cast<size_t>(v)].delta_kind;
      if (!exact &&
          (kind == DeltaKind::kXor || kind == DeltaKind::kAdaptiveXor)) {
        // XOR needs bit-exact operands, so an XOR vertex and its
        // ancestors resolve exactly, from all four planes.
        if (planes < kNumPlanes) {
          return Status::InvalidArgument(
              "partial retrieval is not defined over XOR deltas");
        }
        exact = true;
      }
      const auto [it, inserted] = node_of.emplace(std::make_pair(v, exact), -1);
      if (!inserted) {
        if (it->second < 0) {
          const VertexMeta& meta = vertices_[static_cast<size_t>(request)];
          return Status::Corruption("delta chain of " + meta.snapshot + "/" +
                                    meta.param + " does not terminate (cycle)");
        }
        attach = it->second;
        break;
      }
      walk.push_back(it->first);
    }
    for (auto key = walk.rbegin(); key != walk.rend(); ++key) {
      const int index = static_cast<int>(nodes->size());
      PlanNode& node = nodes->emplace_back();
      node.vertex = key->first;
      node.exact = key->second;
      node.parent = attach;
      if (attach >= 0) {
        (*nodes)[static_cast<size_t>(attach)].children.push_back(index);
      }
      attach = node_of[*key] = index;
    }
    ++(*nodes)[static_cast<size_t>(attach)].uses;
    outputs.push_back(attach);
  }
  return outputs;
}

void ArchiveReader::Execute(std::vector<PlanNode>* nodes, int planes,
                            ThreadPool* pool) const {
  auto run = [this, nodes, planes](size_t index) {
    PlanNode& node = (*nodes)[index];
    const PlanNode* parent =
        node.parent < 0 ? nullptr : &(*nodes)[static_cast<size_t>(node.parent)];
    node.status = parent != nullptr && !parent->status.ok()
                      ? parent->status
                      : Resolve(&node, parent, planes);
  };
  if (pool == nullptr) {
    for (size_t i = 0; i < nodes->size(); ++i) run(i);  // Parents first.
    return;
  }
  // A node's task schedules its children once it has resolved. The call
  // waits on its own WaitGroup, never ThreadPool::Wait, so concurrent
  // calls can share one pool.
  WaitGroup done;
  std::function<void(size_t)> task = [&](size_t index) {
    run(index);
    for (const int child : (*nodes)[index].children) {
      pool->Schedule(&done,
                     [&task, child] { task(static_cast<size_t>(child)); });
    }
  };
  for (size_t i = 0; i < nodes->size(); ++i) {
    if ((*nodes)[i].parent < 0) pool->Schedule(&done, [&task, i] { task(i); });
  }
  done.Wait();
}

Status ArchiveReader::Resolve(PlanNode* node, const PlanNode* parent,
                              int planes) const {
  const VertexMeta& meta = vertices_[static_cast<size_t>(node->vertex)];
  std::string plane_data[kNumPlanes];
  std::vector<Slice> plane_slices;
  for (int p = 0; p < (node->exact ? kNumPlanes : planes); ++p) {
    MH_ASSIGN_OR_RETURN(plane_data[p], stores_[meta.slots[p]]->Get(
                                           meta.chunk_ids[p], &node->io));
    plane_slices.emplace_back(plane_data[p]);
  }
  if (node->exact) {
    MH_ASSIGN_OR_RETURN(FloatMatrix payload,
                        AssembleFloats(meta.rows, meta.cols, plane_slices));
    MH_COUNTER("pas.retrieve.vertex.decode")->Increment();
    if (parent == nullptr) {
      node->value = std::move(payload);
      return Status::OK();
    }
    MH_ASSIGN_OR_RETURN(node->value,
                        ApplyDelta(parent->value, payload, meta.delta_kind));
    MH_COUNTER("pas.retrieve.delta.apply")->Increment();
    return Status::OK();
  }
  MH_ASSIGN_OR_RETURN(IntervalMatrix own,
                      BoundsFromPlanes(meta.rows, meta.cols, plane_slices));
  if (parent == nullptr) {
    node->bounds = std::move(own);
    return Status::OK();
  }
  // An exact parent is the degenerate interval [v, v].
  const FloatMatrix& base_lo =
      parent->exact ? parent->value : parent->bounds.lo();
  const FloatMatrix& base_hi =
      parent->exact ? parent->value : parent->bounds.hi();
  // target = base + delta on the overlap (interval addition); outside
  // the base's extent (adaptive deltas only) the delta carries the
  // target verbatim, so its own bounds stand alone.
  const int64_t overlap_rows = std::min(meta.rows, base_lo.rows());
  const int64_t overlap_cols = std::min(meta.cols, base_lo.cols());
  if (meta.delta_kind == DeltaKind::kSub &&
      (overlap_rows != meta.rows || overlap_cols != meta.cols)) {
    return Status::Corruption("exact SUB delta with mismatched base shape");
  }
  // The node's own fresh bounds are summed in place, one row at a time.
  auto [lo, hi] = std::move(own).TakeBounds();
  for (int64_t r = 0; r < overlap_rows; ++r) {
    float* lo_row = lo.data().data() + r * meta.cols;
    float* hi_row = hi.data().data() + r * meta.cols;
    const float* base_lo_row = base_lo.data().data() + r * base_lo.cols();
    const float* base_hi_row = base_hi.data().data() + r * base_hi.cols();
    for (int64_t c = 0; c < overlap_cols; ++c) {
      lo_row[c] = base_lo_row[c] + lo_row[c];
      hi_row[c] = base_hi_row[c] + hi_row[c];
    }
  }
  MH_ASSIGN_OR_RETURN(node->bounds,
                      IntervalMatrix::FromBounds(std::move(lo), std::move(hi)));
  return Status::OK();
}

Result<FloatMatrix> ArchiveReader::RetrieveMatrix(
    const std::string& snapshot, const std::string& param) const {
  const int vertex = FindVertex(snapshot, param);
  if (vertex < 0) {
    return Status::NotFound("no matrix " + snapshot + "/" + param);
  }
  std::vector<PlanNode> nodes;
  MH_ASSIGN_OR_RETURN(const std::vector<int> outputs,
                      Plan({vertex}, 0, ParallelScheme::kShared, &nodes));
  Execute(&nodes, 0, nullptr);
  PlanNode& node = nodes[static_cast<size_t>(outputs[0])];
  MH_RETURN_IF_ERROR(node.status);
  return std::move(node.value);
}

Result<std::vector<NamedParam>> ArchiveReader::RetrieveSnapshot(
    const std::string& snapshot, RetrievalStats* stats) const {
  StatsScope scope(stats, "pas.retrieve.snapshot");
  scope.span().Annotate("snapshot", snapshot);
  MH_ASSIGN_OR_RETURN(
      std::vector<std::vector<NamedParam>> sets,
      RetrieveExact({snapshot}, nullptr, ParallelScheme::kShared, &scope));
  return std::move(sets[0]);
}

Result<std::vector<std::vector<NamedParam>>>
ArchiveReader::RetrieveSnapshotsParallel(
    const std::vector<std::string>& snapshots, ThreadPool* pool,
    ParallelScheme scheme, RetrievalStats* stats) const {
  StatsScope scope(stats, "pas.retrieve.parallel");
  scope.span().Annotate("snapshots", static_cast<uint64_t>(snapshots.size()));
  scope.span().Annotate(
      "scheme", scheme == ParallelScheme::kShared ? "shared" : "independent");
  return RetrieveExact(snapshots, pool, scheme, &scope);
}

Result<std::vector<std::vector<NamedParam>>> ArchiveReader::RetrieveExact(
    const std::vector<std::string>& snapshots, ThreadPool* pool,
    ParallelScheme scheme, StatsScope* scope) const {
  std::vector<const std::vector<int>*> member_lists;
  std::vector<int> requests;
  for (const std::string& name : snapshots) {
    const int s = FindSnapshot(name);
    if (s < 0) return Status::NotFound("no snapshot: " + name);
    member_lists.push_back(&snapshot_members_[static_cast<size_t>(s)]);
    requests.insert(requests.end(), member_lists.back()->begin(),
                    member_lists.back()->end());
  }
  std::vector<PlanNode> nodes;
  MH_ASSIGN_OR_RETURN(const std::vector<int> outputs,
                      Plan(requests, 0, scheme, &nodes));
  Execute(&nodes, 0, pool);
  scope->Record(nodes);
  std::vector<std::vector<NamedParam>> out(member_lists.size());
  size_t next = 0;
  for (size_t set = 0; set < member_lists.size(); ++set) {
    for (const int member : *member_lists[set]) {
      PlanNode& node = nodes[static_cast<size_t>(outputs[next++])];
      MH_RETURN_IF_ERROR(node.status);
      // The last requester steals the decoded matrix; earlier requesters
      // (the same snapshot listed twice) must copy.
      FloatMatrix value;
      if (--node.uses == 0) {
        value = std::move(node.value);
      } else {
        value = node.value;
      }
      out[set].push_back({vertices_[static_cast<size_t>(member)].param,
                          std::move(value)});
    }
  }
  scope->MarkOk();
  return out;
}

Result<std::map<std::string, IntervalMatrix>>
ArchiveReader::RetrieveSnapshotBounds(const std::string& snapshot,
                                      int planes) const {
  if (planes < 1 || planes > kNumPlanes) {
    return Status::InvalidArgument("planes must be in [1,4]");
  }
  StatsScope scope(nullptr, "pas.retrieve.bounds");
  scope.span().Annotate("snapshot", snapshot);
  scope.span().Annotate("planes", static_cast<uint64_t>(planes));
  const int s = FindSnapshot(snapshot);
  if (s < 0) return Status::NotFound("no snapshot: " + snapshot);
  const std::vector<int>& members = snapshot_members_[static_cast<size_t>(s)];
  std::vector<PlanNode> nodes;
  MH_ASSIGN_OR_RETURN(const std::vector<int> outputs,
                      Plan(members, planes, ParallelScheme::kShared, &nodes));
  Execute(&nodes, planes, nullptr);
  scope.Record(nodes);
  std::map<std::string, IntervalMatrix> out;
  for (size_t m = 0; m < members.size(); ++m) {
    PlanNode& node = nodes[static_cast<size_t>(outputs[m])];
    MH_RETURN_IF_ERROR(node.status);
    out.emplace(vertices_[static_cast<size_t>(members[m])].param,
                node.exact ? IntervalMatrix::FromExact(node.value)
                           : std::move(node.bounds));
  }
  scope.MarkOk();
  return out;
}

std::vector<std::string> ArchiveReader::VerifyIntegrity() const {
  std::vector<std::string> defects;
  auto verify_store = [&](const ChunkStoreReader* store,
                          const std::string& label) {
    if (store == nullptr) return;
    for (uint32_t i = 0; i < store->num_chunks(); ++i) {
      const Status status = store->Verify(i);
      if (!status.ok()) {
        defects.push_back(label + ": " + status.ToString());
      }
    }
  };
  for (size_t s = 0; s < stores_.size(); ++s) {
    verify_store(stores_[s].get(), "chunk store " + store_names_[s]);
  }
  // Every delta chain must terminate at a materialized vertex without
  // cycles; Open bounds parent ids but cannot see cycles spanning vertices.
  for (size_t v = 1; v < vertices_.size(); ++v) {
    int cursor = static_cast<int>(v);
    size_t steps = 0;
    while (cursor != 0 && steps <= vertices_.size()) {
      cursor = vertices_[static_cast<size_t>(cursor)].parent;
      ++steps;
    }
    if (cursor != 0) {
      defects.push_back("delta chain of " + vertices_[v].snapshot + "/" +
                        vertices_[v].param + " does not terminate (cycle)");
    }
  }
  return defects;
}

uint64_t ArchiveReader::TotalStoredBytes() const {
  // Each referenced (store, chunk) pair counts once, so shared chunks —
  // within this generation or borrowed from a prior one — are not double
  // counted, and unreferenced residue inside a shared prior file is not
  // charged to this archive.
  std::set<std::pair<uint32_t, uint32_t>> seen;
  uint64_t total = 0;
  for (size_t v = 1; v < vertices_.size(); ++v) {
    const VertexMeta& meta = vertices_[v];
    for (int p = 0; p < kNumPlanes; ++p) {
      if (seen.emplace(meta.slots[p], meta.chunk_ids[p]).second) {
        total += stores_[meta.slots[p]]->ref(meta.chunk_ids[p]).stored_size;
      }
    }
  }
  return total;
}

ArchiveDedupStats ArchiveReader::ComputeDedupStats() const {
  ArchiveDedupStats stats;
  std::map<std::pair<uint32_t, uint32_t>, int> refs;
  for (size_t v = 1; v < vertices_.size(); ++v) {
    const VertexMeta& meta = vertices_[v];
    for (int p = 0; p < kNumPlanes; ++p) {
      ++stats.plane_refs;
      if (meta.slots[p] >= 2) ++stats.cross_file_refs;
      const auto key = std::make_pair(meta.slots[p], meta.chunk_ids[p]);
      const uint64_t size =
          stores_[meta.slots[p]]->ref(meta.chunk_ids[p]).stored_size;
      stats.logical_bytes += size;
      if (++refs[key] == 1) {
        ++stats.unique_chunks;
        stats.stored_bytes += size;
      }
    }
  }
  for (const auto& [key, count] : refs) {
    if (count > 1) stats.shared_refs += count - 1;
  }
  return stats;
}

ParallelArchiver::DedupContext ArchiveBuilder::PriorChunks() const {
  ParallelArchiver::DedupContext prior;
  if (!env_->FileExists(ManifestPath(dir_))) return prior;
  // The reader and its generation pins live only inside this call, so
  // they cannot hold a superseded generation past Build's cleanup. An
  // archive that does not open shares nothing.
  auto reader = ArchiveReader::Open(env_, dir_);
  if (!reader.ok()) return prior;
  prior.prior_files = reader->store_names_;  // PriorChunk::file is a slot.
  for (size_t v = 1; v < reader->vertices_.size(); ++v) {
    const ArchiveReader::VertexMeta& meta = reader->vertices_[v];
    for (int p = 0; p < kNumPlanes; ++p) {
      const uint32_t slot = meta.slots[p];
      const uint32_t id = meta.chunk_ids[p];
      // A chunk whose stored bytes fail their CRC is never offered.
      const ChunkStoreReader& store = *reader->stores_[slot];
      auto payload = store.GetCompressed(id);
      if (!payload.ok()) continue;
      // First (slot, chunk id) seen wins for a key stored more than once.
      prior.prior.emplace(StoredChunkKey(store.ref(id).codec, Slice(*payload)),
                          ParallelArchiver::DedupContext::PriorChunk{
                              static_cast<int>(slot), id});
    }
  }
  return prior;
}

}  // namespace modelhub
