#ifndef MODELHUB_PAS_ARCHIVE_H_
#define MODELHUB_PAS_ARCHIVE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/thread_pool.h"
#include "common/result.h"
#include "nn/network.h"
#include "pas/chunk_store.h"
#include "pas/delta.h"
#include "pas/generation_pins.h"
#include "pas/float_encoding.h"
#include "pas/parallel_archiver.h"
#include "pas/segment.h"
#include "pas/solver.h"
#include "pas/storage_graph.h"
#include "tensor/interval.h"

namespace modelhub {

/// Which Problem-1 solver lays out the archive.
enum class ArchiveSolver { kMst, kSpt, kLast, kPasMt, kPasPt };

std::string_view ArchiveSolverToString(ArchiveSolver solver);

/// Archive construction knobs.
struct ArchiveOptions {
  ArchiveSolver solver = ArchiveSolver::kPasPt;
  RetrievalScheme scheme = RetrievalScheme::kIndependent;
  /// Per-snapshot recreation budget = budget_alpha x that snapshot's SPT
  /// recreation cost. <= 0 disables budgets (pure storage minimization).
  double budget_alpha = 0.0;
  /// LAST's path-stretch bound (used only by ArchiveSolver::kLast).
  double last_alpha = 2.0;
  CodecType codec = CodecType::kDeflateLite;
  DeltaKind delta_kind = DeltaKind::kSub;
  /// Float representation the archive stores (Sec. IV-B: lossyness traded
  /// for footprint per snapshot instead of deleting snapshots). Non-
  /// float32 schemes round every matrix through the scheme before
  /// archiving; retrieval returns the (lossy) decoded values.
  FloatScheme storage_scheme = {FloatSchemeKind::kFloat32, 32};
  /// Seed for kQuantRandom storage schemes.
  uint64_t scheme_seed = 1;
  /// Recreation cost model: cr(edge) = stored_bytes + weight * raw_bytes
  /// (read + decompress-and-apply).
  double recreation_raw_weight = 0.25;
  /// Tiered storage (Sec. IV-C: "one edge corresponding to a remote
  /// storage option, where the storage cost is lower and the recreation
  /// cost is higher"). When enabled, every candidate edge gets a remote
  /// twin with discounted storage cost and penalized recreation cost; the
  /// solver picks per matrix, so cold checkpoints drift remote while
  /// budget-constrained snapshots stay local. Remote payloads are written
  /// to a separate chunk file (remote.bin) standing in for the remote
  /// store.
  bool enable_remote_tier = false;
  double remote_storage_discount = 0.5;
  double remote_read_penalty = 4.0;
  /// Encode workers for the archival write pipeline. >= 1 is literal
  /// (1 = the same pipeline on one worker, with the build's other phases
  /// inline), anything else means auto (ResolveArchiveThreads). The
  /// archive bytes are identical for every value — parallelism only
  /// changes wall time.
  int archive_threads = 0;
  /// Rows per delta+segment tile in the write pipeline. >= 1 is literal,
  /// anything else means auto (ResolveTileRows: ~64 KiB of floats per
  /// tile). Like archive_threads, the archive bytes are identical for
  /// every value.
  int tile_rows = 0;
  /// Per-snapshot budget_alpha overrides keyed by snapshot name (the
  /// lifecycle daemon's access-aware knob: hot snapshots get a tight
  /// alpha so their recreation stays cheap, cold ones a loose alpha so
  /// they compress harder). Snapshots not listed use budget_alpha.
  std::map<std::string, double> group_budget_alpha;
  /// Content-addressed chunk dedup (DESIGN.md §15). The committer keys
  /// every stored plane chunk on its codec and bytes and stores identical
  /// content once — within the build, and across generations by keying
  /// the chunks the committed manifest references. Dedup only changes
  /// *where* chunks live, never the storage plan or any retrieved byte.
  bool enable_dedup = true;
  /// Similarity-based delta pairing: per-parameter minhash sketches over
  /// the high-order float bytes propose delta parents by content distance
  /// in addition to declared lineage candidates. The solver takes a
  /// similarity edge only when it is measurably cheaper, so lineage (or
  /// materialization) remains the fallback. Unlike enable_dedup this
  /// changes the storage plan — the differential dedup tests hold it
  /// fixed while toggling dedup.
  bool enable_similarity_pairing = true;
  /// Max similarity delta-parent candidates proposed per matrix.
  int similarity_fanout = 2;
  /// Minimum sketch similarity (estimated Jaccard of high-byte block
  /// tokens, in [0,1]) for a proposed pairing.
  double similarity_threshold = 0.25;
};

/// What Build measured — the quantities Fig 6(c) plots.
struct ArchiveBuildReport {
  int num_vertices = 0;
  int num_edges = 0;
  double storage_cost = 0.0;         ///< Chosen plan Cs.
  double mst_storage_cost = 0.0;     ///< Lower bound (best compression).
  double spt_storage_cost = 0.0;     ///< Full-materialization-ish plan Cs.
  bool budgets_satisfied = true;
  /// Matrices whose payload the plan placed on the remote tier.
  int remote_payloads = 0;
  /// Per-snapshot recreation costs of the chosen plan, in snapshot order.
  std::vector<double> group_recreation_costs;
  std::vector<double> group_budgets;
  /// What the write pipeline did (threads used, bytes, stage latencies,
  /// dedup hit counts — see ArchivePipelineStats.dedup_*).
  ArchivePipelineStats pipeline;
  /// Candidate delta edges contributed by similarity pairing (sketch
  /// matches not already covered by declared lineage).
  int similarity_edges = 0;
  /// Matrices whose chosen delta parent came from a similarity edge
  /// rather than lineage or materialization.
  int similarity_parents = 0;
};

/// The cost model's trial encodes, kept for the write pipeline
/// (DESIGN.md §10). `edge_codecs[e]` is what EncodeChunk chose for each
/// plane of edge e's payload: vertex `edge.v` stored against `edge.u`
/// (materialized when u is v0). `materialized[v - 1]` holds the encoded
/// bytes of vertex v's materialization trial for every plane the codec
/// shrank, "" for the planes it stored raw.
struct CostModelTrials {
  std::vector<PlaneCodecs> edge_codecs;  ///< By edge id.
  std::vector<PlaneBytes> materialized;  ///< By vertex id - 1.
};

/// A named snapshot to archive (non-owning view over its parameters).
struct SnapshotSpec {
  std::string name;
  const std::vector<NamedParam>* params = nullptr;
};

/// Constructs the matrix storage graph (Definition 1) for a set of
/// snapshots: vertex ids are assigned 1..N in (snapshot, param) order;
/// every matrix gets a materialization edge from v0, every candidate pair
/// contributes delta edges for same-name same-shape parameters (shape
/// changes fall back to adaptive deltas), and each snapshot becomes one
/// co-usage group (budgets 0 — set them afterwards). Edge costs follow
/// `options`' codec, delta_kind and recreation_raw_weight; with
/// enable_remote_tier every edge gets a remote twin. Exposed so benchmarks
/// can solve one graph under many budget settings. When `pool` is non-null
/// the per-edge cost model (trial delta + EncodeChunk per plane of every
/// candidate edge, so `cs` is the bytes the archive would store) is
/// evaluated on it; edges are still added in deterministic candidate
/// order, so the graph is identical with or without a pool.
///
/// `vertex_pairs` are matrix-level delta-parent candidates (similarity
/// pairing's output) as (from, to) vertex ids: `to` considers `from` as a
/// delta base. Their edges follow the lineage edges, starting at
/// `*first_similarity_edge` (-1 when none is added); pairs of unequal
/// shape, self pairs and pairs lineage already covers add nothing. An id
/// outside 1..N is InvalidArgument.
///
/// A non-null `trials` receives what the cost model's trial encodes found
/// (CostModelTrials), for ArchiveBuilder to hand to the write pipeline.
Result<MatrixStorageGraph> BuildMatrixStorageGraph(
    const std::vector<SnapshotSpec>& snapshots,
    const std::vector<std::pair<int, int>>& candidate_pairs,
    const ArchiveOptions& options, ThreadPool* pool = nullptr,
    const std::vector<std::pair<int, int>>& vertex_pairs = {},
    int* first_similarity_edge = nullptr, CostModelTrials* trials = nullptr);

/// Generation number the committed manifest names, without opening the
/// chunk stores (the lifecycle GC's "current generation" probe).
Result<uint64_t> ReadArchiveGeneration(Env* env, const std::string& dir);

/// Parses a generation-numbered archive data file name
/// (`chunks-<gen>.bin` / `remote-<gen>.bin`); false for any other name.
bool ParseArchiveDataFileName(const std::string& name, uint64_t* gen);

/// Every data file the committed manifest references — the current
/// generation's own files plus any prior-generation files it reuses
/// chunks from (cross-generation dedup). The GC must never delete these,
/// whatever generation number they carry. Parses only the manifest
/// header; no chunk store is opened.
Result<std::vector<std::string>> ReadArchiveManifestFiles(
    Env* env, const std::string& dir);

/// File name of the chunk index older builds wrote next to the manifest.
/// Nothing reads it now: Build deletes it and fsck does not call it an
/// orphan.
inline constexpr char kLegacyChunkIndexFile[] = "chunk_index.bin";

/// Builds a PAS archive on disk: registers snapshots (co-usage groups),
/// delta candidates, solves Problem 1, and writes segmented + compressed
/// chunks plus a manifest.
///
/// Layout under `dir`: chunks-<gen>.bin (ChunkStore), optional
/// remote-<gen>.bin, manifest.bin (CRC-framed, names the data files of the
/// committed generation). Build writes a fresh generation of data files and
/// publishes it by atomically replacing the manifest — the commit point —
/// so a crash mid-build leaves the previous archive fully readable.
class ArchiveBuilder {
 public:
  ArchiveBuilder(Env* env, std::string dir);

  /// Registers a snapshot (its matrices become one co-usage group).
  /// Snapshot names must be unique; parameter names unique per snapshot.
  /// `params` becomes the builder's only copy of the matrices (move it in
  /// to avoid one); a lossy storage scheme rounds it in place at Build. A
  /// rejected snapshot registers nothing.
  Status AddSnapshot(const std::string& name, std::vector<NamedParam> params);

  /// Marks `from` -> `to` as a delta candidate pair: every parameter
  /// appearing in both with equal shape gets a candidate delta edge.
  /// Typically called for adjacent checkpoints and fine-tuned pairs.
  Status AddDeltaCandidate(const std::string& from_snapshot,
                           const std::string& to_snapshot);

  /// Solves the archival problem and writes the archive. Storage-graph
  /// vertex v holds the (v-1)-th matrix in (snapshot, param) order.
  Result<ArchiveBuildReport> Build(const ArchiveOptions& options);

 private:
  /// The cross-generation dedup map: the content hash of every plane
  /// chunk the committed manifest references, by store slot and chunk id.
  /// Empty when `dir_` has no manifest or the archive does not open.
  ParallelArchiver::DedupContext PriorChunks() const;

  Env* env_;
  std::string dir_;
  std::vector<std::string> snapshot_names_;
  std::vector<std::vector<NamedParam>> snapshot_params_;  // Per snapshot.
  std::vector<std::pair<int, int>> candidate_pairs_;  // Snapshot index pairs.
  bool built_ = false;
};

/// What one retrieval call actually did (Table III instrumentation):
/// chunk fetches, cache behavior, bytes moved, chain vertices decoded,
/// and wall time. Every chunk Get of the call reports into its plan
/// node's own sink, so the numbers are exact for this call even while
/// other retrievals run concurrently on the same reader: summed over
/// calls they equal the stores' counter deltas (store_stats()).
struct RetrievalStats {
  uint64_t chunk_fetches = 0;      ///< Disk chunk fetches (all stores).
  uint64_t cache_hits = 0;         ///< Chunk cache hits.
  uint64_t cache_evictions = 0;    ///< LRU evictions this call's Gets caused.
  uint64_t bytes_read = 0;         ///< Compressed bytes fetched.
  uint64_t vertices_resolved = 0;  ///< Delta-chain vertices decoded.
  double wall_ms = 0.0;            ///< Wall time of the call.
};

/// How RetrieveSnapshotsParallel plans the delta chains of the requested
/// matrices (Table III's independent vs. computation-sharing columns).
/// Either plan runs as one pool task per chain vertex, after its parent.
enum class ParallelScheme {
  /// Every requested matrix gets a private delta chain: shared chain
  /// prefixes are re-read and re-applied once per descendant matrix.
  kIndependent,
  /// One forest over all requested matrices: a vertex is decoded once
  /// and its value is shared by all descendants.
  kShared,
};

/// Dedup accounting of one committed archive, derived purely from the
/// manifest + chunk stores. "Logical" bytes count every plane reference
/// at its chunk's stored size; "stored" counts each referenced chunk
/// once — their ratio is the dedup factor.
struct ArchiveDedupStats {
  uint64_t plane_refs = 0;      ///< Plane references in the manifest.
  uint64_t unique_chunks = 0;   ///< Distinct (file, chunk) referenced.
  uint64_t shared_refs = 0;     ///< plane_refs - unique_chunks.
  uint64_t cross_file_refs = 0; ///< Refs into prior-generation files.
  uint64_t logical_bytes = 0;   ///< Sum of stored size over all refs.
  uint64_t stored_bytes = 0;    ///< Sum of stored size over unique chunks.
  double ratio() const {
    return stored_bytes == 0
               ? 1.0
               : static_cast<double>(logical_bytes) /
                     static_cast<double>(stored_bytes);
  }
};

/// Read side of a PAS archive. Full-precision retrieval follows delta
/// chains; partial retrieval reads only the first k byte planes of every
/// chunk on the chain and returns sound per-weight IntervalMatrix bounds
/// (Sec. IV-D), which feed IntervalEvaluator.
class ArchiveReader {
 public:
  static Result<ArchiveReader> Open(Env* env, const std::string& dir);

  const std::vector<std::string>& snapshot_names() const {
    return snapshot_names_;
  }

  /// Parameter names of one snapshot, in archived order.
  Result<std::vector<std::string>> ParamNames(
      const std::string& snapshot) const;

  /// Exact retrieval of one matrix (all four planes, whole delta chain).
  Result<FloatMatrix> RetrieveMatrix(const std::string& snapshot,
                                     const std::string& param) const;

  /// Exact retrieval of all matrices of a snapshot on the calling thread,
  /// sharing delta-chain work within the call (the reusable scheme's
  /// computation sharing).
  Result<std::vector<NamedParam>> RetrieveSnapshot(
      const std::string& snapshot, RetrievalStats* stats = nullptr) const;

  /// Parallel retrieval of a set of snapshots (e.g. adjacent checkpoints
  /// for comparison or an ensemble) in one scheduled batch on `pool`.
  /// Under kShared, the union of all delta chains is resolved as one
  /// forest: each vertex is read, decompressed and delta-applied exactly
  /// once, no matter how many requested matrices descend from it. Under
  /// kIndependent every requested matrix privately re-decodes its chain
  /// (the Table III baseline). Results are returned in `snapshots`
  /// order. Requires a thread-safe Env. Safe to call concurrently from
  /// several threads on one shared pool: completion is tracked per call
  /// with a WaitGroup, never with ThreadPool::Wait().
  Result<std::vector<std::vector<NamedParam>>> RetrieveSnapshotsParallel(
      const std::vector<std::string>& snapshots, ThreadPool* pool,
      ParallelScheme scheme = ParallelScheme::kShared,
      RetrievalStats* stats = nullptr) const;

  /// Sound bounds using only the first `planes` byte planes of every chunk
  /// involved. planes == 4 gives exact (degenerate) bounds. XOR deltas do
  /// not propagate intervals: a chain through one is InvalidArgument for
  /// planes < 4, and at 4 planes its XOR vertices and their ancestors are
  /// resolved exactly.
  Result<std::map<std::string, IntervalMatrix>> RetrieveSnapshotBounds(
      const std::string& snapshot, int planes) const;

  /// Compressed bytes fetched since the last reset (partial reads fetch
  /// only the requested plane chunks — the Fig 6(d) x-axis).
  uint64_t bytes_read() const {
    uint64_t total = 0;
    for (const auto& store : stores_) {
      if (store != nullptr) total += store->bytes_read();
    }
    return total;
  }
  void ResetByteCounter() {
    for (const auto& store : stores_) {
      if (store != nullptr) store->ResetByteCounter();
    }
  }

  /// Enables the chunk cache so progressive escalation from k to k+1
  /// planes decodes only the new plane chunks (raw planes of a mapped
  /// store are re-read in place instead, see ChunkStoreReader::Get). The
  /// cache is a byte-bounded LRU (ChunkStoreReader::kDefaultCacheCapacity
  /// per store); see SetChunkCacheCapacity.
  void EnableChunkCache(bool enable) {
    for (const auto& store : stores_) {
      if (store != nullptr) store->EnableCache(enable);
    }
  }

  /// Bounds each underlying store's decoded-chunk cache to `bytes`,
  /// evicting least-recently-used chunks beyond it.
  void SetChunkCacheCapacity(uint64_t bytes) {
    for (const auto& store : stores_) {
      if (store != nullptr) store->SetCacheCapacity(bytes);
    }
  }

  /// Aggregated read-side counters of the local + remote chunk stores.
  ChunkStoreStats store_stats() const;

  /// Total compressed payload bytes attributable to this archive: every
  /// chunk the manifest references, counted once. Equals the sum of all
  /// chunks of the generation's own data files plus the referenced subset
  /// of any prior-generation files reused via dedup.
  uint64_t TotalStoredBytes() const;

  /// Dedup accounting derived from the manifest + chunk stores.
  ArchiveDedupStats ComputeDedupStats() const;

  /// Generation number the manifest committed.
  uint64_t generation() const { return generation_; }

  /// The pins keeping this reader's referenced generations alive (its
  /// own, plus prior generations borrowed through dedup; shared across
  /// copies of the reader — see GenerationPinRegistry).
  const std::vector<std::shared_ptr<GenerationPin>>& generation_pins() const {
    return pins_;
  }

  /// Data file names (relative to the archive dir) the manifest references.
  const std::vector<std::string>& data_files() const { return data_files_; }

  /// Full integrity scan for `dlv fsck`: verifies every chunk's CRC in
  /// every referenced store and checks that all delta chains terminate.
  /// Returns one human-readable line per defect (empty = healthy).
  std::vector<std::string> VerifyIntegrity() const;

 private:
  friend class ArchiveBuilder;  // PriorChunks reads vertices_ and stores_.

  struct VertexMeta {
    std::string snapshot;
    std::string param;
    int64_t rows = 0;
    int64_t cols = 0;
    DeltaKind delta_kind = DeltaKind::kMaterialized;
    int parent = 0;  ///< Vertex id of the delta base; 0 = materialized.
    int tier = 0;    ///< 0 = local chunk store, 1 = remote (cost model).
    uint32_t chunk_ids[kNumPlanes] = {0, 0, 0, 0};
    /// Store slot per plane, indexing stores_: 0 = the generation's local
    /// chunk file, 1 = its remote file, 2+k = the k-th prior-generation
    /// file the manifest references (dedup). Pre-dedup manifests (v2)
    /// always have slot == tier.
    uint32_t slots[kNumPlanes] = {0, 0, 0, 0};
  };

  // The retrieval pipeline behind every Retrieve* entry point (DESIGN.md
  // §7.1). `planes` == 0 asks for exact values, 1..4 for bounds.
  struct PlanNode;
  class StatsScope;

  /// Appends to `nodes` the (vertex, exact-or-bounds) forest `requests`
  /// (vertex ids) need, parents before children, and returns each
  /// request's node. kShared shares nodes across requests; kIndependent
  /// gives each request a private chain.
  Result<std::vector<int>> Plan(const std::vector<int>& requests, int planes,
                                ParallelScheme scheme,
                                std::vector<PlanNode>* nodes) const;
  /// Resolves every node after its parent, inline when `pool` is null,
  /// else as one pool task per node. A failed node's status passes down
  /// to its subtree.
  void Execute(std::vector<PlanNode>* nodes, int planes,
               ThreadPool* pool) const;
  /// The one vertex operation: reads `node`'s planes and combines them
  /// with `parent`'s result (null for a materialized vertex).
  Status Resolve(PlanNode* node, const PlanNode* parent, int planes) const;
  /// Exact values of every member of `snapshots`, booked into `scope`.
  Result<std::vector<std::vector<NamedParam>>> RetrieveExact(
      const std::vector<std::string>& snapshots, ThreadPool* pool,
      ParallelScheme scheme, StatsScope* scope) const;

  /// Index of `snapshot` in snapshot_members_, or -1.
  int FindSnapshot(const std::string& snapshot) const;
  /// Vertex id of (snapshot, param), or -1.
  int FindVertex(const std::string& snapshot, const std::string& param) const;

  std::vector<VertexMeta> vertices_;  // Index 0 unused (v0).
  std::vector<std::string> snapshot_names_;
  std::vector<std::vector<int>> snapshot_members_;  // Vertex ids.
  /// Lookup indexes built once in Open (retrievals used to linear-scan
  /// all vertices with per-entry string compares on every call).
  std::map<std::string, int> snapshot_index_;
  std::map<std::pair<std::string, std::string>, int> vertex_index_;
  uint64_t generation_ = 0;
  std::vector<std::string> data_files_;
  /// Keep every generation this reader reads from on disk: generation_
  /// itself plus the generations of dedup-shared prior files.
  std::vector<std::shared_ptr<GenerationPin>> pins_;
  /// Open stores by slot: [0] local, [1] remote (null when the manifest
  /// names none), [2+k] prior-generation files referenced via dedup.
  std::vector<std::shared_ptr<ChunkStoreReader>> stores_;
  /// File name per slot, aligned with stores_ ("" for the null remote
  /// slot). data_files_ is the compacted (non-empty) view for fsck.
  std::vector<std::string> store_names_;
};

}  // namespace modelhub

#endif  // MODELHUB_PAS_ARCHIVE_H_
