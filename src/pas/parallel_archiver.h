#ifndef MODELHUB_PAS_PARALLEL_ARCHIVER_H_
#define MODELHUB_PAS_PARALLEL_ARCHIVER_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "compress/codec.h"
#include "pas/chunk_store.h"
#include "pas/content_hash.h"
#include "pas/delta.h"
#include "pas/segment.h"
#include "tensor/float_matrix.h"

namespace modelhub {

/// Resolves a user-facing thread-count knob: n >= 1 is taken literally,
/// anything else (0, negative) means "auto" — hardware concurrency capped
/// at 8 so a build box with 96 cores does not spawn 96 compressors for a
/// 10-matrix archive. The pipeline additionally clamps its pool to the
/// number of schedulable tasks, so ArchivePipelineStats.threads reports
/// workers actually used, not the resolved knob.
int ResolveArchiveThreads(int requested);

/// Resolves the tile-rows knob for one matrix: n >= 1 is taken literally,
/// anything else means auto — enough rows for roughly 64 KiB of floats per
/// tile (at least one row), which keeps per-tile scheduling overhead small
/// while splitting large matrices into several encode tasks.
int64_t ResolveTileRows(int requested, int64_t cols);

/// The codec EncodeChunk chose for each byte plane of one payload.
using PlaneCodecs = std::array<CodecType, kNumPlanes>;

/// Encoded byte planes of one payload; "" where a plane is not held.
using PlaneBytes = std::array<std::string, kNumPlanes>;

/// What the archival write pipeline did — per-job latencies feed the
/// p50/p99 columns of bench_archival, byte totals feed ingest MB/s.
struct ArchivePipelineStats {
  int jobs = 0;
  int threads = 1;            ///< Encode workers actually used (clamped to
                              ///< the schedulable task count).
  int tiles = 0;              ///< Total delta+segment tiles encoded.
  uint64_t raw_bytes = 0;     ///< Uncompressed payload bytes encoded.
  uint64_t compressed_bytes = 0;  ///< Encoded (stored-form) plane bytes.
  double encode_ms_total = 0.0;  ///< Sum of per-job encode latencies.
  double commit_ms = 0.0;        ///< Serial committer stage (ordered appends).
  double wall_ms = 0.0;          ///< Whole pipeline wall time.
  /// Content-addressed dedup outcomes in the committer. `compressed_bytes`
  /// above stays the *logical* encode size (what the planes compress to,
  /// before dedup), so dedup savings are `dedup_saved_bytes` and the bytes
  /// actually appended are compressed_bytes - dedup_saved_bytes.
  uint64_t dedup_intra_hits = 0;  ///< Planes shared within this build.
  uint64_t dedup_prior_hits = 0;  ///< Planes referencing a prior generation.
  uint64_t dedup_saved_bytes = 0; ///< Compressed bytes not appended.
  /// Planes a job's trial (Job::trial_codecs) spared an encode: taken as
  /// the trial's held bytes, or null-framed with no codec attempt because
  /// the trial stored them raw. Every other plane went through
  /// EncodeChunk.
  uint64_t planes_from_trial = 0;
  uint64_t planes_null_framed = 0;
  /// Per-job encode latency in job order: the job's tile (delta + segment)
  /// plus per-plane task times summed — CPU cost, not wall time.
  std::vector<double> job_encode_ms;
  /// Per-tile delta + segment latency, in completion-publish (job) order.
  std::vector<double> tile_encode_ms;
  /// Per-plane task latency, in job-then-plane order: an encode, or the
  /// copy or null frame a trial settled.
  std::vector<double> plane_codec_ms;
};

/// The pipelined, parallel archival write path (the ingest dual of the
/// computation-sharing retrieval scheduler), tiled for intra-matrix
/// parallelism. Each job (one parameter matrix) is split into row-range
/// tiles; a tile task computes the delta for its rows and scatters the
/// byte planes into the job's shared plane buffers (disjoint ranges, so
/// tiles run concurrently without synchronization on the data). When a
/// job's last tile lands, four per-plane tasks produce the stored planes:
/// each plane is stored under the requested codec when that shrinks it,
/// else raw (kNull), and the committer records the codec per chunk. A job
/// carrying the cost model's trial of its payload skips what the trial
/// already settled: a held plane is committed as the trial encoded it, a
/// plane the trial stored raw gets the null frame without a codec
/// attempt, and every other plane goes through EncodeChunk. The
/// ordering-sensitive tail — chunk-store appends, and the caller's
/// manifest/journal writes after Run returns — stays on the calling
/// thread, in job order.
///
/// Determinism guarantee: tiles only partition the delta + segmentation
/// work; every codec still compresses a whole assembled plane, so the
/// chunk payloads — and therefore the archive bytes — are identical for
/// every tile size and thread count. `threads == 1` is the same pipeline
/// on one worker; the independent reference it is tested against is a
/// plain ChunkStoreWriter::Put loop. Because workers never touch the Env,
/// the pipeline is safe over non-thread-safe Envs (MemEnv,
/// FaultInjectionEnv) and preserves the crash-safety protocol unchanged:
/// every mutating filesystem operation still happens on the caller's
/// thread in the serial commit order.
class ParallelArchiver {
 public:
  /// One parameter matrix to archive. `base == nullptr` stores `target`
  /// materialized; otherwise the payload is ComputeDelta(target, base,
  /// delta_kind). `destination` receives the four plane chunks (jobs may
  /// target different stores, e.g. the local and remote tiers).
  ///
  /// `trial_codecs`, when set, must be what EncodeChunk chose for the four
  /// planes of exactly this payload (the same target, base and delta kind)
  /// under Run's codec; `trial_planes`, when set too, holds that trial's
  /// encoded bytes for some of those planes ("" for the rest). Both are
  /// read-only here and must outlive Run. The archive bytes are the same
  /// with or without them.
  struct Job {
    const FloatMatrix* target = nullptr;
    const FloatMatrix* base = nullptr;
    DeltaKind delta_kind = DeltaKind::kMaterialized;
    ChunkStoreWriter* destination = nullptr;
    const PlaneCodecs* trial_codecs = nullptr;
    const PlaneBytes* trial_planes = nullptr;
  };

  /// Where one job's planes landed, in job order. With dedup active a
  /// plane may reference a chunk it did not append: `prior_file[p] >= 0`
  /// means plane p lives in DedupContext::prior_files[prior_file[p]] (a
  /// prior generation's data file); otherwise the chunk is in the job's
  /// destination store — either freshly appended or shared with an
  /// earlier plane of this build (intra hit).
  struct Placement {
    uint32_t chunk_ids[kNumPlanes] = {0, 0, 0, 0};
    int32_t prior_file[kNumPlanes] = {-1, -1, -1, -1};
  };

  /// Cross-generation dedup input for Run: encoded plane payloads whose
  /// StoredChunkKey (codec and stored bytes) is in `prior` are referenced
  /// in place instead of being re-appended. The builder derives it from
  /// the committed manifest (DESIGN.md §15). Purely advisory — an empty
  /// context (or nullptr) makes Run behave exactly as before.
  struct DedupContext {
    struct PriorChunk {
      int file = 0;          ///< Index into prior_files.
      uint32_t chunk_id = 0;
    };
    std::unordered_map<Hash128, PriorChunk, Hash128Hasher> prior;
    /// Data file names (relative to the archive dir) `prior` points into.
    std::vector<std::string> prior_files;
  };

  /// Encodes every job on a pool of up to `threads` workers and appends
  /// the resulting chunks to each job's destination store in job order.
  /// The committer is pipelined: job i's chunks are appended as soon as
  /// jobs 0..i have encoded, while later jobs are still compressing. On
  /// error the first failing job's status is returned (no later job is
  /// committed) and the stores are left unfinished — the caller abandons
  /// the build, which is safe because nothing was published. `tile_rows`
  /// follows ResolveTileRows (0 = auto).
  ///
  /// With a non-null `dedup`, the committer keys every encoded plane by
  /// StoredChunkKey and (a) references a prior generation's chunk on a
  /// `dedup->prior` hit, (b) shares an identical chunk already appended to
  /// the same destination store this build (after comparing codec and
  /// bytes), or (c) appends as usual and remembers the key. All dedup
  /// decisions run on the caller's thread in job order, so placements —
  /// like the archive bytes — are identical for every thread count and
  /// tile size.
  static Result<std::vector<Placement>> Run(const std::vector<Job>& jobs,
                                            CodecType codec, int threads,
                                            ArchivePipelineStats* stats = nullptr,
                                            int tile_rows = 0,
                                            const DedupContext* dedup = nullptr);
};

}  // namespace modelhub

#endif  // MODELHUB_PAS_PARALLEL_ARCHIVER_H_
