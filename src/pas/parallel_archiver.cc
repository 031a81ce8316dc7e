#include "pas/parallel_archiver.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace modelhub {

namespace {

/// Where one stored plane came from: encoded here, taken as the job's
/// trial encoded it, or null-framed because the trial stored it raw.
enum class PlaneSource : uint8_t { kEncoded, kTrialBytes, kTrialNull };

/// Output of one job's encode stage: the four encoded plane payloads, the
/// codec each is in (EncodeChunk's choice), where each came from, and the
/// raw plane size PutCompressed records in each chunk ref.
struct EncodedPayload {
  std::string planes[kNumPlanes];
  CodecType codecs[kNumPlanes] = {CodecType::kNull, CodecType::kNull,
                                  CodecType::kNull, CodecType::kNull};
  PlaneSource sources[kNumPlanes] = {
      PlaneSource::kEncoded, PlaneSource::kEncoded, PlaneSource::kEncoded,
      PlaneSource::kEncoded};
  uint64_t raw_plane_bytes = 0;
};

/// Produces plane `p` of `job` from its assembled raw bytes: the trial's
/// held bytes when it kept them, the null frame with no codec attempt when
/// the trial stored the plane raw, else EncodeChunk under `codec`. All
/// three give the bytes EncodeChunk(raw, codec) would, because the trial
/// encoded this same payload (Job's contract).
Status EncodePlane(const ParallelArchiver::Job& job, int p,
                   const std::string& raw, CodecType codec,
                   EncodedPayload* payload) {
  if (job.trial_codecs != nullptr) {
    const CodecType trial_codec = (*job.trial_codecs)[p];
    if (job.trial_planes != nullptr && !(*job.trial_planes)[p].empty()) {
      payload->planes[p] = (*job.trial_planes)[p];
      payload->codecs[p] = trial_codec;
      payload->sources[p] = PlaneSource::kTrialBytes;
      return Status::OK();
    }
    if (trial_codec == CodecType::kNull) {
      codec = CodecType::kNull;
      payload->sources[p] = PlaneSource::kTrialNull;
    }
  }
  MH_ASSIGN_OR_RETURN(payload->codecs[p],
                      EncodeChunk(Slice(raw), codec, &payload->planes[p]));
  return Status::OK();
}

/// Row-tiling geometry of one job.
struct TileShape {
  int64_t tile_rows = 1;
  int num_tiles = 1;
};

TileShape ShapeFor(const FloatMatrix& matrix, int tile_rows_knob) {
  TileShape shape;
  shape.tile_rows = ResolveTileRows(tile_rows_knob, matrix.cols());
  shape.num_tiles = static_cast<int>(std::max<int64_t>(
      1, (matrix.rows() + shape.tile_rows - 1) / shape.tile_rows));
  return shape;
}

/// Encodes tile `tile` of `job`: the delta for rows [r0, r1) lands in a
/// local slab, then its byte planes are scattered into the job's shared
/// plane buffers at the tile's offset. Tiles write disjoint byte ranges,
/// so concurrent tiles of one job need no synchronization on the buffers.
/// Pure CPU and infallible — shapes are validated before any scheduling.
void EncodeTile(const ParallelArchiver::Job& job, const TileShape& shape,
                int tile, std::array<std::string, kNumPlanes>* planes,
                std::vector<float>* slab) {
  const int64_t rows = job.target->rows();
  const int64_t cols = job.target->cols();
  const int64_t r0 = std::min<int64_t>(rows, tile * shape.tile_rows);
  const int64_t r1 = std::min<int64_t>(rows, r0 + shape.tile_rows);
  const size_t count =
      static_cast<size_t>(r1 - r0) * static_cast<size_t>(cols);
  if (count == 0) return;
  slab->resize(count);
  ComputeDeltaRows(*job.target, job.base, job.delta_kind, r0, r1,
                   slab->data());
  SegmentFloatsRange(slab->data(), count,
                     static_cast<size_t>(r0) * static_cast<size_t>(cols),
                     planes);
}

/// Chunks appended to one destination store this build, by StoredChunkKey
/// (codec and stored bytes). Committer-thread state, so no locking:
/// CommitJob runs in job order on the caller's thread.
using IntraDedupMap =
    std::unordered_map<const ChunkStoreWriter*,
                       std::unordered_map<Hash128, uint32_t, Hash128Hasher>>;

/// The committer half for one job: ordered appends into the job's
/// destination store, with optional content-addressed dedup. Caller
/// thread only — dedup decisions are part of the deterministic commit
/// order, never of the parallel encode stage.
Result<ParallelArchiver::Placement> CommitJob(
    const ParallelArchiver::Job& job, const EncodedPayload& payload,
    const ParallelArchiver::DedupContext* dedup, IntraDedupMap* intra,
    ArchivePipelineStats* stats) {
  ParallelArchiver::Placement placement;
  for (int p = 0; p < kNumPlanes; ++p) {
    const Slice plane(payload.planes[p]);
    const CodecType codec = payload.codecs[p];
    if (dedup == nullptr) {
      MH_ASSIGN_OR_RETURN(
          placement.chunk_ids[p],
          job.destination->PutCompressed(plane, payload.raw_plane_bytes,
                                         codec));
      continue;
    }
    const Hash128 hash = StoredChunkKey(codec, plane);
    if (auto it = dedup->prior.find(hash); it != dedup->prior.end()) {
      placement.prior_file[p] = it->second.file;
      placement.chunk_ids[p] = it->second.chunk_id;
      ++stats->dedup_prior_hits;
      stats->dedup_saved_bytes += plane.size();
      continue;
    }
    auto& seen = (*intra)[job.destination];
    if (auto it = seen.find(hash); it != seen.end() &&
        job.destination->codec(it->second) == codec &&
        job.destination->payload(it->second) == plane) {
      placement.chunk_ids[p] = it->second;
      ++stats->dedup_intra_hits;
      stats->dedup_saved_bytes += plane.size();
      continue;
    }
    MH_ASSIGN_OR_RETURN(
        placement.chunk_ids[p],
        job.destination->PutCompressed(plane, payload.raw_plane_bytes,
                                       codec));
    seen.emplace(hash, placement.chunk_ids[p]);
  }
  return placement;
}

/// Feeds the registry's dedup and trial-reuse counters once per Run, after
/// the committer drains (the stats fields themselves accumulate inside
/// CommitJob and RecordJobStats).
void RecordRunCounters(const ArchivePipelineStats& stats) {
  MH_COUNTER("pas.dedup.intra.hits")->Add(stats.dedup_intra_hits);
  MH_COUNTER("pas.dedup.prior.hits")->Add(stats.dedup_prior_hits);
  MH_COUNTER("pas.dedup.saved.bytes")->Add(stats.dedup_saved_bytes);
  MH_COUNTER("pas.archive.planes.from_trial")->Add(stats.planes_from_trial);
  MH_COUNTER("pas.archive.planes.null_framed")
      ->Add(stats.planes_null_framed);
}

void RecordJobStats(const EncodedPayload& payload, double encode_ms,
                    const std::vector<double>& tile_ms,
                    const std::array<double, kNumPlanes>& plane_ms,
                    ArchivePipelineStats* stats) {
  stats->raw_bytes += payload.raw_plane_bytes * kNumPlanes;
  for (int p = 0; p < kNumPlanes; ++p) {
    stats->compressed_bytes += payload.planes[p].size();
    stats->planes_from_trial +=
        payload.sources[p] == PlaneSource::kTrialBytes ? 1 : 0;
    stats->planes_null_framed +=
        payload.sources[p] == PlaneSource::kTrialNull ? 1 : 0;
  }
  stats->encode_ms_total += encode_ms;
  stats->job_encode_ms.push_back(encode_ms);
  stats->tile_encode_ms.insert(stats->tile_encode_ms.end(), tile_ms.begin(),
                               tile_ms.end());
  stats->plane_codec_ms.insert(stats->plane_codec_ms.end(), plane_ms.begin(),
                               plane_ms.end());
}

}  // namespace

int ResolveArchiveThreads(int requested) {
  if (requested >= 1) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  const int resolved = hardware == 0 ? 1 : static_cast<int>(hardware);
  return std::min(resolved, 8);
}

int64_t ResolveTileRows(int requested, int64_t cols) {
  if (requested >= 1) return requested;
  // Auto: roughly 64 KiB of floats per tile — large enough that the
  // per-tile scheduling cost is noise, small enough that a handful of big
  // matrices still fans out across every worker.
  constexpr int64_t kTargetTileBytes = 64 * 1024;
  const int64_t bytes_per_row =
      std::max<int64_t>(1, cols * static_cast<int64_t>(sizeof(float)));
  return std::max<int64_t>(1, kTargetTileBytes / bytes_per_row);
}

Result<std::vector<ParallelArchiver::Placement>> ParallelArchiver::Run(
    const std::vector<Job>& jobs, CodecType codec, int threads,
    ArchivePipelineStats* stats, int tile_rows, const DedupContext* dedup) {
  TraceSpan span("pas.archive.pipeline");
  Stopwatch wall;
  ArchivePipelineStats unreported;
  if (stats == nullptr) stats = &unreported;
  IntraDedupMap intra;
  const int resolved_threads = ResolveArchiveThreads(threads);
  std::vector<TileShape> shapes;
  shapes.reserve(jobs.size());
  int64_t total_tasks = 0;
  int total_tiles = 0;
  for (const Job& job : jobs) {
    if (job.target == nullptr || job.destination == nullptr) {
      return Status::InvalidArgument("archival job without target or store");
    }
    MH_RETURN_IF_ERROR(
        ValidateDeltaShapes(*job.target, job.base, job.delta_kind));
    shapes.push_back(ShapeFor(*job.target, tile_rows));
    total_tiles += shapes.back().num_tiles;
    total_tasks += shapes.back().num_tiles + kNumPlanes;
  }
  // Workers actually used: the resolved knob clamped to the schedulable
  // task count, so a 2-job archive on an 8-thread knob reports (and
  // spawns) what it can keep busy, not the knob.
  const int workers = static_cast<int>(
      std::min<int64_t>(resolved_threads, std::max<int64_t>(1, total_tasks)));
  span.Annotate("jobs", static_cast<uint64_t>(jobs.size()));
  span.Annotate("tiles", static_cast<uint64_t>(total_tiles));
  span.Annotate("threads", static_cast<uint64_t>(workers));
  MH_COUNTER("pas.archive.jobs")->Add(jobs.size());
  MH_COUNTER("pas.archive.tiles")->Add(total_tiles);
  MH_GAUGE("pas.archive.threads")->Set(workers);
  *stats = ArchivePipelineStats{};
  stats->jobs = static_cast<int>(jobs.size());
  stats->threads = workers;
  stats->tiles = total_tiles;
  stats->job_encode_ms.reserve(jobs.size());
  stats->tile_encode_ms.reserve(static_cast<size_t>(total_tiles));
  stats->plane_codec_ms.reserve(jobs.size() * kNumPlanes);
  std::vector<Placement> placements;
  placements.reserve(jobs.size());

  // --- The pipeline, on `workers` pool threads (one is enough: the
  // caller thread commits). Tile tasks fill each job's shared plane
  // buffers (disjoint ranges); the job's last tile schedules four plane
  // tasks; the last plane task publishes the job's slot. The caller
  // thread is the committer, consuming slots in job order as they become
  // ready (job i commits while jobs > i are still encoding). Slots are
  // handed off under the mutex, so the committer reads each payload only
  // after its last worker published it.
  struct JobState {
    std::array<std::string, kNumPlanes> planes;  ///< Raw plane bytes.
    std::atomic<int> tiles_left{0};
    std::atomic<int> planes_left{kNumPlanes};
    std::vector<double> tile_ms;                ///< One slot per tile.
    std::array<double, kNumPlanes> plane_ms{};  ///< One slot per plane.
    std::array<Status, kNumPlanes> plane_status;
    EncodedPayload payload;
    // Published under the pipeline mutex by the last codec task.
    bool ready = false;
    double encode_ms = 0.0;
    Status status = Status::OK();
  };
  std::vector<JobState> states(jobs.size());
  std::mutex mutex;
  std::condition_variable slot_ready;
  {
    ThreadPool pool(workers);
    WaitGroup done;
    for (size_t i = 0; i < jobs.size(); ++i) {
      const Job* job = &jobs[i];
      const TileShape shape = shapes[i];
      JobState* state = &states[i];
      const size_t n = job->target->data().size();
      for (auto& plane : state->planes) plane.resize(n);
      state->payload.raw_plane_bytes = static_cast<uint64_t>(n);
      state->tiles_left.store(shape.num_tiles, std::memory_order_relaxed);
      state->tile_ms.assign(static_cast<size_t>(shape.num_tiles), 0.0);
      for (int t = 0; t < shape.num_tiles; ++t) {
        pool.Schedule(&done, [job, shape, t, state, codec, &pool, &done,
                              &mutex, &slot_ready] {
          Stopwatch tile_watch;
          std::vector<float> slab;
          EncodeTile(*job, shape, t, &state->planes, &slab);
          state->tile_ms[static_cast<size_t>(t)] = tile_watch.ElapsedMillis();
          if (state->tiles_left.fetch_sub(1, std::memory_order_acq_rel) !=
              1) {
            return;
          }
          // Last tile of this job: the planes are fully assembled — hand
          // them to four per-plane tasks. Encoding whole planes (never per
          // tile) keeps the chunk payloads invariant to the tile size;
          // EncodeChunk stores a plane the codec cannot shrink raw,
          // exactly as ChunkStoreWriter::Put would.
          for (int p = 0; p < kNumPlanes; ++p) {
            pool.Schedule(&done, [job, state, p, codec, &mutex,
                                  &slot_ready] {
              Stopwatch plane_watch;
              state->plane_status[p] = EncodePlane(
                  *job, p, state->planes[p], codec, &state->payload);
              state->plane_ms[p] = plane_watch.ElapsedMillis();
              if (state->planes_left.fetch_sub(
                      1, std::memory_order_acq_rel) != 1) {
                return;
              }
              // Last plane: free the raw buffers eagerly, then publish.
              for (auto& plane : state->planes) {
                plane.clear();
                plane.shrink_to_fit();
              }
              double encode_ms = 0.0;
              for (const double ms : state->tile_ms) encode_ms += ms;
              for (const double ms : state->plane_ms) encode_ms += ms;
              // One job's encode time inside the pipeline: its tiles plus
              // its four plane tasks, whether those encoded or took what
              // the job's trial settled.
              MH_HISTOGRAM("pas.archive.encode.us")
                  ->Record(static_cast<uint64_t>(encode_ms * 1000.0));
              Status status = Status::OK();
              for (const Status& s : state->plane_status) {
                if (!s.ok()) {
                  status = s;
                  break;
                }
              }
              {
                std::lock_guard<std::mutex> lock(mutex);
                state->status = status;
                state->encode_ms = encode_ms;
                state->ready = true;
              }
              slot_ready.notify_all();
            });
          }
        });
      }
    }
    TraceSpan commit_span("pas.archive.commit");
    Stopwatch commit_watch;
    Status first_error = Status::OK();
    for (size_t i = 0; i < jobs.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        slot_ready.wait(lock, [&] { return states[i].ready; });
      }
      // Published under the mutex above; safe to read lock-free now.
      JobState& state = states[i];
      if (!state.status.ok()) {
        first_error = state.status;
        break;
      }
      RecordJobStats(state.payload, state.encode_ms, state.tile_ms,
                     state.plane_ms, stats);
      auto placement = CommitJob(jobs[i], state.payload, dedup, &intra, stats);
      if (!placement.ok()) {
        first_error = placement.status();
        break;
      }
      placements.push_back(*placement);
      // The committer is done with this payload; free the compressed
      // planes eagerly so peak memory tracks the encode window, not the
      // whole archive.
      state.payload = EncodedPayload{};
    }
    done.Wait();  // Outstanding encoders must drain before states die.
    MH_HISTOGRAM("pas.archive.commit.us")
        ->Record(static_cast<uint64_t>(commit_watch.ElapsedMillis() * 1000.0));
    stats->commit_ms = commit_watch.ElapsedMillis();
    if (!first_error.ok()) return first_error;
  }
  RecordRunCounters(*stats);
  stats->wall_ms = wall.ElapsedMillis();
  return placements;
}

}  // namespace modelhub
