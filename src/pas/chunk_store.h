#ifndef MODELHUB_PAS_CHUNK_STORE_H_
#define MODELHUB_PAS_CHUNK_STORE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "common/result.h"
#include "compress/codec.h"

namespace modelhub {

/// Location and integrity metadata of one stored chunk.
struct ChunkRef {
  uint64_t offset = 0;       ///< Byte offset of the payload in the file.
  uint64_t stored_size = 0;  ///< Compressed payload size.
  uint64_t raw_size = 0;     ///< Decompressed size.
  uint32_t crc = 0;          ///< CRC-32 of the compressed payload.
  CodecType codec = CodecType::kNull;
};

/// Encodes one chunk payload, the one rule for what a chunk stores:
/// `raw` under `codec` when that frame is strictly smaller than the null
/// frame (varint(n) + n), else the null frame. Returns the codec `*out` is
/// in, which the chunk's ChunkRef records. A byte plane the codec cannot
/// shrink is thus stored raw: it costs no decode, and a mapped reader
/// serves it in place (ChunkStoreReader::Get). ChunkStoreWriter::Put, the
/// archival pipeline's per-plane codec task and the storage-graph cost
/// model all encode through it, so the model charges the bytes stored.
Result<CodecType> EncodeChunk(Slice raw, CodecType codec, std::string* out);

/// Read-side counters of one chunk store (monotonic except cache_bytes).
/// `bytes_read`/`chunk_fetches` count only real reads of stored bytes
/// (disk fetches and in-place reads of mapped raw chunks); cache hits are
/// free once a chunk is in memory.
struct ChunkStoreStats {
  uint64_t bytes_read = 0;      ///< Stored bytes read (fetches only).
  uint64_t chunk_fetches = 0;   ///< Get calls that read stored bytes.
  uint64_t cache_hits = 0;      ///< Get calls served from the cache.
  uint64_t cache_evictions = 0; ///< Chunks evicted to honor the bound.
  uint64_t cache_bytes = 0;     ///< Decoded bytes currently cached.
};

/// Write-once chunk file builder. PAS archives are built in one pass and
/// then read many times, so the store is append-only with a trailing
/// index (the LevelDB/RocksDB table layout, reduced to whole chunks):
///
///   "MHCS1\n" | payload_0 | ... | payload_{n-1} | index | fixed64
///   index_offset | fixed64 chunk_count | "MHCSEND1"
class ChunkStoreWriter {
 public:
  ChunkStoreWriter(Env* env, std::string path);

  /// Encodes `raw` through EncodeChunk (so a payload `codec` cannot
  /// shrink is stored raw) and schedules it; returns the chunk id.
  Result<uint32_t> Put(Slice raw, CodecType codec);

  /// Appends an already-encoded chunk. `compressed` and `codec` must be
  /// exactly what EncodeChunk produces for a `raw_size`-byte payload: the
  /// resulting file is byte-identical to Put(raw, requested codec). This is
  /// the committer half of the parallel archival pipeline — workers encode
  /// off-thread, ordered appends stay on one thread.
  Result<uint32_t> PutCompressed(Slice compressed, uint64_t raw_size,
                                 CodecType codec);

  /// Number of chunks scheduled so far.
  uint32_t num_chunks() const { return static_cast<uint32_t>(refs_.size()); }

  /// Stored payload bytes of a scheduled chunk, viewing the in-memory
  /// file image. Valid until the next Put/PutCompressed (the buffer may
  /// reallocate). The dedup committer compares the codec and these bytes
  /// of hash-equal chunks before sharing, so a 128-bit collision can never
  /// alias two different payloads within one build.
  Slice payload(uint32_t id) const {
    const ChunkRef& ref = refs_[id];
    return Slice(data_.data() + ref.offset,
                 static_cast<size_t>(ref.stored_size));
  }

  /// The codec a scheduled chunk's payload is in.
  CodecType codec(uint32_t id) const { return refs_[id].codec; }

  /// Writes the file. No Put may follow.
  Status Finish();

 private:
  Env* env_;
  std::string path_;
  std::string data_;
  std::vector<ChunkRef> refs_;
  bool finished_ = false;
};

/// Reader over a finished chunk file. Reads are ranged, so fetching only
/// high-order plane chunks touches only their bytes (the premise of
/// progressive queries).
class ChunkStoreReader {
 public:
  /// Default byte bound of the decompressed-chunk cache. Keeps a working
  /// set of hot delta-chain prefixes resident without letting a whole
  /// archive's planes pin RAM (ProgressiveQueryEvaluator force-enables
  /// the cache for every evaluated snapshot).
  static constexpr uint64_t kDefaultCacheCapacity = 64ull << 20;  // 64 MiB

  /// A single chunk may occupy at most 1/kCacheAdmitFraction of the cache
  /// bound. Admitting anything up to the full bound lets one large plane
  /// evict the entire resident working set for a payload that is often
  /// read exactly once.
  static constexpr uint64_t kCacheAdmitFraction = 8;

  /// Opens the chunk file and, when the Env supports it (PosixEnv), maps
  /// it read-only so Get/Verify checksum and decompress straight out of
  /// the page cache. Envs without MapFile (MemEnv, FaultInjectionEnv)
  /// fall back to ranged read() fetches — the crash-injection sweeps
  /// exercise that path by construction. Chunk files are write-once
  /// (tmp + rename), so an open mapping never observes a rewrite. The
  /// footer index carries no checksum, so an index entry naming a codec
  /// this build does not know is Corruption here, never a null decode.
  static Result<ChunkStoreReader> Open(Env* env, const std::string& path);

  uint32_t num_chunks() const { return static_cast<uint32_t>(refs_.size()); }
  const ChunkRef& ref(uint32_t id) const { return refs_[id]; }

  /// Fetches, verifies (CRC) and decompresses chunk `id`. With an active
  /// mapping the payload is checksummed and decompressed zero-copy from
  /// the mapped file; a CRC mismatch there (or any Env without mmap)
  /// falls back to ranged reads, where a checksum mismatch or short read
  /// is retried once (transient read faults) and a second failure is
  /// reported as Corruption. Thread-safe; counters and cache are
  /// mutex-guarded. When `call` is non-null, this Get's cache hit or
  /// fetch, fetched bytes and the evictions it caused are also added to
  /// `*call` (a per-call sink with a single writer; cache_bytes is left
  /// alone).
  ///
  /// A raw (kNull) chunk of a mapped file is read in place: it skips the
  /// cache (lookup and admission), so the cache holds only chunks that
  /// cost a decode. Its stored bytes are still CRC-checked on every read
  /// and its frame and raw size still checked. It counts as one fetch of
  /// its stored bytes here and in `*call`; the registry counts it under
  /// pas.chunk.read.raw{,.bytes}, not pas.chunk.cache.* or
  /// pas.chunk.fetch.*, which keep meaning decoded-chunk lookups.
  Result<std::string> Get(uint32_t id, ChunkStoreStats* call = nullptr) const;

  /// Integrity check of chunk `id` without decompression: re-reads the
  /// payload and verifies its CRC, retrying a failed ranged read once like
  /// Get. Used by `dlv fsck`.
  Status Verify(uint32_t id) const;

  /// Fetches and CRC-verifies the *compressed* payload of chunk `id`
  /// without decompressing it — the content-hash input from which the
  /// builder derives its cross-generation dedup map (it hashes stored
  /// bytes, not raw floats).
  Result<std::string> GetCompressed(uint32_t id) const;

  const std::string& path() const { return path_; }

  /// Total compressed bytes fetched by Get since construction/reset.
  /// Cache hits do not count: once fetched, a chunk is in memory.
  uint64_t bytes_read() const {
    return stats_->bytes_read.load(std::memory_order_relaxed);
  }
  void ResetByteCounter() {
    stats_->bytes_read.store(0, std::memory_order_relaxed);
    stats_->chunk_fetches.store(0, std::memory_order_relaxed);
  }

  /// Snapshot of the read-side counters. Lock-free: counters are relaxed
  /// atomics, so worker threads in RetrieveSnapshotsParallel update and
  /// read them without touching the cache mutex. Each field is exact;
  /// cross-field consistency is quiescent (stable once workers drain).
  ChunkStoreStats stats() const {
    ChunkStoreStats out;
    out.bytes_read = stats_->bytes_read.load(std::memory_order_relaxed);
    out.chunk_fetches = stats_->chunk_fetches.load(std::memory_order_relaxed);
    out.cache_hits = stats_->cache_hits.load(std::memory_order_relaxed);
    out.cache_evictions =
        stats_->cache_evictions.load(std::memory_order_relaxed);
    out.cache_bytes = stats_->cache_bytes.load(std::memory_order_relaxed);
    return out;
  }

  /// Enables the in-memory decoded-chunk cache (LRU, byte-bounded by
  /// SetCacheCapacity; mapped raw chunks are never cached, see Get).
  /// Progressive query evaluation uses this so escalating from k to k+1
  /// planes decodes only the new plane chunks (Sec. IV-D's "progressively
  /// uncompress" behavior). Disabling drops all cached chunks.
  void EnableCache(bool enable);

  /// Sets the cache bound in decompressed bytes and evicts down to it.
  /// Chunks larger than bound / kCacheAdmitFraction are never cached.
  void SetCacheCapacity(uint64_t bytes);

 private:
  struct CacheEntry {
    std::string data;
    std::list<uint32_t>::iterator lru_it;
  };

  /// Evicts least-recently-used entries until the bound holds and
  /// returns how many it evicted. Caller must hold *mutex_.
  uint64_t EvictToCapacityLocked() const;

  /// The one verified read of chunk `id`'s stored (compressed) payload,
  /// behind Get, GetCompressed and Verify: the mapped view when its CRC
  /// holds, else a ranged read into `*scratch`, retried once so a
  /// transient fault is told apart from corruption. Counts every read
  /// under pas.chunk.{read.mmap,mmap.fallback,read.retry,read.error}.
  Result<Slice> ReadStored(uint32_t id, std::string* scratch) const;

  /// Atomic mirror of ChunkStoreStats. Held via pointer (atomics are not
  /// movable) so the reader stays movable, like mutex_ below.
  struct AtomicStats {
    std::atomic<uint64_t> bytes_read{0};
    std::atomic<uint64_t> chunk_fetches{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_evictions{0};
    std::atomic<uint64_t> cache_bytes{0};
  };

  Env* env_ = nullptr;
  std::string path_;
  std::vector<ChunkRef> refs_;
  /// Read-only mapping of the whole chunk file, when the Env supports it.
  /// shared_ptr keeps the reader movable/copy-cheap and the mapping alive
  /// for as long as any reader clone references it.
  std::shared_ptr<const FileMapping> mapping_;
  // Owned via pointer so the reader stays movable.
  std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
  std::unique_ptr<AtomicStats> stats_ = std::make_unique<AtomicStats>();
  bool cache_enabled_ = false;
  uint64_t cache_capacity_ = kDefaultCacheCapacity;
  /// Front = most recently used. Guarded by *mutex_.
  mutable std::list<uint32_t> lru_;
  mutable std::unordered_map<uint32_t, CacheEntry> cache_;
};

}  // namespace modelhub

#endif  // MODELHUB_PAS_CHUNK_STORE_H_
