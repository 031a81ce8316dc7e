#include "pas/chunk_store.h"

#include <chrono>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/macros.h"
#include "common/metrics.h"

namespace modelhub {

namespace {
constexpr char kHeaderMagic[] = "MHCS1\n";
constexpr size_t kHeaderSize = 6;
constexpr char kTailMagic[] = "MHCSEND1";
constexpr size_t kTailSize = 8;

/// Size of the null codec's frame for an n-byte payload: varint(n) + n.
uint64_t NullFrameSize(uint64_t n) {
  uint64_t size = n + 1;
  for (; n >= 0x80; n >>= 7) ++size;
  return size;
}
}  // namespace

Result<CodecType> EncodeChunk(Slice raw, CodecType codec, std::string* out) {
  if (codec != CodecType::kNull) {
    MH_RETURN_IF_ERROR(Codec::Get(codec)->Compress(raw, out));
    if (out->size() < NullFrameSize(raw.size())) return codec;
  }
  MH_RETURN_IF_ERROR(Codec::Get(CodecType::kNull)->Compress(raw, out));
  return CodecType::kNull;
}

ChunkStoreWriter::ChunkStoreWriter(Env* env, std::string path)
    : env_(env), path_(std::move(path)) {
  data_.append(kHeaderMagic, kHeaderSize);
}

Result<uint32_t> ChunkStoreWriter::Put(Slice raw, CodecType codec) {
  if (finished_) {
    return Status::FailedPrecondition("Put after Finish");
  }
  std::string encoded;
  MH_ASSIGN_OR_RETURN(const CodecType stored_codec,
                      EncodeChunk(raw, codec, &encoded));
  return PutCompressed(Slice(encoded), raw.size(), stored_codec);
}

Result<uint32_t> ChunkStoreWriter::PutCompressed(Slice compressed,
                                                 uint64_t raw_size,
                                                 CodecType codec) {
  if (finished_) {
    return Status::FailedPrecondition("Put after Finish");
  }
  MH_COUNTER("pas.chunk.write.count")->Increment();
  MH_COUNTER("pas.chunk.write.bytes")->Add(compressed.size());
  ChunkRef ref;
  ref.offset = data_.size();
  ref.stored_size = compressed.size();
  ref.raw_size = raw_size;
  ref.crc = Crc32(compressed);
  ref.codec = codec;
  data_.append(reinterpret_cast<const char*>(compressed.data()),
               compressed.size());
  refs_.push_back(ref);
  return static_cast<uint32_t>(refs_.size()) - 1;
}

Status ChunkStoreWriter::Finish() {
  if (finished_) return Status::FailedPrecondition("double Finish");
  finished_ = true;
  const uint64_t index_offset = data_.size();
  for (const ChunkRef& ref : refs_) {
    PutFixed64(&data_, ref.offset);
    PutFixed64(&data_, ref.stored_size);
    PutFixed64(&data_, ref.raw_size);
    PutFixed32(&data_, ref.crc);
    data_.push_back(static_cast<char>(ref.codec));
  }
  PutFixed64(&data_, index_offset);
  PutFixed64(&data_, refs_.size());
  data_.append(kTailMagic, kTailSize);
  return env_->WriteFile(path_, data_);
}

Result<ChunkStoreReader> ChunkStoreReader::Open(Env* env,
                                                const std::string& path) {
  ChunkStoreReader reader;
  reader.env_ = env;
  reader.path_ = path;
  MH_ASSIGN_OR_RETURN(const uint64_t file_size, env->FileSize(path));
  const uint64_t tail_len = 8 + 8 + kTailSize;
  if (file_size < kHeaderSize + tail_len) {
    return Status::Corruption("chunk store too small: " + path);
  }
  MH_ASSIGN_OR_RETURN(
      std::string tail,
      env->ReadFileRange(path, file_size - tail_len, tail_len));
  if (tail.size() != tail_len ||
      tail.compare(16, kTailSize, kTailMagic) != 0) {
    return Status::Corruption("chunk store bad tail magic: " + path);
  }
  Slice tail_slice(tail);
  uint64_t index_offset = 0;
  uint64_t chunk_count = 0;
  MH_RETURN_IF_ERROR(GetFixed64(&tail_slice, &index_offset));
  MH_RETURN_IF_ERROR(GetFixed64(&tail_slice, &chunk_count));
  const uint64_t entry_size = 8 + 8 + 8 + 4 + 1;
  // Validate the footer against the actual file size before deriving any
  // read range from it: a truncated or bit-flipped footer must yield
  // Corruption, never an out-of-file read or an overflowing product.
  if (index_offset < kHeaderSize || index_offset > file_size - tail_len) {
    return Status::Corruption("chunk store index offset out of file: " + path);
  }
  const uint64_t index_size = file_size - tail_len - index_offset;
  if (chunk_count > UINT32_MAX || index_size % entry_size != 0 ||
      chunk_count != index_size / entry_size) {
    return Status::Corruption("chunk store index bounds mismatch: " + path);
  }
  MH_ASSIGN_OR_RETURN(std::string index,
                      env->ReadFileRange(path, index_offset, index_size));
  if (index.size() != index_size) {
    return Status::Corruption("chunk store short index read: " + path);
  }
  Slice in(index);
  reader.refs_.reserve(static_cast<size_t>(chunk_count));
  for (uint64_t i = 0; i < chunk_count; ++i) {
    ChunkRef ref;
    MH_RETURN_IF_ERROR(GetFixed64(&in, &ref.offset));
    MH_RETURN_IF_ERROR(GetFixed64(&in, &ref.stored_size));
    MH_RETURN_IF_ERROR(GetFixed64(&in, &ref.raw_size));
    MH_RETURN_IF_ERROR(GetFixed32(&in, &ref.crc));
    if (in.empty()) return Status::Corruption("chunk store truncated index");
    if (static_cast<uint8_t>(in[0]) >
        static_cast<uint8_t>(CodecType::kDeflateLite)) {
      return Status::Corruption("chunk store unknown codec " +
                                std::to_string(static_cast<uint8_t>(in[0])) +
                                ": " + path + " chunk " + std::to_string(i));
    }
    ref.codec = static_cast<CodecType>(in[0]);
    in.RemovePrefix(1);
    if (ref.offset < kHeaderSize || ref.stored_size > index_offset ||
        ref.offset > index_offset - ref.stored_size) {
      return Status::Corruption("chunk ref out of bounds: " + path);
    }
    reader.refs_.push_back(ref);
  }
  // Mapping is an optimization, never a requirement: any failure (Env
  // without mmap, size race with a concurrent replace) silently falls
  // back to ranged reads. The size check guards the race: refs were
  // validated against file_size, so a shorter mapping must not be used.
  if (auto mapping = env->MapFile(path);
      mapping.ok() && (*mapping)->size() == file_size) {
    reader.mapping_ = std::move(*mapping);
    MH_COUNTER("pas.chunk.mmap.open")->Increment();
  }
  return reader;
}

void ChunkStoreReader::EnableCache(bool enable) {
  std::lock_guard<std::mutex> lock(*mutex_);
  cache_enabled_ = enable;
  if (!enable) {
    cache_.clear();
    lru_.clear();
    stats_->cache_bytes.store(0, std::memory_order_relaxed);
  }
}

void ChunkStoreReader::SetCacheCapacity(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(*mutex_);
  cache_capacity_ = bytes;
  EvictToCapacityLocked();
}

uint64_t ChunkStoreReader::EvictToCapacityLocked() const {
  uint64_t evicted = 0;
  while (stats_->cache_bytes.load(std::memory_order_relaxed) >
             cache_capacity_ &&
         !lru_.empty()) {
    const uint32_t victim = lru_.back();
    lru_.pop_back();
    auto it = cache_.find(victim);
    stats_->cache_bytes.fetch_sub(it->second.data.size(),
                                  std::memory_order_relaxed);
    cache_.erase(it);
    stats_->cache_evictions.fetch_add(1, std::memory_order_relaxed);
    MH_COUNTER("pas.chunk.cache.evict")->Increment();
    ++evicted;
  }
  return evicted;
}

Result<std::string> ChunkStoreReader::Get(uint32_t id,
                                          ChunkStoreStats* call) const {
  if (id >= refs_.size()) {
    return Status::InvalidArgument("chunk id out of range");
  }
  ChunkStoreStats unused;
  ChunkStoreStats& sink = call != nullptr ? *call : unused;
  const ChunkRef& ref = refs_[id];
  // A mapped raw chunk decodes at memcpy speed straight from the page
  // cache, so caching it would only evict chunks that cost a decode.
  const bool in_place = ref.codec == CodecType::kNull && mapping_ != nullptr;
  if (!in_place) {
    std::lock_guard<std::mutex> lock(*mutex_);
    if (cache_enabled_) {
      auto it = cache_.find(id);
      if (it != cache_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        stats_->cache_hits.fetch_add(1, std::memory_order_relaxed);
        ++sink.cache_hits;
        MH_COUNTER("pas.chunk.cache.hit")->Increment();
        return it->second.data;
      }
    }
  }
  if (!in_place) MH_COUNTER("pas.chunk.cache.miss")->Increment();
  const auto fetch_start = std::chrono::steady_clock::now();
  const auto elapsed_us = [&fetch_start] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - fetch_start)
            .count());
  };
  std::string scratch;
  MH_ASSIGN_OR_RETURN(const Slice stored, ReadStored(id, &scratch));
  std::string raw;
  MH_RETURN_IF_ERROR(Codec::Get(ref.codec)->Decompress(stored, &raw));
  if (raw.size() != ref.raw_size) {
    return Status::Corruption("chunk raw size mismatch");
  }
  if (in_place) {
    stats_->bytes_read.fetch_add(ref.stored_size, std::memory_order_relaxed);
    stats_->chunk_fetches.fetch_add(1, std::memory_order_relaxed);
    sink.bytes_read += ref.stored_size;
    ++sink.chunk_fetches;
    MH_COUNTER("pas.chunk.read.raw")->Increment();
    MH_COUNTER("pas.chunk.read.raw.bytes")->Add(ref.stored_size);
    MH_HISTOGRAM("pas.chunk.read.raw.us")->Record(elapsed_us());
    return raw;
  }
  {
    std::lock_guard<std::mutex> lock(*mutex_);
    // A concurrent Get may have fetched the same chunk; count bytes once.
    // This Get is served the cached copy, so it counts as a hit: every Get
    // is exactly one hit or one fetch. The registry still counts it under
    // pas.chunk.cache.miss and not pas.chunk.fetch.count, so the wasted
    // decode stays visible there.
    if (cache_enabled_) {
      auto it = cache_.find(id);
      if (it != cache_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        stats_->cache_hits.fetch_add(1, std::memory_order_relaxed);
        ++sink.cache_hits;
        return it->second.data;
      }
    }
    stats_->bytes_read.fetch_add(ref.stored_size, std::memory_order_relaxed);
    stats_->chunk_fetches.fetch_add(1, std::memory_order_relaxed);
    sink.bytes_read += ref.stored_size;
    ++sink.chunk_fetches;
    // Oversized chunks bypass the cache entirely: admitting one would
    // evict most or all of the resident working set for a payload that
    // is typically read once. The 1/kCacheAdmitFraction cap keeps any
    // single admission from displacing more than a small share of it.
    if (cache_enabled_ &&
        raw.size() <= cache_capacity_ / kCacheAdmitFraction) {
      lru_.push_front(id);
      cache_.emplace(id, CacheEntry{raw, lru_.begin()});
      stats_->cache_bytes.fetch_add(raw.size(), std::memory_order_relaxed);
      sink.cache_evictions += EvictToCapacityLocked();
    }
  }
  MH_COUNTER("pas.chunk.fetch.count")->Increment();
  MH_COUNTER("pas.chunk.fetch.bytes")->Add(ref.stored_size);
  MH_HISTOGRAM("pas.chunk.fetch.us")->Record(elapsed_us());
  return raw;
}

Result<std::string> ChunkStoreReader::GetCompressed(uint32_t id) const {
  std::string scratch;
  MH_ASSIGN_OR_RETURN(const Slice stored, ReadStored(id, &scratch));
  return scratch.empty() ? stored.ToString() : std::move(scratch);
}

Status ChunkStoreReader::Verify(uint32_t id) const {
  std::string scratch;
  return ReadStored(id, &scratch).status();
}

Result<Slice> ChunkStoreReader::ReadStored(uint32_t id,
                                           std::string* scratch) const {
  if (id >= refs_.size()) {
    return Status::InvalidArgument("chunk id out of range");
  }
  const ChunkRef& ref = refs_[id];
  if (mapping_ != nullptr) {
    // Zero-copy fast path: Open validated every ref against the mapped
    // size, so the view is in bounds. A CRC mismatch here falls through to
    // the ranged read below.
    const Slice view(mapping_->data() + ref.offset,
                     static_cast<size_t>(ref.stored_size));
    if (Crc32(view) == ref.crc) {
      MH_COUNTER("pas.chunk.read.mmap")->Increment();
      return view;
    }
    MH_COUNTER("pas.chunk.mmap.fallback")->Increment();
  }
  // One retry distinguishes a transient read fault from real on-disk
  // corruption: a bad sector or torn page read may succeed the second
  // time, a corrupted payload fails both.
  auto corruption = [&](const char* what) {
    return Status::Corruption(std::string(what) + ": " + path_ + " chunk " +
                              std::to_string(id));
  };
  Status status = Status::OK();
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (attempt > 0) MH_COUNTER("pas.chunk.read.retry")->Increment();
    auto bytes = env_->ReadFileRange(path_, ref.offset, ref.stored_size);
    if (!bytes.ok()) {
      status = bytes.status();
    } else if (bytes->size() != ref.stored_size) {
      status = corruption("short chunk read");
    } else if (Crc32(Slice(*bytes)) != ref.crc) {
      status = corruption("chunk checksum mismatch");
    } else {
      *scratch = std::move(*bytes);
      return Slice(*scratch);
    }
  }
  MH_COUNTER("pas.chunk.read.error")->Increment();
  return status;
}

}  // namespace modelhub
