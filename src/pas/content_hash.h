#ifndef MODELHUB_PAS_CONTENT_HASH_H_
#define MODELHUB_PAS_CONTENT_HASH_H_

#include <cstddef>
#include <cstdint>

#include "common/slice.h"
#include "compress/codec.h"

namespace modelhub {

/// A 128-bit content hash of one stored (compressed) chunk payload. Two
/// chunks with equal hashes are treated as identical content; the intra-
/// build dedup path additionally byte-compares before sharing, so a
/// collision inside one build is impossible, and cross-generation reuse
/// rides on the 128-bit space (collision odds are negligible next to disk
/// corruption rates, and every chunk still carries its own CRC).
struct Hash128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const Hash128& other) const {
    return hi == other.hi && lo == other.lo;
  }
};

struct Hash128Hasher {
  size_t operator()(const Hash128& h) const {
    return static_cast<size_t>(h.hi ^ (h.lo * 0x9E3779B97F4A7C15ull));
  }
};

/// 128-bit content hash of `data` (MurmurHash3 x64/128 construction).
Hash128 ContentHash128(const void* data, size_t size);
inline Hash128 ContentHash128(Slice data) {
  return ContentHash128(data.data(), data.size());
}

/// Dedup key of one stored chunk: the content hash of its stored bytes,
/// salted with the codec those bytes are in. Equal bytes under two codecs
/// get different keys, so dedup never shares a chunk across codecs.
Hash128 StoredChunkKey(CodecType codec, Slice stored);

}  // namespace modelhub

#endif  // MODELHUB_PAS_CONTENT_HASH_H_
