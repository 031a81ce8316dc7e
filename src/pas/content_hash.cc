#include "pas/content_hash.h"

#include <cstring>

namespace modelhub {

namespace {

inline uint64_t RotL64(uint64_t x, int8_t r) {
  return (x << r) | (x >> (64 - r));
}

inline uint64_t FMix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDull;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ull;
  k ^= k >> 33;
  return k;
}

inline uint64_t LoadLE64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);  // Little-endian hosts only (matches the codebase).
  return v;
}

}  // namespace

// MurmurHash3 x64/128 construction (Austin Appleby's public-domain
// algorithm): strong 128-bit mixing at memcpy-like speed, no dependency.
Hash128 ContentHash128(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  const size_t nblocks = size / 16;
  uint64_t h1 = 0x9368E53C2F6AF274ull;  // Fixed seed: hashes are stable
  uint64_t h2 = 0x586DCD208F7CD3FDull;  // across processes and versions.
  const uint64_t c1 = 0x87C37B91114253D5ull;
  const uint64_t c2 = 0x4CF5AD432745937Full;

  for (size_t i = 0; i < nblocks; ++i) {
    uint64_t k1 = LoadLE64(bytes + i * 16);
    uint64_t k2 = LoadLE64(bytes + i * 16 + 8);
    k1 *= c1;
    k1 = RotL64(k1, 31);
    k1 *= c2;
    h1 ^= k1;
    h1 = RotL64(h1, 27);
    h1 += h2;
    h1 = h1 * 5 + 0x52DCE729;
    k2 *= c2;
    k2 = RotL64(k2, 33);
    k2 *= c1;
    h2 ^= k2;
    h2 = RotL64(h2, 31);
    h2 += h1;
    h2 = h2 * 5 + 0x38495AB5;
  }

  const uint8_t* tail = bytes + nblocks * 16;
  uint64_t k1 = 0;
  uint64_t k2 = 0;
  switch (size & 15) {
    case 15: k2 ^= static_cast<uint64_t>(tail[14]) << 48; [[fallthrough]];
    case 14: k2 ^= static_cast<uint64_t>(tail[13]) << 40; [[fallthrough]];
    case 13: k2 ^= static_cast<uint64_t>(tail[12]) << 32; [[fallthrough]];
    case 12: k2 ^= static_cast<uint64_t>(tail[11]) << 24; [[fallthrough]];
    case 11: k2 ^= static_cast<uint64_t>(tail[10]) << 16; [[fallthrough]];
    case 10: k2 ^= static_cast<uint64_t>(tail[9]) << 8; [[fallthrough]];
    case 9:
      k2 ^= static_cast<uint64_t>(tail[8]);
      k2 *= c2;
      k2 = RotL64(k2, 33);
      k2 *= c1;
      h2 ^= k2;
      [[fallthrough]];
    case 8: k1 ^= static_cast<uint64_t>(tail[7]) << 56; [[fallthrough]];
    case 7: k1 ^= static_cast<uint64_t>(tail[6]) << 48; [[fallthrough]];
    case 6: k1 ^= static_cast<uint64_t>(tail[5]) << 40; [[fallthrough]];
    case 5: k1 ^= static_cast<uint64_t>(tail[4]) << 32; [[fallthrough]];
    case 4: k1 ^= static_cast<uint64_t>(tail[3]) << 24; [[fallthrough]];
    case 3: k1 ^= static_cast<uint64_t>(tail[2]) << 16; [[fallthrough]];
    case 2: k1 ^= static_cast<uint64_t>(tail[1]) << 8; [[fallthrough]];
    case 1:
      k1 ^= static_cast<uint64_t>(tail[0]);
      k1 *= c1;
      k1 = RotL64(k1, 31);
      k1 *= c2;
      h1 ^= k1;
      break;
    case 0:
      break;
  }

  h1 ^= static_cast<uint64_t>(size);
  h2 ^= static_cast<uint64_t>(size);
  h1 += h2;
  h2 += h1;
  h1 = FMix64(h1);
  h2 = FMix64(h2);
  h1 += h2;
  h2 += h1;
  return Hash128{h1, h2};
}

Hash128 StoredChunkKey(CodecType codec, Slice stored) {
  Hash128 key = ContentHash128(stored);
  // FMix64 is a bijection, so for any one codec the keys collide exactly
  // when the content hashes do.
  key.hi = FMix64(key.hi ^ (static_cast<uint64_t>(codec) + 1));
  return key;
}

}  // namespace modelhub
