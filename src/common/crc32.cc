#include "common/crc32.h"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MODELHUB_CRC32_PCLMUL 1
#endif

namespace modelhub {
namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320.
// tables[0] is the byte-at-a-time table; tables[k][b] is the CRC of byte b
// followed by k zero bytes, so eight table lookups advance eight bytes.
constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kTables = MakeCrcTables();

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// Advances the pre-inverted CRC state `c` over `n` bytes at `p`.
uint32_t SliceBy8(uint32_t c, const uint8_t* p, size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef MODELHUB_CRC32_PCLMUL

__attribute__((target("pclmul,sse4.1"))) inline __m128i Load128(
    const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds `x` forward over 128 bits with the constant pair `k` and adds
/// `next`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold128(
    __m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Advances the pre-inverted CRC state `c` over `n` bytes at `p`, where `n`
/// is a multiple of 16 and at least 64. Four 128-bit lanes are folded
/// forward with carry-less multiplies, folded into one lane, reduced to 64
/// bits and Barrett-reduced to 32 ("Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ", Intel, 2009). The constants are powers of
/// x modulo the bit-reflected polynomial, as in zlib's and Linux's
/// PCLMULQDQ CRC-32 kernels.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldPclmul(
    uint32_t c, const uint8_t* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold128(x1, k1k2, Load128(p));
    x2 = Fold128(x2, k1k2, Load128(p + 16));
    x3 = Fold128(x3, k1k2, Load128(p + 32));
    x4 = Fold128(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) {
    x1 = Fold128(x1, k3k4, Load128(p));
  }

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

bool CpuHasPclmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // MODELHUB_CRC32_PCLMUL

}  // namespace

uint32_t Crc32(Slice data, uint32_t seed) {
  uint32_t c = ~seed;
  const uint8_t* p = data.data();
  size_t n = data.size();
#ifdef MODELHUB_CRC32_PCLMUL
  static const bool kHasPclmul = CpuHasPclmul();
  if (kHasPclmul && n >= 64) {
    const size_t folded = n & ~size_t{15};
    c = FoldPclmul(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return ~SliceBy8(c, p, n);
}

namespace internal {

uint32_t Crc32Portable(Slice data, uint32_t seed) {
  return ~SliceBy8(~seed, data.data(), data.size());
}

}  // namespace internal
}  // namespace modelhub
