#ifndef MODELHUB_COMMON_CRC32_H_
#define MODELHUB_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

#include "common/slice.h"

namespace modelhub {

/// Computes the CRC-32 (IEEE 802.3 polynomial, reflected) of `data`,
/// continuing from `seed` (pass 0 for a fresh checksum), so
/// `Crc32(b, Crc32(a)) == Crc32(a || b)`. Chunk refs, wire frames, CRC
/// footers, the commit journal and object names all carry this checksum.
/// On x86 CPUs with PCLMULQDQ, inputs of 64 bytes or more are folded with
/// carry-less multiplies; every other input and host uses slicing-by-8.
/// Both kernels produce identical values.
uint32_t Crc32(Slice data, uint32_t seed = 0);

namespace internal {

/// The slicing-by-8 kernel alone: the only kernel on hosts without
/// PCLMULQDQ, exposed so tests can check both kernels on any host.
uint32_t Crc32Portable(Slice data, uint32_t seed = 0);

}  // namespace internal
}  // namespace modelhub

#endif  // MODELHUB_COMMON_CRC32_H_
