#ifndef MODELHUB_COMPRESS_CODEC_H_
#define MODELHUB_COMPRESS_CODEC_H_

#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace modelhub {

/// Identifiers for the general-purpose byte codecs shipped with ModelHub.
/// PAS stores one codec id per chunk, so archives remain readable when the
/// default codec changes.
enum class CodecType : uint8_t {
  kNull = 0,      ///< Stored, no compression.
  kRle = 1,       ///< PackBits-style run-length encoding.
  kHuffman = 2,   ///< Order-0 canonical Huffman.
  kDeflateLite = 3,  ///< LZ77 (32 KiB window) + canonical Huffman. The
                     ///< from-scratch stand-in for zlib used by the paper.
};

/// Upper bound on a single chunk's decompressed size. Decoders reject
/// frames claiming more — a corrupt varint must not drive allocation.
inline constexpr uint64_t kMaxDecompressedSize = 1ull << 30;

/// A block compressor. All codecs frame their output with the raw size so
/// Decompress can validate and pre-allocate; the frame layout is
/// codec-private. Codecs are stateless and therefore thread-compatible.
///
/// The public Compress/Decompress entry points are measured: they feed
/// `codec.<name>.{encode,decode}.{calls,bytes,us}` in the metric registry
/// and delegate to the codec-private DoCompress/DoDecompress.
class Codec {
 public:
  virtual ~Codec() = default;

  virtual CodecType type() const = 0;
  virtual std::string name() const = 0;

  /// Compresses `input`, appending to `*output` (which is cleared first).
  Status Compress(Slice input, std::string* output) const;

  /// Inverse of Compress. Fails with Corruption on malformed input.
  Status Decompress(Slice input, std::string* output) const;

  /// Returns the process-wide singleton for `type` (never null).
  static const Codec* Get(CodecType type);

 protected:
  virtual Status DoCompress(Slice input, std::string* output) const = 0;
  virtual Status DoDecompress(Slice input, std::string* output) const = 0;
};

/// Convenience: compressed size of `input` under `type`, with no raw
/// fallback. The archive's cost model charges EncodeChunk's output
/// (pas/chunk_store.h) instead, which is never larger than the null frame.
size_t CompressedSize(CodecType type, Slice input);

}  // namespace modelhub

#endif  // MODELHUB_COMPRESS_CODEC_H_
