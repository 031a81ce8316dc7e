#include "compress/codec.h"

#include <array>
#include <chrono>

#include "common/coding.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "compress/deflate_lite.h"
#include "compress/huffman.h"
#include "compress/rle_codec.h"

namespace modelhub {

namespace {

/// Identity codec; frame: varint(raw_size) | raw bytes.
class NullCodec : public Codec {
 public:
  CodecType type() const override { return CodecType::kNull; }
  std::string name() const override { return "null"; }

 protected:
  Status DoCompress(Slice input, std::string* output) const override {
    output->clear();
    PutVarint64(output, input.size());
    output->append(reinterpret_cast<const char*>(input.data()), input.size());
    return Status::OK();
  }

  Status DoDecompress(Slice input, std::string* output) const override {
    output->clear();
    uint64_t raw_size = 0;
    MH_RETURN_IF_ERROR(GetVarint64(&input, &raw_size));
    if (raw_size > kMaxDecompressedSize) {
      return Status::Corruption("decompress: implausible raw size");
    }
    if (input.size() != raw_size) {
      return Status::Corruption("null codec: size mismatch");
    }
    output->assign(reinterpret_cast<const char*>(input.data()), input.size());
    return Status::OK();
  }
};

/// Per-codec instrument set, resolved once per CodecType. `Compress` runs
/// inside the archive's per-edge cost loop, so the steady-state cost here
/// must stay at a clock pair plus a handful of relaxed atomic adds.
struct CodecInstruments {
  Counter* encode_calls;
  Counter* encode_in_bytes;
  Counter* encode_out_bytes;
  Histogram* encode_us;
  Counter* decode_calls;
  Counter* decode_out_bytes;
  Histogram* decode_us;
};

const CodecInstruments& InstrumentsFor(const Codec& codec) {
  static const std::array<CodecInstruments, 4>* table = [] {
    auto* t = new std::array<CodecInstruments, 4>();
    MetricRegistry* registry = MetricRegistry::Global();
    const char* names[4] = {"null", "rle", "huffman", "deflate-lite"};
    for (int i = 0; i < 4; ++i) {
      const std::string prefix = std::string("codec.") + names[i];
      (*t)[i].encode_calls = registry->GetCounter(prefix + ".encode.calls");
      (*t)[i].encode_in_bytes =
          registry->GetCounter(prefix + ".encode.in_bytes");
      (*t)[i].encode_out_bytes =
          registry->GetCounter(prefix + ".encode.out_bytes");
      (*t)[i].encode_us = registry->GetHistogram(prefix + ".encode.us");
      (*t)[i].decode_calls = registry->GetCounter(prefix + ".decode.calls");
      (*t)[i].decode_out_bytes =
          registry->GetCounter(prefix + ".decode.out_bytes");
      (*t)[i].decode_us = registry->GetHistogram(prefix + ".decode.us");
    }
    return t;
  }();
  return (*table)[static_cast<uint8_t>(codec.type()) & 3];
}

uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

Status Codec::Compress(Slice input, std::string* output) const {
  const CodecInstruments& m = InstrumentsFor(*this);
  const auto start = std::chrono::steady_clock::now();
  const Status s = DoCompress(input, output);
  m.encode_us->Record(MicrosSince(start));
  m.encode_calls->Increment();
  m.encode_in_bytes->Add(input.size());
  if (s.ok()) m.encode_out_bytes->Add(output->size());
  return s;
}

Status Codec::Decompress(Slice input, std::string* output) const {
  const CodecInstruments& m = InstrumentsFor(*this);
  const auto start = std::chrono::steady_clock::now();
  const Status s = DoDecompress(input, output);
  m.decode_us->Record(MicrosSince(start));
  m.decode_calls->Increment();
  if (s.ok()) m.decode_out_bytes->Add(output->size());
  return s;
}

const Codec* Codec::Get(CodecType type) {
  // Intentionally leaked singletons; codecs are stateless.
  static const NullCodec* null_codec = new NullCodec();
  static const RleCodec* rle_codec = new RleCodec();
  static const HuffmanCodec* huffman_codec = new HuffmanCodec();
  static const DeflateLiteCodec* deflate_codec = new DeflateLiteCodec();
  switch (type) {
    case CodecType::kNull:
      return null_codec;
    case CodecType::kRle:
      return rle_codec;
    case CodecType::kHuffman:
      return huffman_codec;
    case CodecType::kDeflateLite:
      return deflate_codec;
  }
  return null_codec;
}

size_t CompressedSize(CodecType type, Slice input) {
  std::string out;
  const Status s = Codec::Get(type)->Compress(input, &out);
  MH_CHECK(s.ok());
  return out.size();
}

}  // namespace modelhub
