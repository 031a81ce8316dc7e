#include "pas/segment.h"

#include <cstring>

#include "common/macros.h"

namespace modelhub {

namespace {

uint32_t FloatBits(float v) {
  uint32_t u;
  std::memcpy(&u, &v, 4);
  return u;
}

/// Replaces a non-finite bit pattern (all-ones exponent: inf or NaN, which
/// only synthetic byte fills produce) with the largest finite magnitude of
/// the same sign.
uint32_t ClampFiniteBits(uint32_t u) {
  return (u & 0x7F800000u) == 0x7F800000u ? (u & 0x80000000u) | 0x7F7FFFFFu
                                          : u;
}

Status ValidatePlanes(int64_t rows, int64_t cols,
                      const std::vector<Slice>& planes) {
  if (planes.empty() || planes.size() > kNumPlanes) {
    return Status::InvalidArgument("plane count must be in [1,4]");
  }
  const size_t expected = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  for (const Slice& plane : planes) {
    if (plane.size() != expected) {
      return Status::InvalidArgument("plane size does not match shape");
    }
  }
  return Status::OK();
}

using PlanePointers = std::array<const uint8_t*, kNumPlanes>;

PlanePointers PointersOf(const std::vector<Slice>& planes) {
  PlanePointers p{};
  for (size_t i = 0; i < planes.size(); ++i) p[i] = planes[i].data();
  return p;
}

/// Element i's bits from the first K planes; the missing low-order bytes
/// are zero. K is a constant, so the plane loop unrolls and the caller's
/// element loop vectorizes.
template <int K>
uint32_t GatherBits(const PlanePointers& p, size_t i) {
  uint32_t u = 0;
  for (int k = 0; k < K; ++k) {
    u |= static_cast<uint32_t>(p[k][i]) << (8 * (kNumPlanes - 1 - k));
  }
  return u;
}

template <int K>
void AssembleKernel(PlanePointers p, size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t u = GatherBits<K>(p, i);
    std::memcpy(out + i, &u, 4);
  }
}

/// The unknown low bytes range over 0x00..0xFF: the zero fill and the
/// ones fill bound the value. Both share plane 0's sign bit, and the fill
/// with the larger magnitude is the larger value for a positive float and
/// the smaller one for a negative float. Clamping keeps the order.
template <int K>
void BoundsKernel(PlanePointers p, size_t n, float* lo, float* hi) {
  constexpr uint32_t kUnknownBits =
      K == kNumPlanes ? 0u : 0xFFFFFFFFu >> (8 * K);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t u = GatherBits<K>(p, i);
    const uint32_t zero_fill = ClampFiniteBits(u);
    const uint32_t ones_fill = ClampFiniteBits(u | kUnknownBits);
    const bool negative = (u & 0x80000000u) != 0;
    const uint32_t l = negative ? ones_fill : zero_fill;
    const uint32_t h = negative ? zero_fill : ones_fill;
    std::memcpy(lo + i, &l, 4);
    std::memcpy(hi + i, &h, 4);
  }
}

}  // namespace

void SegmentFloatsRange(const float* values, size_t count, size_t offset,
                        std::array<std::string, kNumPlanes>* planes) {
  char* p0 = (*planes)[0].data() + offset;
  char* p1 = (*planes)[1].data() + offset;
  char* p2 = (*planes)[2].data() + offset;
  char* p3 = (*planes)[3].data() + offset;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t u = FloatBits(values[i]);
    p0[i] = static_cast<char>((u >> 24) & 0xFF);
    p1[i] = static_cast<char>((u >> 16) & 0xFF);
    p2[i] = static_cast<char>((u >> 8) & 0xFF);
    p3[i] = static_cast<char>(u & 0xFF);
  }
}

std::array<std::string, kNumPlanes> SegmentFloats(const FloatMatrix& matrix) {
  std::array<std::string, kNumPlanes> planes;
  const size_t n = matrix.data().size();
  for (auto& plane : planes) plane.resize(n);
  SegmentFloatsRange(matrix.data().data(), n, 0, &planes);
  return planes;
}

Result<FloatMatrix> AssembleFloats(int64_t rows, int64_t cols,
                                   const std::vector<Slice>& planes) {
  MH_RETURN_IF_ERROR(ValidatePlanes(rows, cols, planes));
  FloatMatrix out(rows, cols);
  const PlanePointers p = PointersOf(planes);
  const size_t n = out.data().size();
  float* dst = out.data().data();
  switch (planes.size()) {
    case 1: AssembleKernel<1>(p, n, dst); break;
    case 2: AssembleKernel<2>(p, n, dst); break;
    case 3: AssembleKernel<3>(p, n, dst); break;
    default: AssembleKernel<4>(p, n, dst); break;
  }
  return out;
}

Result<IntervalMatrix> BoundsFromPlanes(int64_t rows, int64_t cols,
                                        const std::vector<Slice>& planes) {
  MH_RETURN_IF_ERROR(ValidatePlanes(rows, cols, planes));
  FloatMatrix lo(rows, cols);
  FloatMatrix hi(rows, cols);
  const PlanePointers p = PointersOf(planes);
  const size_t n = lo.data().size();
  float* l = lo.data().data();
  float* h = hi.data().data();
  switch (planes.size()) {
    case 1: BoundsKernel<1>(p, n, l, h); break;
    case 2: BoundsKernel<2>(p, n, l, h); break;
    case 3: BoundsKernel<3>(p, n, l, h); break;
    default: BoundsKernel<4>(p, n, l, h); break;
  }
  return IntervalMatrix::FromBounds(std::move(lo), std::move(hi));
}

}  // namespace modelhub
