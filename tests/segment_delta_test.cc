#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>

#include "common/random.h"
#include "compress/codec.h"
#include "pas/delta.h"
#include "pas/float_encoding.h"
#include "pas/segment.h"

namespace modelhub {
namespace {

FloatMatrix RandomWeights(int64_t rows, int64_t cols, uint64_t seed,
                          float stddev = 0.1f) {
  Rng rng(seed);
  FloatMatrix m(rows, cols);
  m.FillGaussian(&rng, stddev);
  return m;
}

std::vector<Slice> ToSlices(const std::array<std::string, kNumPlanes>& planes,
                            int count) {
  std::vector<Slice> out;
  for (int p = 0; p < count; ++p) out.emplace_back(planes[p]);
  return out;
}

// ------------------------------------------------------------- Segment

TEST(SegmentTest, FullPlanesReassembleExactly) {
  const FloatMatrix m = RandomWeights(33, 17, 5);
  const auto planes = SegmentFloats(m);
  for (const auto& plane : planes) {
    EXPECT_EQ(plane.size(), static_cast<size_t>(m.size()));
  }
  auto back = AssembleFloats(m.rows(), m.cols(), ToSlices(planes, 4));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->BitEquals(m));
}

TEST(SegmentTest, PartialAssemblyIsTruncationTowardZeroMagnitude) {
  const FloatMatrix m = RandomWeights(16, 16, 6);
  const auto planes = SegmentFloats(m);
  for (int k = 1; k <= 3; ++k) {
    auto approx = AssembleFloats(m.rows(), m.cols(), ToSlices(planes, k));
    ASSERT_TRUE(approx.ok());
    for (int64_t i = 0; i < m.size(); ++i) {
      const float truth = m.data()[static_cast<size_t>(i)];
      const float approx_v = approx->data()[static_cast<size_t>(i)];
      // Zero-filling mantissa bits shrinks the magnitude, never grows it.
      EXPECT_LE(std::fabs(approx_v), std::fabs(truth) + 1e-30f);
      // Error shrinks 256x per extra plane: bound via relative error.
      const float rel_bound = std::pow(2.0f, -(8.0f * k - 9.0f));
      EXPECT_LE(std::fabs(approx_v - truth),
                std::fabs(truth) * rel_bound + 1e-30f)
          << "k=" << k << " i=" << i;
    }
  }
}

TEST(SegmentTest, BoundsContainTruthProperty) {
  // The interval soundness property the whole progressive scheme rests on.
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    FloatMatrix m(8, 8);
    const float stddev = rng.UniformFloat(1e-3f, 10.0f);
    m.FillGaussian(&rng, stddev);
    const auto planes = SegmentFloats(m);
    for (int k = 1; k <= 4; ++k) {
      auto bounds = BoundsFromPlanes(m.rows(), m.cols(), ToSlices(planes, k));
      ASSERT_TRUE(bounds.ok());
      EXPECT_TRUE(bounds->Contains(m)) << "k=" << k;
      if (k == 4) {
        EXPECT_FLOAT_EQ(bounds->MaxWidth(), 0.0f);
      }
    }
  }
}

TEST(SegmentTest, BoundsWidthShrinksPerPlane) {
  const FloatMatrix m = RandomWeights(32, 32, 8, 1.0f);
  const auto planes = SegmentFloats(m);
  double prev_width = 1e30;
  for (int k = 1; k <= 4; ++k) {
    auto bounds = BoundsFromPlanes(m.rows(), m.cols(), ToSlices(planes, k));
    ASSERT_TRUE(bounds.ok());
    EXPECT_LT(bounds->MaxWidth(), prev_width);
    prev_width = bounds->MaxWidth();
  }
}

TEST(SegmentTest, HighPlaneCompressesLowPlaneDoesNot) {
  // The premise of bytewise segmentation: high-order bytes have low
  // entropy, low-order bytes are near-random.
  const FloatMatrix m = RandomWeights(128, 128, 9);
  const auto planes = SegmentFloats(m);
  const size_t high = CompressedSize(CodecType::kDeflateLite, Slice(planes[0]));
  const size_t low = CompressedSize(CodecType::kDeflateLite, Slice(planes[3]));
  // Plane 0 carries sign+exponent: ~5-6 bits of entropy per byte for
  // sign-symmetric Gaussian weights, so it compresses meaningfully.
  EXPECT_LT(high, planes[0].size() * 3 / 4);
  EXPECT_GT(low, planes[3].size() * 95 / 100);  // Essentially incompressible.
  EXPECT_LT(high, low * 8 / 10);
}

TEST(SegmentTest, PlaneValidation) {
  const FloatMatrix m = RandomWeights(4, 4, 10);
  const auto planes = SegmentFloats(m);
  EXPECT_TRUE(AssembleFloats(4, 4, {}).status().IsInvalidArgument());
  std::vector<Slice> wrong = {Slice(planes[0]).SubSlice(0, 3)};
  EXPECT_TRUE(AssembleFloats(4, 4, wrong).status().IsInvalidArgument());
}

// The per-element implementation the byte-plane kernels replaced, kept as
// the reference they must match bit for bit.
uint32_t ReferenceAssembleBits(const std::vector<Slice>& planes, size_t i,
                               uint8_t fill) {
  uint32_t u = 0;
  for (int p = 0; p < kNumPlanes; ++p) {
    const uint32_t byte =
        p < static_cast<int>(planes.size()) ? planes[p][i] : fill;
    u |= byte << (8 * (kNumPlanes - 1 - p));
  }
  return u;
}

float ReferenceBitsToFloat(uint32_t u) {
  float v;
  std::memcpy(&v, &u, 4);
  return v;
}

float ReferenceClampFinite(float v) {
  if (std::isfinite(v)) return v;
  return std::signbit(v) ? -FLT_MAX : FLT_MAX;
}

FloatMatrix ReferenceAssembleFloats(int64_t rows, int64_t cols,
                                    const std::vector<Slice>& planes) {
  FloatMatrix out(rows, cols);
  for (size_t i = 0; i < out.data().size(); ++i) {
    out.data()[i] = ReferenceBitsToFloat(ReferenceAssembleBits(planes, i, 0));
  }
  return out;
}

void ReferenceBoundsFromPlanes(int64_t rows, int64_t cols,
                               const std::vector<Slice>& planes,
                               FloatMatrix* lo, FloatMatrix* hi) {
  *lo = FloatMatrix(rows, cols);
  *hi = FloatMatrix(rows, cols);
  const bool complete = planes.size() == kNumPlanes;
  for (size_t i = 0; i < lo->data().size(); ++i) {
    const float zero_fill = ReferenceClampFinite(
        ReferenceBitsToFloat(ReferenceAssembleBits(planes, i, 0x00)));
    if (complete) {
      lo->data()[i] = zero_fill;
      hi->data()[i] = zero_fill;
      continue;
    }
    const float ones_fill = ReferenceClampFinite(
        ReferenceBitsToFloat(ReferenceAssembleBits(planes, i, 0xFF)));
    if (zero_fill <= ones_fill) {
      lo->data()[i] = zero_fill;
      hi->data()[i] = ones_fill;
    } else {
      lo->data()[i] = ones_fill;
      hi->data()[i] = zero_fill;
    }
  }
}

/// Compares both kernels with the reference on 1..4 of `planes`, each
/// holding one 1 x n matrix.
void ExpectKernelsMatchReference(
    const std::array<std::string, kNumPlanes>& planes) {
  const int64_t n = static_cast<int64_t>(planes[0].size());
  for (int k = 1; k <= kNumPlanes; ++k) {
    const std::vector<Slice> slices = ToSlices(planes, k);
    auto exact = AssembleFloats(1, n, slices);
    ASSERT_TRUE(exact.ok());
    EXPECT_TRUE(exact->BitEquals(ReferenceAssembleFloats(1, n, slices)))
        << "k=" << k << " n=" << n;
    auto bounds = BoundsFromPlanes(1, n, slices);
    ASSERT_TRUE(bounds.ok());
    FloatMatrix lo;
    FloatMatrix hi;
    ReferenceBoundsFromPlanes(1, n, slices, &lo, &hi);
    EXPECT_TRUE(bounds->lo().BitEquals(lo)) << "k=" << k << " n=" << n;
    EXPECT_TRUE(bounds->hi().BitEquals(hi)) << "k=" << k << " n=" << n;
  }
}

TEST(SegmentTest, KernelsMatchPerElementReference) {
  // Seeded random bytes; the odd lengths leave vector-loop tails.
  Rng rng(23);
  for (const size_t n : {1, 7, 33, 4099}) {
    std::array<std::string, kNumPlanes> planes;
    for (auto& plane : planes) {
      plane.resize(n);
      for (auto& c : plane) c = static_cast<char>(rng.Uniform(256));
    }
    ExpectKernelsMatchReference(planes);
  }
  // Every (plane 0, plane 1) byte pair: both signs, +-0, and every
  // all-ones exponent under the zero and the ones fill (inf and NaN,
  // which the bounds clamp to +-FLT_MAX).
  std::array<std::string, kNumPlanes> sweep;
  for (auto& plane : sweep) plane.resize(256 * 256);
  for (size_t i = 0; i < sweep[0].size(); ++i) {
    sweep[0][i] = static_cast<char>(i >> 8);
    sweep[1][i] = static_cast<char>(i & 0xFF);
    sweep[2][i] = static_cast<char>(rng.Uniform(256));
    sweep[3][i] = static_cast<char>(rng.Uniform(256));
  }
  ExpectKernelsMatchReference(sweep);
  auto one_plane = BoundsFromPlanes(1, 256 * 256, ToSlices(sweep, 1));
  ASSERT_TRUE(one_plane.ok());
  EXPECT_EQ(one_plane->lo().Min(), -FLT_MAX);
  EXPECT_EQ(one_plane->hi().Max(), FLT_MAX);
}

// --------------------------------------------------------------- Delta

TEST(DeltaTest, KindStringRoundTrip) {
  for (DeltaKind kind :
       {DeltaKind::kMaterialized, DeltaKind::kSub, DeltaKind::kXor}) {
    auto parsed = DeltaKindFromString(DeltaKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(DeltaKindFromString("nope").ok());
}

TEST(DeltaTest, XorRoundTripsBitExactly) {
  const FloatMatrix base = RandomWeights(20, 20, 11);
  const FloatMatrix target = RandomWeights(20, 20, 12);
  auto delta = ComputeDelta(target, base, DeltaKind::kXor);
  ASSERT_TRUE(delta.ok());
  auto restored = ApplyDelta(base, *delta, DeltaKind::kXor);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->BitEquals(target));
}

TEST(DeltaTest, SubRoundTripsWithinRounding) {
  const FloatMatrix base = RandomWeights(20, 20, 13);
  FloatMatrix target = base;
  Rng rng(14);
  for (auto& v : target.data()) v += rng.UniformFloat(-1e-3f, 1e-3f);
  auto delta = ComputeDelta(target, base, DeltaKind::kSub);
  ASSERT_TRUE(delta.ok());
  auto restored = ApplyDelta(base, *delta, DeltaKind::kSub);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->ApproxEquals(target, 1e-7f));
}

TEST(DeltaTest, MaterializedIgnoresBase) {
  const FloatMatrix base = RandomWeights(4, 4, 15);
  const FloatMatrix target = RandomWeights(4, 4, 16);
  auto delta = ComputeDelta(target, base, DeltaKind::kMaterialized);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->BitEquals(target));
  auto restored = ApplyDelta(base, *delta, DeltaKind::kMaterialized);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->BitEquals(target));
}

TEST(DeltaTest, NearbySnapshotDeltaCompressesBetterThanMaterialized) {
  // Fig 6(b)'s "Snapshots" regime: close parameters make SUB deltas cheap
  // under segmented compression.
  const FloatMatrix base = RandomWeights(64, 64, 17);
  FloatMatrix target = base;
  Rng rng(18);
  // Simulate a few SGD steps: small, sparse-ish updates.
  for (auto& v : target.data()) {
    if (rng.Bernoulli(0.5)) v += rng.UniformFloat(-1e-4f, 1e-4f);
  }
  auto delta = ComputeDelta(target, base, DeltaKind::kSub);
  ASSERT_TRUE(delta.ok());

  auto segmented_size = [](const FloatMatrix& m) {
    const auto planes = SegmentFloats(m);
    size_t total = 0;
    for (const auto& plane : planes) {
      total += CompressedSize(CodecType::kDeflateLite, Slice(plane));
    }
    return total;
  };
  EXPECT_LT(segmented_size(*delta), segmented_size(target) * 3 / 4);
}

TEST(DeltaTest, AdaptiveKindsRoundTripAcrossShapes) {
  // Fine-tuning often re-targets the final layer: the new matrix shares a
  // prefix block with the base but has different shape (footnote 3).
  const FloatMatrix base = RandomWeights(10, 8, 31);
  // Target is wider and taller; overlap equals base within rounding.
  FloatMatrix target(12, 9);
  Rng rng(32);
  target.FillGaussian(&rng, 0.1f);
  for (int64_t r = 0; r < 10; ++r) {
    for (int64_t c = 0; c < 8; ++c) {
      target.At(r, c) = base.At(r, c) + rng.UniformFloat(-1e-4f, 1e-4f);
    }
  }
  for (DeltaKind kind : {DeltaKind::kAdaptiveSub, DeltaKind::kAdaptiveXor}) {
    auto delta = ComputeDelta(target, base, kind);
    ASSERT_TRUE(delta.ok()) << DeltaKindToString(kind);
    EXPECT_EQ(delta->rows(), target.rows());
    EXPECT_EQ(delta->cols(), target.cols());
    auto restored = ApplyDelta(base, *delta, kind);
    ASSERT_TRUE(restored.ok());
    if (kind == DeltaKind::kAdaptiveXor) {
      EXPECT_TRUE(restored->BitEquals(target));
    } else {
      EXPECT_TRUE(restored->ApproxEquals(target, 1e-6f));
    }
  }
}

TEST(DeltaTest, AdaptiveSmallerBaseAndSameShape) {
  // Base larger than target: only the target-shaped overlap is used.
  const FloatMatrix base = RandomWeights(12, 12, 33);
  const FloatMatrix target = RandomWeights(6, 6, 34);
  auto delta = ComputeDelta(target, base, DeltaKind::kAdaptiveSub);
  ASSERT_TRUE(delta.ok());
  auto restored = ApplyDelta(base, *delta, DeltaKind::kAdaptiveSub);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->ApproxEquals(target, 1e-6f));
  // On equal shapes the adaptive kinds match their exact counterparts.
  const FloatMatrix same = RandomWeights(6, 6, 35);
  auto exact = ComputeDelta(target, same, DeltaKind::kSub);
  auto adaptive = ComputeDelta(target, same, DeltaKind::kAdaptiveSub);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(adaptive.ok());
  EXPECT_TRUE(exact->BitEquals(*adaptive));
}

TEST(DeltaTest, AdaptiveHelpers) {
  EXPECT_TRUE(IsAdaptive(DeltaKind::kAdaptiveSub));
  EXPECT_TRUE(IsAdaptive(DeltaKind::kAdaptiveXor));
  EXPECT_FALSE(IsAdaptive(DeltaKind::kSub));
  EXPECT_EQ(ToAdaptive(DeltaKind::kSub), DeltaKind::kAdaptiveSub);
  EXPECT_EQ(ToAdaptive(DeltaKind::kXor), DeltaKind::kAdaptiveXor);
  EXPECT_EQ(ToAdaptive(DeltaKind::kMaterialized), DeltaKind::kMaterialized);
  for (DeltaKind kind : {DeltaKind::kAdaptiveSub, DeltaKind::kAdaptiveXor}) {
    auto parsed = DeltaKindFromString(DeltaKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
}

TEST(DeltaTest, UnrelatedModelsDeltaDoesNotHelp) {
  // Fig 6(b)'s "Similar architectures, retrained" regime: materializing
  // beats deltas when parameters are uncorrelated.
  const FloatMatrix a = RandomWeights(64, 64, 19);
  const FloatMatrix b = RandomWeights(64, 64, 20);
  auto delta = ComputeDelta(a, b, DeltaKind::kSub);
  ASSERT_TRUE(delta.ok());
  auto segmented_size = [](const FloatMatrix& m) {
    const auto planes = SegmentFloats(m);
    size_t total = 0;
    for (const auto& plane : planes) {
      total += CompressedSize(CodecType::kDeflateLite, Slice(plane));
    }
    return total;
  };
  // No meaningful gain (allow 5% slack either way).
  EXPECT_GT(segmented_size(*delta), segmented_size(a) * 95 / 100);
}

}  // namespace
}  // namespace modelhub
