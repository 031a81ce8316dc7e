#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "tensor/float_matrix.h"
#include "tensor/interval.h"
#include "tensor/tensor.h"

namespace modelhub {
namespace {

TEST(FloatMatrixTest, ConstructionAndAccess) {
  FloatMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  m.At(1, 2) = 4.5f;
  EXPECT_FLOAT_EQ(m(1, 2), 4.5f);
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
}

TEST(FloatMatrixTest, FillAndStats) {
  FloatMatrix m(4, 4);
  m.Fill(2.0f);
  m.At(0, 0) = -1.0f;
  m.At(3, 3) = 5.0f;
  EXPECT_FLOAT_EQ(m.Min(), -1.0f);
  EXPECT_FLOAT_EQ(m.Max(), 5.0f);
  EXPECT_NEAR(m.Mean(), (14 * 2.0 - 1.0 + 5.0) / 16.0, 1e-6);
}

TEST(FloatMatrixTest, SubAddRoundTrip) {
  Rng rng(5);
  FloatMatrix a(8, 8);
  FloatMatrix b(8, 8);
  a.FillGaussian(&rng, 1.0f);
  b.FillGaussian(&rng, 1.0f);
  auto d = a.Sub(b);
  ASSERT_TRUE(d.ok());
  auto restored = d->Add(b);
  ASSERT_TRUE(restored.ok());
  // Float subtraction then addition of the same operand may round, but
  // stays within a tight tolerance for O(1) magnitudes.
  EXPECT_TRUE(restored->ApproxEquals(a, 1e-5f));
}

TEST(FloatMatrixTest, XorIsExactInverse) {
  Rng rng(9);
  FloatMatrix a(16, 16);
  FloatMatrix b(16, 16);
  a.FillGaussian(&rng, 3.0f);
  b.FillGaussian(&rng, 3.0f);
  auto x = a.BitwiseXor(b);
  ASSERT_TRUE(x.ok());
  auto restored = x->BitwiseXor(b);
  ASSERT_TRUE(restored.ok());
  // XOR deltas invert bit-exactly — this is why PAS offers them.
  EXPECT_TRUE(restored->BitEquals(a));
}

TEST(FloatMatrixTest, ShapeMismatchRejected) {
  FloatMatrix a(2, 2);
  FloatMatrix b(3, 2);
  EXPECT_TRUE(a.Sub(b).status().IsInvalidArgument());
  EXPECT_TRUE(a.Add(b).status().IsInvalidArgument());
  EXPECT_TRUE(a.BitwiseXor(b).status().IsInvalidArgument());
}

TEST(FloatMatrixTest, BytesRoundTrip) {
  Rng rng(13);
  FloatMatrix m(7, 5);
  m.FillUniform(&rng, -10.0f, 10.0f);
  const std::string bytes = m.ToBytes();
  EXPECT_EQ(bytes.size(), 7u * 5u * 4u);
  auto back = FloatMatrix::FromBytes(7, 5, Slice(bytes));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->BitEquals(m));
}

TEST(FloatMatrixTest, FromBytesWrongSizeRejected) {
  std::string bytes(12, '\0');
  EXPECT_TRUE(FloatMatrix::FromBytes(2, 2, Slice(bytes))
                  .status()
                  .IsInvalidArgument());
}

TEST(TensorTest, IndexingLayoutIsNCHW) {
  Tensor t(2, 3, 4, 5);
  EXPECT_EQ(t.size(), 2 * 3 * 4 * 5);
  EXPECT_EQ(t.SampleSize(), 3 * 4 * 5);
  t.At(1, 2, 3, 4) = 9.0f;
  // Flat offset: ((1*3+2)*4+3)*5+4 = 119.
  EXPECT_FLOAT_EQ(t.data()[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
  EXPECT_EQ(t.ShapeString(), "[2,3,4,5]");
}

// ---------------------------------------------------------------- Interval

TEST(IntervalTest, ArithmeticSoundnessProperty) {
  // For random intervals and random points inside them, every arithmetic op
  // must produce an interval containing the pointwise result.
  Rng rng(21);
  for (int trial = 0; trial < 2000; ++trial) {
    const float a_lo = rng.UniformFloat(-5, 5);
    const float a_hi = a_lo + rng.UniformFloat(0, 3);
    const float b_lo = rng.UniformFloat(-5, 5);
    const float b_hi = b_lo + rng.UniformFloat(0, 3);
    const Interval a(a_lo, a_hi);
    const Interval b(b_lo, b_hi);
    const float x = rng.UniformFloat(a_lo, a_hi);
    const float y = rng.UniformFloat(b_lo, b_hi);
    EXPECT_TRUE((a + b).Contains(x + y));
    EXPECT_TRUE((a - b).Contains(x - y));
    const Interval prod = a * b;
    // Allow one ulp-ish slack for float rounding at interval endpoints.
    EXPECT_GE(x * y, prod.lo - 1e-4f);
    EXPECT_LE(x * y, prod.hi + 1e-4f);
  }
}

TEST(IntervalTest, UnionCoversBoth) {
  const Interval u = Union(Interval(-1, 2), Interval(0, 5));
  EXPECT_FLOAT_EQ(u.lo, -1);
  EXPECT_FLOAT_EQ(u.hi, 5);
}

TEST(IntervalMatrixTest, FromExactHasZeroWidth) {
  Rng rng(3);
  FloatMatrix m(4, 4);
  m.FillGaussian(&rng, 1.0f);
  const IntervalMatrix im = IntervalMatrix::FromExact(m);
  EXPECT_FLOAT_EQ(im.MaxWidth(), 0.0f);
  EXPECT_TRUE(im.Contains(m));
}

TEST(IntervalMatrixTest, FromBoundsValidates) {
  FloatMatrix lo(2, 2);
  FloatMatrix hi(2, 2);
  lo.Fill(1.0f);
  hi.Fill(0.0f);  // lo > hi: invalid.
  EXPECT_TRUE(
      IntervalMatrix::FromBounds(lo, hi).status().IsInvalidArgument());
  hi.Fill(2.0f);
  auto im = IntervalMatrix::FromBounds(lo, hi);
  ASSERT_TRUE(im.ok());
  EXPECT_FLOAT_EQ(im->MaxWidth(), 1.0f);
  FloatMatrix inside(2, 2);
  inside.Fill(1.5f);
  EXPECT_TRUE(im->Contains(inside));
  inside.At(0, 0) = 3.0f;
  EXPECT_FALSE(im->Contains(inside));

  // The check covers every element: only the very last one is inverted.
  FloatMatrix wide_lo(3, 37);
  FloatMatrix wide_hi(3, 37);
  wide_lo.Fill(-1.0f);
  wide_hi.Fill(1.0f);
  wide_lo.At(2, 36) = 2.0f;
  EXPECT_TRUE(IntervalMatrix::FromBounds(wide_lo, wide_hi)
                  .status()
                  .IsInvalidArgument());
  // A NaN bound compares false, so it is not an inversion.
  wide_lo.At(2, 36) = std::nanf("");
  EXPECT_TRUE(IntervalMatrix::FromBounds(wide_lo, wide_hi).ok());
}

TEST(IntervalTensorTest, ContainsWithSlack) {
  Tensor t(1, 1, 2, 2);
  t.At(0, 0, 0, 0) = 1.0f;
  IntervalTensor it = IntervalTensor::FromExact(t);
  EXPECT_TRUE(it.Contains(t));
  Tensor t2 = t;
  t2.At(0, 0, 0, 0) = 1.05f;
  EXPECT_FALSE(it.Contains(t2));
  EXPECT_TRUE(it.Contains(t2, 0.1f));
}

TEST(IntervalTest, WidthAndContainsEdges) {
  const Interval degenerate(2.0f);
  EXPECT_FLOAT_EQ(degenerate.Width(), 0.0f);
  EXPECT_TRUE(degenerate.Contains(2.0f));
  EXPECT_FALSE(degenerate.Contains(2.0001f));
  const Interval negative(-3.0f, -1.0f);
  EXPECT_FLOAT_EQ(negative.Width(), 2.0f);
  EXPECT_TRUE(negative.Contains(-2.0f));
  EXPECT_FALSE(negative.Contains(0.0f));
  // Product of two all-negative intervals is positive.
  const Interval prod = negative * negative;
  EXPECT_FLOAT_EQ(prod.lo, 1.0f);
  EXPECT_FLOAT_EQ(prod.hi, 9.0f);
}

}  // namespace
}  // namespace modelhub
