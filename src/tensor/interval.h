#ifndef MODELHUB_TENSOR_INTERVAL_H_
#define MODELHUB_TENSOR_INTERVAL_H_

#include <algorithm>
#include <utility>

#include "common/result.h"
#include "tensor/float_matrix.h"
#include "tensor/tensor.h"

namespace modelhub {

/// A closed real interval [lo, hi]. The progressive query evaluator
/// (Sec. IV-D) propagates intervals through the network when only the
/// high-order bytes of the weights have been retrieved.
struct Interval {
  float lo = 0.0f;
  float hi = 0.0f;

  Interval() = default;
  Interval(float lo_in, float hi_in) : lo(lo_in), hi(hi_in) {}
  /// The degenerate interval [v, v].
  explicit Interval(float v) : lo(v), hi(v) {}

  float Width() const { return hi - lo; }
  bool Contains(float v) const { return lo <= v && v <= hi; }

  Interval operator+(const Interval& o) const {
    return Interval(lo + o.lo, hi + o.hi);
  }
  Interval operator-(const Interval& o) const {
    return Interval(lo - o.hi, hi - o.lo);
  }
  /// Sound interval product: min/max over the four endpoint products.
  Interval operator*(const Interval& o) const {
    const float a = lo * o.lo;
    const float b = lo * o.hi;
    const float c = hi * o.lo;
    const float d = hi * o.hi;
    return Interval(std::min(std::min(a, b), std::min(c, d)),
                    std::max(std::max(a, b), std::max(c, d)));
  }
};

inline Interval Union(const Interval& a, const Interval& b) {
  return Interval(std::min(a.lo, b.lo), std::max(a.hi, b.hi));
}

/// An interval-valued matrix represented as elementwise lower/upper bound
/// matrices of identical shape. Weight matrices recovered from partial
/// (high-order-byte) retrieval are IntervalMatrix instances.
class IntervalMatrix {
 public:
  IntervalMatrix() = default;

  /// Bounds must have identical shapes and satisfy lo <= hi elementwise.
  static Result<IntervalMatrix> FromBounds(FloatMatrix lo, FloatMatrix hi);

  /// The exact (zero-width) interval matrix [m, m].
  static IntervalMatrix FromExact(const FloatMatrix& m) {
    IntervalMatrix im;
    im.lo_ = m;
    im.hi_ = m;
    return im;
  }

  int64_t rows() const { return lo_.rows(); }
  int64_t cols() const { return lo_.cols(); }

  Interval At(int64_t r, int64_t c) const {
    return Interval(lo_.At(r, c), hi_.At(r, c));
  }

  const FloatMatrix& lo() const { return lo_; }
  const FloatMatrix& hi() const { return hi_; }

  /// Moves the (lo, hi) bound matrices out, leaving this matrix empty.
  /// Edited bounds become an IntervalMatrix again through FromBounds.
  std::pair<FloatMatrix, FloatMatrix> TakeBounds() && {
    return {std::move(lo_), std::move(hi_)};
  }

  /// Maximum elementwise width — a measure of retrieval uncertainty.
  float MaxWidth() const;

  /// True when every entry of `m` lies inside the corresponding interval
  /// (soundness check used by tests).
  bool Contains(const FloatMatrix& m) const;

 private:
  FloatMatrix lo_;
  FloatMatrix hi_;
};

/// Interval-valued NCHW activations: elementwise bounds on every neuron
/// output, carried layer to layer by the interval forward pass.
struct IntervalTensor {
  Tensor lo;
  Tensor hi;

  IntervalTensor() = default;
  IntervalTensor(int64_t n, int64_t c, int64_t h, int64_t w)
      : lo(n, c, h, w), hi(n, c, h, w) {}

  /// The degenerate interval tensor [t, t].
  static IntervalTensor FromExact(const Tensor& t) {
    IntervalTensor it;
    it.lo = t;
    it.hi = t;
    return it;
  }

  /// True when every entry of `t` lies within bounds (soundness check).
  bool Contains(const Tensor& t, float slack = 0.0f) const;
};

}  // namespace modelhub

#endif  // MODELHUB_TENSOR_INTERVAL_H_
