#include "tensor/interval.h"

namespace modelhub {

Result<IntervalMatrix> IntervalMatrix::FromBounds(FloatMatrix lo,
                                                  FloatMatrix hi) {
  if (lo.rows() != hi.rows() || lo.cols() != hi.cols()) {
    return Status::InvalidArgument("IntervalMatrix: bound shape mismatch");
  }
  // One branch-free pass over every element, so the loop vectorizes. A
  // NaN bound compares false and passes.
  const float* l = lo.data().data();
  const float* h = hi.data().data();
  unsigned inverted = 0;
  for (size_t i = 0; i < lo.data().size(); ++i) inverted |= l[i] > h[i];
  if (inverted != 0) return Status::InvalidArgument("IntervalMatrix: lo > hi");
  IntervalMatrix im;
  im.lo_ = std::move(lo);
  im.hi_ = std::move(hi);
  return im;
}

float IntervalMatrix::MaxWidth() const {
  float w = 0.0f;
  for (int64_t i = 0; i < lo_.size(); ++i) {
    w = std::max(w, hi_.data()[i] - lo_.data()[i]);
  }
  return w;
}

bool IntervalMatrix::Contains(const FloatMatrix& m) const {
  if (m.rows() != rows() || m.cols() != cols()) return false;
  for (int64_t i = 0; i < m.size(); ++i) {
    if (m.data()[i] < lo_.data()[i] || m.data()[i] > hi_.data()[i]) {
      return false;
    }
  }
  return true;
}

bool IntervalTensor::Contains(const Tensor& t, float slack) const {
  if (!t.SameShape(lo)) return false;
  for (size_t i = 0; i < t.data().size(); ++i) {
    if (t.data()[i] < lo.data()[i] - slack ||
        t.data()[i] > hi.data()[i] + slack) {
      return false;
    }
  }
  return true;
}

}  // namespace modelhub
