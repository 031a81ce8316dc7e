#ifndef MODELHUB_PAS_SKETCH_H_
#define MODELHUB_PAS_SKETCH_H_

#include <array>
#include <cstdint>
#include <vector>

#include "pas/content_hash.h"
#include "tensor/float_matrix.h"

namespace modelhub {

/// Minhash slots per sketch. 24 slots bound the similarity estimate's
/// standard error to ~0.1, enough to separate "fine-tuned sibling" (most
/// blocks shared) from "unrelated model" (none) — the only distinction the
/// delta pairing needs.
inline constexpr int kSketchSlots = 24;

/// Floats per sketch block. A block is the unit of similarity: a sparse
/// edit invalidates only the blocks it touches, so two models sharing most
/// weights share most block tokens.
inline constexpr int64_t kSketchBlockFloats = 64;

/// A minhash sketch of one parameter matrix, built from position-tagged
/// blocks of the high-order bytes of each float (the top 16 bits — sign,
/// exponent, leading mantissa). Low-order mantissa noise (optimizer jitter,
/// re-serialization dust) leaves the tokens unchanged, so near-identical
/// fine-tunes sketch as near-identical sets; genuinely different weights
/// share essentially no tokens.
struct ParamSketch {
  int64_t rows = 0;
  int64_t cols = 0;
  std::array<uint64_t, kSketchSlots> slots{};
};

ParamSketch ComputeParamSketch(const FloatMatrix& matrix);

/// Estimated Jaccard similarity of two sketches' block-token sets: the
/// fraction of matching minhash slots. 0.0 when shapes differ (cross-shape
/// deltas are never candidates for similarity pairing).
double SketchSimilarity(const ParamSketch& a, const ParamSketch& b);

/// One proposed delta pairing: `to` should consider `from` as a delta
/// parent (indices into the caller's sketch vector).
struct SketchPairing {
  int from = 0;
  int to = 0;
  double similarity = 0.0;
};

/// Proposes up to `fanout` delta-parent candidates per matrix by content
/// similarity: matrices are grouped by shape and each one is compared
/// against a bounded window of earlier same-shape matrices, keeping the
/// most similar ones at or above `threshold`. Deterministic: pairings
/// depend only on the sketches and their order (ties prefer the earlier
/// index), never on thread count, and total work is bounded by
/// fanout-independent window * n comparisons.
std::vector<SketchPairing> SimilarDeltaPairs(
    const std::vector<ParamSketch>& sketches, int fanout, double threshold);

}  // namespace modelhub

#endif  // MODELHUB_PAS_SKETCH_H_
