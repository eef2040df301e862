#pragma once
// Int8 post-training quantization primitives: affine per-tensor scale +
// zero-point parameters, a streaming range calibrator (min-max, two-sided
// percentile, or TensorRT-style KL-entropy over a self-rescaling histogram),
// and the quantized GEMM with a fused dequantize + bias + activation
// epilogue that the nn quantized dense path serves through
// (docs/PERFORMANCE.md — "Calibrated int8 inference").
//
// Numeric contract:
//  * quantization is per-tensor affine, real ~= scale * (q - zero_point),
//    q an int8 in [-128, 127]; weights are quantized symmetrically
//    (zero_point 0, scale = max|w| / 127) and activations asymmetrically
//    from a calibrated [lo, hi] range that always includes 0;
//  * degenerate tensors (constant, all-zero, or non-finite ranges) quantize
//    with the identity parameters {scale 1, zero_point 0} instead of a zero
//    scale — no division by zero, no NaN, round(x) within clamp range;
//  * the int8 GEMM accumulates exactly in int32 (integer addition is
//    associative), so every thread schedule and SIMD grouping produces
//    bitwise-identical outputs, and row i of a batched product equals the
//    same row quantized and multiplied alone. The serving runtime's
//    batched == per-row guarantee therefore survives quantization.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace ahn::quant {

/// Affine per-tensor quantization parameters: real ~= scale * (q - zero_point).
struct QuantParams {
  double scale = 1.0;
  std::int32_t zero_point = 0;

  [[nodiscard]] bool is_identity() const noexcept {
    return scale == 1.0 && zero_point == 0;
  }
};

inline constexpr std::int32_t kQmin = -128;
inline constexpr std::int32_t kQmax = 127;

/// Asymmetric parameters covering [lo, hi] (widened to include 0 so the real
/// zero is exactly representable). Degenerate or non-finite ranges return
/// the identity parameters.
[[nodiscard]] QuantParams params_from_range(double lo, double hi) noexcept;

/// Symmetric parameters for a tensor with |x| <= max_abs (zero_point 0,
/// scale = max_abs / 127). Degenerate max_abs returns identity.
[[nodiscard]] QuantParams params_symmetric(double max_abs) noexcept;

/// Rounding used everywhere: multiply by the precomputed reciprocal and
/// round-to-nearest-even via nearbyint. One multiply + one roundsd per value
/// vectorizes (~7x faster than the divide + llround it replaces); the
/// identical expression in the scalar and bulk paths keeps them bitwise
/// consistent. NaN clamps to kQmax through the max/min chain (never UB).
[[nodiscard]] inline std::int8_t quantize_value(double x, const QuantParams& q) noexcept {
  const double inv = 1.0 / q.scale;
  const double r = std::nearbyint(x * inv) + static_cast<double>(q.zero_point);
  return static_cast<std::int8_t>(
      std::max(static_cast<double>(kQmin), std::min(static_cast<double>(kQmax), r)));
}

[[nodiscard]] inline double dequantize_value(std::int8_t v, const QuantParams& q) noexcept {
  return q.scale * (static_cast<std::int32_t>(v) - q.zero_point);
}

/// Vectorized quantize of a flat buffer. The int16 overload emits the same
/// int8-valued codes widened to int16 — the storage format i8_gemm consumes.
void quantize(std::span<const double> in, const QuantParams& q, std::int8_t* out) noexcept;
void quantize(std::span<const double> in, const QuantParams& q, std::int16_t* out) noexcept;

// --------------------------------------------------------------- Calibrator

enum class CalibMethod { MinMax, Percentile, Entropy };

[[nodiscard]] const char* calib_method_name(CalibMethod m) noexcept;

struct CalibOptions {
  CalibMethod method = CalibMethod::Percentile;
  /// Two-sided coverage for Percentile: the clip range keeps this percentage
  /// of the observed mass (99.9 -> clip the top/bottom 0.05% each).
  double percentile = 99.9;
  /// When true the emitted range is symmetric around zero (weights-style).
  bool symmetric = false;
};

/// Streaming range collector: exact min/max plus a fixed-bin histogram over
/// [-R, R] whose radius R doubles (merging bin pairs) whenever a sample
/// lands outside. Everything is sequential and order-deterministic: the same
/// observation stream yields bitwise-identical parameters regardless of the
/// OpenMP thread count of the forward passes that produced the activations
/// (the kernel layer's determinism contract makes those streams identical).
class Calibrator {
 public:
  static constexpr std::size_t kBins = 2048;  ///< even; bin 0 starts at -R

  Calibrator();

  void observe(std::span<const double> values);
  void observe(const Tensor& t) { observe(t.flat()); }

  [[nodiscard]] QuantParams params(const CalibOptions& opts = {}) const;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  void grow_to(double abs_value);
  [[nodiscard]] std::pair<double, double> percentile_range(double keep) const;
  [[nodiscard]] double entropy_threshold() const;

  double radius_ = 1.0;  ///< histogram covers [-radius_, radius_)
  std::vector<std::uint64_t> hist_;
  std::uint64_t count_ = 0;
  double min_ = 0.0, max_ = 0.0;
};

// ------------------------------------------------------------- Int8 kernels

/// The int8 GEMM: per-output dot products over the transposed (n x k)
/// weight layout, so both operands stream contiguously. Operands are
/// int8-VALUED codes stored widened to int16: a 16-bit lane lets the
/// compiler auto-vectorize the widening multiply-accumulate (pmaddwd-style),
/// which is 3-8x faster than scalar int8 loops while costing only 2
/// bytes/weight (still a 4x reduction over the fp64 weights).
///
/// out = act(aq.scale * wq.scale * (sum_p a16[i,p] * wt16[j,p]
///             - aq.zero_point * wt_colsum[j]) + bias[j])
///
/// a16:       (m x k) row-major quantized activations (params aq).
/// wt16:      (n x k) row-major — transposed quantized weights.
/// wt_colsum: length n, sum_p of the quantized weight column (exact int32).
/// Weights must be symmetric (wq.zero_point == 0). bias (length n, real
/// domain) may be null. Requires k * 16384 to fit int32 (k < 2^17).
void i8_gemm(std::size_t m, std::size_t n, std::size_t k, const std::int16_t* a16,
             const std::int16_t* wt16, const std::int32_t* wt_colsum,
             const QuantParams& aq, const QuantParams& wq, const double* bias,
             ops::EpilogueAct act, double* out) noexcept;

}  // namespace ahn::quant
