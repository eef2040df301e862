#pragma once
// Network-level post-training quantization: walks a trained Network, runs a
// calibration forward pass over representative inputs, and installs an
// immutable int8 payload into every DenseLayer. DeploymentPackage::build
// drives this during packaging, so quantized weights travel inside the model
// and replicate through ModelRegistry / cluster deploy fan-out for free.
//
// Serving invariants:
//  * activation parameters are static (calibrated once, never derived from
//    the batch being served) — a row's quantized codes are independent of
//    its batch-mates, preserving the batched == per-row bitwise guarantee;
//  * every installed layer serves quant::i8_gemm and nothing else, so a
//    quantized model computes the same bits in every process. Which layers
//    are quantized is the caller's choice (QuantizeSpec, or the NAS
//    precision axis), never a timing measurement.

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/network.hpp"
#include "nn/train.hpp"
#include "tensor/quantize.hpp"

namespace ahn::nn {

/// Immutable calibrated int8 payload for one DenseLayer. Codes are
/// int8-valued but stored widened to int16, the format the vectorized
/// kernel consumes (see tensor/quantize.hpp): 2*in*out bytes, a quarter of
/// the fp64 weights they replace.
struct QuantizedDense {
  std::size_t in = 0, out = 0;
  quant::QuantParams in_q;           ///< calibrated activation params
  quant::QuantParams w_q;            ///< symmetric weight params (zp == 0)
  std::vector<std::int16_t> wt16;    ///< (out x in) row-major, transposed
  std::vector<std::int32_t> wt_colsum;  ///< per-output weight sums (zp fixup)
};

struct QuantizationOptions {
  quant::CalibOptions calib;  ///< activation calibration (percentile default)
  /// Opt-in: park the calibration batch (and these options) on the Network
  /// so load_weights can automatically re-quantize for the new weights.
  /// Costs keeping the batch alive — default off.
  bool retain_calibration = false;
};

/// Builds the payload for one dense layer given its calibrated input params.
[[nodiscard]] std::shared_ptr<const QuantizedDense> build_quantized_dense(
    const Tensor& weights, const quant::QuantParams& in_q);

/// Calibrates on `inputs` (batch x in_features, already in the network's
/// input domain — normalize first for a TrainedSurrogate), installs payloads
/// and switches every DenseLayer to kInt8. Returns the number of layers
/// quantized. The network must not be mid-training.
std::size_t quantize_network(Network& net, const Tensor& inputs,
                             const QuantizationOptions& opts = {});

/// Convenience wrapper for a TrainedSurrogate: applies x_norm to raw inputs,
/// calibrates, quantizes the wrapped network. Returns layers quantized.
std::size_t quantize_surrogate(TrainedSurrogate& model, const Tensor& raw_inputs,
                               const QuantizationOptions& opts = {});

}  // namespace ahn::nn
