#include "nn/quantization.hpp"

#include <algorithm>

namespace ahn::nn {

std::shared_ptr<const QuantizedDense> build_quantized_dense(
    const Tensor& weights, const quant::QuantParams& in_q) {
  const std::size_t in = weights.rows(), out = weights.cols();
  auto q = std::make_shared<QuantizedDense>();
  q->in = in;
  q->out = out;
  q->in_q = in_q;

  double max_abs = 0.0;
  for (const double v : weights.flat()) max_abs = std::max(max_abs, std::abs(v));
  q->w_q = quant::params_symmetric(max_abs);

  std::vector<std::int16_t> w16(in * out);
  quant::quantize(weights.flat(), q->w_q, w16.data());
  q->wt16.resize(out * in);
  for (std::size_t p = 0; p < in; ++p) {
    for (std::size_t j = 0; j < out; ++j) q->wt16[j * in + p] = w16[p * out + j];
  }
  q->wt_colsum.assign(out, 0);
  for (std::size_t j = 0; j < out; ++j) {
    std::int32_t sum = 0;
    for (std::size_t p = 0; p < in; ++p) sum += q->wt16[j * in + p];
    q->wt_colsum[j] = sum;
  }
  return q;
}

std::size_t quantize_network(Network& net, const Tensor& inputs,
                             const QuantizationOptions& opts) {
  AHN_CHECK_MSG(!inputs.empty() && inputs.rank() == 2, "calibration inputs must be a batch");
  // Calibration must see fp64 activations even when re-quantizing a network
  // that already serves int8.
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (auto* d = dynamic_cast<DenseLayer*>(&net.layer(i))) {
      d->set_precision(Precision::kFp64);
    }
  }
  std::size_t quantized = 0;
  Tensor x = inputs;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    Layer& layer = net.layer(i);
    if (auto* d = dynamic_cast<DenseLayer*>(&layer)) {
      quant::Calibrator calib;
      calib.observe(x);
      d->set_quantized(build_quantized_dense(d->weights(), calib.params(opts.calib)));
      ++quantized;
      // The quantized layer is installed but the walk continues in fp64 so
      // downstream calibrators see un-degraded activations.
      d->set_precision(Precision::kFp64);
    }
    x = layer.forward(x, /*training=*/false);
  }
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (auto* d = dynamic_cast<DenseLayer*>(&net.layer(i)); d != nullptr && d->has_quantized()) {
      d->set_precision(Precision::kInt8);
    }
  }
  if (opts.retain_calibration) {
    net.retain_calibration(std::make_shared<const Tensor>(inputs),
                           std::make_shared<const QuantizationOptions>(opts));
  }
  return quantized;
}

std::size_t quantize_surrogate(TrainedSurrogate& model, const Tensor& raw_inputs,
                               const QuantizationOptions& opts) {
  const Tensor calib_x =
      model.x_norm.has_value() ? model.x_norm->apply(raw_inputs) : raw_inputs;
  return quantize_network(model.net, calib_x, opts);
}

}  // namespace ahn::nn
