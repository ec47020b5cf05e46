// Inverted dropout: active only in training mode. The inference forward is
// a plain copy; a training forward draws a keep mask into the Workspace,
// where the matching backward reads it (a backward must follow a training
// forward on the same Workspace).
#pragma once

#include "nn/layer.hpp"

namespace dnnspmv {

class Dropout final : public Layer {
 public:
  Dropout(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
    DNNSPMV_CHECK(rate >= 0.0 && rate < 1.0);
  }

  using Layer::forward;
  using Layer::backward;
  void forward(const Tensor& in, Tensor& out, bool training,
               Workspace& ws) const override;
  void backward(const Tensor& in, const Tensor& out, const Tensor& grad_out,
                Tensor& grad_in, Workspace& ws) override;
  std::string name() const override { return "dropout"; }
  std::vector<std::int64_t> output_shape(
      const std::vector<std::int64_t>& in) const override {
    return in;
  }

 private:
  double rate_;
  // Training-only state: mask draws advance it, inference never touches
  // it. Training runs on a model no other thread is using.
  mutable Rng rng_;
};

}  // namespace dnnspmv
