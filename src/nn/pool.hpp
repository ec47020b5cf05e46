// 2×2-style max pooling (NCHW). Stateless: forward keeps no argmax;
// backward re-derives each window's maximum from the input it is handed.
#pragma once

#include "nn/layer.hpp"

namespace dnnspmv {

class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(std::int64_t k = 2, std::int64_t stride = 0)
      : k_(k), stride_(stride == 0 ? k : stride) {
    DNNSPMV_CHECK(k_ > 0 && stride_ > 0);
  }

  using Layer::forward;
  using Layer::backward;
  void forward(const Tensor& in, Tensor& out, bool training,
               Workspace& ws) const override;
  void backward(const Tensor& in, const Tensor& out, const Tensor& grad_out,
                Tensor& grad_in, Workspace& ws) override;
  std::string name() const override { return "maxpool2d"; }
  std::vector<std::int64_t> output_shape(
      const std::vector<std::int64_t>& in) const override;

 private:
  std::int64_t k_, stride_;
};

}  // namespace dnnspmv
