#include "nn/dropout.hpp"

#include <algorithm>

namespace dnnspmv {
namespace {

constexpr int kMaskSlot = 0;  // keep-scale per element of the last forward

}  // namespace

void Dropout::forward(const Tensor& in, Tensor& out, bool training,
                      Workspace& ws) const {
  out.ensure(in.shape());
  const std::int64_t n = in.size();
  if (!training) {
    std::copy(in.data(), in.data() + n, out.data());
    return;
  }
  float* mask = ws.get(this, kMaskSlot, n);
  if (rate_ == 0.0) {
    std::fill(mask, mask + n, 1.0f);
    std::copy(in.data(), in.data() + n, out.data());
    return;
  }
  const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  for (std::int64_t i = 0; i < n; ++i) {
    mask[i] = rng_.bernoulli(rate_) ? 0.0f : keep_scale;
    out[i] = in[i] * mask[i];
  }
}

void Dropout::backward(const Tensor& in, const Tensor&,
                       const Tensor& grad_out, Tensor& grad_in,
                       Workspace& ws) {
  grad_in.ensure(in.shape());
  const std::int64_t n = in.size();
  const float* mask = ws.get(this, kMaskSlot, n);
  for (std::int64_t i = 0; i < n; ++i) grad_in[i] = grad_out[i] * mask[i];
}

}  // namespace dnnspmv
