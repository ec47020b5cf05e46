#include "nn/flatten.hpp"

#include <algorithm>

namespace dnnspmv {

std::vector<std::int64_t> Flatten::output_shape(
    const std::vector<std::int64_t>& in) const {
  DNNSPMV_CHECK(!in.empty());
  std::int64_t f = 1;
  for (std::size_t i = 1; i < in.size(); ++i) f *= in[i];
  return {in[0], f};
}

void Flatten::forward(const Tensor& in, Tensor& out, bool,
                      Workspace&) const {
  out.ensure(output_shape(in.shape()));
  std::copy(in.data(), in.data() + in.size(), out.data());
}

void Flatten::backward(const Tensor& in, const Tensor&,
                       const Tensor& grad_out, Tensor& grad_in,
                       Workspace&) {
  grad_in.ensure(in.shape());
  std::copy(grad_out.data(), grad_out.data() + grad_out.size(),
            grad_in.data());
}

}  // namespace dnnspmv
