// Sequential container: a linear stack of layers. Activations live in the
// caller's Workspace (slot i = output of layer i), where backward finds
// them to replay the pass; one Workspace is shared by every layer in the
// stack, so a whole forward/backward pass reuses one set of scratch
// buffers and the container itself is never written by a forward.
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace dnnspmv {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  Sequential& add(std::unique_ptr<Layer> layer);

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  using Layer::forward;
  using Layer::backward;
  void forward(const Tensor& in, Tensor& out, bool training,
               Workspace& ws) const override;
  void backward(const Tensor& in, const Tensor& out, const Tensor& grad_out,
                Tensor& grad_in, Workspace& ws) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "sequential"; }
  std::vector<std::int64_t> output_shape(
      const std::vector<std::int64_t>& in) const override;

  /// Sets the frozen flag on every parameter in this stack.
  void set_frozen(bool frozen);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  // Per-layer obs span names ("nn.<layer>.fwd"/".bwd"), built by add().
  std::vector<std::string> span_fwd_, span_bwd_;
};

}  // namespace dnnspmv
