// Layer abstraction for the CNN stack.
//
// Layers are stateless with respect to activations: forward takes the input
// batch and produces the output batch; backward re-receives both plus the
// output gradient and produces the input gradient. Parameterized layers
// expose their weights through Param so optimizers and serializers can walk
// a network generically. A Param can be frozen, which is the mechanism the
// "top evolvement" transfer-learning mode uses to pin the convolutional
// towers while retraining the head (paper §6.2).
//
// Inference forwards are const: every buffer a pass writes — conv's
// im2col matrices, GEMM staging, container activations, dropout masks —
// comes from the caller's Workspace (nn/workspace.hpp), so one network
// object can run concurrent forwards, one Workspace per thread. A training
// forward leaves what the matching backward reads in the same Workspace;
// backward is non-const (it accumulates parameter gradients). The
// workspace-less convenience overloads use thread_workspace().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/workspace.hpp"
#include "tensor/tensor.hpp"

namespace dnnspmv {

struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
  bool frozen = false;
};

class Layer {
 public:
  Layer() = default;
  virtual ~Layer() = default;
  Layer(const Layer&) = default;
  Layer& operator=(const Layer&) = default;
  Layer(Layer&&) = default;
  Layer& operator=(Layer&&) = default;

  /// Computes out from in. `training` toggles train-only behaviour
  /// (dropout); `ws` supplies scratch buffers reused across calls and
  /// receives whatever the matching backward needs.
  virtual void forward(const Tensor& in, Tensor& out, bool training,
                       Workspace& ws) const = 0;

  /// Computes grad_in from grad_out and accumulates parameter gradients.
  /// `in` and `out` are the tensors seen by the matching forward call,
  /// which ran on the same `ws`.
  virtual void backward(const Tensor& in, const Tensor& out,
                        const Tensor& grad_out, Tensor& grad_in,
                        Workspace& ws) = 0;

  /// Convenience overloads on the calling thread's workspace.
  /// (Derived classes re-expose them with `using Layer::forward;`.)
  void forward(const Tensor& in, Tensor& out, bool training) const {
    forward(in, out, training, thread_workspace());
  }
  void backward(const Tensor& in, const Tensor& out, const Tensor& grad_out,
                Tensor& grad_in) {
    backward(in, out, grad_out, grad_in, thread_workspace());
  }

  virtual std::vector<Param*> params() { return {}; }

  virtual std::string name() const = 0;

  /// Shape of the output batch given the input batch shape.
  virtual std::vector<std::int64_t> output_shape(
      const std::vector<std::int64_t>& in) const = 0;
};

/// Zeroes the gradients of every parameter in `ps`.
void zero_grads(const std::vector<Param*>& ps);

/// Total element count across parameter values.
std::int64_t param_count(const std::vector<Param*>& ps);

}  // namespace dnnspmv
