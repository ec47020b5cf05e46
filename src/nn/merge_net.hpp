// Multi-tower networks for the paper's structure study (§5, Figures 6/7/10).
//
// MergeNet holds one convolutional tower per input source plus a fully
// connected head. The towers' flattened outputs are concatenated and fed to
// the head:
//
//   * late-merging  — one tower per source (paper Figure 7/10);
//   * early-merging — callers stack the sources as channels of a single
//     input and use one tower (paper Figure 6).
//
// freeze_towers() implements the "top evolvement" transfer-learning mode:
// the tower parameters are pinned and only the head retrains on the target
// platform's labels (§6.2). The concatenated tower output is exactly what
// the paper calls the "CNN codes" of a matrix.
//
// Thread safety: forward() and codes() are const and write only to the
// caller's Workspace (tower outputs, the merged codes, the head output and
// every Sequential activation live there), so one MergeNet serves
// concurrent forwards, one Workspace per thread. backward() reads what the
// training forward left in the same Workspace and accumulates parameter
// gradients — training runs on a net no other thread is using.
#pragma once

#include <memory>

#include "nn/sequential.hpp"

namespace dnnspmv {

class MergeNet {
 public:
  MergeNet() = default;

  /// Adds a tower; towers are indexed by the order of addition and consume
  /// the matching entry of the forward() input vector.
  Sequential& add_tower();

  /// The fully connected head applied to the concatenated tower outputs.
  Sequential& head() { return head_; }

  std::size_t num_towers() const { return towers_.size(); }
  Sequential& tower(std::size_t i) { return *towers_.at(i); }

  /// Forward pass over a batch; inputs[i] feeds tower i. All inputs must
  /// share the same batch dimension. Returns logits [batch, classes]. The
  /// Workspace overloads let callers (trainer, serve workers) supply their
  /// own scratch; the plain ones use thread_workspace().
  void forward(const std::vector<Tensor>& inputs, Tensor& logits,
               bool training) const;
  void forward(const std::vector<Tensor>& inputs, Tensor& logits,
               bool training, Workspace& ws) const;

  /// Backward from logits gradient; parameter gradients accumulate. `ws`
  /// must be the Workspace the matching forward ran on.
  void backward(const std::vector<Tensor>& inputs, const Tensor& grad_logits);
  void backward(const std::vector<Tensor>& inputs, const Tensor& grad_logits,
                Workspace& ws);

  std::vector<Param*> params();
  std::vector<Param*> head_params() { return head_.params(); }

  void freeze_towers();
  void unfreeze_all();

  /// The concatenated flattened tower outputs for a batch ("CNN codes").
  void codes(const std::vector<Tensor>& inputs, Tensor& out) const;
  void codes(const std::vector<Tensor>& inputs, Tensor& out,
             Workspace& ws) const;

 private:
  /// Runs every tower into its Workspace slot and concatenates the
  /// flattened outputs into `merged`.
  void run_towers(const std::vector<Tensor>& inputs, Tensor& merged,
                  bool training, Workspace& ws) const;

  // towers_ stays the first member: head_ must not share the MergeNet's
  // address, since both key Workspace tensors by `this`.
  std::vector<std::unique_ptr<Sequential>> towers_;
  Sequential head_;
};

}  // namespace dnnspmv
