// Multi-tower networks for the paper's structure study (§5, Figures 6/7/10).
//
// MergeNet holds one convolutional tower per input source plus one or more
// fully connected heads. The towers' flattened outputs are concatenated —
// the paper's "CNN codes" of a matrix — and fed to a head:
//
//   * late-merging  — one tower per source (paper Figure 7/10);
//   * early-merging — callers stack the sources as channels of a single
//     input and use one tower (paper Figure 6).
//
// Head 0 always exists; added heads are further targets for the same codes
// (the selector's SpMM head), so one tower pass serves every head.
//
// freeze_towers(h) implements the "top evolvement" transfer-learning mode:
// the towers and every other head are pinned and only head h retrains on
// the target labels (§6.2).
//
// Thread safety: forward() and codes() are const and write only to the
// caller's Workspace (tower outputs, the merged codes, the head output and
// every Sequential activation live there), so one MergeNet serves
// concurrent forwards, one Workspace per thread. backward() reads what the
// training forward left in the same Workspace and accumulates parameter
// gradients — training runs on a net no other thread is using.
#pragma once

#include <functional>
#include <memory>

#include "nn/sequential.hpp"

namespace dnnspmv {

class MergeNet {
 public:
  MergeNet();

  /// Adds a tower; towers are indexed by the order of addition and consume
  /// the matching entry of the forward() input vector.
  Sequential& add_tower();

  /// Adds a head, indexed by order of addition after head 0.
  Sequential& add_head();

  /// Head `h`: fully connected layers over the concatenated tower outputs.
  Sequential& head(std::size_t h = 0) { return *heads_.at(h); }

  std::size_t num_towers() const { return towers_.size(); }
  std::size_t num_heads() const { return heads_.size(); }
  Sequential& tower(std::size_t i) { return *towers_.at(i); }

  /// Forward pass over a batch through head `head`; inputs[i] feeds tower i.
  /// All inputs must share the same batch dimension. Returns logits
  /// [batch, classes]. The Workspace overloads let callers (trainer, serve
  /// workers) supply their own scratch; the plain ones use
  /// thread_workspace().
  void forward(const std::vector<Tensor>& inputs, Tensor& logits,
               bool training) const;
  void forward(const std::vector<Tensor>& inputs, Tensor& logits,
               bool training, Workspace& ws, std::size_t head = 0) const;

  /// Inference over a batch whose rows go to different heads: the towers
  /// run once over the whole batch, then head h runs over the rows b with
  /// row_heads[b] == h, and row b of `logits` is its head's output.
  void forward(const std::vector<Tensor>& inputs,
               const std::vector<std::int32_t>& row_heads, Tensor& logits,
               Workspace& ws) const;

  /// Backward from logits gradient; parameter gradients accumulate. `ws`
  /// must be the Workspace the matching forward through `head` ran on.
  void backward(const std::vector<Tensor>& inputs, const Tensor& grad_logits);
  void backward(const std::vector<Tensor>& inputs, const Tensor& grad_logits,
                Workspace& ws, std::size_t head = 0);

  std::vector<Param*> params();
  std::vector<Param*> head_params(std::size_t h = 0) {
    return heads_.at(h)->params();
  }

  /// Pins the towers and every head but `trainable_head`.
  void freeze_towers(std::size_t trainable_head = 0);
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

  std::vector<std::unique_ptr<Sequential>> towers_;
  std::vector<std::unique_ptr<Sequential>> heads_;
};

/// The head half of a per-row-head forward, shared by MergeNet and the int8
/// executor: the rows of `merged` that row_heads sends to head h are
/// gathered into scratch keyed by `owner` in `ws`, classified by
/// `run_head(h, in, out)`, and land at the same rows of `logits`.
/// Per-sample arithmetic does not depend on the batch, so row b's logits
/// equal a forward of sample b alone through its head.
void route_heads(
    const Tensor& merged, const std::vector<std::int32_t>& row_heads,
    std::size_t num_heads, Tensor& logits, Workspace& ws, const void* owner,
    const std::function<void(std::size_t, const Tensor&, Tensor&)>& run_head);

}  // namespace dnnspmv
