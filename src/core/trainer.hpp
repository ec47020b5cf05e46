// Mini-batch CNN training loop (paper Figure 3, step 4).
#pragma once

#include <cstdint>
#include <vector>

#include "core/model_zoo.hpp"
#include "io/dataset.hpp"

namespace dnnspmv {

struct TrainConfig {
  int epochs = 15;
  int batch = 32;
  double lr = 1e-3;
  std::uint64_t seed = 123;
  bool verbose = false;
};

struct TrainHistory {
  std::vector<double> step_loss;   // cross-entropy per optimizer step
  std::vector<double> epoch_loss;  // mean loss per epoch
};

/// Packs samples — each one matrix's per-source representations — into
/// the NCHW batch tensors ws.batch_inputs() and returns them: one
/// [B, 1, H, W] tensor per source, or, when the network has a single tower
/// but samples carry several sources (early merging), one [B, S, H, W]
/// tensor with the sources stacked as channels. The tensors are reused by
/// the next pack into the same Workspace.
const std::vector<Tensor>& assemble_batch(
    const std::vector<const std::vector<Tensor>*>& samples, int net_inputs,
    Workspace& ws);

/// The inputs of samples `idx` of `data`, in order: a dataset batch in
/// assemble_batch's terms.
std::vector<const std::vector<Tensor>*> sample_inputs(
    const Dataset& data, const std::vector<std::int32_t>& idx);

/// Trains head `head` (and whatever feeds it) in place with Adam;
/// respects frozen parameters.
TrainHistory train_cnn(MergeNet& net, const Dataset& data,
                       int net_inputs, const TrainConfig& cfg,
                       std::size_t head = 0);

/// Argmax predictions for every sample, forwarded in batches of `batch`
/// on the calling thread's workspace.
std::vector<std::int32_t> predict_cnn(const MergeNet& net, const Dataset& data,
                                      int net_inputs, int batch = 64);

/// Fraction of samples predicted correctly.
double accuracy_cnn(const MergeNet& net, const Dataset& data, int net_inputs);

}  // namespace dnnspmv
