// CNN architectures for format selection (paper §5, Figure 10).
//
// The late-merging network has one convolutional tower per input source
// (binary/density pair, or row/column histograms); towers' flattened
// outputs are concatenated and classified by a fully connected head. The
// early-merging twin stacks all sources as channels of a single input and
// runs one tower — the structure the paper shows converging slower
// (Figure 11).
//
// Figure 10's exact stack targets 128×128 inputs. The builder scales the
// stack to the configured input size: every tower is
//   Conv(3×3×c1, s1, pad 1) → ReLU → MaxPool2
//   Conv(3×3×c2, s2, pad 1) → ReLU → MaxPool2
//   [Conv(3×3×c2, s2, pad 1) → ReLU → MaxPool2]   (only if H ≥ 128)
//   Flatten
// and each head is Dense(h) → ReLU → Dropout → Dense(K).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "nn/merge_net.hpp"

namespace dnnspmv {

struct CnnSpec {
  /// Per-source input sizes {H, W}; early merge requires all equal.
  std::vector<std::array<std::int64_t, 2>> input_hw;
  int num_classes = 4;
  bool late_merge = true;
  int conv1_channels = 12;
  int conv2_channels = 24;
  int head_hidden = 96;
  double dropout = 0.25;
  std::uint64_t seed = 7;
};

/// Builds the network. For early merge the single tower takes
/// input_hw.size() channels.
MergeNet build_cnn(const CnnSpec& spec);

/// Appends one more head shaped like build_cnn's (Dense(h) → ReLU →
/// Dropout → Dense(K) over the same codes), initialized from spec.seed,
/// and returns its index. The towers are untouched.
std::size_t add_cnn_head(MergeNet& net, const CnnSpec& spec);

/// Number of sources the built network's forward() expects (towers).
int num_net_inputs(const CnnSpec& spec);

}  // namespace dnnspmv
