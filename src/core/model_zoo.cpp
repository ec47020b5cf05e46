#include "core/model_zoo.hpp"

#include "common/error.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/pool.hpp"

namespace dnnspmv {
namespace {

/// Appends the convolutional stack for one tower; returns its flattened
/// output feature count for input ch×h×w.
std::int64_t build_tower(Sequential& tower, std::int64_t ch, std::int64_t h,
                         std::int64_t w, const CnnSpec& spec, Rng& rng) {
  DNNSPMV_CHECK_MSG(h >= 8 && w >= 8, "input " << h << "x" << w
                                               << " too small for the CNN");
  tower.emplace<Conv2D>(ch, spec.conv1_channels, 3, 1, 1, rng);
  tower.emplace<ReLU>();
  tower.emplace<MaxPool2D>(2);
  tower.emplace<Conv2D>(spec.conv1_channels, spec.conv2_channels, 3, 2, 1,
                        rng);
  tower.emplace<ReLU>();
  tower.emplace<MaxPool2D>(2);
  if (h >= 128 && w >= 128) {
    // Third stage, as in the paper's 128×128 network (Figure 10).
    tower.emplace<Conv2D>(spec.conv2_channels, spec.conv2_channels, 3, 2, 1,
                          rng);
    tower.emplace<ReLU>();
    tower.emplace<MaxPool2D>(2);
  }
  const auto out = tower.output_shape({1, ch, h, w});
  return out[1] * out[2] * out[3];
}

/// Appends Dense(h) → ReLU → Dropout → Dense(K) over `feat` codes.
void build_head(Sequential& head, std::int64_t feat, const CnnSpec& spec,
                Rng& rng) {
  head.emplace<Dense>(feat, spec.head_hidden, rng);
  head.emplace<ReLU>();
  if (spec.dropout > 0.0) head.emplace<Dropout>(spec.dropout, rng.next_u64());
  head.emplace<Dense>(spec.head_hidden, spec.num_classes, rng);
}

}  // namespace

int num_net_inputs(const CnnSpec& spec) {
  return spec.late_merge ? static_cast<int>(spec.input_hw.size()) : 1;
}

MergeNet build_cnn(const CnnSpec& spec) {
  DNNSPMV_CHECK(!spec.input_hw.empty() && spec.num_classes >= 2);
  Rng rng(spec.seed);
  MergeNet net;
  std::int64_t feat = 0;
  if (spec.late_merge) {
    for (const auto& hw : spec.input_hw) {
      Sequential& tower = net.add_tower();
      feat += build_tower(tower, 1, hw[0], hw[1], spec, rng);
      tower.emplace<Flatten>();
    }
  } else {
    for (const auto& hw : spec.input_hw)
      DNNSPMV_CHECK_MSG(hw == spec.input_hw[0],
                        "early merge requires equal input shapes");
    Sequential& tower = net.add_tower();
    feat = build_tower(tower, static_cast<std::int64_t>(spec.input_hw.size()),
                       spec.input_hw[0][0], spec.input_hw[0][1], spec, rng);
    tower.emplace<Flatten>();
  }
  build_head(net.head(), feat, spec, rng);
  return net;
}

std::size_t add_cnn_head(MergeNet& net, const CnnSpec& spec) {
  const auto* first = dynamic_cast<const Dense*>(&net.head().layer(0));
  DNNSPMV_CHECK_MSG(first, "add_cnn_head on a net without a build_cnn head");
  Rng rng(spec.seed);
  build_head(net.add_head(), first->in_features(), spec, rng);
  return net.num_heads() - 1;
}

}  // namespace dnnspmv
