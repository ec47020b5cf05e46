#include "core/trainer.hpp"

#include <gtest/gtest.h>

#include "core/represent.hpp"

namespace dnnspmv {
namespace {

/// Tiny synthetic dataset: class 0 = bright source-0, class 1 = bright
/// source-1 (two 16x16 sources).
Dataset make_toy_dataset(int n, std::uint64_t seed) {
  Dataset ds;
  ds.candidates = {Format::kCoo, Format::kCsr};
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    Sample s;
    s.label = static_cast<std::int32_t>(rng.uniform_u64(2));
    for (int src = 0; src < 2; ++src) {
      Tensor t({16, 16});
      const float base = (src == s.label) ? 0.9f : 0.1f;
      for (std::int64_t j = 0; j < t.size(); ++j)
        t[j] = base + static_cast<float>(rng.uniform(-0.05, 0.05));
      s.inputs.push_back(std::move(t));
    }
    ds.samples.push_back(std::move(s));
  }
  return ds;
}

CnnSpec toy_spec() {
  CnnSpec spec;
  spec.input_hw = {{16, 16}, {16, 16}};
  spec.num_classes = 2;
  spec.conv1_channels = 4;
  spec.conv2_channels = 4;
  spec.head_hidden = 16;
  spec.dropout = 0.0;
  return spec;
}

TEST(AssembleBatch, LateMergeLayout) {
  const Dataset ds = make_toy_dataset(5, 1);
  Workspace ws;
  const auto& batch = assemble_batch(sample_inputs(ds, {0, 2, 4}), 2, ws);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].shape(), (std::vector<std::int64_t>{3, 1, 16, 16}));
  // Sample 2's source 1 lands at batch position 1 of input 1.
  EXPECT_EQ(batch[1].at4(1, 0, 3, 3), ds.samples[2].inputs[1].at2(3, 3));
}

TEST(AssembleBatch, EarlyMergeStacksChannels) {
  const Dataset ds = make_toy_dataset(4, 2);
  Workspace ws;
  const auto& batch = assemble_batch(sample_inputs(ds, {1, 3}), 1, ws);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].shape(), (std::vector<std::int64_t>{2, 2, 16, 16}));
  EXPECT_EQ(batch[0].at4(0, 1, 5, 5), ds.samples[1].inputs[1].at2(5, 5));
}

TEST(AssembleBatch, RejectsImpossibleFanIn) {
  const Dataset ds = make_toy_dataset(2, 3);
  Workspace ws;
  EXPECT_THROW(assemble_batch(sample_inputs(ds, {0}), 3, ws),
               std::runtime_error);
}

TEST(Trainer, LearnsToyTask) {
  const Dataset ds = make_toy_dataset(64, 4);
  MergeNet net = build_cnn(toy_spec());
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch = 16;
  cfg.lr = 3e-3;
  const TrainHistory h = train_cnn(net, ds, 2, cfg);
  EXPECT_EQ(h.epoch_loss.size(), 8u);
  EXPECT_LT(h.epoch_loss.back(), h.epoch_loss.front());
  EXPECT_GT(accuracy_cnn(net, ds, 2), 0.95);
}

TEST(Trainer, EarlyMergeAlsoLearns) {
  const Dataset ds = make_toy_dataset(64, 5);
  CnnSpec spec = toy_spec();
  spec.late_merge = false;
  MergeNet net = build_cnn(spec);
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch = 16;
  cfg.lr = 3e-3;
  train_cnn(net, ds, 1, cfg);
  EXPECT_GT(accuracy_cnn(net, ds, 1), 0.9);
}

TEST(Trainer, StepLossCountMatchesBatches) {
  const Dataset ds = make_toy_dataset(50, 6);
  MergeNet net = build_cnn(toy_spec());
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch = 16;
  const TrainHistory h = train_cnn(net, ds, 2, cfg);
  // ceil(50/16) = 4 steps per epoch.
  EXPECT_EQ(h.step_loss.size(), 8u);
}

TEST(Trainer, DeterministicGivenSeed) {
  const Dataset ds = make_toy_dataset(32, 7);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch = 8;
  cfg.seed = 99;
  MergeNet a = build_cnn(toy_spec());
  MergeNet b = build_cnn(toy_spec());
  const auto ha = train_cnn(a, ds, 2, cfg);
  const auto hb = train_cnn(b, ds, 2, cfg);
  ASSERT_EQ(ha.step_loss.size(), hb.step_loss.size());
  for (std::size_t i = 0; i < ha.step_loss.size(); ++i)
    EXPECT_DOUBLE_EQ(ha.step_loss[i], hb.step_loss[i]);
}

TEST(Trainer, PredictReturnsOnePerSample) {
  const Dataset ds = make_toy_dataset(23, 8);
  MergeNet net = build_cnn(toy_spec());
  const auto pred = predict_cnn(net, ds, 2, 10);  // uneven final batch
  EXPECT_EQ(pred.size(), 23u);
  for (std::int32_t p : pred) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 2);
  }
}

}  // namespace
}  // namespace dnnspmv
