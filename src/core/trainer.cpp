#include "core/trainer.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dnnspmv {
namespace {

// Trainer stats in the global registry. Counters/gauges are always live
// (they are the epoch/step trajectory a monitoring scrape reads); the
// step-duration histogram too — one clock pair per optimizer step is
// noise next to the forward/backward inside it.
struct TrainerObs {
  obs::Counter& epochs;
  obs::Counter& steps;
  obs::Gauge& last_loss;
  obs::Histogram& step_us;

  static TrainerObs& get() {
    static TrainerObs t{
        obs::MetricsRegistry::global().counter("train.epochs"),
        obs::MetricsRegistry::global().counter("train.steps"),
        obs::MetricsRegistry::global().gauge("train.last_loss"),
        obs::MetricsRegistry::global().histogram("train.step_us")};
    return t;
  }
};

}  // namespace

const std::vector<Tensor>& assemble_batch(
    const std::vector<const std::vector<Tensor>*>& samples, int net_inputs,
    Workspace& ws) {
  DNNSPMV_CHECK(!samples.empty());
  const std::vector<Tensor>& first = *samples[0];
  const int nsources = static_cast<int>(first.size());
  DNNSPMV_CHECK_MSG(net_inputs == nsources || net_inputs == 1,
                    "cannot feed " << nsources << " sources into "
                                   << net_inputs << " towers");
  const auto batch = static_cast<std::int64_t>(samples.size());
  // One tower per source: tensor s holds source s of every sample. Early
  // merging: one tensor, sample b's sources at channels [b*S, b*S + S).
  const bool stacked = net_inputs != nsources;
  std::vector<Tensor>& out = ws.batch_inputs();
  out.resize(static_cast<std::size_t>(net_inputs));
  for (int t = 0; t < net_inputs; ++t) {
    const auto& shape = first[static_cast<std::size_t>(t)].shape();
    out[static_cast<std::size_t>(t)].ensure(
        {batch, stacked ? nsources : 1, shape[0], shape[1]});
  }
  for (std::int64_t b = 0; b < batch; ++b) {
    for (int s = 0; s < nsources; ++s) {
      const std::size_t t = stacked ? 0 : static_cast<std::size_t>(s);
      const Tensor& src =
          (*samples[static_cast<std::size_t>(b)])[static_cast<std::size_t>(s)];
      DNNSPMV_CHECK(src.shape() == first[t].shape());
      const std::int64_t c = stacked ? b * nsources + s : b;
      std::copy(src.data(), src.data() + src.size(),
                out[t].data() + c * src.size());
    }
  }
  return out;
}

std::vector<const std::vector<Tensor>*> sample_inputs(
    const Dataset& data, const std::vector<std::int32_t>& idx) {
  std::vector<const std::vector<Tensor>*> out;
  out.reserve(idx.size());
  for (std::int32_t i : idx)
    out.push_back(&data.samples.at(static_cast<std::size_t>(i)).inputs);
  return out;
}

TrainHistory train_cnn(MergeNet& net, const Dataset& data, int net_inputs,
                       const TrainConfig& cfg, std::size_t head) {
  DNNSPMV_CHECK(!data.samples.empty());
  TrainHistory hist;
  Adam opt(net.params(), cfg.lr);
  Workspace ws;  // one scratch workspace for the whole training run
  Rng rng(cfg.seed);
  std::vector<std::int32_t> order(data.samples.size());
  std::iota(order.begin(), order.end(), 0);

  TrainerObs& tobs = TrainerObs::get();
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    obs::Span epoch_span("train.epoch");
    // Step decay: drop the learning rate for the final third of training.
    if (cfg.epochs >= 6 && epoch == (cfg.epochs * 2) / 3)
      opt.set_lr(cfg.lr * 0.3);
    std::shuffle(order.begin(), order.end(), rng);
    double epoch_loss = 0.0;
    int steps = 0;
    for (std::size_t off = 0; off < order.size();
         off += static_cast<std::size_t>(cfg.batch)) {
      obs::Span step_span("train.step");
      Timer step_timer;
      const std::size_t end =
          std::min(order.size(), off + static_cast<std::size_t>(cfg.batch));
      const std::vector<std::int32_t> idx(order.begin() + off,
                                          order.begin() + end);
      const std::vector<Tensor>& inputs =
          assemble_batch(sample_inputs(data, idx), net_inputs, ws);
      std::vector<std::int32_t> labels;
      labels.reserve(idx.size());
      for (std::int32_t i : idx)
        labels.push_back(data.samples[static_cast<std::size_t>(i)].label);

      Tensor logits;
      net.forward(inputs, logits, /*training=*/true, ws, head);
      Tensor grad;
      const double loss = softmax_cross_entropy(logits, labels, grad);
      net.backward(inputs, grad, ws, head);
      opt.step();

      hist.step_loss.push_back(loss);
      epoch_loss += loss;
      ++steps;
      tobs.steps.inc();
      tobs.last_loss.set(loss);
      tobs.step_us.observe_seconds(step_timer.seconds());
    }
    tobs.epochs.inc();
    hist.epoch_loss.push_back(epoch_loss / std::max(steps, 1));
    if (cfg.verbose)
      std::printf("  epoch %2d/%d  loss %.4f\n", epoch + 1, cfg.epochs,
                  hist.epoch_loss.back());
  }
  return hist;
}

std::vector<std::int32_t> predict_cnn(const MergeNet& net, const Dataset& data,
                                      int net_inputs, int batch) {
  Workspace& ws = thread_workspace();
  std::vector<std::int32_t> pred;
  pred.reserve(data.samples.size());
  for (std::size_t off = 0; off < data.samples.size();
       off += static_cast<std::size_t>(batch)) {
    const std::size_t end = std::min(
        data.samples.size(), off + static_cast<std::size_t>(batch));
    std::vector<std::int32_t> idx;
    for (std::size_t i = off; i < end; ++i)
      idx.push_back(static_cast<std::int32_t>(i));
    const std::vector<Tensor>& inputs =
        assemble_batch(sample_inputs(data, idx), net_inputs, ws);
    Tensor logits;
    net.forward(inputs, logits, /*training=*/false, ws);
    for (std::int32_t p : argmax_rows(logits)) pred.push_back(p);
  }
  return pred;
}

double accuracy_cnn(const MergeNet& net, const Dataset& data, int net_inputs) {
  const auto pred = predict_cnn(net, data, net_inputs);
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    if (pred[i] == data.samples[i].label) ++correct;
  return data.samples.empty()
             ? 0.0
             : static_cast<double>(correct) /
                   static_cast<double>(data.samples.size());
}

}  // namespace dnnspmv
