#include "nn/merge_net.hpp"

#include <algorithm>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dnnspmv {
namespace {

// Whole-net pass durations land in these histograms (µs) whenever tracing
// is on; the per-layer breakdown inside comes from Sequential's spans.
obs::Histogram& forward_hist() {
  static obs::Histogram& h =
      obs::MetricsRegistry::global().histogram("nn.forward_us");
  return h;
}

obs::Histogram& backward_hist() {
  static obs::Histogram& h =
      obs::MetricsRegistry::global().histogram("nn.backward_us");
  return h;
}

// Workspace tensor slots under the net's own address.
constexpr int kMergedSlot = 0;    // concatenated tower outputs
constexpr int kHeadOutSlot = 1;   // head output (the logits)
constexpr int kTowerOutSlot = 2;  // + t: output of tower t

}  // namespace

Sequential& MergeNet::add_tower() {
  towers_.push_back(std::make_unique<Sequential>());
  return *towers_.back();
}

void MergeNet::run_towers(const std::vector<Tensor>& inputs, Tensor& merged,
                          bool training, Workspace& ws) const {
  DNNSPMV_CHECK_MSG(inputs.size() == towers_.size(),
                    "expected " << towers_.size() << " inputs, got "
                                << inputs.size());
  const std::int64_t batch = inputs[0].dim(0);
  std::int64_t total = 0;
  for (std::size_t t = 0; t < towers_.size(); ++t) {
    Tensor& tout = ws.tensor(this, kTowerOutSlot + static_cast<int>(t));
    towers_[t]->forward(inputs[t], tout, training, ws);
    DNNSPMV_CHECK_MSG(tout.dim(0) == batch, "tower batch mismatch");
    total += tout.size() / batch;
  }
  merged.ensure2(batch, total);
  std::int64_t off = 0;
  for (std::size_t t = 0; t < towers_.size(); ++t) {
    const Tensor& tout =
        ws.tensor(this, kTowerOutSlot + static_cast<int>(t));
    const std::int64_t feat = tout.size() / batch;
    for (std::int64_t b = 0; b < batch; ++b) {
      const float* src = tout.data() + b * feat;
      std::copy(src, src + feat, merged.data() + b * total + off);
    }
    off += feat;
  }
}

void MergeNet::forward(const std::vector<Tensor>& inputs, Tensor& logits,
                       bool training) const {
  forward(inputs, logits, training, thread_workspace());
}

void MergeNet::forward(const std::vector<Tensor>& inputs, Tensor& logits,
                       bool training, Workspace& ws) const {
  obs::Span span("nn.forward", &forward_hist());
  Tensor& merged = ws.tensor(this, kMergedSlot);
  Tensor& head_out = ws.tensor(this, kHeadOutSlot);
  run_towers(inputs, merged, training, ws);
  head_.forward(merged, head_out, training, ws);
  logits = head_out;
}

void MergeNet::backward(const std::vector<Tensor>& inputs,
                        const Tensor& grad_logits) {
  backward(inputs, grad_logits, thread_workspace());
}

void MergeNet::backward(const std::vector<Tensor>& inputs,
                        const Tensor& grad_logits, Workspace& ws) {
  obs::Span span("nn.backward", &backward_hist());
  const Tensor& merged = ws.tensor(this, kMergedSlot);
  Tensor grad_merged;
  head_.backward(merged, ws.tensor(this, kHeadOutSlot), grad_logits,
                 grad_merged, ws);

  const std::int64_t batch = merged.dim(0);
  const std::int64_t total = merged.dim(1);
  for (std::size_t t = 0, off = 0; t < towers_.size(); ++t) {
    const Tensor& tout =
        ws.tensor(this, kTowerOutSlot + static_cast<int>(t));
    const std::int64_t feat = tout.size() / batch;
    Tensor gslice(tout.shape());
    for (std::int64_t b = 0; b < batch; ++b) {
      const float* src = grad_merged.data() + b * total + off;
      std::copy(src, src + feat, gslice.data() + b * feat);
    }
    Tensor gin;  // input gradient unused — inputs are data, not activations
    towers_[t]->backward(inputs[t], tout, gslice, gin, ws);
    off += static_cast<std::size_t>(feat);
  }
}

std::vector<Param*> MergeNet::params() {
  std::vector<Param*> ps;
  for (auto& t : towers_)
    for (Param* p : t->params()) ps.push_back(p);
  for (Param* p : head_.params()) ps.push_back(p);
  return ps;
}

void MergeNet::freeze_towers() {
  for (auto& t : towers_) t->set_frozen(true);
  head_.set_frozen(false);
}

void MergeNet::unfreeze_all() {
  for (auto& t : towers_) t->set_frozen(false);
  head_.set_frozen(false);
}

void MergeNet::codes(const std::vector<Tensor>& inputs, Tensor& out) const {
  codes(inputs, out, thread_workspace());
}

void MergeNet::codes(const std::vector<Tensor>& inputs, Tensor& out,
                     Workspace& ws) const {
  run_towers(inputs, out, /*training=*/false, ws);
}

}  // namespace dnnspmv
