#include "nn/merge_net.hpp"

#include <algorithm>

#include "common/error.hpp"
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
constexpr int kHeadOutSlot = 1;   // training head output (the logits)
constexpr int kTowerOutSlot = 2;  // + t: output of tower t

// route_heads' slots under its owner's address, clear of both nets' own.
constexpr int kRouteInSlot = 1000;   // one head's gathered input rows
constexpr int kRouteOutSlot = 1001;  // that head's output rows

}  // namespace

MergeNet::MergeNet() { heads_.push_back(std::make_unique<Sequential>()); }

Sequential& MergeNet::add_tower() {
  towers_.push_back(std::make_unique<Sequential>());
  return *towers_.back();
}

Sequential& MergeNet::add_head() {
  heads_.push_back(std::make_unique<Sequential>());
  return *heads_.back();
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
                       bool training, Workspace& ws, std::size_t head) const {
  obs::Span span("nn.forward", &forward_hist());
  Tensor& merged = ws.tensor(this, kMergedSlot);
  Tensor& head_out = ws.tensor(this, kHeadOutSlot);
  run_towers(inputs, merged, training, ws);
  heads_.at(head)->forward(merged, head_out, training, ws);
  logits = head_out;
}

void MergeNet::forward(const std::vector<Tensor>& inputs,
                       const std::vector<std::int32_t>& row_heads,
                       Tensor& logits, Workspace& ws) const {
  obs::Span span("nn.forward", &forward_hist());
  Tensor& merged = ws.tensor(this, kMergedSlot);
  run_towers(inputs, merged, /*training=*/false, ws);
  route_heads(merged, row_heads, heads_.size(), logits, ws, this,
              [&](std::size_t h, const Tensor& in, Tensor& out) {
                heads_[h]->forward(in, out, /*training=*/false, ws);
              });
}

void route_heads(
    const Tensor& merged, const std::vector<std::int32_t>& row_heads,
    std::size_t num_heads, Tensor& logits, Workspace& ws, const void* owner,
    const std::function<void(std::size_t, const Tensor&, Tensor&)>& run_head) {
  const std::int64_t batch = merged.dim(0);
  const std::int64_t feat = merged.dim(1);
  DNNSPMV_CHECK(static_cast<std::int64_t>(row_heads.size()) == batch);
  Tensor& in = ws.tensor(owner, kRouteInSlot);
  Tensor& out = ws.tensor(owner, kRouteOutSlot);
  std::int64_t routed = 0;
  for (std::size_t h = 0; h < num_heads; ++h) {
    const auto head = static_cast<std::int32_t>(h);
    const std::int64_t n = std::count(row_heads.begin(), row_heads.end(), head);
    if (n == 0) continue;
    routed += n;
    in.ensure2(n, feat);
    for (std::int64_t b = 0, r = 0; b < batch; ++b)
      if (row_heads[static_cast<std::size_t>(b)] == head)
        std::copy_n(merged.data() + b * feat, feat, in.data() + r++ * feat);
    run_head(h, in, out);
    const std::int64_t classes = out.dim(1);
    logits.ensure2(batch, classes);
    for (std::int64_t b = 0, r = 0; b < batch; ++b)
      if (row_heads[static_cast<std::size_t>(b)] == head)
        std::copy_n(out.data() + r++ * classes, classes,
                    logits.data() + b * classes);
  }
  DNNSPMV_CHECK_MSG(routed == batch, "row head out of range");
}

void MergeNet::backward(const std::vector<Tensor>& inputs,
                        const Tensor& grad_logits) {
  backward(inputs, grad_logits, thread_workspace());
}

void MergeNet::backward(const std::vector<Tensor>& inputs,
                        const Tensor& grad_logits, Workspace& ws,
                        std::size_t head) {
  obs::Span span("nn.backward", &backward_hist());
  const Tensor& merged = ws.tensor(this, kMergedSlot);
  Tensor grad_merged;
  heads_.at(head)->backward(merged, ws.tensor(this, kHeadOutSlot),
                            grad_logits, grad_merged, ws);

  const std::int64_t batch = merged.dim(0);
  const std::int64_t total = merged.dim(1);
  for (std::size_t t = 0, next = 0; t < towers_.size(); ++t) {
    const Tensor& tout =
        ws.tensor(this, kTowerOutSlot + static_cast<int>(t));
    const std::int64_t feat = tout.size() / batch;
    const std::size_t off = next;
    next += static_cast<std::size_t>(feat);
    // A frozen tower (top evolvement) takes no gradient: its codes are
    // fixed inputs to the head being trained.
    const std::vector<Param*> tparams = towers_[t]->params();
    if (std::all_of(tparams.begin(), tparams.end(),
                    [](const Param* p) { return p->frozen; }))
      continue;
    Tensor gslice(tout.shape());
    for (std::int64_t b = 0; b < batch; ++b) {
      const float* src = grad_merged.data() + b * total + off;
      std::copy(src, src + feat, gslice.data() + b * feat);
    }
    Tensor gin;  // input gradient unused — inputs are data, not activations
    towers_[t]->backward(inputs[t], tout, gslice, gin, ws);
  }
}

std::vector<Param*> MergeNet::params() {
  std::vector<Param*> ps;
  for (auto& t : towers_)
    for (Param* p : t->params()) ps.push_back(p);
  for (auto& h : heads_)
    for (Param* p : h->params()) ps.push_back(p);
  return ps;
}

void MergeNet::freeze_towers(std::size_t trainable_head) {
  DNNSPMV_CHECK(trainable_head < heads_.size());
  for (auto& t : towers_) t->set_frozen(true);
  for (std::size_t h = 0; h < heads_.size(); ++h)
    heads_[h]->set_frozen(h != trainable_head);
}

void MergeNet::unfreeze_all() {
  for (auto& t : towers_) t->set_frozen(false);
  for (auto& h : heads_) h->set_frozen(false);
}

void MergeNet::codes(const std::vector<Tensor>& inputs, Tensor& out) const {
  codes(inputs, out, thread_workspace());
}

void MergeNet::codes(const std::vector<Tensor>& inputs, Tensor& out,
                     Workspace& ws) const {
  run_towers(inputs, out, /*training=*/false, ws);
}

}  // namespace dnnspmv
