#include "nn/sequential.hpp"

#include "obs/trace.hpp"

namespace dnnspmv {

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  span_fwd_.push_back("nn." + layer->name() + ".fwd");
  span_bwd_.push_back("nn." + layer->name() + ".bwd");
  layers_.push_back(std::move(layer));
  return *this;
}

void Sequential::forward(const Tensor& in, Tensor& out, bool training,
                         Workspace& ws) const {
  DNNSPMV_CHECK_MSG(!layers_.empty(), "empty Sequential");
  const bool traced = obs::enabled();
  const Tensor* cur = &in;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    obs::Span span(traced ? std::string_view(span_fwd_[i])
                          : std::string_view());
    Tensor& act = ws.tensor(this, static_cast<int>(i));
    layers_[i]->forward(*cur, act, training, ws);
    cur = &act;
  }
  out = *cur;
}

void Sequential::backward(const Tensor& in, const Tensor&,
                          const Tensor& grad_out, Tensor& grad_in,
                          Workspace& ws) {
  const bool traced = obs::enabled();
  Tensor grad = grad_out;
  Tensor next;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    obs::Span span(traced ? std::string_view(span_bwd_[i])
                          : std::string_view());
    const Tensor& input =
        (i == 0) ? in : ws.tensor(this, static_cast<int>(i - 1));
    layers_[i]->backward(input, ws.tensor(this, static_cast<int>(i)), grad,
                         next, ws);
    grad = std::move(next);
    next = Tensor();
  }
  grad_in = std::move(grad);
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> ps;
  for (auto& l : layers_)
    for (Param* p : l->params()) ps.push_back(p);
  return ps;
}

std::vector<std::int64_t> Sequential::output_shape(
    const std::vector<std::int64_t>& in) const {
  std::vector<std::int64_t> s = in;
  for (const auto& l : layers_) s = l->output_shape(s);
  return s;
}

void Sequential::set_frozen(bool frozen) {
  for (auto& l : layers_)
    for (Param* p : l->params()) p->frozen = frozen;
}

}  // namespace dnnspmv
