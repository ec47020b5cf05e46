#include "nn/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <map>
#include <ostream>

#include "common/error.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "tensor/im2col.hpp"
#include "tensor/pack.hpp"

namespace dnnspmv {
namespace {

constexpr std::uint32_t kQwsMagic = 0x31535751;  // "QWS1"

// QuantizedMergeNet's Workspace slots under its own address: tensors
// (inter-layer activations), floats (GEMM staging) and bytes (quantized
// input and col matrix).
constexpr int kPingSlot = 0;
constexpr int kPongSlot = 1;
constexpr int kMergedSlot = 2;
constexpr int kTowerOutSlot = 3;  // + t: output of tower t
constexpr int kMatSlot = 0;
constexpr int kQinSlot = 0;
constexpr int kQcolSlot = 1;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void read_pod(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  DNNSPMV_CHECK_MSG(is.good(), "truncated quantized weight set");
}

// Affine u7 parameters for an observed range. The range always includes 0
// (so the zero-point is representable and padding dequantizes to exactly
// the zero-point byte), and degenerate all-zero ranges fall back to
// scale 1 / zp 0.
void range_to_qparams(float lo, float hi, float* scale, std::int32_t* zp) {
  lo = std::min(lo, 0.0f);
  hi = std::max(hi, 0.0f);
  const float s = (hi - lo) / 127.0f;
  if (!(s > 0.0f)) {
    *scale = 1.0f;
    *zp = 0;
    return;
  }
  *scale = s;
  *zp = static_cast<std::int32_t>(
      std::min(127.0f, std::max(0.0f, std::nearbyint(-lo / s))));
}

}  // namespace

void MinMaxObserver::observe(const float* x, std::int64_t n) {
  if (n <= 0) return;
  float lo = seen_ ? lo_ : x[0];
  float hi = seen_ ? hi_ : x[0];
  for (std::int64_t i = 0; i < n; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  lo_ = lo;
  hi_ = hi;
  seen_ = true;
}

HistogramObserver::HistogramObserver(std::int64_t bins)
    : counts_(static_cast<std::size_t>(bins), 0) {
  DNNSPMV_CHECK(bins >= 2 && bins % 2 == 0);
}

void HistogramObserver::observe(const float* x, std::int64_t n) {
  const std::int64_t bins = static_cast<std::int64_t>(counts_.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (!(a >= 0.0f)) continue;  // drop NaNs rather than poison the range
    if (a > range_) {
      // Double the range (merging bin pairs) until the sample fits; the
      // first observation seeds the range directly.
      if (range_ == 0.0f) {
        range_ = a > 0.0f ? a : 1.0f;
      } else {
        while (a > range_) {
          for (std::int64_t b = 0; b < bins / 2; ++b)
            counts_[b] = counts_[2 * b] + counts_[2 * b + 1];
          std::fill(counts_.begin() + bins / 2, counts_.end(), 0);
          range_ *= 2.0f;
        }
      }
    }
    std::int64_t bin = static_cast<std::int64_t>(a / range_ *
                                                 static_cast<float>(bins));
    bin = std::min(bin, bins - 1);
    counts_[static_cast<std::size_t>(bin)]++;
    total_++;
  }
}

float HistogramObserver::percentile(double pct) const {
  if (total_ == 0) return 0.0f;
  const std::int64_t bins = static_cast<std::int64_t>(counts_.size());
  const double target = static_cast<double>(total_) * pct / 100.0;
  double cum = 0.0;
  for (std::int64_t b = 0; b < bins; ++b) {
    cum += static_cast<double>(counts_[static_cast<std::size_t>(b)]);
    if (cum >= target)
      return static_cast<float>(b + 1) / static_cast<float>(bins) * range_;
  }
  return range_;
}

const QLayer* QuantizedWeightSet::find(std::int32_t seq,
                                       std::int32_t index) const {
  for (const QLayer& l : layers)
    if (l.seq == seq && l.index == index) return &l;
  return nullptr;
}

void QuantizedWeightSet::save(std::ostream& os) const {
  write_pod(os, kQwsMagic);
  write_pod(os, static_cast<std::uint32_t>(layers.size()));
  for (const QLayer& l : layers) {
    write_pod(os, l.seq);
    write_pod(os, l.index);
    write_pod(os, l.kind);
    write_pod(os, l.rows);
    write_pod(os, l.cols);
    write_pod(os, l.act_scale);
    write_pod(os, l.act_zp);
    os.write(reinterpret_cast<const char*>(l.w_scale.data()),
             static_cast<std::streamsize>(l.w_scale.size() * sizeof(float)));
    os.write(reinterpret_cast<const char*>(l.bias.data()),
             static_cast<std::streamsize>(l.bias.size() * sizeof(float)));
    os.write(reinterpret_cast<const char*>(l.wq.data()),
             static_cast<std::streamsize>(l.wq.size()));
  }
  DNNSPMV_CHECK_MSG(os.good(), "quantized weight set write failed");
}

QuantizedWeightSet QuantizedWeightSet::load(std::istream& is) {
  std::uint32_t magic = 0;
  read_pod(is, magic);
  DNNSPMV_CHECK_ERRC(magic == kQwsMagic, errc::data_error,
                     "bad quantized weight set magic");
  std::uint32_t n = 0;
  read_pod(is, n);
  QuantizedWeightSet qws;
  qws.layers.resize(n);
  for (QLayer& l : qws.layers) {
    read_pod(is, l.seq);
    read_pod(is, l.index);
    read_pod(is, l.kind);
    read_pod(is, l.rows);
    read_pod(is, l.cols);
    read_pod(is, l.act_scale);
    read_pod(is, l.act_zp);
    DNNSPMV_CHECK_ERRC(
        l.rows > 0 && l.cols > 0 && (l.kind == QLayer::kConv ||
                                     l.kind == QLayer::kDense),
        errc::data_error, "corrupt quantized layer record");
    l.w_scale.resize(static_cast<std::size_t>(l.rows));
    l.bias.resize(static_cast<std::size_t>(l.rows));
    l.wq.resize(static_cast<std::size_t>(l.rows * l.cols));
    is.read(reinterpret_cast<char*>(l.w_scale.data()),
            static_cast<std::streamsize>(l.w_scale.size() * sizeof(float)));
    is.read(reinterpret_cast<char*>(l.bias.data()),
            static_cast<std::streamsize>(l.bias.size() * sizeof(float)));
    is.read(reinterpret_cast<char*>(l.wq.data()),
            static_cast<std::streamsize>(l.wq.size()));
    DNNSPMV_CHECK_MSG(is.good(), "truncated quantized weight set");
  }
  return qws;
}

void quantize_weights_per_channel(const float* w, std::int64_t rows,
                                  std::int64_t cols, std::int8_t* wq,
                                  float* scales) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* row = w + i * cols;
    float amax = 0.0f;
    for (std::int64_t j = 0; j < cols; ++j)
      amax = std::max(amax, std::fabs(row[j]));
    const float s = amax > 0.0f ? amax / 127.0f : 1.0f;
    scales[i] = s;
    std::int8_t* qrow = wq + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) {
      const float q = std::nearbyint(row[j] / s);
      qrow[j] = static_cast<std::int8_t>(
          std::min(127.0f, std::max(-127.0f, q)));
    }
  }
}

QuantizedWeightSet quantize_merge_net(
    MergeNet& net, const std::vector<std::vector<Tensor>>& calib,
    const QuantConfig& cfg) {
  DNNSPMV_CHECK_ERRC(!calib.empty(), errc::invalid_argument,
                     "quantize_merge_net needs a calibration set");
  const std::int32_t ntowers = static_cast<std::int32_t>(net.num_towers());

  struct Obs {
    MinMaxObserver mm;
    HistogramObserver hist;
  };
  std::map<std::pair<std::int32_t, std::int32_t>, Obs> observers;
  auto observe = [&](std::int32_t seq, std::int32_t index, const Tensor& t) {
    Obs& o = observers[{seq, index}];
    o.mm.observe(t.data(), t.size());
    o.hist.observe(t.data(), t.size());
  };

  // Calibration pass: the net's own inference forward (towers, then every
  // head), so dropout and batchless layers behave as they will at serve
  // time. Each conv/dense input is read back from the Workspace, where
  // Sequential leaves layer i's output under (sequence, i).
  Workspace ws;
  Tensor codes, head_out;
  std::int64_t walked = 0;
  const auto observe_seq = [&](Sequential& seq, std::int32_t seq_id,
                               const Tensor& in) {
    for (std::size_t li = 0; li < seq.num_layers(); ++li)
      if (dynamic_cast<Conv2D*>(&seq.layer(li)) ||
          dynamic_cast<Dense*>(&seq.layer(li)))
        observe(seq_id, static_cast<std::int32_t>(li),
                li == 0 ? in : ws.tensor(&seq, static_cast<int>(li) - 1));
  };
  for (const std::vector<Tensor>& batch : calib) {
    DNNSPMV_CHECK_ERRC(batch.size() == static_cast<std::size_t>(ntowers),
                       errc::invalid_argument,
                       "calibration batch has " << batch.size()
                                                << " inputs, net has "
                                                << ntowers << " towers");
    if (walked >= cfg.max_calib_samples) break;
    net.codes(batch, codes, ws);
    for (std::int32_t t = 0; t < ntowers; ++t)
      observe_seq(net.tower(static_cast<std::size_t>(t)), t, batch[t]);
    for (std::size_t h = 0; h < net.num_heads(); ++h) {
      net.head(h).forward(codes, head_out, /*training=*/false, ws);
      observe_seq(net.head(h), head_seq_id(h), codes);
    }
    walked += batch[0].dim(0);
  }

  // Convert: per observed layer, weight scales from the weights themselves
  // and activation qparams from the chosen observer.
  QuantizedWeightSet qws;
  auto convert = [&](Sequential& seq, std::int32_t seq_id) {
    for (std::size_t li = 0; li < seq.num_layers(); ++li) {
      Layer& layer = seq.layer(li);
      const bool is_conv = dynamic_cast<Conv2D*>(&layer) != nullptr;
      const bool is_dense = dynamic_cast<Dense*>(&layer) != nullptr;
      if (!is_conv && !is_dense) continue;
      const auto it =
          observers.find({seq_id, static_cast<std::int32_t>(li)});
      DNNSPMV_CHECK_ERRC(it != observers.end() && it->second.mm.seen(),
                         errc::data_error,
                         "layer never observed during calibration");
      const Obs& o = it->second;
      float lo = o.mm.lo(), hi = o.mm.hi();
      if (cfg.observer == QuantConfig::Observer::kPercentile) {
        const float bound = o.hist.percentile(cfg.percentile);
        lo = std::max(lo, -bound);
        hi = std::min(hi, bound);
      }
      QLayer ql;
      ql.seq = seq_id;
      ql.index = static_cast<std::int32_t>(li);
      ql.kind = is_conv ? QLayer::kConv : QLayer::kDense;
      range_to_qparams(lo, hi, &ql.act_scale, &ql.act_zp);
      const std::vector<Param*> params = layer.params();
      const Tensor& w = params[0]->value;
      const Tensor& b = params[1]->value;
      ql.rows = w.dim(0);
      ql.cols = w.dim(1);
      ql.w_scale.resize(static_cast<std::size_t>(ql.rows));
      ql.wq.resize(static_cast<std::size_t>(ql.rows * ql.cols));
      quantize_weights_per_channel(w.data(), ql.rows, ql.cols, ql.wq.data(),
                                   ql.w_scale.data());
      ql.bias.assign(b.data(), b.data() + b.size());
      qws.layers.push_back(std::move(ql));
    }
  };
  for (std::int32_t t = 0; t < ntowers; ++t)
    convert(net.tower(static_cast<std::size_t>(t)), t);
  for (std::size_t h = 0; h < net.num_heads(); ++h)
    convert(net.head(h), head_seq_id(h));
  return qws;
}

// ---------------------------------------------------------------------------
// QuantizedMergeNet

QuantizedMergeNet::QuantizedMergeNet(MergeNet& net,
                                     const QuantizedWeightSet& qws) {
  tower_plans_.resize(net.num_towers());
  head_plans_.resize(net.num_heads());
  for (std::size_t t = 0; t < net.num_towers(); ++t)
    compile(net.tower(t), static_cast<std::int32_t>(t), qws,
            tower_plans_[t]);
  for (std::size_t h = 0; h < net.num_heads(); ++h)
    compile(net.head(h), head_seq_id(h), qws, head_plans_[h]);
  std::size_t used = 0;
  for (const auto* plans : {&tower_plans_, &head_plans_})
    for (const std::vector<Op>& plan : *plans)
      for (const Op& op : plan) used += op.kind != Op::Kind::kLayer ? 1 : 0;
  DNNSPMV_CHECK_ERRC(used == qws.layers.size(), errc::data_error,
                     "quantized weight set has " << qws.layers.size()
                                                 << " layers, net consumed "
                                                 << used);
}

void QuantizedMergeNet::compile(Sequential& seq, std::int32_t seq_id,
                                const QuantizedWeightSet& qws,
                                std::vector<Op>& plan) {
  plan.clear();
  for (std::size_t li = 0; li < seq.num_layers(); ++li) {
    Layer& layer = seq.layer(li);
    if (dynamic_cast<Dropout*>(&layer)) continue;  // inference identity
    Conv2D* conv = dynamic_cast<Conv2D*>(&layer);
    Dense* dense = dynamic_cast<Dense*>(&layer);
    if (!conv && !dense) {
      Op op;
      op.kind = Op::Kind::kLayer;
      op.layer = &layer;
      plan.push_back(std::move(op));
      continue;
    }
    const QLayer* ql = qws.find(seq_id, static_cast<std::int32_t>(li));
    DNNSPMV_CHECK_ERRC(ql != nullptr, errc::data_error,
                       "no quantized weights for layer " << li << " of seq "
                                                         << seq_id);
    DNNSPMV_CHECK_ERRC(
        ql->kind == (conv ? QLayer::kConv : QLayer::kDense),
        errc::data_error, "quantized layer kind mismatch at " << li);
    const Tensor& w = layer.params()[0]->value;
    DNNSPMV_CHECK_ERRC(ql->rows == w.dim(0) && ql->cols == w.dim(1),
                       errc::data_error,
                       "quantized weight shape [" << ql->rows << ", "
                                                  << ql->cols
                                                  << "] does not match net");
    Op op;
    op.kind = conv ? Op::Kind::kConv : Op::Kind::kDense;
    op.conv = conv;
    op.dense = dense;
    op.packed = qgemm_pack_weights(ql->rows, ql->cols, ql->wq.data());
    op.act_inv_scale = 1.0f / ql->act_scale;
    op.act_zp = ql->act_zp;
    op.out_scale.resize(static_cast<std::size_t>(ql->rows));
    op.bias_eff.resize(static_cast<std::size_t>(ql->rows));
    for (std::int64_t i = 0; i < ql->rows; ++i) {
      const double os = static_cast<double>(ql->w_scale[i]) *
                        static_cast<double>(ql->act_scale);
      std::int64_t wsum = 0;
      const std::int8_t* row = ql->wq.data() + i * ql->cols;
      for (std::int64_t j = 0; j < ql->cols; ++j) wsum += row[j];
      op.out_scale[static_cast<std::size_t>(i)] = static_cast<float>(os);
      op.bias_eff[static_cast<std::size_t>(i)] = static_cast<float>(
          static_cast<double>(ql->bias[static_cast<std::size_t>(i)]) -
          os * static_cast<double>(ql->act_zp) *
              static_cast<double>(wsum));
    }
    // A ReLU right after a quantized layer becomes a free epilogue max.
    if (li + 1 < seq.num_layers() &&
        dynamic_cast<ReLU*>(&seq.layer(li + 1))) {
      op.relu = true;
      ++li;
    }
    plan.push_back(std::move(op));
  }
}

void QuantizedMergeNet::run_conv(const Op& op, const Tensor& in, Tensor& out,
                                 Workspace& ws) const {
  const Conv2D& c = *op.conv;
  const ConvGeom g{c.in_channels(), in.dim(2),     in.dim(3),
                   c.kernel_size(), c.kernel_size(), c.stride(),
                   c.stride(),      c.padding(),     c.padding()};
  const std::int64_t batch = in.dim(0);
  const std::int64_t opix = g.out_h() * g.out_w();
  const std::int64_t psz = g.patch_size();
  const std::int64_t ncols = batch * opix;
  const std::int64_t oc = c.out_channels();
  out.ensure({batch, oc, g.out_h(), g.out_w()});

  std::uint8_t* qin = ws.bytes(this, kQinSlot, in.size());
  std::uint8_t* qcol = ws.bytes(this, kQcolSlot, psz * ncols);
  quantize_u7(in.data(), in.size(), op.act_inv_scale, op.act_zp, qin);
  im2col_batch_u8(g, batch, qin, qcol, static_cast<std::uint8_t>(op.act_zp));
  if (batch == 1) {
    // The [oc, opix] GEMM output IS the NCHW sample: dequantize straight
    // into the output tensor, no scatter pass — the cold-miss case.
    qgemm_u7(op.packed, ncols, qcol, ncols, 1, op.out_scale.data(),
             op.bias_eff.data(), op.relu, out.data(), ncols);
    return;
  }
  float* mat = ws.get(this, kMatSlot, oc * ncols);
  qgemm_u7(op.packed, ncols, qcol, ncols, 1, op.out_scale.data(),
           op.bias_eff.data(), op.relu, mat, ncols);
  for (std::int64_t n = 0; n < batch; ++n)
    for (std::int64_t ch = 0; ch < oc; ++ch)
      std::memcpy(out.data() + (n * oc + ch) * opix,
                  mat + ch * ncols + n * opix,
                  static_cast<std::size_t>(opix) * sizeof(float));
}

void QuantizedMergeNet::run_dense(const Op& op, const Tensor& in, Tensor& out,
                                  Workspace& ws) const {
  const Dense& d = *op.dense;
  const std::int64_t batch = in.dim(0);
  const std::int64_t in_f = d.in_features();
  const std::int64_t out_f = d.out_features();
  out.ensure2(batch, out_f);

  std::uint8_t* qin = ws.bytes(this, kQinSlot, in.size());
  quantize_u7(in.data(), in.size(), op.act_inv_scale, op.act_zp, qin);
  // Compute C^T[out_f, batch] = Wq · Xq^T: depth stride 1 within a sample,
  // column (= batch) stride in_f. batch == 1 writes the output row direct.
  if (batch == 1) {
    qgemm_u7(op.packed, 1, qin, 1, in_f, op.out_scale.data(),
             op.bias_eff.data(), op.relu, out.data(), 1);
    return;
  }
  float* mat = ws.get(this, kMatSlot, out_f * batch);
  qgemm_u7(op.packed, batch, qin, 1, in_f, op.out_scale.data(),
           op.bias_eff.data(), op.relu, mat, batch);
  for (std::int64_t s = 0; s < batch; ++s)
    for (std::int64_t o = 0; o < out_f; ++o)
      out.data()[s * out_f + o] = mat[o * batch + s];
}

void QuantizedMergeNet::run(const std::vector<Op>& plan, const Tensor& in,
                            Tensor& out, Workspace& ws) const {
  Tensor& ping = ws.tensor(this, kPingSlot);
  Tensor& pong = ws.tensor(this, kPongSlot);
  const Tensor* cur = &in;
  for (const Op& op : plan) {
    Tensor& dst = (cur == &ping) ? pong : ping;
    switch (op.kind) {
      case Op::Kind::kLayer:
        op.layer->forward(*cur, dst, /*training=*/false, ws);
        break;
      case Op::Kind::kConv:
        run_conv(op, *cur, dst, ws);
        break;
      case Op::Kind::kDense:
        run_dense(op, *cur, dst, ws);
        break;
    }
    cur = &dst;
  }
  out = *cur;
}

void QuantizedMergeNet::forward(const std::vector<Tensor>& inputs,
                                const std::vector<std::int32_t>& row_heads,
                                Tensor& logits, Workspace& ws) const {
  DNNSPMV_CHECK_ERRC(inputs.size() == tower_plans_.size(),
                     errc::invalid_argument,
                     "expected " << tower_plans_.size() << " inputs, got "
                                 << inputs.size());
  const std::int64_t batch = inputs[0].dim(0);
  std::int64_t feat = 0;
  for (std::size_t t = 0; t < tower_plans_.size(); ++t) {
    Tensor& tout = ws.tensor(this, kTowerOutSlot + static_cast<int>(t));
    run(tower_plans_[t], inputs[t], tout, ws);
    feat += tout.size() / batch;
  }
  Tensor& merged = ws.tensor(this, kMergedSlot);
  merged.ensure2(batch, feat);
  std::int64_t off = 0;
  for (std::size_t t = 0; t < tower_plans_.size(); ++t) {
    const Tensor& tout =
        ws.tensor(this, kTowerOutSlot + static_cast<int>(t));
    const std::int64_t f = tout.size() / batch;
    for (std::int64_t s = 0; s < batch; ++s)
      std::memcpy(merged.data() + s * feat + off, tout.data() + s * f,
                  static_cast<std::size_t>(f) * sizeof(float));
    off += f;
  }
  route_heads(merged, row_heads, head_plans_.size(), logits, ws, this,
              [&](std::size_t h, const Tensor& in, Tensor& out) {
                run(head_plans_[h], in, out, ws);
              });
}

}  // namespace dnnspmv
