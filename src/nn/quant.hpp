// Post-training int8 quantization of a MergeNet (DESIGN.md §13).
//
// The flow mirrors the torch.ao.quantization observer → calibrate → convert
// idiom:
//
//   1. *Observe.* A calibration pass walks the fp32 net layer by layer over
//      a held-out corpus slice, recording the input distribution of every
//      conv/dense layer with a MinMaxObserver (exact range) and a
//      HistogramObserver (percentile range — robust to single outliers).
//   2. *Convert.* Weights quantize per output channel with symmetric int8
//      scales (s_w[i] = max|W[i,:]| / 127); activations get one affine
//      7-bit scale/zero-point per layer input from the observed range.
//      The result is a QuantizedWeightSet: pure, serializable data.
//   3. *Execute.* QuantizedMergeNet compiles net + weight set into one
//      inference plan — a plan per tower and per head, so a batch that
//      mixes SpMV and SpMM runs the towers once. Per layer it quantizes
//      the input to u7, runs the int8 GEMM (gemm.hpp qgemm_u7, weights
//      pre-packed at convert time), and dequantizes in the kernel epilogue
//      with the zero-point correction folded into an effective bias:
//
//        y[i] = s_w[i]·s_x·(acc[i] − zp·Σ_p Wq[i,p]) + b[i]
//             = acc[i]·out_scale[i] + bias_eff[i].
//
//      A ReLU directly after a quantized layer fuses into the epilogue and
//      Dropout is elided (inference identity), so a cold-miss forward runs
//      fewer passes than the fp32 path on top of the cheaper kernel.
//
// Activations use [0, 127] rather than the full u8 range: maddubs
// accumulates byte-pair products in int16, and 2·127·127 is the largest
// pair sum that cannot saturate — correctness over one bit of precision.
//
// Everything here is deterministic: fixed observation order, scalar
// quantization arithmetic, and a kernel whose SIMD/scalar paths are
// bit-identical, so calibrating twice on the same data yields byte-equal
// weight sets and predictions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "nn/merge_net.hpp"
#include "tensor/gemm.hpp"

namespace dnnspmv {

class Conv2D;
class Dense;

/// Exact running range of everything observed.
class MinMaxObserver {
 public:
  void observe(const float* x, std::int64_t n);
  bool seen() const { return seen_; }
  float lo() const { return seen_ ? lo_ : 0.0f; }
  float hi() const { return seen_ ? hi_ : 0.0f; }

 private:
  float lo_ = 0.0f, hi_ = 0.0f;
  bool seen_ = false;
};

/// |x| histogram with a power-of-two growing range: when a sample exceeds
/// the current range the range doubles and adjacent bin pairs merge, so
/// early observations keep their (coarsened) mass. percentile(p) returns
/// the |x| bound covering p% of observed mass — the calibration range that
/// ignores the tail a lone outlier would otherwise stretch.
class HistogramObserver {
 public:
  explicit HistogramObserver(std::int64_t bins = 2048);
  void observe(const float* x, std::int64_t n);
  float percentile(double pct) const;
  std::int64_t total() const { return total_; }

 private:
  std::vector<std::int64_t> counts_;
  float range_ = 0.0f;
  std::int64_t total_ = 0;
};

struct QuantConfig {
  enum class Observer : std::uint8_t { kMinMax = 0, kPercentile = 1 };
  Observer observer = Observer::kPercentile;
  /// Percentile of observed |x| mass kept inside the clipping range.
  double percentile = 99.9;
  /// Calibration budget: at most this many held-out samples are walked.
  std::int64_t max_calib_samples = 256;
};

/// QLayer::seq of head h: heads count down from -1 (head 0), so tower ids
/// [0, num_towers) and head ids never collide.
constexpr std::int32_t head_seq_id(std::size_t h) {
  return -1 - static_cast<std::int32_t>(h);
}

/// One quantized conv/dense layer, addressed by (seq, index) into the
/// MergeNet: seq ∈ [0, num_towers) is a tower, seq == head_seq_id(h) head h.
struct QLayer {
  static constexpr std::uint8_t kConv = 0;
  static constexpr std::uint8_t kDense = 1;

  std::int32_t seq = 0;
  std::int32_t index = 0;
  std::uint8_t kind = kConv;
  std::int64_t rows = 0, cols = 0;  // weight matrix [rows, cols]
  float act_scale = 1.0f;           // input x ≈ (q − act_zp)·act_scale
  std::int32_t act_zp = 0;
  std::vector<float> w_scale;       // [rows] per-channel symmetric scales
  std::vector<float> bias;          // [rows] fp32 bias copy
  std::vector<std::int8_t> wq;      // [rows·cols] quantized weights
};

/// The serializable product of convert: plain data, no pointers into the
/// net, copyable between clones. Rides the weight-set file as a trailer
/// block after the fp32 params (selector.cpp). One set covers the towers
/// and every head.
struct QuantizedWeightSet {
  std::vector<QLayer> layers;

  bool empty() const { return layers.empty(); }
  const QLayer* find(std::int32_t seq, std::int32_t index) const;

  void save(std::ostream& os) const;
  static QuantizedWeightSet load(std::istream& is);
};

/// Quantizes W[rows, cols] per row: scales[i] = max|W[i,:]|/127 (1.0 for an
/// all-zero row), wq = clamp(round(W/scale), −127, 127).
void quantize_weights_per_channel(const float* w, std::int64_t rows,
                                  std::int64_t cols, std::int8_t* wq,
                                  float* scales);

/// Observer + calibrate + convert in one pass: walks `calib` (one Tensor
/// per tower per batch, NCHW) through the net, observes every conv/dense
/// input, and returns the quantized weight set — towers, then heads in
/// order. Deterministic for a fixed net and calibration set.
QuantizedWeightSet quantize_merge_net(
    MergeNet& net, const std::vector<std::vector<Tensor>>& calib,
    const QuantConfig& cfg = {});

/// Compiled inference plan over a net + weight set: one plan per tower and
/// one per head. Holds pre-packed int8 weight panels and fused per-layer
/// epilogue data — immutable after construction — and points into the
/// MergeNet for the layers that stay fp32 (pool, flatten). Construction
/// validates the weight set against the net (layer kinds and shapes, every
/// record consumed) and throws errc::data_error on mismatch.
///
/// Thread safety: like MergeNet, forward() is const and writes only to the
/// caller's Workspace (activations, quantized inputs, GEMM staging), so one
/// instance serves concurrent forwards, one Workspace per thread.
class QuantizedMergeNet {
 public:
  QuantizedMergeNet(MergeNet& net, const QuantizedWeightSet& qws);

  /// Quantized forward: inputs[i] feeds tower i; the towers run once over
  /// the batch and row b is classified by head row_heads[b] (route_heads,
  /// merge_net.hpp). logits [batch, classes].
  void forward(const std::vector<Tensor>& inputs,
               const std::vector<std::int32_t>& row_heads, Tensor& logits,
               Workspace& ws) const;

 private:
  struct Op {
    enum class Kind : std::uint8_t { kLayer, kConv, kDense };
    Kind kind = Kind::kLayer;
    const Layer* layer = nullptr;  // kLayer: run the fp32 forward
    const Conv2D* conv = nullptr;  // kConv
    const Dense* dense = nullptr;  // kDense
    QGemmWeights packed;           // pre-packed int8 panels
    std::vector<float> out_scale;  // w_scale[i]·act_scale
    std::vector<float> bias_eff;   // bias[i] − out_scale[i]·zp·Σ Wq[i,:]
    float act_inv_scale = 1.0f;
    std::int32_t act_zp = 0;
    bool relu = false;  // ReLU fused into the epilogue
  };

  void compile(Sequential& seq, std::int32_t seq_id,
               const QuantizedWeightSet& qws, std::vector<Op>& plan);
  void run(const std::vector<Op>& plan, const Tensor& in, Tensor& out,
           Workspace& ws) const;
  void run_conv(const Op& op, const Tensor& in, Tensor& out,
                Workspace& ws) const;
  void run_dense(const Op& op, const Tensor& in, Tensor& out,
                 Workspace& ws) const;

  std::vector<std::vector<Op>> tower_plans_;
  std::vector<std::vector<Op>> head_plans_;
};

}  // namespace dnnspmv
