// Int8 quantized inference (DESIGN.md §13): per-channel weight round-trip
// bounds, SIMD-vs-scalar bitwise equality of the u7 GEMM kernel across odd
// shapes and overhang tiles, saturation/clamp edge cases, calibration
// determinism, fp32↔int8 serialization compatibility, and the Release-only
// accuracy-parity gate of the quantized selector against its fp32 twin.
#include "nn/quant.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "serve/adaptive.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

namespace dnnspmv {
namespace {

// ----------------------------------------------------------------- kernel

struct QShape {
  std::int64_t m, n, k;
};

// Odd shapes on purpose: single-element, exact-tile, overhang rows
// (70 % 6 != 0), overhang columns (17 % 16 != 0), and depths that are not
// multiples of the 4-byte quad (zero-padded packing must not leak).
constexpr QShape kQuantShapes[] = {
    {1, 1, 1},    {6, 16, 4},  {3, 5, 7},    {7, 17, 5},   {13, 33, 64},
    {23, 40, 300}, {70, 50, 20}, {12, 128, 9}, {5, 100, 3}, {64, 64, 31},
};

void fill_s8(Rng& rng, std::vector<std::int8_t>& v) {
  for (auto& x : v)
    x = static_cast<std::int8_t>(static_cast<int>(rng.uniform_u64(255)) -
                                 127);
}

void fill_u7(Rng& rng, std::vector<std::uint8_t>& v) {
  for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_u64(128));
}

TEST(QuantKernel, SimdAndScalarAreBitIdenticalAcrossShapes) {
  Rng rng(101);
  int case_id = 0;
  for (const QShape& s : kQuantShapes) {
    std::vector<std::int8_t> w(static_cast<std::size_t>(s.m * s.k));
    std::vector<std::uint8_t> x(static_cast<std::size_t>(s.k * s.n));
    fill_s8(rng, w);
    fill_u7(rng, x);
    std::vector<float> scale(static_cast<std::size_t>(s.m));
    std::vector<float> bias(static_cast<std::size_t>(s.m));
    for (auto& v : scale) v = static_cast<float>(rng.uniform(1e-3, 2e-2));
    for (auto& v : bias) v = static_cast<float>(rng.uniform(-0.5, 0.5));
    const bool relu = (case_id % 2) == 0;
    // Exercise the null-bias epilogue on every third shape.
    const float* b = (case_id % 3 == 0) ? nullptr : bias.data();
    ++case_id;

    const QGemmWeights packed = qgemm_pack_weights(s.m, s.k, w.data());
    std::vector<float> c_simd(static_cast<std::size_t>(s.m * s.n), -42.0f);
    std::vector<float> c_ref(static_cast<std::size_t>(s.m * s.n), 42.0f);
    qgemm_u7(packed, s.n, x.data(), s.n, 1, scale.data(), b, relu,
             c_simd.data(), s.n);
    qgemm_u7_ref(packed, s.n, x.data(), s.n, 1, scale.data(), b, relu,
                 c_ref.data(), s.n);
    ASSERT_EQ(std::memcmp(c_simd.data(), c_ref.data(),
                          c_simd.size() * sizeof(float)),
              0)
        << "m=" << s.m << " n=" << s.n << " k=" << s.k << " relu=" << relu;
  }
}

TEST(QuantKernel, MatchesWidenedIntegerReference) {
  Rng rng(202);
  for (const QShape& s : kQuantShapes) {
    std::vector<std::int8_t> w(static_cast<std::size_t>(s.m * s.k));
    std::vector<std::uint8_t> x(static_cast<std::size_t>(s.k * s.n));
    fill_s8(rng, w);
    fill_u7(rng, x);
    std::vector<float> scale(static_cast<std::size_t>(s.m));
    std::vector<float> bias(static_cast<std::size_t>(s.m));
    for (auto& v : scale) v = static_cast<float>(rng.uniform(1e-3, 2e-2));
    for (auto& v : bias) v = static_cast<float>(rng.uniform(-0.5, 0.5));

    for (const bool relu : {false, true}) {
      std::vector<float> expected(static_cast<std::size_t>(s.m * s.n));
      for (std::int64_t i = 0; i < s.m; ++i) {
        for (std::int64_t j = 0; j < s.n; ++j) {
          std::int64_t acc = 0;
          for (std::int64_t p = 0; p < s.k; ++p)
            acc += static_cast<std::int64_t>(w[i * s.k + p]) *
                   static_cast<std::int64_t>(x[p * s.n + j]);
          float v = std::fmaf(static_cast<float>(acc), scale[i], bias[i]);
          if (relu) v = v > 0.0f ? v : 0.0f;
          expected[static_cast<std::size_t>(i * s.n + j)] = v;
        }
      }
      const QGemmWeights packed = qgemm_pack_weights(s.m, s.k, w.data());
      std::vector<float> c(static_cast<std::size_t>(s.m * s.n), 0.0f);
      qgemm_u7(packed, s.n, x.data(), s.n, 1, scale.data(), bias.data(),
               relu, c.data(), s.n);
      for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_EQ(c[i], expected[i])
            << "m=" << s.m << " n=" << s.n << " k=" << s.k << " at " << i;
    }
  }
}

TEST(QuantKernel, StridedOperandsMatchContiguous) {
  constexpr std::int64_t m = 9, n = 13, k = 21;
  Rng rng(303);
  std::vector<std::int8_t> w(m * k);
  fill_s8(rng, w);
  std::vector<std::uint8_t> logical(k * n);
  fill_u7(rng, logical);
  // Conv layout: B[p, j] row-major (rs=n, cs=1). Dense layout: the same
  // logical matrix stored column-major (rs=1, cs=k), the x^T view
  // run_dense uses.
  std::vector<std::uint8_t> colmajor(k * n);
  for (std::int64_t p = 0; p < k; ++p)
    for (std::int64_t j = 0; j < n; ++j)
      colmajor[static_cast<std::size_t>(j * k + p)] =
          logical[static_cast<std::size_t>(p * n + j)];
  std::vector<float> scale(m, 0.01f), bias(m, 0.25f);
  const QGemmWeights packed = qgemm_pack_weights(m, k, w.data());

  std::vector<float> c_rm(m * n, 0.0f), c_cm(m * n, 1.0f);
  qgemm_u7(packed, n, logical.data(), n, 1, scale.data(), bias.data(), true,
           c_rm.data(), n);
  qgemm_u7(packed, n, colmajor.data(), 1, k, scale.data(), bias.data(), true,
           c_cm.data(), n);
  EXPECT_EQ(std::memcmp(c_rm.data(), c_cm.data(), c_rm.size() * sizeof(float)),
            0);
}

TEST(QuantKernel, RespectsLdcAndLeavesTheTailUntouched) {
  constexpr std::int64_t m = 6, n = 5, ldc = 8, k = 11;
  Rng rng(404);
  std::vector<std::int8_t> w(m * k);
  fill_s8(rng, w);
  std::vector<std::uint8_t> x(k * n);
  fill_u7(rng, x);
  std::vector<float> scale(m, 0.02f), bias(m, -0.1f);
  const QGemmWeights packed = qgemm_pack_weights(m, k, w.data());

  constexpr float kSentinel = 123.5f;
  std::vector<float> c_simd(m * ldc, kSentinel), c_ref(m * ldc, kSentinel);
  qgemm_u7(packed, n, x.data(), n, 1, scale.data(), bias.data(), false,
           c_simd.data(), ldc);
  qgemm_u7_ref(packed, n, x.data(), n, 1, scale.data(), bias.data(), false,
               c_ref.data(), ldc);
  EXPECT_EQ(std::memcmp(c_simd.data(), c_ref.data(),
                        c_simd.size() * sizeof(float)),
            0);
  // Columns [n, ldc) belong to the caller: the masked epilogue store must
  // not touch them.
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = n; j < ldc; ++j)
      EXPECT_EQ(c_simd[static_cast<std::size_t>(i * ldc + j)], kSentinel)
          << "row " << i << " col " << j;
}

TEST(QuantKernel, PerChannelRoundTripWithinHalfScale) {
  constexpr std::int64_t rows = 7, cols = 33;
  Rng rng(505);
  std::vector<float> w(rows * cols);
  for (auto& v : w) v = static_cast<float>(rng.uniform(-3.0, 3.0));
  std::vector<std::int8_t> wq(rows * cols);
  std::vector<float> scales(rows);
  quantize_weights_per_channel(w.data(), rows, cols, wq.data(),
                               scales.data());
  for (std::int64_t i = 0; i < rows; ++i) {
    float amax = 0.0f;
    std::int32_t qmax = 0;
    for (std::int64_t j = 0; j < cols; ++j) {
      const std::size_t at = static_cast<std::size_t>(i * cols + j);
      amax = std::max(amax, std::fabs(w[at]));
      qmax = std::max(qmax, std::abs(static_cast<std::int32_t>(wq[at])));
      // Symmetric rounding: every element is within half a quantization
      // step of its dequantized value.
      EXPECT_LE(std::fabs(w[at] - static_cast<float>(wq[at]) * scales[i]),
                scales[i] * 0.5f * (1.0f + 1e-5f));
    }
    EXPECT_NEAR(scales[i], amax / 127.0f, 1e-7f * amax);
    // The channel max always lands on the last code.
    EXPECT_EQ(qmax, 127);
  }
}

TEST(QuantKernel, ZeroChannelGetsUnitScaleAndZeroCodes) {
  constexpr std::int64_t rows = 2, cols = 16;
  std::vector<float> w(rows * cols, 0.0f);
  for (std::int64_t j = 0; j < cols; ++j)
    w[static_cast<std::size_t>(cols + j)] = 0.5f;  // second row is nonzero
  std::vector<std::int8_t> wq(rows * cols, 99);
  std::vector<float> scales(rows, -1.0f);
  quantize_weights_per_channel(w.data(), rows, cols, wq.data(),
                               scales.data());
  EXPECT_EQ(scales[0], 1.0f);
  for (std::int64_t j = 0; j < cols; ++j) EXPECT_EQ(wq[j], 0);
  EXPECT_GT(scales[1], 0.0f);
  EXPECT_EQ(wq[static_cast<std::size_t>(cols)], 127);
}

TEST(QuantKernel, OutlierChannelClampsSmallWeightsToZero) {
  constexpr std::int64_t cols = 64;
  std::vector<float> w(cols, 1e-4f);
  w[cols - 1] = 100.0f;  // one outlier stretches the symmetric range
  std::vector<std::int8_t> wq(cols);
  float scale = 0.0f;
  quantize_weights_per_channel(w.data(), 1, cols, wq.data(), &scale);
  EXPECT_NEAR(scale, 100.0f / 127.0f, 1e-5f);
  for (std::int64_t j = 0; j < cols - 1; ++j) EXPECT_EQ(wq[j], 0);
  EXPECT_EQ(wq[cols - 1], 127);
  EXPECT_LE(std::fabs(100.0f - static_cast<float>(wq[cols - 1]) * scale),
            scale * 0.5f);
}

TEST(QuantKernel, ActivationQuantClampsToU7Range) {
  const float xs[] = {-10.0f, -0.01f, 0.0f, 0.5f, 1.0f, 50.0f};
  std::uint8_t q[6] = {};
  // scale 1/127 (inv_scale 127), zp 0: the [0, 1] range.
  quantize_u7(xs, 6, 127.0f, 0, q);
  EXPECT_EQ(q[0], 0);  // below range clamps to 0
  EXPECT_EQ(q[1], 0);  // round(-1.27) = -1 clamps to 0
  EXPECT_EQ(q[2], 0);
  EXPECT_EQ(q[3], 64);  // 63.5 rounds to even
  EXPECT_EQ(q[4], 127);
  EXPECT_EQ(q[5], 127);  // above range clamps to 127
  // A nonzero zero-point shifts the representable window.
  quantize_u7(xs, 6, 127.0f, 32, q);
  EXPECT_EQ(q[2], 32);   // fp32 zero maps exactly onto the zero-point
  EXPECT_EQ(q[3], 96);   // 64 + 32
  EXPECT_EQ(q[5], 127);  // still clamps
}

// The u8 im2col feeding the quantized conv path has stride- and
// width-specialised fast paths (single-memcpy full-pitch rows, pshufb
// stride-2 gathers) — fuzz random geometries against a four-loop naive
// lowering so every specialisation, including the all-padding edge where
// a kernel row never overlaps the image, stays byte-identical.
TEST(QuantKernel, Im2colU8MatchesNaiveReferenceOverFuzzedGeometries) {
  Rng rng(606);
  for (int iter = 0; iter < 400; ++iter) {
    ConvGeom g;
    g.channels = 1 + static_cast<std::int64_t>(rng.uniform_u64(4));
    g.height = 1 + static_cast<std::int64_t>(rng.uniform_u64(20));
    g.width = 1 + static_cast<std::int64_t>(rng.uniform_u64(20));
    g.kernel_h = 1 + static_cast<std::int64_t>(rng.uniform_u64(5));
    g.kernel_w = 1 + static_cast<std::int64_t>(rng.uniform_u64(5));
    g.stride_h = 1 + static_cast<std::int64_t>(rng.uniform_u64(3));
    g.stride_w = 1 + static_cast<std::int64_t>(rng.uniform_u64(3));
    g.pad_h = static_cast<std::int64_t>(rng.uniform_u64(
        static_cast<std::uint64_t>(g.kernel_h)));
    g.pad_w = static_cast<std::int64_t>(rng.uniform_u64(
        static_cast<std::uint64_t>(g.kernel_w)));
    if (g.height + 2 * g.pad_h < g.kernel_h ||
        g.width + 2 * g.pad_w < g.kernel_w)
      continue;
    const std::int64_t batch =
        1 + static_cast<std::int64_t>(rng.uniform_u64(3));
    const std::int64_t oh = g.out_h(), ow = g.out_w();
    const std::int64_t opix = oh * ow, ldc = batch * opix;
    const std::int64_t imsz = g.channels * g.height * g.width;
    const std::uint8_t pad = static_cast<std::uint8_t>(rng.uniform_u64(128));
    std::vector<std::uint8_t> im(static_cast<std::size_t>(batch * imsz));
    fill_u7(rng, im);
    std::vector<std::uint8_t> col(
        static_cast<std::size_t>(g.patch_size() * ldc), 0xEE);
    im2col_batch_u8(g, batch, im.data(), col.data(), pad);
    for (std::int64_t n = 0; n < batch; ++n) {
      const std::uint8_t* s = im.data() + n * imsz;
      std::int64_t row = 0;
      for (std::int64_t c = 0; c < g.channels; ++c)
        for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
          for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row)
            for (std::int64_t y = 0; y < oh; ++y)
              for (std::int64_t x = 0; x < ow; ++x) {
                const std::int64_t iy = y * g.stride_h + kh - g.pad_h;
                const std::int64_t ix = x * g.stride_w + kw - g.pad_w;
                const std::uint8_t want =
                    (iy >= 0 && iy < g.height && ix >= 0 && ix < g.width)
                        ? s[(c * g.height + iy) * g.width + ix]
                        : pad;
                ASSERT_EQ(col[static_cast<std::size_t>(
                              row * ldc + n * opix + y * ow + x)],
                          want)
                    << "iter " << iter << " n=" << n << " row=" << row
                    << " y=" << y << " x=" << x;
              }
    }
  }
}

// ------------------------------------------------------------ calibration

TEST(QuantCalib, MinMaxObserverTracksExactRange) {
  MinMaxObserver o;
  EXPECT_FALSE(o.seen());
  EXPECT_EQ(o.lo(), 0.0f);
  EXPECT_EQ(o.hi(), 0.0f);
  const float a[] = {0.5f, -2.25f, 1.75f};
  o.observe(a, 3);
  EXPECT_TRUE(o.seen());
  EXPECT_EQ(o.lo(), -2.25f);
  EXPECT_EQ(o.hi(), 1.75f);
  const float b[] = {3.5f};
  o.observe(b, 1);
  EXPECT_EQ(o.lo(), -2.25f);
  EXPECT_EQ(o.hi(), 3.5f);
}

TEST(QuantCalib, HistogramPercentileIgnoresALoneOutlier) {
  HistogramObserver h;
  std::vector<float> base(4096);
  for (std::size_t i = 0; i < base.size(); ++i) {
    const float v = static_cast<float>(i) / 4096.0f;
    base[i] = (i % 2 == 0) ? v : -v;  // |x| histogram: sign must not matter
  }
  h.observe(base.data(), static_cast<std::int64_t>(base.size()));
  EXPECT_LE(h.percentile(100.0), 1.0f);

  const float outlier = 300.0f;
  h.observe(&outlier, 1);
  EXPECT_EQ(h.total(), 4097);
  // The range doubled to cover the outlier, but 99% of the mass still
  // lives below 1 — the percentile bound stays close while the minmax
  // range would have exploded to 300.
  EXPECT_LT(h.percentile(99.0), 1.5f);
  EXPECT_GE(h.percentile(100.0), 299.0f);
}

TEST(QuantCalib, HistogramRangeDoublingPreservesMass) {
  HistogramObserver h(8);  // tiny bins make the pair-merges visible
  const float small[] = {0.1f, 0.2f, 0.3f, 0.4f};
  h.observe(small, 4);
  const float big[] = {3.2f};  // forces several doublings
  h.observe(big, 1);
  EXPECT_EQ(h.total(), 5);
  // All early mass survived the merges: covering 80% of 5 samples needs
  // only the small values.
  EXPECT_LE(h.percentile(80.0), 1.0f);
  EXPECT_GE(h.percentile(100.0), 3.2f * 0.9f);
}

// One corpus + platform + a trained fp32 selector and its quantized clone.
// Shared by the calibration/serialization/parity tests below; training
// dominates the fixture cost (same shape as test_online's pipeline).
struct QuantPipeline {
  std::vector<CorpusEntry> corpus;
  std::unique_ptr<Platform> plat;
  std::vector<LabeledMatrix> labeled;
  Dataset train;
  FormatSelector fp32;
  FormatSelector quant;

  QuantPipeline() {
    CorpusSpec spec;
    spec.count = 96;
    spec.min_dim = 48;
    spec.max_dim = 160;
    spec.seed = 33;
    corpus = build_corpus(spec);
    plat = make_analytic_cpu(intel_xeon_params());
    labeled = collect_labels(corpus, *plat);

    SelectorOptions opts;
    opts.mode = RepMode::kHistogram;
    opts.rep_rows = 16;
    opts.rep_bins = 8;
    opts.train.epochs = 5;
    opts.train.batch = 16;
    opts.train.lr = 2e-3;
    fp32 = FormatSelector(opts);
    fp32.fit(labeled, plat->formats());
    train = build_dataset(labeled, plat->formats(), opts.mode,
                          opts.rep_rows, opts.rep_bins);
    quant = fp32.clone();
    quant.quantize(train);
  }
};

QuantPipeline& qpipeline() {
  static QuantPipeline p;
  return p;
}

void expect_qws_equal(const QuantizedWeightSet& a,
                      const QuantizedWeightSet& b) {
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const QLayer& la = a.layers[i];
    const QLayer& lb = b.layers[i];
    EXPECT_EQ(la.seq, lb.seq);
    EXPECT_EQ(la.index, lb.index);
    EXPECT_EQ(la.kind, lb.kind);
    EXPECT_EQ(la.rows, lb.rows);
    EXPECT_EQ(la.cols, lb.cols);
    EXPECT_EQ(la.act_scale, lb.act_scale);
    EXPECT_EQ(la.act_zp, lb.act_zp);
    EXPECT_EQ(la.w_scale, lb.w_scale);
    EXPECT_EQ(la.bias, lb.bias);
    EXPECT_EQ(la.wq, lb.wq);
  }
}

TEST(QuantCalib, CalibrationIsDeterministicAcrossRuns) {
  auto& p = qpipeline();
  FormatSelector again = p.fp32.clone();
  again.quantize(p.train);
  ASSERT_TRUE(again.quantized());
  ASSERT_TRUE(p.quant.quantized());
  expect_qws_equal(*p.quant.quantized_weights(), *again.quantized_weights());
}

TEST(QuantCalib, QuantizedPredictionsAreBatchInvariant) {
  auto& p = qpipeline();
  std::vector<const Csr*> ptrs;
  for (std::size_t i = 0; i < 24; ++i)
    ptrs.push_back(&p.corpus[i].matrix);
  const std::vector<std::int32_t> batched = p.quant.predict_index_batch(ptrs);
  ASSERT_EQ(batched.size(), ptrs.size());
  // The batched conv scatter / dense transpose paths accumulate each output
  // element in the same order as the batch==1 direct-write paths, so the
  // logits — and therefore the argmax — are bitwise batch-size invariant.
  for (std::size_t i = 0; i < ptrs.size(); ++i)
    EXPECT_EQ(batched[i], p.quant.predict_index(*ptrs[i])) << "sample " << i;
}

TEST(QuantCalib, CloneCarriesTheQuantizedPath) {
  auto& p = qpipeline();
  const FormatSelector copy = p.quant.clone();
  ASSERT_TRUE(copy.quantized());
  expect_qws_equal(*copy.quantized_weights(), *p.quant.quantized_weights());
  for (std::size_t i = 0; i < 8; ++i) {
    const Csr& a = p.corpus[i].matrix;
    EXPECT_EQ(copy.predict_index(a), p.quant.predict_index(a));
  }
}

// ---------------------------------------------------------- serialization

TEST(QuantSerialize, QuantizedRoundTripPredictsIdentically) {
  auto& p = qpipeline();
  const std::string path = "test_quant_ws_int8.bin";
  p.quant.save(path);
  const FormatSelector loaded = FormatSelector::load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.quantized());
  expect_qws_equal(*loaded.quantized_weights(), *p.quant.quantized_weights());
  for (std::size_t i = 0; i < 32; ++i) {
    const Csr& a = p.corpus[i].matrix;
    EXPECT_EQ(loaded.predict_index(a), p.quant.predict_index(a));
  }
}

TEST(QuantSerialize, Fp32RoundTripStaysFp32) {
  auto& p = qpipeline();
  const std::string path = "test_quant_ws_fp32.bin";
  p.fp32.save(path);
  const FormatSelector loaded = FormatSelector::load(path);
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.quantized());
  for (std::size_t i = 0; i < 16; ++i) {
    const Csr& a = p.corpus[i].matrix;
    EXPECT_EQ(loaded.predict_index(a), p.fp32.predict_index(a));
  }
}

TEST(QuantSerialize, PreV3FilesAreRejected) {
  auto& p = qpipeline();
  const std::string path = "test_quant_ws_old.bin";
  p.fp32.save(path);
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  const auto expect_data_error = [&](const std::string& file) {
    {
      std::ofstream os(path, std::ios::binary);
      os.write(file.data(), static_cast<std::streamsize>(file.size()));
    }
    try {
      FormatSelector::load(path);
      ADD_FAILURE() << "a pre-v4 weight-set file loaded";
    } catch (const DnnspmvError& e) {
      EXPECT_EQ(e.code(), errc::data_error) << e.what();
    }
  };
  // Format 4 starts with a 16-byte header: 4-byte magic at [0, 4), 4-byte
  // format version at [4, 8), 8-byte model version at [8, 16). Then the
  // 4-byte mode at [16, 20), three 8-byte rep fields at [20, 44), the
  // 4-byte late flag at [44, 48), the 4-byte quantize flag at [48, 52), the
  // 4-byte head count at [52, 56) and the 4-byte spmm_cols at [56, 60). A
  // pre-header file had none of the header, quantize or SpMM fields.
  ASSERT_GT(bytes.size(), 60u);
  expect_data_error(bytes.substr(16, 48 - 16) + bytes.substr(60));
  // v1/v2/v3 headers: the header magic, then an older format version.
  for (const std::uint32_t version : {1u, 2u, 3u}) {
    std::string old = bytes;
    std::memcpy(old.data() + 4, &version, sizeof(version));
    expect_data_error(old);
  }
  std::remove(path.c_str());
}

TEST(QuantSerialize, TruncatedQuantTrailerIsRejected) {
  auto& p = qpipeline();
  const std::string path = "test_quant_ws_trunc.bin";
  p.quant.save(path);
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);
  {
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 64));
  }
  EXPECT_THROW(FormatSelector::load(path), DnnspmvError);
  std::remove(path.c_str());
}

TEST(QuantSerialize, MismatchedWeightSetIsRejectedByTheExecutor) {
  auto& p = qpipeline();
  const QuantizedWeightSet& good = *p.quant.quantized_weights();
  MergeNet& net = p.fp32.net();  // same architecture as the quantized twin
  { QuantizedMergeNet ok(net, good); }  // sanity: the good set compiles

  {
    QuantizedWeightSet bad = good;
    bad.layers[0].cols += 1;  // geometry drift
    EXPECT_THROW(QuantizedMergeNet rejected(net, bad), DnnspmvError);
  }
  {
    QuantizedWeightSet bad = good;
    bad.layers[0].kind = bad.layers[0].kind == QLayer::kConv ? QLayer::kDense
                                                             : QLayer::kConv;
    EXPECT_THROW(QuantizedMergeNet rejected(net, bad), DnnspmvError);
  }
  {
    QuantizedWeightSet bad = good;
    bad.layers.pop_back();  // a quantizable layer has no record
    EXPECT_THROW(QuantizedMergeNet rejected(net, bad), DnnspmvError);
  }
  {
    QuantizedWeightSet bad = good;
    bad.layers.push_back(bad.layers[0]);
    bad.layers.back().seq = 99;  // record that matches no layer
    EXPECT_THROW(QuantizedMergeNet rejected(net, bad), DnnspmvError);
  }
}

// ------------------------------------------------- accuracy parity (e2e)

TEST(QuantParity, AgreesWithFp32OnAtLeast99PercentOfSlice) {
#if !defined(NDEBUG)
  GTEST_SKIP() << "Release-only end-to-end gate";
#else
  auto& p = qpipeline();
  CorpusSpec spec;
  spec.count = 200;
  spec.min_dim = 48;
  spec.max_dim = 160;
  spec.seed = 77;  // fixed slice, disjoint from the training corpus
  const std::vector<CorpusEntry> slice = build_corpus(spec);
  std::vector<const Csr*> ptrs;
  ptrs.reserve(slice.size());
  for (const CorpusEntry& e : slice) ptrs.push_back(&e.matrix);
  const std::vector<std::int32_t> fp = p.fp32.predict_index_batch(ptrs);
  const std::vector<std::int32_t> q8 = p.quant.predict_index_batch(ptrs);
  ASSERT_EQ(fp.size(), q8.size());
  int agree = 0;
  for (std::size_t i = 0; i < fp.size(); ++i) agree += fp[i] == q8[i] ? 1 : 0;
  EXPECT_GE(agree, 198) << "int8 selector diverged from fp32 on "
                        << (200 - agree) << "/200 matrices";
#endif
}

TEST(QuantParity, AdaptiveSpmvAnswersMatchWherePredictionsAgree) {
#if !defined(NDEBUG)
  GTEST_SKIP() << "Release-only end-to-end gate";
#else
  auto& p = qpipeline();
  int used = 0;
  for (std::size_t i = 0; i < p.corpus.size() && used < 8; ++i) {
    const Csr& a = p.corpus[i].matrix;
    if (p.fp32.predict_index(a) != p.quant.predict_index(a)) continue;
    ++used;
    // Private (null) caches: a shared prediction cache would serve the
    // fp32 entry to the quantized operator and hide the int8 path.
    const AdaptiveSpmv op_f(p.fp32, a, nullptr);
    const AdaptiveSpmv op_q(p.quant, a, nullptr);
    Rng rng(1000 + static_cast<std::uint64_t>(i));
    std::vector<double> x(static_cast<std::size_t>(a.cols));
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    std::vector<double> yf(static_cast<std::size_t>(a.rows), 0.0);
    std::vector<double> yq(static_cast<std::size_t>(a.rows), 0.0);
    op_f.apply(x, yf);
    op_q.apply(x, yq);
    // Same prediction => same format => the exact same SpMV arithmetic.
    for (std::size_t r = 0; r < yf.size(); ++r)
      EXPECT_EQ(yf[r], yq[r]) << "matrix " << i << " row " << r;
  }
  EXPECT_GE(used, 1);
#endif
}

}  // namespace
}  // namespace dnnspmv
