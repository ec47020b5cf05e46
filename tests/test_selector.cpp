// End-to-end FormatSelector: fit on a small labelled corpus, predict better
// than chance, survive save/load, and migrate across platforms.
#include "core/selector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <tuple>

namespace dnnspmv {
namespace {

struct SmallPipeline {
  std::vector<CorpusEntry> corpus;
  std::unique_ptr<Platform> platform;
  std::vector<LabeledMatrix> labeled;

  SmallPipeline() {
    CorpusSpec spec;
    spec.count = 120;
    spec.min_dim = 48;
    spec.max_dim = 192;
    spec.seed = 11;
    corpus = build_corpus(spec);
    platform = make_analytic_cpu(intel_xeon_params());
    labeled = collect_labels(corpus, *platform);
  }
};

SelectorOptions fast_options() {
  SelectorOptions opts;
  opts.mode = RepMode::kHistogram;
  opts.rep_rows = 16;
  opts.rep_bins = 8;
  opts.train.epochs = 10;
  opts.train.batch = 16;
  opts.train.lr = 2e-3;
  return opts;
}

TEST(Selector, FitAndBeatMajorityBaseline) {
  SmallPipeline p;
  FormatSelector sel(fast_options());
  sel.fit(p.labeled, p.platform->formats());
  ASSERT_TRUE(sel.trained());

  // Training-set accuracy must beat always-predict-the-majority-class.
  std::vector<std::int64_t> counts(p.platform->formats().size(), 0);
  std::int64_t correct = 0;
  for (const auto& lm : p.labeled) {
    ++counts[static_cast<std::size_t>(lm.label)];
    if (sel.predict_index(*lm.matrix) == lm.label) ++correct;
  }
  const auto majority = *std::max_element(counts.begin(), counts.end());
  EXPECT_GT(correct, majority);
}

TEST(Selector, PredictReturnsCandidateFormat) {
  SmallPipeline p;
  FormatSelector sel(fast_options());
  sel.fit(p.labeled, p.platform->formats());
  const Format f = sel.predict(p.corpus[0].matrix);
  const auto& cands = sel.candidates();
  EXPECT_NE(std::find(cands.begin(), cands.end(), f), cands.end());
}

TEST(Selector, SaveLoadPredictsIdentically) {
  SmallPipeline p;
  FormatSelector sel(fast_options());
  sel.fit(p.labeled, p.platform->formats());
  const std::string path = ::testing::TempDir() + "/selector.bin";
  sel.save(path);
  const FormatSelector back = FormatSelector::load(path);
  EXPECT_EQ(back.candidates(), sel.candidates());
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(back.predict_index(p.corpus[static_cast<std::size_t>(i)].matrix),
              sel.predict_index(p.corpus[static_cast<std::size_t>(i)].matrix))
        << "matrix " << i;
  }
}

TEST(Selector, PredictBeforeFitThrows) {
  FormatSelector sel(fast_options());
  Rng rng(1);
  const Csr a = gen_banded(32, 32, 1, 1.0, rng);
  EXPECT_THROW(sel.predict(a), std::runtime_error);
}

TEST(Selector, GeometryOptionsRoundTrip) {
  // The size1/size2 deprecation window is over: rep_rows/rep_bins are the
  // only names, and they flow from options into the selector unchanged.
  SelectorOptions opts;
  opts.rep_rows = 24;
  opts.rep_bins = 12;
  opts.rep_sample_nnz = 4096;
  const FormatSelector sel(opts);
  EXPECT_EQ(sel.options().rep_rows, 24);
  EXPECT_EQ(sel.options().rep_bins, 12);
  EXPECT_EQ(sel.options().rep_sample_nnz, 4096);
  EXPECT_EQ(sel.rep_builder().options().rep_rows, 24);
  EXPECT_EQ(sel.rep_builder().options().sample_nnz, 4096);
}

TEST(Selector, MigrationKeepsCandidates) {
  SmallPipeline p;
  FormatSelector sel(fast_options());
  sel.fit(p.labeled, p.platform->formats());

  const auto amd = make_analytic_cpu(amd_a8_params());
  const auto amd_labeled = collect_labels(p.corpus, *amd);
  const Dataset target = build_dataset(amd_labeled, amd->formats(),
                                       sel.options().mode,
                                       sel.options().rep_rows,
                                       sel.options().rep_bins);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch = 16;
  const FormatSelector migrated =
      sel.migrate(MigrationMethod::kTopEvolve, target, cfg);
  EXPECT_TRUE(migrated.trained());
  EXPECT_EQ(migrated.candidates(), sel.candidates());
  // Still produces valid predictions.
  const auto idx = migrated.predict_index(p.corpus[0].matrix);
  EXPECT_GE(idx, 0);
  EXPECT_LT(idx, static_cast<std::int32_t>(sel.candidates().size()));
}

TEST(Selector, BuildDatasetCarriesTimesAndFeatures) {
  SmallPipeline p;
  const Dataset ds = build_dataset(p.labeled, p.platform->formats(),
                                   RepMode::kHistogram, 16, 8);
  ASSERT_EQ(ds.size(), p.labeled.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(ds.samples[i].label, p.labeled[i].label);
    EXPECT_EQ(ds.samples[i].format_times, p.labeled[i].format_times);
    EXPECT_EQ(ds.samples[i].features.size(),
              static_cast<std::size_t>(kNumFeatures));
    EXPECT_EQ(ds.samples[i].inputs.size(), 2u);
  }
}

TEST(Selector, LoadRejectsMissingFile) {
  EXPECT_THROW(FormatSelector::load("/nonexistent/model.bin"),
               std::runtime_error);
}

// ------------------------------------------------------------- two heads

// Selectors with an SpMV and an SpMM head over one set of towers, fp32 and
// int8. The SpMM head trains on AMD-A8 analytic labels: any second label
// set over the same corpus gives the head something different to learn,
// and, with no host timing, the models are reproducible.
struct TwoHeads {
  SmallPipeline p;
  std::vector<LabeledMatrix> spmm_labeled;
  Dataset train;  // the SpMV labels; the same inputs as the SpMM slice
  FormatSelector int8_spmv;  // quantized, before fit_spmm
  FormatSelector fp32;
  FormatSelector int8;

  TwoHeads() {
    spmm_labeled =
        collect_labels(p.corpus, *make_analytic_cpu(amd_a8_params()));
    const SelectorOptions o = fast_options();
    train = build_dataset(p.labeled, p.platform->formats(), o.mode,
                          o.rep_rows, o.rep_bins, o.rep_sample_nnz);
    fp32 = FormatSelector(o);
    fp32.fit(train);
    int8_spmv = fp32.clone();
    int8_spmv.quantize(train);
    int8 = int8_spmv.clone();
    fp32.fit_spmm(spmm_labeled);
    int8.fit_spmm(spmm_labeled);
  }
};

TwoHeads& two_heads() {
  static TwoHeads t;
  return t;
}

void expect_same_picks(const FormatSelector& a, const FormatSelector& b,
                       const std::vector<CorpusEntry>& corpus,
                       const char* what) {
  for (std::size_t i = 0; i < corpus.size(); ++i)
    for (const SpOp op : {SpOp::kSpmv, SpOp::kSpmm})
      EXPECT_EQ(a.predict_index(corpus[i].matrix, op),
                b.predict_index(corpus[i].matrix, op))
          << what << ", matrix " << i << ", op " << static_cast<int>(op);
}

std::vector<std::vector<float>> head_values(FormatSelector& s,
                                            std::size_t head) {
  std::vector<std::vector<float>> out;
  for (const Param* q : s.net().head_params(head))
    out.emplace_back(q->value.data(), q->value.data() + q->value.size());
  return out;
}

TEST(TwoHead, CloneSaveLoadAndMigrateKeepBothHeadsPicks) {
  TwoHeads& t = two_heads();
  TrainConfig keep = fast_options().train;
  keep.epochs = 0;  // migrate's copy and re-quantization, no retraining
  for (const FormatSelector* sel : {&t.fp32, &t.int8}) {
    ASSERT_TRUE(sel->supports(SpOp::kSpmm));
    expect_same_picks(sel->clone(), *sel, t.p.corpus, "clone");
    const std::string path = ::testing::TempDir() + "/two_heads.bin";
    sel->save(path);
    const FormatSelector back = FormatSelector::load(path);
    std::remove(path.c_str());
    EXPECT_TRUE(back.supports(SpOp::kSpmm));
    EXPECT_EQ(back.quantized(), sel->quantized());
    expect_same_picks(back, *sel, t.p.corpus, "save/load");
    // Re-quantizing on the slice both heads were calibrated on rebuilds the
    // same int8 records, so the int8 picks must hold too.
    const FormatSelector moved =
        sel->migrate(MigrationMethod::kTopEvolve, t.train, keep);
    EXPECT_TRUE(moved.supports(SpOp::kSpmm));
    expect_same_picks(moved, *sel, t.p.corpus, "top-evolve migrate");
  }
}

TEST(TwoHead, FitSpmmLeavesTowerAndSpmvRecordsByteEqual) {
  TwoHeads& t = two_heads();
  const std::vector<QLayer>& before = t.int8_spmv.quantized_weights()->layers;
  const std::vector<QLayer>& after = t.int8.quantized_weights()->layers;
  ASSERT_GT(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    const QLayer& a = before[i];
    const QLayer& b = after[i];
    EXPECT_GE(a.seq, head_seq_id(0)) << "record " << i;
    EXPECT_EQ(std::tie(a.seq, a.index, a.kind, a.rows, a.cols, a.act_zp),
              std::tie(b.seq, b.index, b.kind, b.rows, b.cols, b.act_zp))
        << "record " << i;
    EXPECT_EQ(std::memcmp(&a.act_scale, &b.act_scale, sizeof(float)), 0);
    EXPECT_EQ(a.w_scale, b.w_scale) << "record " << i;
    EXPECT_EQ(a.bias, b.bias) << "record " << i;
    EXPECT_EQ(a.wq, b.wq) << "record " << i;
  }
  for (std::size_t i = before.size(); i < after.size(); ++i)
    EXPECT_EQ(after[i].seq, head_seq_id(1)) << "record " << i;
  // And the SpMV answers did not move.
  for (const CorpusEntry& e : t.p.corpus)
    EXPECT_EQ(t.int8.predict_index(e.matrix),
              t.int8_spmv.predict_index(e.matrix));
}

TEST(TwoHead, MigrationOtherThanTopEvolveThrows) {
  TwoHeads& t = two_heads();
  TrainConfig cfg = fast_options().train;
  cfg.epochs = 1;
  for (const MigrationMethod m :
       {MigrationMethod::kFromScratch, MigrationMethod::kContinuous}) {
    try {
      t.fp32.migrate(m, t.train, cfg);
      ADD_FAILURE() << migration_method_name(m) << " migrated two heads";
    } catch (const DnnspmvError& e) {
      EXPECT_EQ(e.code(), errc::invalid_argument) << e.what();
    }
  }
}

TEST(TwoHead, TopEvolveLeavesSpmmHeadBitwise) {
  TwoHeads& t = two_heads();
  // The SpMV head moves to AMD-A8 labels (the SpMM head's, for brevity).
  const Dataset target = build_dataset(
      t.spmm_labeled, t.p.platform->formats(), t.fp32.options().mode,
      t.fp32.options().rep_rows, t.fp32.options().rep_bins);
  TrainConfig cfg = fast_options().train;
  cfg.epochs = 3;
  FormatSelector moved =
      t.fp32.migrate(MigrationMethod::kTopEvolve, target, cfg);
  FormatSelector& src = t.fp32;
  EXPECT_EQ(head_values(moved, 1), head_values(src, 1));
  // The SpMV head did retrain, so the check above is not vacuous.
  EXPECT_NE(head_values(moved, 0), head_values(src, 0));
  for (const CorpusEntry& e : t.p.corpus)
    EXPECT_EQ(moved.predict_index(e.matrix, SpOp::kSpmm),
              src.predict_index(e.matrix, SpOp::kSpmm));
}

}  // namespace
}  // namespace dnnspmv
