#include "core/selector.hpp"

#include <fstream>

#include "common/error.hpp"
#include "core/trainer.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"

namespace dnnspmv {

Dataset build_dataset(const std::vector<LabeledMatrix>& labeled,
                      const std::vector<Format>& candidates, RepMode mode,
                      std::int64_t rep_rows, std::int64_t rep_bins,
                      std::int64_t rep_sample_nnz) {
  const StreamingRepBuilder builder(
      {mode, rep_rows, rep_bins, rep_sample_nnz, /*use_simd=*/true});
  Dataset ds;
  ds.candidates = candidates;
  ds.samples.reserve(labeled.size());
  for (const LabeledMatrix& lm : labeled) {
    Sample s;
    s.inputs = builder.build(*lm.matrix);
    s.features = extract_features(*lm.matrix);
    s.format_times = lm.format_times;
    s.label = lm.label;
    s.gen_class = static_cast<std::int32_t>(lm.gen_class);
    ds.samples.push_back(std::move(s));
  }
  return ds;
}

FormatSelector::FormatSelector(SelectorOptions opts)
    : opts_(std::move(opts)),
      rep_builder_({opts_.mode, opts_.rep_rows, opts_.rep_bins,
                    opts_.rep_sample_nnz, /*use_simd=*/true}) {}

CnnSpec FormatSelector::make_spec() const {
  CnnSpec spec;
  const int nsources = rep_num_sources(opts_.mode);
  for (int s = 0; s < nsources; ++s) {
    if (opts_.mode == RepMode::kHistogram)
      spec.input_hw.push_back({opts_.rep_rows, opts_.rep_bins});
    else
      spec.input_hw.push_back({opts_.rep_rows, opts_.rep_rows});
  }
  spec.num_classes = static_cast<int>(candidates_.size());
  spec.late_merge = opts_.late_merge;
  spec.seed = opts_.train.seed;
  return spec;
}

void FormatSelector::fit(const std::vector<LabeledMatrix>& labeled,
                         std::vector<Format> candidates) {
  candidates_ = std::move(candidates);
  const Dataset ds =
      build_dataset(labeled, candidates_, opts_.mode, opts_.rep_rows,
                    opts_.rep_bins, opts_.rep_sample_nnz);
  const CnnSpec spec = make_spec();
  net_ = std::make_unique<MergeNet>(build_cnn(spec));
  train_cnn(*net_, ds, num_net_inputs(spec), opts_.train);
  if (opts_.quantize) quantize(ds);
}

void FormatSelector::fit(const Dataset& train) {
  DNNSPMV_CHECK(!train.samples.empty());
  candidates_ = train.candidates;
  const CnnSpec spec = make_spec();
  net_ = std::make_unique<MergeNet>(build_cnn(spec));
  train_cnn(*net_, train, num_net_inputs(spec), opts_.train);
  if (opts_.quantize) quantize(train);
}

void FormatSelector::fit_spmm(const std::vector<LabeledMatrix>& labeled) {
  DNNSPMV_CHECK_MSG(net_, "fit_spmm before fit: the SpMV head defines the "
                          "candidate set and representation geometry");
  const Dataset ds =
      build_dataset(labeled, candidates_, opts_.mode, opts_.rep_rows,
                    opts_.rep_bins, opts_.rep_sample_nnz);
  fit_spmm(ds);
}

void FormatSelector::fit_spmm(const Dataset& train) {
  DNNSPMV_CHECK_MSG(net_, "fit_spmm before fit: the SpMV head defines the "
                          "candidate set and representation geometry");
  DNNSPMV_CHECK(!train.samples.empty());
  DNNSPMV_CHECK_MSG(train.candidates == candidates_,
                    "SpMM labels must use the SpMV head's candidate formats");
  CnnSpec spec = make_spec();
  // Decorrelate the two heads' initializations; identical seeds would give
  // identical nets whenever the label sets happen to agree.
  spec.seed = opts_.train.seed ^ 0x5b4d4dULL;  // "SpMM"-ish tag
  spmm_net_ = std::make_unique<MergeNet>(build_cnn(spec));
  train_cnn(*spmm_net_, train, num_net_inputs(spec), opts_.train);
  // Keep the both-heads-quantized-or-neither invariant: a quantized
  // selector gaining an SpMM head quantizes it on its own training slice.
  if (qws_ || opts_.quantize) quantize_spmm(train);
}

bool FormatSelector::supports(SpOp op) const {
  return op == SpOp::kSpmv ? net_ != nullptr : spmm_net_ != nullptr;
}

std::vector<std::vector<Tensor>> FormatSelector::calib_batches(
    const Dataset& calib) const {
  const int ninputs = num_net_inputs(make_spec());
  const std::int64_t cap =
      std::min<std::int64_t>(opts_.quant.max_calib_samples,
                             static_cast<std::int64_t>(calib.samples.size()));
  const std::int64_t bs = std::max(1, opts_.train.batch);
  Workspace ws;
  std::vector<std::vector<Tensor>> batches;
  for (std::int64_t i = 0; i < cap; i += bs) {
    std::vector<std::int32_t> idx;
    for (std::int64_t j = i; j < std::min(cap, i + bs); ++j)
      idx.push_back(static_cast<std::int32_t>(j));
    batches.push_back(assemble_batch(sample_inputs(calib, idx), ninputs, ws));
  }
  return batches;
}

void FormatSelector::quantize(const Dataset& calib) {
  DNNSPMV_CHECK_MSG(net_, "quantize an untrained FormatSelector");
  DNNSPMV_CHECK_MSG(!calib.samples.empty(),
                    "quantize needs a calibration dataset");
  const std::vector<std::vector<Tensor>> batches = calib_batches(calib);
  qws_ = std::make_unique<QuantizedWeightSet>(
      quantize_merge_net(*net_, batches, opts_.quant));
  qnet_ = std::make_unique<QuantizedMergeNet>(*net_, *qws_);
  opts_.quantize = true;
  // Representations are op-independent, so the same calibration batches
  // exercise the SpMM head's activation ranges.
  if (spmm_net_) quantize_spmm(calib);
}

void FormatSelector::quantize_spmm(const Dataset& calib) {
  DNNSPMV_CHECK(spmm_net_ && !calib.samples.empty());
  const std::vector<std::vector<Tensor>> batches = calib_batches(calib);
  spmm_qws_ = std::make_unique<QuantizedWeightSet>(
      quantize_merge_net(*spmm_net_, batches, opts_.quant));
  spmm_qnet_ = std::make_unique<QuantizedMergeNet>(*spmm_net_, *spmm_qws_);
}

std::vector<Tensor> FormatSelector::prepare_inputs(const Csr& a) const {
  DNNSPMV_CHECK_MSG(net_, "predict on an untrained FormatSelector");
  return rep_builder_.build(a);
}

std::vector<std::int32_t> FormatSelector::predict_prepared(
    const std::vector<std::vector<Tensor>>& prepared, Workspace* ws,
    SpOp op) const {
  DNNSPMV_CHECK_MSG(net_, "predict on an untrained FormatSelector");
  DNNSPMV_CHECK_MSG(op == SpOp::kSpmv || spmm_net_,
                    "predict(kSpmm) on a selector without an SpMM head "
                    "(fit_spmm was never called)");
  if (prepared.empty()) return {};
  Workspace& w = ws ? *ws : thread_workspace();
  std::vector<const std::vector<Tensor>*> samples;
  samples.reserve(prepared.size());
  for (const std::vector<Tensor>& inputs : prepared) samples.push_back(&inputs);
  // One forward over the whole batch, fp32 or int8.
  const std::vector<Tensor>& inputs =
      assemble_batch(samples, num_net_inputs(make_spec()), w);
  const QuantizedMergeNet* qnet =
      op == SpOp::kSpmv ? qnet_.get() : spmm_qnet_.get();
  Tensor logits;
  if (qnet)
    qnet->forward(inputs, logits, w);
  else
    (op == SpOp::kSpmv ? net_ : spmm_net_)
        ->forward(inputs, logits, /*training=*/false, w);
  return argmax_rows(logits);
}

std::int32_t FormatSelector::predict_index(const Csr& a, SpOp op) const {
  return predict_prepared({prepare_inputs(a)}, nullptr, op)[0];
}

std::vector<std::int32_t> FormatSelector::predict_index_batch(
    const std::vector<const Csr*>& as, SpOp op) const {
  std::vector<std::vector<Tensor>> prepared;
  prepared.reserve(as.size());
  for (const Csr* a : as) {
    DNNSPMV_CHECK(a != nullptr);
    prepared.push_back(prepare_inputs(*a));
  }
  return predict_prepared(prepared, nullptr, op);
}

std::vector<Format> FormatSelector::predict_batch(const std::vector<Csr>& as,
                                                  SpOp op) const {
  std::vector<const Csr*> ptrs;
  ptrs.reserve(as.size());
  for (const Csr& a : as) ptrs.push_back(&a);
  std::vector<Format> out;
  out.reserve(as.size());
  for (std::int32_t idx : predict_index_batch(ptrs, op))
    out.push_back(candidates_[static_cast<std::size_t>(idx)]);
  return out;
}

Format FormatSelector::predict(const Csr& a, SpOp op) const {
  return candidates_[static_cast<std::size_t>(predict_index(a, op))];
}

std::int32_t FormatSelector::candidate_index(Format f) const {
  for (std::size_t i = 0; i < candidates_.size(); ++i)
    if (candidates_[i] == f) return static_cast<std::int32_t>(i);
  return -1;
}

MergeNet& FormatSelector::net() {
  DNNSPMV_CHECK(net_);
  return *net_;
}

FormatSelector FormatSelector::clone() const {
  DNNSPMV_CHECK_MSG(net_, "clone of an untrained FormatSelector");
  FormatSelector out(opts_);
  out.candidates_ = candidates_;
  // Clones carry the weight set's registry version.
  out.model_version_ = model_version_;
  out.net_ = std::make_unique<MergeNet>(build_cnn(out.make_spec()));
  copy_params(const_cast<MergeNet&>(*net_).params(), out.net_->params());
  if (qws_) {
    // The weight set is pure data; the executor is rebuilt over the
    // clone's net, which its fp32 passthrough ops point into.
    out.qws_ = std::make_unique<QuantizedWeightSet>(*qws_);
    out.qnet_ = std::make_unique<QuantizedMergeNet>(*out.net_, *out.qws_);
  }
  if (spmm_net_) {
    CnnSpec spec = out.make_spec();
    spec.seed = opts_.train.seed ^ 0x5b4d4dULL;
    out.spmm_net_ = std::make_unique<MergeNet>(build_cnn(spec));
    copy_params(const_cast<MergeNet&>(*spmm_net_).params(),
                out.spmm_net_->params());
    if (spmm_qws_) {
      out.spmm_qws_ = std::make_unique<QuantizedWeightSet>(*spmm_qws_);
      out.spmm_qnet_ =
          std::make_unique<QuantizedMergeNet>(*out.spmm_net_, *out.spmm_qws_);
    }
  }
  return out;
}

FormatSelector FormatSelector::migrate(MigrationMethod method,
                                       const Dataset& target_train,
                                       const TrainConfig& cfg) const {
  DNNSPMV_CHECK_MSG(net_, "migrate from an untrained FormatSelector");
  DNNSPMV_CHECK_MSG(target_train.candidates == candidates_,
                    "target platform must use the same candidate formats");
  FormatSelector out(opts_);
  out.opts_.train = cfg;
  out.candidates_ = candidates_;
  out.net_ = std::make_unique<MergeNet>(
      migrate_model(make_spec(), *net_, method, target_train, cfg));
  // The SpMM head rides migration as a weight copy: target_train holds
  // SpMV labels, so fine-tuning the SpMM head on it would erase what makes
  // the head different. Carrying it means a migrated/online-published
  // model still answers both ops (ModelRegistry checks op support).
  if (spmm_net_) {
    CnnSpec spec = out.make_spec();
    spec.seed = opts_.train.seed ^ 0x5b4d4dULL;
    out.spmm_net_ = std::make_unique<MergeNet>(build_cnn(spec));
    copy_params(const_cast<MergeNet&>(*spmm_net_).params(),
                out.spmm_net_->params());
  }
  // Re-quantize on the migration target: the fine-tuned weights get fresh
  // scales and the calibration distribution matches the data the migrated
  // model will serve. This is what keeps online publishes quantized —
  // OnlineTrainer migrates onto its replay dataset before every publish.
  // (quantize() covers the SpMM head too — representations are
  // op-independent, so the calibration batches are valid for both.)
  if (out.opts_.quantize) out.quantize(target_train);
  return out;
}

void FormatSelector::save(const std::string& path) const {
  DNNSPMV_CHECK_MSG(net_, "save of an untrained FormatSelector");
  std::ofstream os(path, std::ios::binary);
  DNNSPMV_CHECK_MSG(os.is_open(), "cannot open " << path << " for write");
  // The header carries the registry version the weights were published
  // as, so a reloaded model keeps its provenance. The options block holds
  // the quantize flag and the SpMM-head flag + K; the optional int8 weight
  // set and SpMM-head params trail the SpMV head's params.
  save_weight_set_header(os, WeightSetHeader{.model_version = model_version_});
  const auto mode = static_cast<std::int32_t>(opts_.mode);
  os.write(reinterpret_cast<const char*>(&mode), sizeof(mode));
  os.write(reinterpret_cast<const char*>(&opts_.rep_rows), sizeof(opts_.rep_rows));
  os.write(reinterpret_cast<const char*>(&opts_.rep_bins), sizeof(opts_.rep_bins));
  os.write(reinterpret_cast<const char*>(&opts_.rep_sample_nnz),
           sizeof(opts_.rep_sample_nnz));
  const std::int32_t late = opts_.late_merge ? 1 : 0;
  os.write(reinterpret_cast<const char*>(&late), sizeof(late));
  const std::int32_t quant = qws_ ? 1 : 0;
  os.write(reinterpret_cast<const char*>(&quant), sizeof(quant));
  const std::int32_t has_spmm = spmm_net_ ? 1 : 0;
  os.write(reinterpret_cast<const char*>(&has_spmm), sizeof(has_spmm));
  os.write(reinterpret_cast<const char*>(&opts_.spmm_cols),
           sizeof(opts_.spmm_cols));
  const auto ncand = static_cast<std::int32_t>(candidates_.size());
  os.write(reinterpret_cast<const char*>(&ncand), sizeof(ncand));
  for (Format f : candidates_) {
    const auto fi = static_cast<std::int32_t>(f);
    os.write(reinterpret_cast<const char*>(&fi), sizeof(fi));
  }
  save_params(os, const_cast<MergeNet&>(*net_).params());
  if (qws_) qws_->save(os);
  if (spmm_net_) {
    save_params(os, const_cast<MergeNet&>(*spmm_net_).params());
    if (spmm_qws_) spmm_qws_->save(os);
  }
}

FormatSelector FormatSelector::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DNNSPMV_CHECK_MSG(is.is_open(), "cannot open " << path);
  SelectorOptions opts;
  const WeightSetHeader header = read_weight_set_header(is);
  std::int32_t mode = 0, late = 0, ncand = 0, quant = 0, has_spmm = 0;
  is.read(reinterpret_cast<char*>(&mode), sizeof(mode));
  is.read(reinterpret_cast<char*>(&opts.rep_rows), sizeof(opts.rep_rows));
  is.read(reinterpret_cast<char*>(&opts.rep_bins), sizeof(opts.rep_bins));
  is.read(reinterpret_cast<char*>(&opts.rep_sample_nnz),
          sizeof(opts.rep_sample_nnz));
  is.read(reinterpret_cast<char*>(&late), sizeof(late));
  is.read(reinterpret_cast<char*>(&quant), sizeof(quant));
  is.read(reinterpret_cast<char*>(&has_spmm), sizeof(has_spmm));
  is.read(reinterpret_cast<char*>(&opts.spmm_cols), sizeof(opts.spmm_cols));
  is.read(reinterpret_cast<char*>(&ncand), sizeof(ncand));
  DNNSPMV_CHECK_MSG(is.good() && ncand >= 2, "corrupt selector file");
  opts.mode = static_cast<RepMode>(mode);
  opts.late_merge = late != 0;
  opts.quantize = quant != 0;
  FormatSelector sel(opts);
  for (std::int32_t i = 0; i < ncand; ++i) {
    std::int32_t fi = 0;
    is.read(reinterpret_cast<char*>(&fi), sizeof(fi));
    sel.candidates_.push_back(static_cast<Format>(fi));
  }
  sel.model_version_ = header.model_version;
  sel.net_ = std::make_unique<MergeNet>(build_cnn(sel.make_spec()));
  load_params(is, sel.net_->params());
  if (quant != 0) {
    // The executor constructor validates the weight set against the
    // freshly built net (layer kinds + shapes) and throws errc::data_error
    // when the file does not match this architecture.
    sel.qws_ = std::make_unique<QuantizedWeightSet>(
        QuantizedWeightSet::load(is));
    sel.qnet_ = std::make_unique<QuantizedMergeNet>(*sel.net_, *sel.qws_);
  }
  if (has_spmm != 0) {
    CnnSpec spec = sel.make_spec();
    spec.seed = sel.opts_.train.seed ^ 0x5b4d4dULL;
    sel.spmm_net_ = std::make_unique<MergeNet>(build_cnn(spec));
    load_params(is, sel.spmm_net_->params());
    if (quant != 0) {
      sel.spmm_qws_ = std::make_unique<QuantizedWeightSet>(
          QuantizedWeightSet::load(is));
      sel.spmm_qnet_ =
          std::make_unique<QuantizedMergeNet>(*sel.spmm_net_, *sel.spmm_qws_);
    }
  }
  return sel;
}

}  // namespace dnnspmv
