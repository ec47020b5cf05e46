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

namespace {

// The net's head per op is the op's value: fit() trains head 0 for SpMV,
// fit_spmm() adds head 1 for SpMM over the same tower codes.
constexpr std::size_t head_of(SpOp op) { return static_cast<std::size_t>(op); }
constexpr std::size_t kSpmmHead = head_of(SpOp::kSpmm);

// Decorrelates the SpMM head's initialization from the SpMV head's.
constexpr std::uint64_t kSpmmSeedTag = 0x5b4d4dULL;  // "SpMM"-ish tag

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void read_pod(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
}

}  // namespace

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

std::unique_ptr<MergeNet> FormatSelector::build_net(std::size_t heads) const {
  auto net = std::make_unique<MergeNet>(build_cnn(make_spec()));
  if (heads > kSpmmHead) {
    CnnSpec spec = make_spec();
    spec.seed ^= kSpmmSeedTag;
    add_cnn_head(*net, spec);
  }
  return net;
}

void FormatSelector::fit(const std::vector<LabeledMatrix>& labeled,
                         std::vector<Format> candidates) {
  candidates_ = std::move(candidates);
  fit(build_dataset(labeled, candidates_, opts_.mode, opts_.rep_rows,
                    opts_.rep_bins, opts_.rep_sample_nnz));
}

void FormatSelector::fit(const Dataset& train) {
  DNNSPMV_CHECK(!train.samples.empty());
  candidates_ = train.candidates;
  net_ = build_net(1);
  train_cnn(*net_, train, num_net_inputs(make_spec()), opts_.train);
  if (opts_.quantize) quantize(train);
}

void FormatSelector::fit_spmm(const std::vector<LabeledMatrix>& labeled) {
  DNNSPMV_CHECK_MSG(net_, "fit_spmm before fit: the SpMV head defines the "
                          "candidate set and representation geometry");
  fit_spmm(build_dataset(labeled, candidates_, opts_.mode, opts_.rep_rows,
                         opts_.rep_bins, opts_.rep_sample_nnz));
}

void FormatSelector::fit_spmm(const Dataset& train) {
  DNNSPMV_CHECK_MSG(net_, "fit_spmm before fit: the SpMV head defines the "
                          "candidate set and representation geometry");
  DNNSPMV_CHECK_MSG(!supports(SpOp::kSpmm),
                    "fit_spmm twice: the SpMM head is fitted once per fit()");
  DNNSPMV_CHECK(!train.samples.empty());
  DNNSPMV_CHECK_MSG(train.candidates == candidates_,
                    "SpMM labels must use the SpMV head's candidate formats");
  CnnSpec spec = make_spec();
  spec.seed ^= kSpmmSeedTag;
  add_cnn_head(*net_, spec);
  // Top evolvement onto the SpMM labels: the towers' codes (and the SpMV
  // head that reads them) stay exactly as fit() left them.
  net_->freeze_towers(kSpmmHead);
  train_cnn(*net_, train, num_net_inputs(spec), opts_.train, kSpmmHead);
  net_->unfreeze_all();
  // A quantized selector stays quantized: the new head is calibrated on its
  // own training slice and only its records are appended, so the tower and
  // SpMV-head records stay byte-identical.
  if (qws_) {
    for (QLayer& l :
         quantize_merge_net(*net_, calib_batches(train), opts_.quant).layers)
      if (l.seq == head_seq_id(kSpmmHead)) qws_->layers.push_back(std::move(l));
    qnet_ = std::make_unique<QuantizedMergeNet>(*net_, *qws_);
  }
}

bool FormatSelector::supports(SpOp op) const {
  return net_ != nullptr && head_of(op) < net_->num_heads();
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
  // Representations are op-independent, so one calibration slice
  // exercises the towers and every head.
  qws_ = std::make_unique<QuantizedWeightSet>(
      quantize_merge_net(*net_, calib_batches(calib), opts_.quant));
  qnet_ = std::make_unique<QuantizedMergeNet>(*net_, *qws_);
  opts_.quantize = true;
}

std::vector<Tensor> FormatSelector::prepare_inputs(const Csr& a) const {
  DNNSPMV_CHECK_MSG(net_, "predict on an untrained FormatSelector");
  return rep_builder_.build(a);
}

std::vector<std::int32_t> FormatSelector::predict_prepared(
    const std::vector<std::vector<Tensor>>& prepared, Workspace* ws,
    SpOp op) const {
  return predict_prepared(prepared, std::vector<SpOp>(prepared.size(), op),
                          ws);
}

std::vector<std::int32_t> FormatSelector::predict_prepared(
    const std::vector<std::vector<Tensor>>& prepared,
    const std::vector<SpOp>& ops, Workspace* ws) const {
  DNNSPMV_CHECK_MSG(net_, "predict on an untrained FormatSelector");
  DNNSPMV_CHECK(ops.size() == prepared.size());
  if (prepared.empty()) return {};
  std::vector<std::int32_t> heads;
  heads.reserve(ops.size());
  for (const SpOp op : ops) {
    DNNSPMV_CHECK_MSG(supports(op),
                      "predict(kSpmm) on a selector without an SpMM head "
                      "(fit_spmm was never called)");
    heads.push_back(static_cast<std::int32_t>(head_of(op)));
  }
  Workspace& w = ws ? *ws : thread_workspace();
  std::vector<const std::vector<Tensor>*> samples;
  samples.reserve(prepared.size());
  for (const std::vector<Tensor>& inputs : prepared) samples.push_back(&inputs);
  // One tower pass over the whole batch, fp32 or int8; each head then
  // classifies only its own op's rows.
  const std::vector<Tensor>& inputs =
      assemble_batch(samples, num_net_inputs(make_spec()), w);
  Tensor logits;
  if (qnet_)
    qnet_->forward(inputs, heads, logits, w);
  else
    net_->forward(inputs, heads, logits, w);
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
  out.net_ = out.build_net(net_->num_heads());
  copy_params(net_->params(), out.net_->params());
  if (qws_) {
    // The weight set is pure data; the executor is rebuilt over the
    // clone's net, which its fp32 passthrough ops point into.
    out.qws_ = std::make_unique<QuantizedWeightSet>(*qws_);
    out.qnet_ = std::make_unique<QuantizedMergeNet>(*out.net_, *out.qws_);
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
  // target_train holds SpMV labels, so only the SpMV head retrains; an
  // SpMM head rides along bitwise, which is why a two-head selector
  // migrates by top evolvement only (migrate_model throws otherwise).
  out.net_ = std::make_unique<MergeNet>(
      migrate_model(make_spec(), *net_, method, target_train, cfg));
  // Re-quantize on the migration target: the fine-tuned weights get fresh
  // scales and the calibration distribution matches the data the migrated
  // model will serve. This is what keeps online publishes quantized —
  // OnlineTrainer migrates onto its replay dataset before every publish.
  if (out.opts_.quantize) out.quantize(target_train);
  return out;
}

void FormatSelector::save(const std::string& path) const {
  DNNSPMV_CHECK_MSG(net_, "save of an untrained FormatSelector");
  std::ofstream os(path, std::ios::binary);
  DNNSPMV_CHECK_MSG(os.is_open(), "cannot open " << path << " for write");
  // Header (with the registry version the weights were published as, so a
  // reloaded model keeps its provenance), options, candidates, the whole
  // net's params — towers, then every head — and the int8 weight set when
  // quantized.
  save_weight_set_header(os, WeightSetHeader{.model_version = model_version_});
  write_pod(os, static_cast<std::int32_t>(opts_.mode));
  write_pod(os, opts_.rep_rows);
  write_pod(os, opts_.rep_bins);
  write_pod(os, opts_.rep_sample_nnz);
  write_pod(os, static_cast<std::int32_t>(opts_.late_merge ? 1 : 0));
  write_pod(os, static_cast<std::int32_t>(qws_ ? 1 : 0));
  write_pod(os, static_cast<std::int32_t>(net_->num_heads()));
  write_pod(os, opts_.spmm_cols);
  write_pod(os, static_cast<std::int32_t>(candidates_.size()));
  for (Format f : candidates_) write_pod(os, static_cast<std::int32_t>(f));
  save_params(os, net_->params());
  if (qws_) qws_->save(os);
}

FormatSelector FormatSelector::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DNNSPMV_CHECK_MSG(is.is_open(), "cannot open " << path);
  SelectorOptions opts;
  const WeightSetHeader header = read_weight_set_header(is);
  std::int32_t mode = 0, late = 0, quant = 0, heads = 0, ncand = 0;
  read_pod(is, mode);
  read_pod(is, opts.rep_rows);
  read_pod(is, opts.rep_bins);
  read_pod(is, opts.rep_sample_nnz);
  read_pod(is, late);
  read_pod(is, quant);
  read_pod(is, heads);
  read_pod(is, opts.spmm_cols);
  read_pod(is, ncand);
  DNNSPMV_CHECK_MSG(is.good() && ncand >= 2 && heads >= 1 && heads <= 2,
                    "corrupt selector file");
  opts.mode = static_cast<RepMode>(mode);
  opts.late_merge = late != 0;
  opts.quantize = quant != 0;
  FormatSelector sel(opts);
  for (std::int32_t i = 0; i < ncand; ++i) {
    std::int32_t fi = 0;
    read_pod(is, fi);
    sel.candidates_.push_back(static_cast<Format>(fi));
  }
  sel.model_version_ = header.model_version;
  sel.net_ = sel.build_net(static_cast<std::size_t>(heads));
  load_params(is, sel.net_->params());
  if (quant != 0) {
    // The executor constructor validates the weight set against the
    // freshly built net (layer kinds + shapes) and throws errc::data_error
    // when the file does not match this architecture.
    sel.qws_ = std::make_unique<QuantizedWeightSet>(
        QuantizedWeightSet::load(is));
    sel.qnet_ = std::make_unique<QuantizedMergeNet>(*sel.net_, *sel.qws_);
  }
  return sel;
}

}  // namespace dnnspmv
