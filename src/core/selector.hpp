// FormatSelector — the library's public façade.
//
// Wraps the full pipeline of paper Figure 3: given matrices labelled on a
// platform (collect_labels), it normalizes them (RepMode), builds the
// late-merging CNN, trains it, and then predicts the best SpMV format for
// unseen matrices. Models persist to a single file and can be migrated to
// another platform with migrate() (paper §6).
//
// Representations do not depend on the op, so one network answers both:
// fit() trains the towers and the SpMV head, fit_spmm() adds an SpMM head
// over the same tower codes, and a mixed batch runs the towers once.
#pragma once

#include <memory>
#include <string>

#include "core/rep_stream.hpp"
#include "core/represent.hpp"
#include "core/transfer.hpp"
#include "ml/features.hpp"
#include "nn/quant.hpp"
#include "perf/labels.hpp"

namespace dnnspmv {

struct SelectorOptions {
  RepMode mode = RepMode::kHistogram;
  std::int64_t rep_rows = 32;  // rows of the representation
  std::int64_t rep_bins = 16;  // histogram bins (ignored for binary/density)
  // Sampling budget for the streaming representation builder: matrices
  // with more nonzeros than this are represented from a deterministic
  // strided sample instead of a full pass (<= 0 always exact). Applied
  // identically at train and serve time, so representations stay
  // bit-identical across the two.
  std::int64_t rep_sample_nnz = kDefaultRepSampleNnz;
  bool late_merge = true;
  // Post-training int8 quantization of the inference path (DESIGN.md §13):
  // fit() calibrates on the training slice and predictions run the int8
  // kernels; migrate() re-calibrates on the target dataset, so online
  // publishes stay quantized. Rides save/load and clone(), and is
  // validated by ModelRegistry::publish like the rep geometry.
  bool quantize = false;
  // Representation tensors are normalized and bounded (no outlier tail),
  // so exact-range calibration beats percentile clipping here — it keeps
  // the top of the activation range instead of saturating it.
  QuantConfig quant{.observer = QuantConfig::Observer::kMinMax};
  // K (dense columns) the SpMM head's labels were measured at. Purely
  // descriptive for inference — representations are op-independent — but
  // published models must agree on it (ModelRegistry validates), since a
  // head trained at K=8 answers a K=128 workload with stale crossovers.
  index_t spmm_cols = 32;
  TrainConfig train;
};

/// Builds the CNN-ready dataset from labelled matrices: step 2 of Figure 3.
/// Representations come from the same streaming sampled builder the serve
/// path uses (same rep_sample_nnz => same tensors, bitwise).
Dataset build_dataset(const std::vector<LabeledMatrix>& labeled,
                      const std::vector<Format>& candidates, RepMode mode,
                      std::int64_t rep_rows, std::int64_t rep_bins,
                      std::int64_t rep_sample_nnz = kDefaultRepSampleNnz);

class FormatSelector {
 public:
  explicit FormatSelector(SelectorOptions opts = {});

  /// Full pipeline: normalize + build CNN + train.
  void fit(const std::vector<LabeledMatrix>& labeled,
           std::vector<Format> candidates);

  /// Trains on a pre-built dataset (its candidates become this selector's).
  void fit(const Dataset& train);

  /// Adds the optional SpMM head and trains it on SpMM-measured labels
  /// (same candidates and geometry; only the labels differ) with the
  /// towers frozen (paper §6's top evolvement), so SpMV answers do not
  /// move. Once per fit(). On a quantized selector the head is calibrated
  /// on `train` and joins the int8 plan. After this, predict*(a,
  /// SpOp::kSpmm) routes through the new head.
  void fit_spmm(const std::vector<LabeledMatrix>& labeled);
  void fit_spmm(const Dataset& train);

  /// Whether predict*() can answer for `op`: kSpmv after fit(), kSpmm after
  /// fit_spmm().
  bool supports(SpOp op) const;

  /// Predicted best format for a new matrix.
  ///
  /// Thread safety: predict/predict_index/predict_batch/predict_prepared
  /// are const and re-entrant: every forward writes only to a Workspace
  /// the caller owns (or the calling thread's), so any number of threads
  /// may predict on one trained selector at once — a published registry
  /// snapshot is shared by every replica that serves it. Concurrent
  /// prediction must not overlap with fit()/quantize() on the same object
  /// (published models are never mutated again).
  Format predict(const Csr& a, SpOp op = SpOp::kSpmv) const;

  /// Index into candidates() instead of the Format enum.
  std::int32_t predict_index(const Csr& a, SpOp op = SpOp::kSpmv) const;

  /// Batched predict: one forward pass over all matrices through the same
  /// batched-tensor path the trainer uses. Element i equals predict(as[i])
  /// exactly (per-sample arithmetic is batch-size invariant).
  std::vector<Format> predict_batch(const std::vector<Csr>& as,
                                    SpOp op = SpOp::kSpmv) const;
  std::vector<std::int32_t> predict_index_batch(
      const std::vector<const Csr*>& as, SpOp op = SpOp::kSpmv) const;

  /// CNN-ready representations of one matrix — the per-request work a
  /// serving layer runs in its client threads. Pure function of the matrix
  /// and options.
  std::vector<Tensor> prepare_inputs(const Csr& a) const;

  /// Argmax candidate indices for pre-built representations, one batched
  /// forward pass (fp32 or int8): the towers run once over the batch and
  /// sample i is classified by ops[i]'s head. The micro-batching backend of
  /// serve::SelectionService. `ws` supplies the batch packing and
  /// forward-pass scratch (serve workers keep one each, so miss-path
  /// inference reuses warm buffers); null uses the calling thread's.
  std::vector<std::int32_t> predict_prepared(
      const std::vector<std::vector<Tensor>>& prepared,
      const std::vector<SpOp>& ops, Workspace* ws = nullptr) const;

  /// The same, every sample for `op`.
  std::vector<std::int32_t> predict_prepared(
      const std::vector<std::vector<Tensor>>& prepared, Workspace* ws = nullptr,
      SpOp op = SpOp::kSpmv) const;

  const std::vector<Format>& candidates() const { return candidates_; }

  /// The streaming representation builder prepare_inputs runs — exposed so
  /// serving layers can drive the allocation-free build_into() path with
  /// their own arenas and pooled output buffers.
  const StreamingRepBuilder& rep_builder() const { return rep_builder_; }

  /// Index of `f` in candidates(), or -1 when `f` is not a candidate.
  /// Lets alternate answer paths (the serve layer's FallbackSelector, cost
  /// models) map a Format into this selector's class-index space.
  std::int32_t candidate_index(Format f) const;
  const SelectorOptions& options() const { return opts_; }
  bool trained() const { return net_ != nullptr; }
  MergeNet& net();

  /// Calibrates on `calib` (observer pass over its samples) and converts
  /// the net to int8 inference. Subsequent predictions run the quantized
  /// kernels; the fp32 weights stay untouched (training/migration still
  /// works). Called automatically by fit()/migrate() when
  /// SelectorOptions::quantize is set; public so an already-trained
  /// selector can be quantized after the fact.
  void quantize(const Dataset& calib);
  bool quantized() const { return qws_ != nullptr; }

  /// The quantized weight set, or null when not quantized. Exposed for
  /// serialization tests; treat as read-only.
  const QuantizedWeightSet* quantized_weights() const { return qws_.get(); }

  /// Version of this weight set in its ModelRegistry's numbering: 0 for a
  /// model that was never published (offline training, ad-hoc clones);
  /// >= 1 once stamped by ModelRegistry::publish. Rides clone(), save()
  /// and load(), so a serialized weight set keeps its provenance.
  std::uint64_t model_version() const { return model_version_; }

  /// Deep copy of a trained selector: a fresh MergeNet with identical
  /// architecture and weights (and int8 plan). For callers that need an
  /// owned, mutable model — training, publishing, the legacy one-selector
  /// serving constructors; serving itself shares one immutable snapshot.
  /// O(#params); no retraining.
  FormatSelector clone() const;

  /// Migrates this selector's model to a new platform's SpMV labels. An
  /// SpMM head is carried bitwise, so only kTopEvolve (which keeps the
  /// tower codes it reads) is accepted then; others throw invalid_argument.
  FormatSelector migrate(MigrationMethod method, const Dataset& target_train,
                         const TrainConfig& cfg) const;

  void save(const std::string& path) const;
  static FormatSelector load(const std::string& path);

 private:
  CnnSpec make_spec() const;
  /// An untrained net with `heads` heads (1: SpMV; 2: SpMV + SpMM).
  std::unique_ptr<MergeNet> build_net(std::size_t heads) const;
  std::vector<std::vector<Tensor>> calib_batches(const Dataset& calib) const;

  friend class ModelRegistry;  // stamps model_version_ at publish time

  SelectorOptions opts_;
  StreamingRepBuilder rep_builder_;  // derived from opts_; keep adjacent
  std::vector<Format> candidates_;
  std::uint64_t model_version_ = 0;
  // Head 0 answers SpMV, head 1 (after fit_spmm) SpMM. On the heap so the
  // int8 executor's pointers into it survive a move.
  std::unique_ptr<MergeNet> net_;
  // Int8 inference state: the serializable weight set and the compiled
  // executor over net_. Both null on fp32 selectors; rebuilt over the
  // copy's net on clone.
  std::unique_ptr<QuantizedWeightSet> qws_;
  std::unique_ptr<QuantizedMergeNet> qnet_;
};

}  // namespace dnnspmv
