#include "serve/adaptive.hpp"

#include <mutex>
#include <utility>

#include "common/hash.hpp"
#include "common/timer.hpp"
#include "serve/fingerprint.hpp"

namespace dnnspmv {

/// Everything the deferred feedback probe needs, retained only while the
/// probe is still pending. The matrix copy and representations are
/// released as soon as the sample is published.
struct AdaptiveSpmv::Probe {
  std::once_flag once;
  FeedbackCollector* collector = nullptr;
  std::vector<Format> formats;
  int reps = 3;
  std::uint64_t fingerprint = 0;
  std::vector<Tensor> inputs;
  Csr matrix;
};

PredictionCache& AdaptiveSpmv::shared_prediction_cache() {
  static PredictionCache cache(/*capacity=*/4096, /*shards=*/8);
  return cache;
}

AnyFormatMatrix AdaptiveSpmv::convert_or_csr(const Csr& matrix,
                                             Format format,
                                             bool& fell_back) {
  auto stored = AnyFormatMatrix::convert(matrix, format);
  if (stored) {
    fell_back = false;
    return std::move(*stored);
  }
  fell_back = true;
  return *AnyFormatMatrix::convert(matrix, Format::kCsr);  // never refuses
}

AdaptiveSpmv::AdaptiveSpmv(const FormatSelector& selector, const Csr& matrix)
    : AdaptiveSpmv(selector, matrix, &shared_prediction_cache()) {}

AdaptiveSpmv::AdaptiveSpmv(const FormatSelector& selector, const Csr& matrix,
                           PredictionCache* cache)
    : AdaptiveSpmv(selector, matrix, cache, nullptr) {}

AdaptiveSpmv::AdaptiveSpmv(const FormatSelector& selector, const Csr& matrix,
                           PredictionCache* cache, FeedbackCollector* feedback)
    : stored_(*AnyFormatMatrix::convert(matrix, Format::kCsr)) {
  Timer predict_timer;
  Format pick;
  if (cache) {
    // Same cache key space as the service: structural fingerprint, mixed
    // with the selector's identity so two models never share entries.
    const std::uint64_t key = hash_combine(
        structural_fingerprint(matrix),
        reinterpret_cast<std::uintptr_t>(&selector));
    std::int32_t idx = 0;
    if (cache->get(key, idx)) {
      cache_hit_ = true;
      pick = selector.candidates()[static_cast<std::size_t>(idx)];
    } else {
      idx = selector.predict_index(matrix);
      cache->put(key, idx);
      pick = selector.candidates()[static_cast<std::size_t>(idx)];
    }
  } else {
    pick = selector.predict(matrix);
  }
  prediction_seconds_ = predict_timer.seconds();
  Timer convert_timer;
  stored_ = convert_or_csr(matrix, pick, fell_back_);
  conversion_seconds_ = convert_timer.seconds();

  // Sampling decision up front (one atomic increment); the probe itself —
  // conversions plus timed SpMVs over every candidate — is deferred to
  // the first apply(), where "this matrix is actually being served" is a
  // fact rather than a guess.
  if (feedback != nullptr && feedback->offer()) {
    probe_ = std::make_shared<Probe>();
    probe_->collector = feedback;
    probe_->formats = selector.candidates();
    probe_->reps = feedback->options().measure_reps;
    probe_->fingerprint = structural_fingerprint(matrix);
    probe_->inputs = selector.prepare_inputs(matrix);
    probe_->matrix = matrix;
  }
}

AdaptiveSpmv::AdaptiveSpmv(const Csr& matrix, Format format)
    : stored_(*AnyFormatMatrix::convert(matrix, Format::kCsr)) {
  Timer convert_timer;
  stored_ = convert_or_csr(matrix, format, fell_back_);
  conversion_seconds_ = convert_timer.seconds();
}

void AdaptiveSpmv::apply(std::span<const double> x,
                         std::span<double> y) const {
  if (probe_) {
    std::call_once(probe_->once, [p = probe_.get()] {
      FeedbackSample s;
      s.fingerprint = p->fingerprint;
      s.inputs = std::move(p->inputs);
      s.format_times =
          measure_format_times(p->matrix, p->formats, p->reps);
      p->collector->publish(std::move(s));
      p->matrix = Csr{};  // the probe's retained copy is no longer needed
    });
  }
  stored_.spmv(x, y);
}

}  // namespace dnnspmv
