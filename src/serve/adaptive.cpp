#include "serve/adaptive.hpp"

#include <utility>

#include "common/hash.hpp"
#include "common/timer.hpp"
#include "serve/fingerprint.hpp"

namespace dnnspmv {

Format AdaptiveSpmv::predict(const FormatSelector& selector,
                             const Csr& matrix, PredictionCache* cache) {
  Timer timer;
  std::int32_t idx = 0;
  if (cache) {
    // Same cache key space as the service: structural fingerprint, mixed
    // with the selector's identity so two models never share entries.
    const std::uint64_t key = hash_combine(
        structural_fingerprint(matrix),
        reinterpret_cast<std::uintptr_t>(&selector));
    cache_hit_ = cache->get(key, idx);
    if (!cache_hit_) {
      idx = selector.predict_index(matrix);
      cache->put(key, idx);
    }
  } else {
    idx = selector.predict_index(matrix);
  }
  prediction_seconds_ = timer.seconds();
  return selector.candidates()[static_cast<std::size_t>(idx)];
}

AnyFormatMatrix AdaptiveSpmv::convert_or_csr(const Csr& matrix,
                                             Format format) {
  Timer timer;
  auto stored = AnyFormatMatrix::convert(matrix, format);
  fell_back_ = !stored;
  if (fell_back_) stored = AnyFormatMatrix::convert(matrix, Format::kCsr);
  conversion_seconds_ = timer.seconds();
  return std::move(*stored);  // CSR never refuses
}

AdaptiveSpmv::AdaptiveSpmv(const FormatSelector& selector, const Csr& matrix,
                           PredictionCache* cache)
    : stored_(convert_or_csr(matrix, predict(selector, matrix, cache))) {}

AdaptiveSpmv::AdaptiveSpmv(const Csr& matrix, Format format)
    : stored_(convert_or_csr(matrix, format)) {}

void AdaptiveSpmv::apply(std::span<const double> x,
                         std::span<double> y) const {
  stored_.spmv(x, y);
}

}  // namespace dnnspmv
