#include "nn/pool.hpp"

#include <algorithm>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace dnnspmv {

std::vector<std::int64_t> MaxPool2D::output_shape(
    const std::vector<std::int64_t>& in) const {
  DNNSPMV_CHECK(in.size() == 4);
  const std::int64_t oh = (in[2] - k_) / stride_ + 1;
  const std::int64_t ow = (in[3] - k_) / stride_ + 1;
  DNNSPMV_CHECK_MSG(oh > 0 && ow > 0, "pool window larger than input");
  return {in[0], in[1], oh, ow};
}

void MaxPool2D::forward(const Tensor& in, Tensor& out, bool,
                        Workspace&) const {
  const auto os = output_shape(in.shape());
  out.ensure(os);
  const std::int64_t planes = in.dim(0) * in.dim(1);
  const std::int64_t h = in.dim(2), w = in.dim(3);
  const std::int64_t oh = os[2], ow = os[3];
  // Branchless maxes, no argmax bookkeeping: backward re-derives the
  // routing from its input (same values — max over finite floats is
  // exact). This is on the cold-miss latency path.
#pragma omp parallel for schedule(static) if (planes > 4)
  for (std::int64_t pl = 0; pl < planes; ++pl) {
    const float* src = in.data() + pl * h * w;
    float* dst = out.data() + pl * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y) {
      const float* rows = src + y * stride_ * w;
      float* drow = dst + y * ow;
      std::int64_t x = 0;
#ifdef __SSE2__
      if (k_ == 2 && stride_ == 2) {
        // 2×2/2 window: vertical max of two rows, then pairwise
        // horizontal max via even/odd shuffles — four outputs per step.
        for (; x + 4 <= ow; x += 4) {
          const float* r0 = rows + 2 * x;
          const float* r1 = r0 + w;
          const __m128 v0 = _mm_max_ps(_mm_loadu_ps(r0), _mm_loadu_ps(r1));
          const __m128 v1 =
              _mm_max_ps(_mm_loadu_ps(r0 + 4), _mm_loadu_ps(r1 + 4));
          const __m128 ev = _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(2, 0, 2, 0));
          const __m128 od = _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(3, 1, 3, 1));
          _mm_storeu_ps(drow + x, _mm_max_ps(ev, od));
        }
      }
#endif
      for (; x < ow; ++x) {
        const float* win = rows + x * stride_;
        float best = win[0];
        for (std::int64_t dy = 0; dy < k_; ++dy)
          for (std::int64_t dx = 0; dx < k_; ++dx)
            best = std::max(best, win[dy * w + dx]);
        drow[x] = best;
      }
    }
  }
}

void MaxPool2D::backward(const Tensor& in, const Tensor& out,
                         const Tensor& grad_out, Tensor& grad_in,
                         Workspace&) {
  grad_in.ensure(in.shape());
  grad_in.zero();
  const std::int64_t planes = in.dim(0) * in.dim(1);
  const std::int64_t h = in.dim(2), w = in.dim(3);
  const std::int64_t oh = out.dim(2), ow = out.dim(3);
  // Route each output gradient to its window's first maximum in row-major
  // window order.
#pragma omp parallel for schedule(static)
  for (std::int64_t pl = 0; pl < planes; ++pl) {
    const float* src = in.data() + pl * h * w;
    const float* go = grad_out.data() + pl * oh * ow;
    float* gi = grad_in.data() + pl * h * w;
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x) {
        float best = -1e30f;
        std::int64_t besti = 0;
        for (std::int64_t dy = 0; dy < k_; ++dy) {
          const std::int64_t iy = y * stride_ + dy;
          for (std::int64_t dx = 0; dx < k_; ++dx) {
            const std::int64_t idx = iy * w + x * stride_ + dx;
            if (src[idx] > best) {
              best = src[idx];
              besti = idx;
            }
          }
        }
        gi[besti] += go[y * ow + x];
      }
    }
  }
}

}  // namespace dnnspmv
