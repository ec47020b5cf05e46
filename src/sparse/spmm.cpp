#include "sparse/spmm.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sparse/spmv.hpp"

namespace dnnspmv {
namespace {

void check_shapes(index_t rows, index_t cols, std::span<const double> x,
                  std::span<double> y, index_t k) {
  DNNSPMV_CHECK(k >= 1);
  DNNSPMV_CHECK(x.size() == static_cast<std::size_t>(cols) *
                                static_cast<std::size_t>(k));
  DNNSPMV_CHECK(y.size() == static_cast<std::size_t>(rows) *
                                static_cast<std::size_t>(k));
}

const char* spmm_span_name(Format f) {
  switch (f) {
    case Format::kCoo: return "spmm.coo";
    case Format::kCsr: return "spmm.csr";
    case Format::kDia: return "spmm.dia";
    case Format::kEll: return "spmm.ell";
    case Format::kHyb: return "spmm.hyb";
    case Format::kBsr: return "spmm.bsr";
    case Format::kCsr5: return "spmm.csr5";
  }
  return "spmm.unknown";
}

obs::Histogram& spmm_hist(Format f) {
  static std::array<obs::Histogram*, kNumFormats> hists = [] {
    std::array<obs::Histogram*, kNumFormats> h{};
    for (std::int32_t i = 0; i < kNumFormats; ++i)
      h[static_cast<std::size_t>(i)] = &obs::MetricsRegistry::global()
          .histogram(std::string(spmm_span_name(static_cast<Format>(i))) +
                     "_us");
    return h;
  }();
  return *hists[static_cast<std::size_t>(f)];
}

// How a row panel's accumulator meets Y: overwrite it, add to it
// starting from Y's value (bitwise `y += ...` in walk order), or add to
// it atomically (a row shared between threads).
enum class Out { kStore, kAccumulate, kAtomicAdd };

// Columns [c, c + W) of one output row. `row(f)` calls f(v, xr) for each
// of the row's nonzeros in the format's SpMV order, with xr the start of
// the matching row of X. The W sums live in a local array the compiler
// keeps in registers, and each column adds its products in walk order.
template <int W, Out kOut, class Row>
inline void panel(const Row& row, index_t c, double* yr) {
  double acc[W];
  for (int l = 0; l < W; ++l)
    acc[l] = kOut == Out::kAccumulate ? yr[c + l] : 0.0;
  row([&](double v, const double* xr) {
    for (int l = 0; l < W; ++l) acc[l] += v * xr[c + l];
  });
  for (int l = 0; l < W; ++l) {
    if constexpr (kOut == Out::kAtomicAdd) {
#pragma omp atomic
      yr[c + l] += acc[l];
    } else {
      yr[c + l] = acc[l];
    }
  }
}

// One output row over all K columns: 16-wide panels, then 4-wide, then
// single columns. At K = 1 this is exactly the SpMV sum.
template <Out kOut = Out::kStore, class Row>
inline void row_panels(const Row& row, index_t k, double* yr) {
  index_t c = 0;
  for (; c + 16 <= k; c += 16) panel<16, kOut>(row, c, yr);
  for (; c + 4 <= k; c += 4) panel<4, kOut>(row, c, yr);
  for (; c < k; ++c) panel<1, kOut>(row, c, yr);
}

// The nonzeros [lo, hi) of parallel value/column arrays: a CSR row, a COO
// row run or a CSR5 tile segment.
inline auto run(const double* val, const index_t* col, std::int64_t lo,
                std::int64_t hi, const double* xv, index_t k) {
  return [=](auto&& f) {
    for (std::int64_t j = lo; j < hi; ++j)
      f(val[j], xv + static_cast<std::size_t>(col[j]) * k);
  };
}

// Row-sorted COO over its coo_share()s, one per thread, so each row has a
// single writer. kStore also zeroes the owned rows that have no nonzeros.
template <Out kOut>
void coo_panels(const Coo& a, const double* xv, double* yv, index_t k) {
  const index_t* rp = a.row.data();
  const auto zero_rows = [&](index_t from, index_t to) {
    if constexpr (kOut == Out::kStore)
      std::fill(yv + static_cast<std::size_t>(from) * k,
                yv + static_cast<std::size_t>(to) * k, 0.0);
  };
#pragma omp parallel
  {
#ifdef _OPENMP
    const CooShare s =
        coo_share(a, omp_get_thread_num(), omp_get_num_threads());
#else
    const CooShare s = coo_share(a, 0, 1);
#endif
    index_t r = s.row_lo;
    for (std::int64_t j = s.lo; j < s.hi; ++r) {
      zero_rows(r, rp[j]);
      r = rp[j];
      std::int64_t e = j + 1;
      while (e < s.hi && rp[e] == r) ++e;
      row_panels<kOut>(run(a.val.data(), a.col.data(), j, e, xv, k), k,
                       yv + static_cast<std::size_t>(r) * k);
      j = e;
    }
    zero_rows(r, s.row_hi);
  }
}

}  // namespace

void spmm_reference(const Csr& a, std::span<const double> x,
                    std::span<double> y, index_t k) {
  check_shapes(a.rows, a.cols, x, y, k);
  for (index_t i = 0; i < a.rows; ++i) {
    double* yr = y.data() + static_cast<std::size_t>(i) * k;
    std::fill(yr, yr + k, 0.0);
    for (std::int64_t j = a.ptr[i]; j < a.ptr[i + 1]; ++j) {
      const double v = a.val[static_cast<std::size_t>(j)];
      const double* xr =
          x.data() + static_cast<std::size_t>(a.idx[j]) * k;
      for (index_t c = 0; c < k; ++c) yr[c] += v * xr[c];
    }
  }
}

void spmm_csr(const Csr& a, std::span<const double> x, std::span<double> y,
              index_t k) {
  check_shapes(a.rows, a.cols, x, y, k);
  const std::int64_t* ptr = a.ptr.data();
  const double* xv = x.data();
  double* yv = y.data();
#pragma omp parallel for schedule(dynamic, 64)
  for (index_t i = 0; i < a.rows; ++i)
    row_panels(run(a.val.data(), a.idx.data(), ptr[i], ptr[i + 1], xv, k), k,
               yv + static_cast<std::size_t>(i) * k);
}

void spmm_coo(const Coo& a, std::span<const double> x, std::span<double> y,
              index_t k) {
  check_shapes(a.rows, a.cols, x, y, k);
  coo_panels<Out::kStore>(a, x.data(), y.data(), k);
}

void spmm_dia(const Dia& a, std::span<const double> x, std::span<double> y,
              index_t k) {
  check_shapes(a.rows, a.cols, x, y, k);
  const double* xv = x.data();
  double* yv = y.data();
  const auto off0 = a.offsets.begin();
  // Row-outer: each row adds its diagonals in offset order, the order in
  // which spmv_dia's diagonal-outer sweep reaches that row. Row i meets
  // the diagonals with offsets in [-i, cols - i).
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < a.rows; ++i) {
    const auto d0 = std::lower_bound(off0, a.offsets.end(), -i) - off0;
    const auto d1 = std::lower_bound(off0, a.offsets.end(), a.cols - i) - off0;
    row_panels(
        [&](auto&& f) {
          for (auto d = d0; d < d1; ++d)
            f(a.data[static_cast<std::size_t>(d) * a.rows + i],
              xv + static_cast<std::size_t>(i + off0[d]) * k);
        },
        k, yv + static_cast<std::size_t>(i) * k);
  }
}

void spmm_ell(const Ell& a, std::span<const double> x, std::span<double> y,
              index_t k) {
  check_shapes(a.rows, a.cols, x, y, k);
  const double* xv = x.data();
  double* yv = y.data();
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < a.rows; ++i)
    row_panels(
        [&](auto&& f) {
          for (index_t w = 0; w < a.width; ++w) {
            const std::size_t s = static_cast<std::size_t>(w) * a.rows + i;
            if (a.col[s] >= 0)
              f(a.data[s], xv + static_cast<std::size_t>(a.col[s]) * k);
          }
        },
        k, yv + static_cast<std::size_t>(i) * k);
}

void spmm_hyb(const Hyb& a, std::span<const double> x, std::span<double> y,
              index_t k) {
  spmm_ell(a.ell, x, y, k);  // writes y
  // The overflow adds onto the ELL result run by run, like spmv_hyb.
  if (a.coo.nnz() > 0)
    coo_panels<Out::kAccumulate>(a.coo, x.data(), y.data(), k);
}

void spmm_bsr(const Bsr& a, std::span<const double> x, std::span<double> y,
              index_t k) {
  check_shapes(a.rows, a.cols, x, y, k);
  const double* xv = x.data();
  double* yv = y.data();
  // Columns past the logical edge of a boundary block read this zero row,
  // like xl[j] = 0 in spmv_bsr.
  const std::vector<double> zero(static_cast<std::size_t>(k), 0.0);
#pragma omp parallel for schedule(dynamic, 16)
  for (index_t br = 0; br < a.brows; ++br) {
    for (index_t i = 0; i < kBsrBlock && br * kBsrBlock + i < a.rows; ++i)
      row_panels(
          [&](auto&& f) {
            // Same (block, j) order as spmv_bsr's row i.
            for (std::int64_t b = a.ptr[br]; b < a.ptr[br + 1]; ++b) {
              const index_t c0 = a.idx[b] * kBsrBlock;
              const double* blk =
                  a.data.data() + (b * kBsrBlock + i) * kBsrBlock;
              for (index_t j = 0; j < kBsrBlock; ++j)
                f(blk[j], c0 + j < a.cols
                              ? xv + static_cast<std::size_t>(c0 + j) * k
                              : zero.data());
            }
          },
          k, yv + static_cast<std::size_t>(br * kBsrBlock + i) * k);
  }
}

void spmm_csr5(const Csr5& a, std::span<const double> x, std::span<double> y,
               index_t k) {
  check_shapes(a.rows, a.cols, x, y, k);
  std::fill(y.begin(), y.end(), 0.0);
  const std::int64_t ntiles = a.num_tiles();
  const std::int64_t nnz = a.nnz();
  const std::int64_t* ptr = a.ptr.data();
  const double* xv = x.data();
  double* yv = y.data();
#pragma omp parallel for schedule(static)
  for (std::int64_t t = 0; t < ntiles; ++t) {
    const std::int64_t lo = t * a.tile;
    const std::int64_t hi = std::min(nnz, lo + a.tile);
    index_t r = a.tile_row[static_cast<std::size_t>(t)];
    for (std::int64_t j = lo; j < hi; ++r) {
      const std::int64_t row_end = std::min(hi, ptr[r + 1]);
      const auto seg = run(a.val.data(), a.idx.data(), j, row_end, xv, k);
      double* yr = yv + static_cast<std::size_t>(r) * k;
      // A tile holding the whole row owns it. A partial row straddles a
      // tile boundary and is flushed atomically; spmv_csr5's acc != 0
      // shortcut never fires for such a row either.
      if (lo <= ptr[r] && row_end == ptr[r + 1])
        row_panels(seg, k, yr);
      else
        row_panels<Out::kAtomicAdd>(seg, k, yr);
      j = row_end;
    }
  }
}

void AnyFormatMatrix::spmm(std::span<const double> x, std::span<double> y,
                           index_t k) const {
  obs::Span span(spmm_span_name(format_), &spmm_hist(format_));
  std::visit(
      [&](const auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, Coo>) spmm_coo(s, x, y, k);
        else if constexpr (std::is_same_v<T, Csr>) spmm_csr(s, x, y, k);
        else if constexpr (std::is_same_v<T, Dia>) spmm_dia(s, x, y, k);
        else if constexpr (std::is_same_v<T, Ell>) spmm_ell(s, x, y, k);
        else if constexpr (std::is_same_v<T, Hyb>) spmm_hyb(s, x, y, k);
        else if constexpr (std::is_same_v<T, Bsr>) spmm_bsr(s, x, y, k);
        else spmm_csr5(s, x, y, k);
      },
      storage_);
}

}  // namespace dnnspmv
