#include "sparse/coo.hpp"

#include <algorithm>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"

namespace dnnspmv {

Coo coo_from_csr(const Csr& a) {
  Coo m;
  m.rows = a.rows;
  m.cols = a.cols;
  m.row.reserve(a.idx.size());
  m.col = a.idx;
  m.val = a.val;
  for (index_t r = 0; r < a.rows; ++r)
    for (std::int64_t j = a.ptr[r]; j < a.ptr[r + 1]; ++j)
      m.row.push_back(r);
  return m;
}

Csr csr_from_coo(const Coo& a) {
  std::vector<Triplet> ts;
  ts.reserve(static_cast<std::size_t>(a.nnz()));
  for (std::int64_t i = 0; i < a.nnz(); ++i)
    ts.push_back({a.row[i], a.col[i], a.val[i]});
  return csr_from_triplets(a.rows, a.cols, std::move(ts));
}

CooShare coo_share(const Coo& a, int part, int parts) {
  const std::int64_t nnz = a.nnz();
  const auto cut = [&](int p) {
    const std::int64_t j = nnz * p / parts;
    if (j == 0 || j >= nnz) return j;
    return static_cast<std::int64_t>(
        std::upper_bound(a.row.begin() + j, a.row.end(), a.row[j - 1]) -
        a.row.begin());
  };
  const auto first_row = [&](int p, std::int64_t j) {
    return p == 0 ? 0 : j < nnz ? a.row[j] : a.rows;
  };
  const std::int64_t lo = cut(part);
  const std::int64_t hi = cut(part + 1);
  return {lo, hi, first_row(part, lo), first_row(part + 1, hi)};
}

void spmv_coo(const Coo& a, std::span<const double> x, std::span<double> y) {
  DNNSPMV_CHECK(x.size() == static_cast<std::size_t>(a.cols));
  DNNSPMV_CHECK(y.size() == static_cast<std::size_t>(a.rows));
  const index_t* rp = a.row.data();
  const index_t* cp = a.col.data();
  const double* vp = a.val.data();
  const double* xv = x.data();
  double* yv = y.data();

#pragma omp parallel
  {
#ifdef _OPENMP
    const CooShare s =
        coo_share(a, omp_get_thread_num(), omp_get_num_threads());
#else
    const CooShare s = coo_share(a, 0, 1);
#endif
    index_t r = s.row_lo;
    for (std::int64_t i = s.lo; i < s.hi; ++r) {
      for (; r < rp[i]; ++r) yv[r] = 0.0;  // empty rows before this run
      double acc = 0.0;
      for (; i < s.hi && rp[i] == r; ++i) acc += vp[i] * xv[cp[i]];
      yv[r] = acc;
    }
    for (; r < s.row_hi; ++r) yv[r] = 0.0;
  }
}

}  // namespace dnnspmv
