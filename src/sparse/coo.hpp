// Coordinate format: explicit (row, col, val) arrays sorted by row, col.
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace dnnspmv {

struct Coo {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<index_t> row;  // sorted by (row, col)
  std::vector<index_t> col;
  std::vector<double> val;

  std::int64_t nnz() const { return static_cast<std::int64_t>(val.size()); }
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(val.size() * sizeof(double) +
                                     (row.size() + col.size()) *
                                         sizeof(index_t));
  }
};

Coo coo_from_csr(const Csr& a);
Csr csr_from_coo(const Coo& a);

/// The part of a row-sorted COO that share `part` of `parts` owns:
/// nonzeros [lo, hi) and rows [row_lo, row_hi). Shares are nnz-balanced,
/// each cut snapped forward to the next row start, so every row (empty
/// rows included) has exactly one owner.
struct CooShare {
  std::int64_t lo, hi;
  index_t row_lo, row_hi;
};
CooShare coo_share(const Coo& a, int part, int parts);

/// y = A*x. Parallel over coo_share()s: each thread writes only the rows
/// it owns, so there are no atomics and the result does not depend on the
/// thread count.
void spmv_coo(const Coo& a, std::span<const double> x, std::span<double> y);

}  // namespace dnnspmv
