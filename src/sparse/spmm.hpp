// Format-specific SpMM kernels: Y[M×K] = A · X, with X (cols×K) and
// Y (rows×K) dense and row-major (the GNN/DNN serving layout — each
// sparse row gathers contiguous K-wide panels of X).
//
// Every kernel walks each row's nonzeros in its SpMV sibling's order and
// sums every column in that order, so at K = 1 the result is bitwise
// identical to the corresponding spmv_* call, the property test_spmm
// pins down. One row kernel serves every format: it covers K in register-
// resident column panels and takes only the format's nonzero walk
// (DESIGN.md §14). Work is split between threads as in SpMV: by rows,
// by tiles for CSR5, and by nnz shares cut at row starts for COO, so
// each COO row has one owner. DIA alone differs: it runs row-outer
// instead of SpMV's one parallel loop per diagonal.
#pragma once

#include <span>

#include "sparse/bsr.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr5.hpp"
#include "sparse/dia.hpp"
#include "sparse/ell.hpp"
#include "sparse/hyb.hpp"

namespace dnnspmv {

/// Dense reference Y = A·X without the format machinery (test oracle).
void spmm_reference(const Csr& a, std::span<const double> x,
                    std::span<double> y, index_t k);

void spmm_csr(const Csr& a, std::span<const double> x, std::span<double> y,
              index_t k);
void spmm_coo(const Coo& a, std::span<const double> x, std::span<double> y,
              index_t k);
void spmm_dia(const Dia& a, std::span<const double> x, std::span<double> y,
              index_t k);
void spmm_ell(const Ell& a, std::span<const double> x, std::span<double> y,
              index_t k);
void spmm_hyb(const Hyb& a, std::span<const double> x, std::span<double> y,
              index_t k);
void spmm_bsr(const Bsr& a, std::span<const double> x, std::span<double> y,
              index_t k);
void spmm_csr5(const Csr5& a, std::span<const double> x, std::span<double> y,
               index_t k);

}  // namespace dnnspmv
