// The three workloads, run against one Deployment for a fixed window.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "deployment.hpp"
#include "inputs.hpp"
#include "spans.hpp"
#include "sparse/spmv.hpp"

namespace perfbench {

/// What one request (serve) or job (solve) did.
struct Record {
  std::int64_t id = -1;
  std::int32_t key = 0;
  std::int32_t n = 0;           // solve: multiplies; serve: 0
  std::int64_t due_ns = 0;      // open loop: scheduled arrival
  std::int64_t ready_ns = 0;    // max(due, the thread's previous call end)
  std::int64_t issue_ns = 0;    // submit (serve) / job start (solve)
  std::int64_t done_ns = 0;     // answer observed / job end
  std::int32_t pick = -1;       // candidate index the router answered
  bool error = false;           // the router failed the request
  bool bad_output = false;      // solve: y failed the CSR check
  bool refused = false;         // solve: conversion refused, CSR used
  std::int64_t bytes = 0;       // solve: matrix + x + y bytes per call
};

/// Deliberate corruption of one output, so the smoke test can see the
/// correctness check fire.
enum class Corrupt {
  kNone,
  kValue,  // y[0] += 1 on solve job 3; one answer altered on serve
  kNan,    // y[0] = NaN on the first solve job run in a converted format
};

struct RunConfig {
  Workload workload = Workload::kServeCold;
  double seconds = 10;
  bool tiny = false;
  Corrupt corrupt = Corrupt::kNone;
};

struct RunResult {
  std::vector<Record> records;   // ordered by id
  double wall_s = 0;             // load-phase wall time
  dnnspmv::RouterStats stats;    // router + replicas at the end of the load
  double peak_rss_mb = 0;        // read at the end of the load, before the
                                 // per-thread records are merged
  std::int64_t published = 0;    // serve_hot model publishes
};

/// Runs the workload's load phase. Every call into the program is wrapped
/// in a span on `rec` (a no-op when the recorder is off).
RunResult run_workload(Deployment& dep, const Inputs& in, const RunConfig& cfg,
                       SpanRecorder& rec);

/// One kernel call: y = A·x (SpMV) or Y = A·X with K = kSpmmCols (SpMM),
/// on the converted matrix `m`, or on the CSR `a` itself when `m` is null.
void multiply(const dnnspmv::Csr& a, const dnnspmv::AnyFormatMatrix* m,
              dnnspmv::SpOp op, std::span<const double> x,
              std::span<double> y);

/// Records each serve_hot client has room for per second of load, about
/// three times the rate one client reached when the benchmark was defined
/// (6.4k req/s on a 4-vCPU x86 VM). The room is allocated and written
/// before the load starts, so the records add the same resident memory to
/// peak_rss_mb whatever the throughput, until a client outruns it.
inline constexpr double kHotRecordsPerClientSecond = 20'000;

/// Relative tolerance of the solve check for non-CSR formats, whose
/// summation order differs from the CSR kernel's: every |y - y_csr| must
/// stay within kSolveRtol * max(1, max|y_csr|), and a non-finite value in
/// either fails. CSR itself must match bitwise.
inline constexpr double kSolveRtol = 1e-10;

}  // namespace perfbench
