// Turns a run into the benchmark's numbers: the correctness verdict, the
// end-to-end metrics, and (traced run) the per-layer ledger.
#pragma once

#include <string>
#include <vector>

#include "inputs.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Per key: the pick FormatSelector::predict_index gives (what every
/// non-degraded answer must equal) and the fallback's pick (what a
/// degraded answer looks like).
struct Expected {
  std::vector<std::int32_t> pick;
  std::vector<std::int32_t> fallback;
};

Expected expected_picks(const Deployment& dep, const Inputs& in);

struct Verdict {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;     // errors, unfinished, wrong outputs
  std::int64_t degraded = 0;   // answered by the fallback path
  std::string digest;          // of the served picks, per key in key order
  std::vector<std::string> notes;  // first few failures, for the log
};

/// Checks every record: serve answers against Expected (a mismatch that
/// equals the fallback's pick is a degraded answer while the router counts
/// enough degraded answers to cover it), solve outputs via bad_output.
/// With a corruption mode set, one serve answer is altered first.
Verdict check(Workload w, RunResult& run, const Expected& exp,
              const std::vector<dnnspmv::Format>& candidates, Corrupt corrupt);

std::vector<Metric> end_to_end(Workload w, const RunResult& run,
                               const Verdict& v, double setup_s);

/// One log line of the latency distribution: n and the tail quantiles.
/// The tail is not an end-to-end metric: on a shared host it moves with
/// the neighbours (on a shared 4-vCPU x86 VM, serve_cold's p95 read
/// 0.85-2.0 ms across ten seeds); slo_share measures it against a fixed
/// limit instead.
std::string latency_summary(Workload w, const RunResult& run);

/// One log line of the router's own counters at the end of the load (hit
/// ratio, mean batch, hedges, swaps), read from RouterStats in every run:
/// they show what each workload makes the service do.
std::string router_summary(const RunResult& run);

/// Per-layer ledger of a traced run. Probes the workload's matrices through
/// the same public functions the service runs (fingerprint, representation
/// build, forward, conversion, kernels, publish) outside any request span.
std::vector<Metric> per_layer(Workload w, Deployment& dep, const Inputs& in,
                              const RunResult& run, const Expected& exp,
                              SpanRecorder& rec, bool tiny,
                              std::vector<std::string>& notes);

}  // namespace perfbench
