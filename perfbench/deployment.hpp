// The one deployment every workload drives: a ReplicaRouter (2 replicas of
// 1 worker each, hedging at its defaults, a fixed total cache capacity)
// over a ModelRegistry whose boot model is an int8 FormatSelector with an
// SpMV head and an SpMM head, trained from the seed.
#pragma once

#include <cstdint>
#include <memory>

#include "serve/router.hpp"

namespace perfbench {

/// Sizes of the set-up work. `full()` is what the benchmark measures;
/// `tiny()` is the smoke-test size.
struct SetupConfig {
  std::int64_t spmv_train = 160;  // synthetic matrices, analytic labels
  std::int64_t spmm_train = 72;   // DLMC-style matrices, measured labels
  int epochs = 8;
  int spmm_reps = 3;              // timing repetitions per SpMM label
  int warmup_requests = 32;       // per op, on training matrices

  static SetupConfig full() { return {}; }
  static SetupConfig tiny() { return {48, 24, 2, 1, 8}; }
};

/// Router layout shared by all workloads.
inline constexpr int kReplicas = 2;
inline constexpr int kWorkersPerReplica = 1;
inline constexpr std::size_t kCacheCapacity = 256;  // router total
inline constexpr dnnspmv::index_t kSpmmCols = 32;

struct Deployment {
  std::unique_ptr<dnnspmv::ModelRegistry> registry;  // outlives router
  std::unique_ptr<dnnspmv::ReplicaRouter> router;

  std::shared_ptr<const dnnspmv::FormatSelector> model() const {
    return registry->current();
  }
};

/// Corpus generation, labels (analytic Xeon for SpMV, measured at K=32 for
/// SpMM), training both heads, int8 calibration, router start and a
/// warm-up on training matrices. Everything derives from `seed` except the
/// measured SpMM labels.
Deployment set_up(std::uint64_t seed, const SetupConfig& cfg);

}  // namespace perfbench
