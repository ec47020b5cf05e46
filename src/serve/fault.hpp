// Fault injection for the serve layer.
//
// The robustness paths of SelectionService — deadline expiry, load
// shedding, retry-with-backoff, batch failure — only trigger when the
// system is unhealthy, which a unit test cannot arrange by asking nicely.
// This hook lets tests (and the bench_serve overload scenario) make the
// service unhealthy on purpose: each injection *site* in the serve code
// consults the Injector the service was given (ServiceOptions::injector,
// or one of RouterOptions::injectors), which can be armed to delay, drop,
// or throw there — either probabilistically (seeded, reproducible) or
// scripted ("the next N arrivals at this site fault"), which is what makes
// the degraded and timeout paths deterministically testable.
//
// The hooks are compiled in always: a service with no injector pays one
// branch per site, and one with a disarmed injector one more relaxed
// atomic load.
//
// Injected throws raise DnnspmvError(errc::fault_injected), so tests can
// tell an injected failure from a real one.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/rng.hpp"

namespace dnnspmv::fault {

/// Where in the serve request path a fault can be injected.
enum class Site : int {
  kQueuePush = 0,  // submit()'s queue push: a hit reports "queue full",
                   // which exercises the bounded-retry/backoff path
  kWorkerPop,      // a worker popped the request: a hit drops it (the
                   // batcher must still fail its promise, never leak it)
  kForward,        // the batched CNN forward: delay simulates a saturated
                   // model, throw fails the whole micro-batch
};
inline constexpr int kNumSites = 3;

const char* site_name(Site s);

/// What to inject at one site. Scripted counters (`*_next`) fire on the
/// next N arrivals and then disarm; probabilities apply to every arrival.
/// Scripted decisions are consumed before probabilistic ones.
struct Plan {
  double throw_prob = 0.0;
  double drop_prob = 0.0;
  double delay_prob = 0.0;
  std::int64_t delay_us = 0;  // sleep length for delay hits
  std::int32_t throw_next = 0;
  std::int32_t drop_next = 0;
  std::int32_t delay_next = 0;
};

/// Outcome of consulting a site: sleep `delay_us`, then drop and/or throw.
struct Decision {
  bool should_throw = false;
  bool should_drop = false;
  std::int64_t delay_us = 0;
};

class Injector {
 public:
  /// A fresh, disarmed injector. Handing one to a single service is how a
  /// router bench/test turns exactly one replica into a straggler while
  /// its siblings stay healthy.
  Injector() = default;

  /// Arms `site` with `plan` and enables the injector.
  void configure(Site site, const Plan& plan);

  /// Disarms every site and zeroes the per-site hit counts. The injector
  /// goes back to its one-atomic-load fast path.
  void reset();

  /// Reseeds the probabilistic decisions (deterministic replay).
  void seed(std::uint64_t s);

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Raw decision for `site`; consumes scripted counters. No side effects
  /// beyond the injector's own bookkeeping.
  Decision decide(Site site);

  /// Call-site helper: decides, sleeps through any injected delay, throws
  /// DnnspmvError(errc::fault_injected) on a throw hit, and returns
  /// whether the request should be dropped.
  bool inject(Site site);

  /// Faults actually delivered at `site` (scripted or probabilistic).
  std::uint64_t injected(Site site) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::array<Plan, kNumSites> plans_{};
  std::array<std::uint64_t, kNumSites> hits_{};
  Rng rng_{0xfa0175eedULL};
};

}  // namespace dnnspmv::fault
