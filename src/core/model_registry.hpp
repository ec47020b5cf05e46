// ModelRegistry — versioned, immutable model snapshots with RCU-style
// hot swap (ROADMAP: close the loop / in-service platform migration).
//
// The registry is the single publication path between whoever produces
// models (offline training, the OnlineTrainer's fine-tune loop) and
// whoever serves them (SelectionService workers, ReplicaRouter replicas):
//
//   publisher                      registry                 subscribers
//   ─────────                      ────────                 ───────────
//   fine-tuned FormatSelector ──→ publish():                ModelSubscription
//                                  validate compat           per replica
//                                  stamp version N+1            │
//                                  store shared_ptr       stale()? lock-free
//                                  (writers never block       │ version check
//                                   readers, readers       model(): load the
//                                   never block writers)   shared snapshot
//
// Versions are immutable: a published FormatSelector is never trained or
// mutated again; fine-tuning always builds a fresh network (see
// core/online.hpp). Readers hold plain shared_ptr snapshots, so a version
// stays alive for as long as any in-flight batch still runs on it — the
// RCU grace period is reference counting, no epochs, no quiescent states.
//
// Hot-path contract: checking for staleness is one atomic load
// (version()) and adopting is one atomic shared_ptr load (current());
// neither takes a lock. Only publish() serializes, on the registry mutex.
//
// Subscribers share the published object itself: inference is const and
// re-entrant (every forward writes only to the caller's Workspace, see
// selector.hpp), so N replicas serving one snapshot run N concurrent
// forwards on one set of weights — no per-subscriber copy, no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/selector.hpp"
#include "obs/metrics.hpp"

namespace dnnspmv {

class ModelRegistry {
 public:
  /// Takes ownership of the boot model (must be trained) as version 1.
  explicit ModelRegistry(FormatSelector initial);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The newest published snapshot. Immutable; safe to call concurrently
  /// with publish(). One atomic shared_ptr load.
  std::shared_ptr<const FormatSelector> current() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Version of the newest snapshot (monotonic from 1). One relaxed
  /// atomic load — the hot-path staleness probe.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Publishes `next` as the new current version and returns its version
  /// number. Validates that `next` is trained and interface-compatible
  /// with the boot model (same candidates, same representation geometry):
  /// serving layers cache candidates and representation builders across
  /// swaps, so an incompatible model must be a new registry, not a new
  /// version. Throws DnnspmvError(errc::invalid_argument) on mismatch.
  std::uint64_t publish(FormatSelector next);

  /// Versions published through publish() (excludes the boot model).
  std::uint64_t published_count() const { return published_.value(); }

  /// Candidates / options of the version-1 model; fixed for the registry's
  /// lifetime by the publish() compatibility check.
  const std::vector<Format>& candidates() const { return candidates_; }
  const SelectorOptions& options() const { return options_; }

 private:
  std::mutex publish_mu_;  // serializes publishers
  std::atomic<std::shared_ptr<const FormatSelector>> current_;
  std::atomic<std::uint64_t> version_{0};

  std::vector<Format> candidates_;  // pinned at construction
  SelectorOptions options_;

  std::string prefix_;       // "registry<N>." in the global obs registry
  obs::Gauge& version_gauge_;
  obs::Counter& published_;
};

/// One subscriber's RCU read side: tracks which registry version this
/// subscriber has adopted. stale() is the lock-free hot-path probe;
/// model() hands out the registry's current snapshot and records it as
/// adopted. Snapshots returned by model() pin their version: an in-flight
/// batch keeps its shared_ptr and finishes on the version it started with,
/// even while the subscription moves on.
class ModelSubscription {
 public:
  explicit ModelSubscription(ModelRegistry& registry);

  ModelSubscription(const ModelSubscription&) = delete;
  ModelSubscription& operator=(const ModelSubscription&) = delete;

  /// True when the registry has published a version this subscription has
  /// not adopted yet. One relaxed load; never blocks.
  bool stale() const {
    return registry_.version() != version_.load(std::memory_order_relaxed);
  }

  /// The registry's current snapshot, adopted. Callers keep the returned
  /// shared_ptr for the whole unit of work they want pinned to one version
  /// (the Batcher holds it across a micro-batch).
  std::shared_ptr<const FormatSelector> model();

  /// Adopted version (lags registry.version() until the next model()).
  std::uint64_t version() const {
    return version_.load(std::memory_order_relaxed);
  }

  /// Number of adoptions that replaced a live model (i.e. hot swaps; the
  /// initial adoption at construction is not counted).
  std::uint64_t swaps() const {
    return swaps_.load(std::memory_order_relaxed);
  }

  ModelRegistry& registry() const { return registry_; }

 private:
  ModelRegistry& registry_;
  std::atomic<std::uint64_t> version_{0};
  std::atomic<std::uint64_t> swaps_{0};
};

}  // namespace dnnspmv
