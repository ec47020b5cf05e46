// OnlineTrainer — the learning half of the online loop (DESIGN.md §12).
//
//   FeedbackCollector ──drain──▶ replay buffer ──round──▶ fine-tune ──▶
//   (serve/feedback.hpp)          (bounded, newest-kept)  (top evolvement,
//                                                          transfer.cpp)
//                                                              │
//                                    ModelRegistry.publish() ◀─┘
//                                    (version N+1; subscribers hot-swap)
//
// Each training round:
//   1. drains the feedback stream into a bounded replay buffer (newest
//      samples evict oldest — served traffic is the distribution we want);
//   2. derives labels from the measured times (argmin, labels.hpp) —
//      measured ground truth, not model predictions, so rounds cannot
//      collapse into self-confirmation;
//   3. fine-tunes the *current* published model by the paper's §6 top
//      evolvement: conv towers frozen, SpMV head retrained — cheap, the
//      representation geometry is pinned by the registry anyway, and it is
//      the one method that leaves an SpMM head's input codes unchanged.
//      The published model itself is never mutated: migrate() builds a
//      fresh network, so versions stay immutable.
//   4. publishes the result; every subscriber adopts on its next staleness
//      check, no pause, in-flight batches finish on their pinned version.
//
// Run it either embedded (start()/stop() spawn a polling thread — the
// serve_demo --online path) or stepped (train_once() from a bench/test
// loop for deterministic rounds).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>

#include "core/model_registry.hpp"
#include "core/trainer.hpp"
#include "serve/feedback.hpp"

namespace dnnspmv {

struct OnlineTrainerOptions {
  /// Samples the replay buffer must hold before a round fine-tunes
  /// (rounds below this drain the stream but skip training).
  std::size_t min_batch = 32;
  /// Replay-buffer capacity; oldest samples are evicted past it.
  std::size_t replay_capacity = 512;
  /// Background-thread poll period between rounds (start()/stop() mode).
  std::int64_t poll_interval_ms = 50;
  /// Per-round fine-tune config (keep epochs small: rounds should be
  /// frequent and cheap, not full retrains).
  TrainConfig train{/*epochs=*/4, /*batch=*/16, /*lr=*/1e-3,
                    /*seed=*/123, /*verbose=*/false};
};

class OnlineTrainer {
 public:
  /// Both `registry` and `feedback` must outlive the trainer. The trainer
  /// is the feedback stream's single consumer — do not drain() elsewhere
  /// while one is attached.
  OnlineTrainer(ModelRegistry& registry, FeedbackCollector& feedback,
                OnlineTrainerOptions opts = {});
  ~OnlineTrainer();

  OnlineTrainer(const OnlineTrainer&) = delete;
  OnlineTrainer& operator=(const OnlineTrainer&) = delete;

  /// Spawns the background round loop. Idempotent.
  void start();
  /// Stops and joins the loop (also run by the destructor). A round in
  /// progress completes — publish is never torn.
  void stop();

  /// One synchronous round: drain, maybe fine-tune, maybe publish.
  /// Returns true iff a new version was published. Not thread-safe
  /// against a running background loop.
  bool train_once();

  /// Rounds that ran (including ones that skipped training).
  std::uint64_t rounds() const { return rounds_.load(std::memory_order_relaxed); }
  /// Versions this trainer published.
  std::uint64_t published() const {
    return published_n_.load(std::memory_order_relaxed);
  }
  /// Feedback samples accepted into the replay buffer so far.
  std::uint64_t consumed() const {
    return consumed_n_.load(std::memory_order_relaxed);
  }

  const OnlineTrainerOptions& options() const { return opts_; }

 private:
  /// Replay buffer -> Dataset with measured-argmin labels.
  Dataset make_dataset() const;

  ModelRegistry& registry_;
  FeedbackCollector& feedback_;
  OnlineTrainerOptions opts_;

  std::deque<FeedbackSample> replay_;
  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> published_n_{0};
  std::atomic<std::uint64_t> consumed_n_{0};

  std::string prefix_;  // "online<N>." in the global obs registry
  obs::Counter& rounds_counter_;
  obs::Counter& published_counter_;
  obs::Counter& consumed_counter_;
  obs::Counter& discarded_counter_;
  obs::Gauge& replay_depth_;

  std::atomic<bool> stop_{false};
  std::thread loop_;
};

}  // namespace dnnspmv
