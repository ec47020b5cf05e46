// Bounded MPMC queue of prediction requests.
//
// Client threads push prepared requests (representations already built, so
// the expensive per-matrix work parallelizes across clients); batch workers
// pop up to max_batch requests at once, which is what turns queue pressure
// into inference batches: under load a worker drains a full micro-batch per
// wakeup, when idle it serves singles at minimum latency.
//
// push() blocks while the queue is full (backpressure, bounded memory);
// try_push() reports kFull instead of blocking, which is what the service's
// bounded-retry/load-shedding admission control is built on. close()
// initiates shutdown: subsequent pushes fail fast, poppers drain whatever
// is queued and then get 0. In-flight requests are therefore always
// answered, never dropped — though requests whose deadline passed while
// queued are failed (not served) when a worker pops them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <vector>

#include "sparse/format.hpp"
#include "tensor/tensor.hpp"

namespace dnnspmv {

/// Which path of the service produced an answer. Carried by the completion
/// callback so a routing tier can count cache wins on a hedged sibling
/// (misrouted keys) without re-deriving the path from metrics deltas.
enum class AnswerSource : std::int8_t {
  kCache = 0,  // fingerprint LRU hit, answered inline
  kCnn,        // batched forward pass through the model
  kDegraded,   // FallbackSelector (shed or retry-budget exhausted)
  kError,      // failed: deadline, shutdown, injected or real fault
};

/// Completion hook for one request, invoked exactly once on whatever thread
/// resolves it (the submitter for hits/degraded/rejected answers, a batch
/// worker otherwise) — the push-model complement of the returned future,
/// which is what lets ReplicaRouter race a hedged re-dispatch against the
/// primary without polling futures. Exactly one of the two final arguments
/// is meaningful: `err` is null on success, `idx` is -1 on failure.
/// Callbacks must not throw and must not block the resolving thread.
using DoneCallback =
    std::function<void(std::int32_t idx, AnswerSource src,
                       std::exception_ptr err)>;

/// One queued prediction. `inputs` are the CNN representations of the
/// matrix (built by the client thread); `result` delivers the predicted
/// candidate index back to the waiting client. `enqueued_at_us` (obs
/// timebase) is stamped by the submitter so workers can report queue wait;
/// -1 means unstamped (now_us() legitimately returns 0 at its epoch).
struct PredictRequest {
  std::uint64_t fingerprint = 0;  // already op-scoped by the submitter
  // Which selector head answers this request. A micro-batch may mix ops:
  // its one forward runs the towers once and each head over its own rows.
  SpOp op = SpOp::kSpmv;
  std::vector<Tensor> inputs;
  std::promise<std::int32_t> result;
  // Optional completion hook, fired right after `result` is satisfied.
  DoneCallback done;
  std::int64_t enqueued_at_us = -1;
  // Absolute expiry in the obs::now_us timebase; -1 = no deadline. Workers
  // fail expired requests with errc::deadline_exceeded at dequeue instead
  // of spending a forward pass on an answer nobody is waiting for.
  std::int64_t deadline_us = -1;
};

/// Fires `r.done` exactly once (the callback is consumed) and swallows
/// anything it throws — a misbehaving hook must not take down a worker.
inline void invoke_done(PredictRequest& r, std::int32_t idx, AnswerSource src,
                        const std::exception_ptr& err) {
  if (!r.done) return;
  DoneCallback cb = std::move(r.done);
  r.done = nullptr;
  try {
    cb(idx, src, err);
  } catch (...) {
    // Completion hooks are documented no-throw; drop anything that leaks.
  }
}

enum class PushResult { kOk, kFull, kClosed };

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  /// Blocks while full. Returns false (without enqueueing) once closed.
  bool push(PredictRequest&& r);

  /// Non-blocking push. On kFull/kClosed `r` is left intact (not moved
  /// from), so the caller can retry, shed, or fail it.
  PushResult try_push(PredictRequest&& r);

  /// Pops 1..max_batch requests into `out` (appended). Blocks until at
  /// least one request is available or the queue is closed and drained;
  /// returns the number popped (0 only on closed-and-empty).
  std::size_t pop_batch(std::vector<PredictRequest>& out,
                        std::size_t max_batch);

  /// Stops accepting pushes and wakes all waiters. Idempotent.
  void close();

  bool closed() const;
  std::size_t size() const;
  /// Lock-free occupancy mirror (updated under the lock, read relaxed) —
  /// what the service's admission control and queue-depth gauge poll on
  /// every miss without touching the queue mutex. May lag size() by an
  /// in-flight push/pop; admission decisions tolerate that slack.
  std::size_t approx_size() const {
    return approx_size_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  // Parked-thread counts (guarded by mu_) that gate the notify calls:
  // nobody waiting → no syscall. See push() for the correctness argument.
  std::size_t empty_waiters_ = 0;
  std::size_t full_waiters_ = 0;
  std::deque<PredictRequest> q_;
  std::atomic<std::size_t> approx_size_{0};
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace dnnspmv
