#include "serve/batcher.hpp"

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "serve/fault.hpp"
#include "serve/fingerprint.hpp"

namespace dnnspmv {
namespace {

/// Fails one request's promise, tolerating an already-satisfied one (the
/// fulfil/fail race on shutdown paths must never terminate the process).
/// The completion hook (if any) fires after the promise, err in hand.
void fail_request(PredictRequest& r, const std::exception_ptr& err) {
  try {
    r.result.set_exception(err);
  } catch (const std::future_error&) {
    // promise already satisfied — nothing to deliver
  }
  invoke_done(r, -1, AnswerSource::kError, err);
}

}  // namespace

Batcher::Batcher(ModelSubscription& models, RequestQueue& queue,
                 PredictionCache& cache, ServiceMetrics& metrics,
                 std::size_t max_batch, fault::Injector* injector,
                 RepBufferPool* pool)
    : models_(models),
      queue_(queue),
      cache_(cache),
      metrics_(metrics),
      max_batch_(max_batch),
      injector_(injector ? injector : &fault::Injector::global()),
      pool_(pool) {
  DNNSPMV_CHECK(max_batch > 0);
}

void Batcher::serve_batch(std::vector<PredictRequest>& batch, Workspace& ws) {
  const std::shared_ptr<const FormatSelector> model = models_.model();
  serve_batch(batch, ws, *model);
}

void Batcher::serve_batch(std::vector<PredictRequest>& batch, Workspace& ws,
                          const FormatSelector& model) {
  if (batch.empty()) return;
  // Recycles a request's (or assembled) input buffers into the pool; a
  // moved-from / empty set is a no-op, so it is safe to offer both the
  // request and the assembled copy on error paths.
  const auto recycle = [this](std::vector<Tensor>&& bufs) {
    if (pool_) pool_->release(std::move(bufs));
  };
  // Queue wait is charged when a worker first sees the batch: the gap
  // between submit()'s enqueue stamp and now.
  const std::int64_t popped_us = obs::now_us();
  for (const PredictRequest& r : batch)
    if (r.enqueued_at_us >= 0)
      metrics_.record_queue_wait(
          static_cast<double>(popped_us - r.enqueued_at_us) * 1e-6);

  // Deadline enforcement happens here, at dequeue: a request that expired
  // while queued is failed instead of served — spending a forward pass on
  // it would only delay the still-live requests behind it. (A request can
  // still expire *during* the forward; it then gets its answer late. The
  // dequeue check bounds queue-wait, not compute.) The kWorkerPop fault
  // site drops requests the same way, with errc::fault_injected.
  fault::Injector& inj = *injector_;
  std::size_t kept = 0;
  std::uint64_t expired = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    PredictRequest& r = batch[i];
    if (r.deadline_us >= 0 && popped_us > r.deadline_us) {
      ++expired;
      fail_request(r, std::make_exception_ptr(DnnspmvError(
                          errc::deadline_exceeded,
                          "request expired in queue before a worker "
                          "could serve it")));
      recycle(std::move(r.inputs));
      continue;
    }
    if (!model.supports(r.op)) {
      // Fails alone rather than failing the forward its batch shares.
      fail_request(r, std::make_exception_ptr(DnnspmvError(
                          errc::invalid_argument,
                          "the served model has no head for this op")));
      recycle(std::move(r.inputs));
      continue;
    }
    if (inj.enabled() && inj.decide(fault::Site::kWorkerPop).should_drop) {
      fail_request(r, std::make_exception_ptr(DnnspmvError(
                          errc::fault_injected,
                          "injected drop at serve site 'worker_pop'")));
      recycle(std::move(r.inputs));
      continue;
    }
    if (kept != i) batch[kept] = std::move(batch[i]);
    ++kept;
  }
  if (expired > 0) metrics_.record_deadline_expired(expired);
  batch.resize(kept);
  if (batch.empty()) return;

  // One forward answers the whole micro-batch, whatever its mix of ops:
  // the towers run once and each op's head classifies its own rows.
  const std::size_t n = batch.size();
  std::vector<std::vector<Tensor>> prepared;
  try {
    inj.inject(fault::Site::kForward);
    prepared.reserve(n);
    std::vector<SpOp> ops;
    ops.reserve(n);
    {
      obs::Span span("serve.batch_assemble");
      for (PredictRequest& r : batch) {
        prepared.push_back(std::move(r.inputs));
        ops.push_back(r.op);
      }
    }
    std::vector<std::int32_t> picks;
    {
      obs::Span span("serve.forward");
      picks = model.predict_prepared(prepared, ops, &ws);
    }
    DNNSPMV_CHECK(picks.size() == n);
    // Cache and metrics first, promises last: once a client unblocks, its
    // prediction is already cached and the batch counters already reflect
    // it (snapshot() right after predict() must see this forward). Entries
    // are keyed under the version that produced them, so probes stop
    // hitting them once the service moves to a newer version.
    // (Fingerprints arrive op-scoped from the submitter.)
    obs::Span span("serve.fulfill");
    for (std::size_t i = 0; i < n; ++i)
      cache_.put(versioned_cache_key(batch[i].fingerprint,
                                     model.model_version()),
                 picks[i]);
    metrics_.record_batch(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch[i].result.set_value(picks[i]);
      invoke_done(batch[i], picks[i], AnswerSource::kCnn, nullptr);
    }
  } catch (...) {
    // A failed forward (real or injected) fails the whole batch; each
    // waiting client gets the exception instead of a hang.
    const std::exception_ptr err = std::current_exception();
    for (PredictRequest& r : batch) fail_request(r, err);
  }
  // Served or failed, the input buffers are dead — recycle them. On the
  // error paths they may still live in `batch` (pre-assembly failure), so
  // offer both containers; only the non-empty ones pool.
  for (std::vector<Tensor>& bufs : prepared) recycle(std::move(bufs));
  for (PredictRequest& r : batch) recycle(std::move(r.inputs));
}

void Batcher::run() {
  Workspace ws;  // per-worker scratch, reused across every served batch
  std::vector<PredictRequest> batch;
  // Per-worker model snapshot. The staleness probe between batches is one
  // atomic load and compare against this worker's own snapshot (every
  // worker adopts, not just the first to notice); adoption (a shared_ptr
  // load of the published version) only runs when a publish actually
  // happened. Holding the shared_ptr across serve_batch pins the version
  // for the whole micro-batch.
  std::shared_ptr<const FormatSelector> model = models_.model();
  metrics_.record_model_version(model->model_version());
  while (true) {
    batch.clear();
    if (queue_.pop_batch(batch, max_batch_) == 0) return;
    metrics_.record_queue_depth(queue_.approx_size());
    if (model->model_version() != models_.registry().version()) {
      model = models_.model();
      ws.clear();  // keyed by the old model's layers: drop, don't hoard
      metrics_.record_model_swap(model->model_version());
    }
    serve_batch(batch, ws, *model);
  }
}

}  // namespace dnnspmv
