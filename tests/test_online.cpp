// Online-learning loop: FeedbackCollector accounting and backpressure,
// ModelRegistry versioning + RCU hot swap under live traffic, version
// pinning of held snapshots, OnlineTrainer drift recovery, and versioned
// weight-set serialization.
#include "serve/online.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/model_registry.hpp"
#include "gen/corpus.hpp"
#include "obs/trace.hpp"
#include "perf/labels.hpp"
#include "perf/platform.hpp"
#include "serve/feedback.hpp"
#include "serve/service.hpp"

namespace dnnspmv {
namespace {

// One corpus + platforms A/B (same candidate formats, different label
// distributions) + a selector trained on A. Shared by every test in the
// binary; training dominates the fixture cost.
struct OnlinePipeline {
  std::vector<CorpusEntry> corpus;
  std::unique_ptr<Platform> plat_a;
  std::unique_ptr<Platform> plat_b;
  std::vector<LabeledMatrix> labeled_a;
  std::vector<LabeledMatrix> labeled_b;
  FormatSelector selector;  // trained on A's labels

  OnlinePipeline() {
    CorpusSpec spec;
    spec.count = 96;
    spec.min_dim = 48;
    spec.max_dim = 160;
    spec.seed = 31;
    corpus = build_corpus(spec);
    plat_a = make_analytic_cpu(intel_xeon_params());
    plat_b = make_analytic_cpu(amd_a8_params());
    labeled_a = collect_labels(corpus, *plat_a);
    labeled_b = collect_labels(corpus, *plat_b);

    SelectorOptions opts;
    opts.mode = RepMode::kHistogram;
    opts.rep_rows = 16;
    opts.rep_bins = 8;
    opts.train.epochs = 5;
    opts.train.batch = 16;
    opts.train.lr = 2e-3;
    selector = FormatSelector(opts);
    selector.fit(labeled_a, plat_a->formats());
  }
};

OnlinePipeline& pipeline() {
  static OnlinePipeline p;
  return p;
}

double accuracy_on(const FormatSelector& sel,
                   const std::vector<LabeledMatrix>& labeled) {
  std::size_t ok = 0;
  for (const LabeledMatrix& lm : labeled)
    if (sel.predict_index(*lm.matrix) == lm.label) ++ok;
  return static_cast<double>(ok) / static_cast<double>(labeled.size());
}

FeedbackSample sample_for(const OnlinePipeline& p, std::size_t i) {
  FeedbackSample s;
  const Csr& a = p.corpus[i % p.corpus.size()].matrix;
  s.fingerprint = i;
  s.inputs = p.selector.prepare_inputs(a);
  s.format_times = p.plat_b->spmv_times(a);
  return s;
}

// ------------------------------------------------------------- feedback

TEST(Feedback, OfferGatesOncePerSampleEvery) {
  FeedbackCollector fc({.capacity = 8, .sample_every = 4, .measure_reps = 1});
  int accepted = 0;
  for (int i = 0; i < 40; ++i) accepted += fc.offer() ? 1 : 0;
  EXPECT_EQ(accepted, 10);
}

TEST(Feedback, DropsDontBlockAndEveryOutcomeIsCounted) {
  auto& p = pipeline();
  FeedbackCollector fc({.capacity = 4, .sample_every = 1, .measure_reps = 1});
  // capacity rounds to a power of two (4): publish 11, expect 4 kept.
  constexpr std::uint64_t kAttempts = 11;
  std::uint64_t accepted = 0;
  for (std::size_t i = 0; i < kAttempts; ++i)
    accepted += fc.publish(sample_for(p, i)) ? 1 : 0;
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(fc.published(), accepted);
  EXPECT_EQ(fc.dropped(), kAttempts - accepted);
  EXPECT_EQ(fc.approx_depth(), 4u);

  // Drain returns publish order; the ring is reusable afterwards.
  std::vector<FeedbackSample> out;
  EXPECT_EQ(fc.drain(out, 64), 4u);
  EXPECT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i].fingerprint, i);
  EXPECT_EQ(fc.approx_depth(), 0u);
  EXPECT_TRUE(fc.publish(sample_for(p, 99)));
}

TEST(Feedback, ConcurrentPublishersNeverLoseAccounting) {
  auto& p = pipeline();
  FeedbackCollector fc({.capacity = 32, .sample_every = 1,
                        .measure_reps = 1});
  constexpr int kThreads = 4;
  constexpr int kPer = 200;
  std::atomic<std::uint64_t> accepted{0};
  std::vector<FeedbackSample> drained;
  std::atomic<bool> stop{false};
  // One consumer drains while publishers hammer — the MPSC contract.
  std::thread consumer([&] {
    while (!stop.load()) (void)fc.drain(drained, 16);
    (void)fc.drain(drained, 1u << 20);
  });
  std::vector<std::thread> pubs;
  for (int t = 0; t < kThreads; ++t) {
    pubs.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i)
        accepted += fc.publish(sample_for(
                        p, static_cast<std::size_t>(t * kPer + i)))
                        ? 1
                        : 0;
    });
  }
  for (auto& t : pubs) t.join();
  stop.store(true);
  consumer.join();
  EXPECT_EQ(fc.published(), accepted.load());
  EXPECT_EQ(fc.published() + fc.dropped(),
            static_cast<std::uint64_t>(kThreads * kPer));
  EXPECT_EQ(drained.size(), accepted.load());
}

// ------------------------------------------------------------- registry

TEST(Registry, PublishStampsMonotonicVersionsAndValidates) {
  auto& p = pipeline();
  ModelRegistry reg(p.selector.clone());
  EXPECT_EQ(reg.version(), 1u);
  EXPECT_EQ(reg.current()->model_version(), 1u);
  EXPECT_EQ(reg.published_count(), 0u);

  EXPECT_EQ(reg.publish(p.selector.clone()), 2u);
  EXPECT_EQ(reg.version(), 2u);
  EXPECT_EQ(reg.current()->model_version(), 2u);
  EXPECT_EQ(reg.published_count(), 1u);

  // Untrained models are rejected.
  EXPECT_THROW(reg.publish(FormatSelector{}), DnnspmvError);
  // Incompatible representation geometry is rejected: serving layers pin
  // rep builders and cache keys across swaps.
  SelectorOptions other;
  other.mode = RepMode::kHistogram;
  other.rep_rows = 8;  // != fixture's 16
  other.rep_bins = 8;
  other.train.epochs = 1;
  FormatSelector small(other);
  small.fit(p.labeled_a, p.plat_a->formats());
  EXPECT_THROW(reg.publish(std::move(small)), DnnspmvError);
  EXPECT_EQ(reg.version(), 2u);  // failed publishes change nothing
}

TEST(Registry, QuantizationChangeIsRejectedAndQuantizedClonesServe) {
  auto& p = pipeline();
  const SelectorOptions& o = p.selector.options();
  const Dataset calib =
      build_dataset(p.labeled_a, p.plat_a->formats(), o.mode, o.rep_rows,
                    o.rep_bins, o.rep_sample_nnz);
  FormatSelector quant = p.selector.clone();
  quant.quantize(calib);
  ASSERT_TRUE(quant.quantized());

  // A quantized registry rejects an fp32 publish: the serving fleet's
  // cold-miss budget is part of the contract, like the rep geometry.
  ModelRegistry reg(quant.clone());
  EXPECT_THROW(reg.publish(p.selector.clone()), DnnspmvError);
  EXPECT_EQ(reg.publish(quant.clone()), 2u);

  // Subscriptions hand out the published int8 model itself.
  ModelSubscription sub(reg);
  const std::shared_ptr<const FormatSelector> snap = sub.model();
  ASSERT_TRUE(snap->quantized());
  const Csr& a = p.corpus[0].matrix;
  EXPECT_EQ(snap->predict_index(a), quant.predict_index(a));

  // And the reverse direction: an fp32 registry rejects a quantized model.
  ModelRegistry reg32(p.selector.clone());
  EXPECT_THROW(reg32.publish(std::move(quant)), DnnspmvError);
}

TEST(Registry, HeldSnapshotsPinTheirVersionAcrossSwaps) {
  auto& p = pipeline();
  ModelRegistry reg(p.selector.clone());
  ModelSubscription sub(reg);
  EXPECT_FALSE(sub.stale());

  const std::shared_ptr<const FormatSelector> pinned = sub.model();
  EXPECT_EQ(pinned->model_version(), 1u);

  reg.publish(p.selector.clone());
  EXPECT_TRUE(sub.stale());
  // The held snapshot is untouched by the publish — an in-flight batch
  // keeps serving version 1 — while the next model() adopts version 2.
  EXPECT_EQ(pinned->model_version(), 1u);
  const Csr& a = p.corpus[0].matrix;
  EXPECT_EQ(pinned->predict_index(a), reg.current()->predict_index(a));
  EXPECT_EQ(sub.model()->model_version(), 2u);
  EXPECT_FALSE(sub.stale());
  EXPECT_EQ(sub.swaps(), 1u);
}

TEST(Registry, SwapUnderLoadServesEveryRequestAndSurfacesSwaps) {
  auto& p = pipeline();
  ModelRegistry reg(p.selector.clone());
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.cache_capacity = 2;  // ~all misses: keep the CNN path busy
  SelectionService svc(reg, opts);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load()) {
      reg.publish(reg.current()->clone());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 40; ++i) {
        const std::size_t m = static_cast<std::size_t>(c * 40 + i) %
                              p.corpus.size();
        const std::int32_t idx = svc.predict_index(p.corpus[m].matrix);
        if (idx < 0 ||
            idx >= static_cast<std::int32_t>(svc.candidates().size()))
          ++bad;
      }
    });
  }
  for (auto& c : clients) c.join();
  stop.store(true);
  publisher.join();

  EXPECT_EQ(bad.load(), 0);
  const ServiceStats s = svc.snapshot();
  EXPECT_EQ(s.requests, 80u);
  EXPECT_GT(reg.version(), 1u);
  // The service observed at least one hot swap and reports the version it
  // serves; answers kept flowing throughout (no failed futures above).
  EXPECT_GT(s.model_swaps, 0u);
  EXPECT_GT(s.model_version, 1u);
}

TEST(Registry, PublishReachesAllHitTraffic) {
  auto& p = pipeline();
  ModelRegistry reg(p.selector.clone());
  SelectionService svc(reg);
  const Csr& a = p.corpus[0].matrix;
  // Serves a once, reporting where the answer came from (the completion
  // hook fires after the future is ready, so wait on the hook).
  const auto serve = [&] {
    auto source = std::make_shared<std::promise<AnswerSource>>();
    std::future<AnswerSource> answered = source->get_future();
    Request r;
    r.matrix = &a;
    r.done = [source](std::int32_t, AnswerSource s, std::exception_ptr) {
      source->set_value(s);
    };
    svc.submit(std::move(r));
    return answered.get();
  };
  EXPECT_EQ(serve(), AnswerSource::kCnn);    // cold: version 1 answers
  EXPECT_EQ(serve(), AnswerSource::kCache);  // warm
  ASSERT_EQ(reg.publish(p.selector.clone()), 2u);
  // The warm key misses once and is re-served by the new version...
  EXPECT_EQ(serve(), AnswerSource::kCnn);
  const ServiceStats s = svc.snapshot();
  EXPECT_EQ(s.model_version, 2u);
  EXPECT_GE(s.model_swaps, 1u);
  // ...whose answer then serves the hits.
  EXPECT_EQ(serve(), AnswerSource::kCache);
}

TEST(Registry, SharedSnapshotForwardsAreReentrant) {
  auto& p = pipeline();
  // Both heads, fp32 and int8. The SpMM head trains on platform B's labels:
  // any second label set gives a second, different net to forward.
  FormatSelector both = p.selector.clone();
  both.fit_spmm(p.labeled_b);
  FormatSelector quant = both.clone();
  const SelectorOptions& o = both.options();
  quant.quantize(build_dataset(p.labeled_a, p.plat_a->formats(), o.mode,
                               o.rep_rows, o.rep_bins, o.rep_sample_nnz));
  ModelRegistry reg32(std::move(both));
  ModelRegistry reg8(std::move(quant));
  const std::shared_ptr<const FormatSelector> models[] = {reg32.current(),
                                                          reg8.current()};

  struct Case {
    const FormatSelector* model;
    SpOp op;
    std::vector<std::vector<Tensor>> batch;
    std::vector<std::int32_t> serial;
  };
  std::vector<Case> cases;
  for (const auto& m : models)
    for (const SpOp op : {SpOp::kSpmv, SpOp::kSpmm})
      for (const std::size_t n : {1u, 16u}) {
        Case c{m.get(), op, {}, {}};
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t k = (i * 5 + n) % p.corpus.size();
          c.batch.push_back(m->prepare_inputs(p.corpus[k].matrix));
        }
        Workspace ws;
        c.serial = m->predict_prepared(c.batch, &ws, op);
        cases.push_back(std::move(c));
      }

  // Four threads forward every case on the shared snapshots: even threads
  // through their own Workspace, odd ones through the thread fallback.
  // The second phase traces, so Sequential's span names are read too.
  std::atomic<int> mismatches{0};
  for (const bool traced : {false, true}) {
    obs::set_enabled(traced);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
      threads.emplace_back([&, t] {
        Workspace own;
        for (int it = 0; it < 3; ++it)
          for (const Case& c : cases)
            if (c.model->predict_prepared(c.batch, t % 2 ? nullptr : &own,
                                          c.op) != c.serial)
              ++mismatches;
      });
    for (std::thread& th : threads) th.join();
  }
  obs::set_enabled(false);
  obs::clear_trace();
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------------------- trainer

TEST(Online, TrainerGatesOnMinBatchThenPublishes) {
  auto& p = pipeline();
  ModelRegistry reg(p.selector.clone());
  FeedbackCollector fc({.capacity = 128, .sample_every = 1,
                        .measure_reps = 1});
  OnlineTrainerOptions topts;
  topts.min_batch = 8;
  topts.train.epochs = 1;
  OnlineTrainer trainer(reg, fc, topts);

  // Below min_batch: the round drains but must not publish.
  for (std::size_t i = 0; i < 4; ++i)
    ASSERT_TRUE(fc.publish(sample_for(p, i)));
  EXPECT_FALSE(trainer.train_once());
  EXPECT_EQ(reg.version(), 1u);
  EXPECT_EQ(trainer.consumed(), 4u);

  // Replay accumulates across rounds; crossing min_batch publishes v2.
  for (std::size_t i = 4; i < 10; ++i)
    ASSERT_TRUE(fc.publish(sample_for(p, i)));
  EXPECT_TRUE(trainer.train_once());
  EXPECT_EQ(reg.version(), 2u);
  EXPECT_EQ(trainer.published(), 1u);

  // No fresh samples -> no churn: versions only move on new evidence.
  EXPECT_FALSE(trainer.train_once());
  EXPECT_EQ(reg.version(), 2u);
}

TEST(Online, RecoversFromLabelDriftWithinFiveVersions) {
  auto& p = pipeline();
  ModelRegistry reg(p.selector.clone());
  FeedbackCollector fc({.capacity = 256, .sample_every = 1,
                        .measure_reps = 1});
  OnlineTrainerOptions topts;
  topts.min_batch = 32;
  topts.replay_capacity = 256;
  OnlineTrainer trainer(reg, fc, topts);

  // A model trained fresh on B is the recovery target.
  FormatSelector fresh(p.selector.options());
  fresh.fit(p.labeled_b, p.plat_b->formats());
  const double fresh_acc = accuracy_on(fresh, p.labeled_b);

  double acc = accuracy_on(*reg.current(), p.labeled_b);
  int versions = 0;
  std::size_t cursor = 0;
  while (acc < fresh_acc - 0.01 && versions < 5) {
    // One "slice of served traffic": measured-on-B feedback samples.
    for (int i = 0; i < 48; ++i)
      (void)fc.publish(sample_for(p, cursor++));
    ASSERT_TRUE(trainer.train_once());
    ++versions;
    acc = accuracy_on(*reg.current(), p.labeled_b);
  }
  EXPECT_GE(acc, fresh_acc - 0.01)
      << "stuck at " << acc << " vs fresh " << fresh_acc << " after "
      << versions << " versions";
  EXPECT_EQ(reg.version(), 1u + static_cast<std::uint64_t>(versions));
}

// -------------------------------------------------------- serialization

TEST(Serialize, WeightSetsCarryTheirPublishedVersion) {
  auto& p = pipeline();
  ModelRegistry reg(p.selector.clone());
  reg.publish(p.selector.clone());
  reg.publish(p.selector.clone());
  ASSERT_EQ(reg.current()->model_version(), 3u);

  const std::string path = "test_online_weights.bin";
  reg.current()->save(path);
  const FormatSelector loaded = FormatSelector::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.model_version(), 3u);
  EXPECT_EQ(loaded.candidates(), reg.candidates());
  const Csr& a = p.corpus[0].matrix;
  EXPECT_EQ(loaded.predict_index(a), reg.current()->predict_index(a));
}

}  // namespace
}  // namespace dnnspmv
