// src/serve: LRU cache behaviour, fingerprint stability, queue shutdown
// semantics, batched-vs-single prediction equivalence, and a multithreaded
// hammer through the full SelectionService.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/labels.hpp"
#include "serve/adaptive.hpp"
#include "serve/batcher.hpp"
#include "serve/fingerprint.hpp"

namespace dnnspmv {
namespace {

// One trained selector + labelled corpus shared by every test (training is
// the expensive part; predictions themselves are cheap).
struct ServePipeline {
  std::vector<CorpusEntry> corpus;
  std::unique_ptr<Platform> platform;
  FormatSelector selector;

  ServePipeline() {
    CorpusSpec spec;
    spec.count = 100;
    spec.min_dim = 48;
    spec.max_dim = 160;
    spec.seed = 17;
    corpus = build_corpus(spec);
    platform = make_analytic_cpu(intel_xeon_params());
    const auto labeled = collect_labels(corpus, *platform);

    SelectorOptions opts;
    opts.mode = RepMode::kHistogram;
    opts.rep_rows = 16;
    opts.rep_bins = 8;
    opts.train.epochs = 6;
    opts.train.batch = 16;
    opts.train.lr = 2e-3;
    selector = FormatSelector(opts);
    selector.fit(labeled, platform->formats());
  }
};

ServePipeline& pipeline() {
  static ServePipeline p;
  return p;
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruShard shard(3);
  shard.put(1, 10);
  shard.put(2, 20);
  shard.put(3, 30);
  std::int32_t v = 0;
  ASSERT_TRUE(shard.get(1, v));  // refresh 1 → LRU order is 2,3,1
  shard.put(4, 40);              // evicts 2
  EXPECT_FALSE(shard.get(2, v));
  EXPECT_TRUE(shard.get(1, v));
  EXPECT_EQ(v, 10);
  EXPECT_TRUE(shard.get(3, v));
  EXPECT_TRUE(shard.get(4, v));
  EXPECT_EQ(shard.size(), 3u);
  EXPECT_EQ(shard.stats().evictions, 1u);
}

TEST(LruCache, PutRefreshesAndOverwrites) {
  LruShard shard(2);
  shard.put(1, 10);
  shard.put(2, 20);
  shard.put(1, 11);  // refresh + overwrite → LRU order is 2,1
  shard.put(3, 30);  // evicts 2
  std::int32_t v = 0;
  ASSERT_TRUE(shard.get(1, v));
  EXPECT_EQ(v, 11);
  EXPECT_FALSE(shard.get(2, v));
}

TEST(LruCache, ShardedAggregatesAndCapsCapacity) {
  ShardedLruCache cache(64, 4);
  EXPECT_EQ(cache.num_shards(), 4u);
  for (std::uint64_t k = 0; k < 200; ++k)
    cache.put(k, static_cast<std::int32_t>(k));
  // Per-shard capacity is 16, so at most 64 entries survive.
  EXPECT_LE(cache.size(), 64u);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.insertions, 200u);
  EXPECT_GE(s.evictions, 200u - 64u);
  // Shards never hold more than one entry when capacity <= shards.
  ShardedLruCache tiny(2, 8);
  EXPECT_LE(tiny.num_shards(), 2u);
}

TEST(Fingerprint, StableAcrossCopiesAndCalls) {
  auto& p = pipeline();
  const Csr& a = p.corpus[0].matrix;
  const std::uint64_t f1 = structural_fingerprint(a);
  const std::uint64_t f2 = structural_fingerprint(a);
  const Csr copy = a;
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(f1, structural_fingerprint(copy));
  // Matches the stats-based overload.
  EXPECT_EQ(f1, structural_fingerprint(compute_stats(a)));
}

TEST(Fingerprint, DistinguishesStructurallyDifferentMatrices) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  int n = 0;
  // Distinct (dims, nnz) combinations ⇒ fingerprints must all differ.
  for (index_t dim = 40; dim < 140; dim += 4) {
    for (index_t band = 1; band <= 2; ++band) {
      const Csr a = gen_banded(dim, dim, band, 1.0, rng);
      seen.insert(structural_fingerprint(a));
      ++n;
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
}

TEST(Fingerprint, ValueChangesDoNotChangeStructuralKey) {
  Rng rng(5);
  const Csr a = gen_banded(64, 64, 2, 1.0, rng);
  Csr b = a;
  for (double& v : b.val) v *= 3.25;
  EXPECT_EQ(structural_fingerprint(a), structural_fingerprint(b));
}

TEST(RequestQueue, DrainsInFlightRequestsAfterClose) {
  RequestQueue q(8);
  std::vector<std::future<std::int32_t>> futs;
  for (int i = 0; i < 3; ++i) {
    PredictRequest r;
    r.fingerprint = static_cast<std::uint64_t>(i);
    futs.push_back(r.result.get_future());
    ASSERT_TRUE(q.push(std::move(r)));
  }
  q.close();
  // Push after close is rejected without enqueueing.
  EXPECT_FALSE(q.push(PredictRequest{}));

  // Consumers still drain what was in flight…
  std::vector<PredictRequest> batch;
  EXPECT_EQ(q.pop_batch(batch, 2), 2u);
  EXPECT_EQ(q.pop_batch(batch, 2), 1u);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch[i].result.set_value(static_cast<std::int32_t>(i));
  // …and only then see closed-and-empty.
  EXPECT_EQ(q.pop_batch(batch, 2), 0u);
  for (std::size_t i = 0; i < futs.size(); ++i)
    EXPECT_EQ(futs[i].get(), static_cast<std::int32_t>(i));
}

TEST(RequestQueue, PopBlocksUntilPush) {
  RequestQueue q(4);
  std::vector<PredictRequest> got;
  std::thread consumer([&] { q.pop_batch(got, 4); });
  PredictRequest r;
  r.fingerprint = 7;
  ASSERT_TRUE(q.push(std::move(r)));
  consumer.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].fingerprint, 7u);
  got[0].result.set_value(0);  // don't leak a broken promise
}

TEST(PredictBatch, MatchesSinglePredictions) {
  auto& p = pipeline();
  std::vector<const Csr*> ptrs;
  std::vector<Csr> mats;
  for (int i = 0; i < 24; ++i) {
    ptrs.push_back(&p.corpus[static_cast<std::size_t>(i)].matrix);
    mats.push_back(p.corpus[static_cast<std::size_t>(i)].matrix);
  }
  const std::vector<std::int32_t> batched = p.selector.predict_index_batch(ptrs);
  const std::vector<Format> batched_fmt = p.selector.predict_batch(mats);
  ASSERT_EQ(batched.size(), ptrs.size());
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    EXPECT_EQ(batched[i], p.selector.predict_index(*ptrs[i])) << "matrix " << i;
    EXPECT_EQ(batched_fmt[i], p.selector.predict(*ptrs[i])) << "matrix " << i;
  }
  EXPECT_TRUE(p.selector.predict_index_batch({}).empty());
}

TEST(SelectionService, ServesCachedAndUncachedCorrectly) {
  auto& p = pipeline();
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 8;
  SelectionService service(p.selector, opts);

  const Csr& a = p.corpus[0].matrix;
  const std::int32_t direct = p.selector.predict_index(a);
  EXPECT_EQ(service.predict_index(a), direct);  // miss → batcher
  EXPECT_EQ(service.predict_index(a), direct);  // hit → cache
  EXPECT_EQ(service.predict(a),
            p.selector.candidates()[static_cast<std::size_t>(direct)]);

  const ServiceStats s = service.snapshot();
  EXPECT_EQ(s.requests, 3u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_GE(s.batches, 1u);
  EXPECT_EQ(s.batched_samples, 1u);
  EXPECT_EQ(s.cache_entries, 1u);
  std::uint64_t lat = 0;
  for (std::uint64_t c : s.latency) lat += c;
  EXPECT_EQ(lat, 3u);  // every blocking predict recorded a latency
}

TEST(SelectionService, ShutdownAnswersInFlightThenRejects) {
  auto& p = pipeline();
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 4;
  SelectionService service(p.selector, opts);

  std::vector<std::future<std::int32_t>> futs;
  for (int i = 0; i < 6; ++i)
    futs.push_back(service.submit(
        {.matrix = &p.corpus[static_cast<std::size_t>(i)].matrix}));
  service.shutdown();  // drains: every accepted request still gets answered
  for (int i = 0; i < 6; ++i) {
    const std::int32_t idx = futs[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(idx, p.selector.predict_index(
                       p.corpus[static_cast<std::size_t>(i)].matrix));
  }
  // After shutdown, new uncached work is rejected with a typed error that
  // is still a std::runtime_error for pre-taxonomy catch sites.
  try {
    service.predict_index(p.corpus[50].matrix);
    FAIL() << "expected DnnspmvError";
  } catch (const DnnspmvError& e) {
    EXPECT_EQ(e.code(), errc::service_shutdown);
  }
  EXPECT_GE(service.snapshot().rejected, 1u);
  service.shutdown();  // idempotent
}

TEST(SelectionServiceObs, SnapshotMatchesRegistryExport) {
  auto& p = pipeline();
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 8;
  SelectionService service(p.selector, opts);

  for (int i = 0; i < 5; ++i)
    service.predict_index(p.corpus[static_cast<std::size_t>(i % 3)].matrix);

  // The typed snapshot and the registry's untyped export read the same
  // atomics, so for an idle service they must agree exactly.
  const ServiceStats s = service.snapshot();
  const std::string& prefix = service.metrics().prefix();
  const obs::MetricsSnapshot reg =
      service.metrics().registry().snapshot(prefix);

  EXPECT_EQ(reg.counters.at(prefix + "requests"), s.requests);
  EXPECT_EQ(reg.counters.at(prefix + "cache_hits"), s.cache_hits);
  EXPECT_EQ(reg.counters.at(prefix + "cache_misses"), s.cache_misses);
  EXPECT_EQ(reg.counters.at(prefix + "rejected"), s.rejected);
  EXPECT_EQ(reg.counters.at(prefix + "batches"), s.batches);
  EXPECT_EQ(reg.counters.at(prefix + "batched_samples"), s.batched_samples);
  EXPECT_EQ(static_cast<std::uint64_t>(reg.gauges.at(prefix + "max_batch")),
            s.max_batch);
  EXPECT_EQ(
      static_cast<std::uint64_t>(reg.gauges.at(prefix + "cache_entries")),
      s.cache_entries);
  const obs::Histogram::Snapshot& lat =
      reg.histograms.at(prefix + "latency_us");
  EXPECT_EQ(lat.count, s.requests);
  for (int i = 0; i < kLatencyBuckets; ++i)
    EXPECT_EQ(lat.buckets[static_cast<std::size_t>(i)],
              s.latency[static_cast<std::size_t>(i)]);
  // Queue wait was recorded for each batched (cache-miss) request.
  EXPECT_EQ(reg.histograms.at(prefix + "queue_wait_us").count,
            s.cache_misses);
  EXPECT_EQ(reg.histograms.at(prefix + "batch_size").count, s.batches);

  // A second service registers under a different prefix: no sharing.
  SelectionService other(p.selector, opts);
  EXPECT_NE(other.metrics().prefix(), prefix);
  EXPECT_EQ(other.snapshot().requests, 0u);
}

TEST(SelectionService, MultithreadedHammerMatchesDirectPredictions) {
  auto& p = pipeline();
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 16;
  opts.cache_capacity = 64;
  SelectionService service(p.selector, opts);

  constexpr int kPool = 8;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::vector<std::int32_t> expected;
  for (int i = 0; i < kPool; ++i)
    expected.push_back(
        p.selector.predict_index(p.corpus[static_cast<std::size_t>(i)].matrix));
  // Warm the cache sequentially so the concurrent phase's hit rate is
  // deterministic (concurrent first-touches of the same matrix would
  // otherwise each count a miss).
  for (int i = 0; i < kPool; ++i)
    service.predict_index(p.corpus[static_cast<std::size_t>(i)].matrix);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int m = (t * 13 + i) % kPool;
        const std::int32_t got = service.predict_index(
            p.corpus[static_cast<std::size_t>(m)].matrix);
        if (got != expected[static_cast<std::size_t>(m)]) ++mismatches;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);

  const ServiceStats s = service.snapshot();
  EXPECT_EQ(s.requests,
            static_cast<std::uint64_t>(kThreads * kPerThread + kPool));
  EXPECT_EQ(s.cache_hits + s.cache_misses, s.requests);
  EXPECT_EQ(s.cache_misses, static_cast<std::uint64_t>(kPool));
  // Only kPool distinct matrices → nearly everything hits after warmup.
  EXPECT_GE(s.hit_rate(), 0.9);
  EXPECT_LE(s.cache_entries, static_cast<std::uint64_t>(kPool));
}

TEST(MixedBatch, InterleavedOpsShareOneForward) {
  auto& p = pipeline();
  // A second head, trained on AMD-A8 analytic labels so the two heads
  // disagree on some matrices.
  FormatSelector both = p.selector.clone();
  both.fit_spmm(collect_labels(p.corpus, *make_analytic_cpu(amd_a8_params())));
  ModelRegistry registry(std::move(both));
  ModelSubscription sub(registry);
  RequestQueue queue(64);
  PredictionCache cache(256);
  ServiceMetrics metrics;
  Batcher batcher(sub, queue, cache, metrics, /*max_batch=*/32);
  const std::shared_ptr<const FormatSelector> model = registry.current();

  // Each matrix twice, once per op, interleaved: SpMV, SpMM, SpMV, ...
  constexpr std::size_t kMatrices = 16;
  std::vector<PredictRequest> batch(2 * kMatrices);
  std::vector<std::future<std::int32_t>> answers;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Csr& a = p.corpus[i / 2].matrix;
    PredictRequest& r = batch[i];
    r.op = i % 2 ? SpOp::kSpmm : SpOp::kSpmv;
    r.fingerprint = op_scoped_fingerprint(structural_fingerprint(a), r.op);
    r.inputs = model->prepare_inputs(a);
    answers.push_back(r.result.get_future());
  }
  obs::Histogram& forwards =
      obs::MetricsRegistry::global().histogram("nn.forward_us");
  obs::set_enabled(true);
  const std::uint64_t before = forwards.snapshot().count;
  Workspace ws;
  batcher.serve_batch(batch, ws);
  const std::uint64_t after = forwards.snapshot().count;
  obs::set_enabled(false);
  obs::clear_trace();
  EXPECT_EQ(after - before, 1u) << "one forward for the whole micro-batch";

  std::size_t disagree = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Csr& a = p.corpus[i / 2].matrix;
    const SpOp op = i % 2 ? SpOp::kSpmm : SpOp::kSpmv;
    const std::int32_t want = model->predict_index(a, op);
    EXPECT_EQ(answers[i].get(), want) << "request " << i;
    std::int32_t cached = -1;
    EXPECT_TRUE(cache.get(
        versioned_cache_key(op_scoped_fingerprint(structural_fingerprint(a), op),
                            model->model_version()),
        cached))
        << "request " << i;
    EXPECT_EQ(cached, want) << "request " << i;
    if (op == SpOp::kSpmm && want != model->predict_index(a, SpOp::kSpmv))
      ++disagree;
  }
  // Otherwise a head mix-up could not show in the answers above.
  EXPECT_GT(disagree, 0u);
}

TEST(AdaptiveSpmv, ReusesPredictionCacheAcrossConstructions) {
  auto& p = pipeline();
  PredictionCache cache(16, 2);
  const Csr& a = p.corpus[0].matrix;

  const AdaptiveSpmv first(p.selector, a, &cache);
  EXPECT_FALSE(first.cache_hit());
  const AdaptiveSpmv second(p.selector, a, &cache);
  EXPECT_TRUE(second.cache_hit());
  EXPECT_EQ(first.format(), second.format());

  // Cached construction still multiplies correctly.
  std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.rows), 0.0);
  std::vector<double> ref(static_cast<std::size_t>(a.rows), 0.0);
  second.apply(x, y);
  spmv_reference(a, x, ref);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], ref[i], 1e-9);

  // Opting out of the cache never reports a hit.
  const AdaptiveSpmv uncached(p.selector, a, nullptr);
  EXPECT_FALSE(uncached.cache_hit());
  EXPECT_EQ(uncached.format(), first.format());

  // The default constructor memoizes through the shared cache.
  const AdaptiveSpmv shared1(p.selector, a);
  const AdaptiveSpmv shared2(p.selector, a);
  EXPECT_TRUE(shared2.cache_hit());
  EXPECT_EQ(shared1.format(), shared2.format());
}

TEST(ServiceMetrics, LatencyHistogramBucketsAndQuantiles) {
  ServiceMetrics m;
  m.record_latency(0.5e-6);  // bucket 0
  m.record_latency(3e-6);    // ~bucket 1
  m.record_latency(1e-3);    // ~bucket 9/10
  const ServiceStats s = m.snapshot();
  std::uint64_t total = 0;
  for (std::uint64_t c : s.latency) total += c;
  EXPECT_EQ(total, 3u);
  EXPECT_GT(s.latency_quantile(1.0), s.latency_quantile(0.01));
  EXPECT_LE(s.latency_quantile(0.01), ServiceStats::bucket_upper_seconds(0));
}

}  // namespace
}  // namespace dnnspmv
