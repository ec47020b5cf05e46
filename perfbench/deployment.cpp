#include "deployment.hpp"

#include <future>
#include <vector>

#include "gen/corpus.hpp"
#include "gen/dlmc.hpp"
#include "perf/labels.hpp"
#include "perf/platform.hpp"

namespace perfbench {

using namespace dnnspmv;

Deployment set_up(std::uint64_t seed, const SetupConfig& cfg) {
  CorpusSpec spmv_spec;
  spmv_spec.count = cfg.spmv_train;
  spmv_spec.seed = seed;
  const std::vector<CorpusEntry> spmv_corpus = build_corpus(spmv_spec);

  DlmcSpec spmm_spec;
  spmm_spec.count = cfg.spmm_train;
  spmm_spec.max_dim = 512;
  spmm_spec.seed = seed ^ 0x5350'4d4dULL;
  const std::vector<CorpusEntry> spmm_corpus = build_dlmc_corpus(spmm_spec);

  // SpMV: analytic Xeon labels, so that head is a function of the seed.
  // SpMM has no analytic model; its labels are measured on this host.
  const auto xeon = make_analytic_cpu(intel_xeon_params());
  const std::vector<LabeledMatrix> spmv_labeled =
      collect_labels(spmv_corpus, *xeon);
  const std::vector<LabeledMatrix> spmm_labeled = collect_labels_spmm(
      spmm_corpus, xeon->formats(), kSpmmCols, cfg.spmm_reps);

  SelectorOptions opts;
  opts.quantize = true;  // the serve path is int8
  opts.spmm_cols = kSpmmCols;
  opts.train.epochs = cfg.epochs;
  opts.train.seed = seed;
  FormatSelector selector(opts);
  selector.fit(spmv_labeled, xeon->formats());
  selector.fit_spmm(spmm_labeled);

  Deployment d;
  d.registry = std::make_unique<ModelRegistry>(std::move(selector));
  RouterOptions ro;
  ro.replicas = kReplicas;
  ro.service.num_workers = kWorkersPerReplica;
  ro.service.cache_capacity = kCacheCapacity;
  d.router = std::make_unique<ReplicaRouter>(*d.registry, ro);

  // Warm-up on training matrices only: first-touch allocations, worker
  // scratch and the hedge budget settle here, and no workload key is cached.
  std::vector<std::future<std::int32_t>> pending;
  for (int i = 0; i < cfg.warmup_requests; ++i) {
    const auto k = static_cast<std::size_t>(i);
    pending.push_back(d.router->submit(
        spmv_corpus[k % spmv_corpus.size()].matrix, SpOp::kSpmv));
    pending.push_back(d.router->submit(
        spmm_corpus[k % spmm_corpus.size()].matrix, SpOp::kSpmm));
  }
  for (auto& f : pending) f.get();
  return d;
}

}  // namespace perfbench
