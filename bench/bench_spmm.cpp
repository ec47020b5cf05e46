// SpMM workload bench (DESIGN.md §14): DLMC-style pruned-weight corpus,
// measured SpMM labels at K dense columns, and the op-aware selector head
// against the static baselines. Reports
//   * SpMV-vs-SpMM winner divergence — how often the two ops disagree on
//     the best format for the same matrix (the reason the op-aware head
//     exists; must be nonzero on any real host),
//   * aggregate SpMM time of: oracle, the SpMM head, the SpMV head's picks
//     (an op-unaware deployment), and always-CSR.
// Emits BENCH_spmm.json (per-format SpMV and SpMM winner counts, the
// divergence and the four totals); exit status is the CI gate (selector
// beats always-CSR in aggregate AND divergence is nonzero).
//
// Flags: --n <matrices> (default 180), --k <dense cols> (default 32),
//        --reps <r> (default 3), --epochs <e> (default 25),
//        --seed <u64> (default 42), --cache <path> (binary corpus cache,
//        empty = rebuild every run), --json <path>.
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gen/dlmc.hpp"
#include "perf/labels.hpp"
#include "perf/platform.hpp"

using namespace dnnspmv;
using namespace dnnspmv::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::int64_t n = cli.get_int("n", 180);
  const index_t k = static_cast<index_t>(cli.get_int("k", 32));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const int epochs = static_cast<int>(cli.get_int("epochs", 25));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::string cache = cli.get_string("cache", "");
  const std::string json_path = cli.get_string("json", "BENCH_spmm.json");
  cli.check_unused();

  // Corpus: the binary cache lets CI reuse the generated slice across runs
  // (actions/cache keyed on the generator sources). A stale cache with the
  // wrong size — someone changed --n — is rebuilt, not trusted.
  std::vector<CorpusEntry> corpus;
  if (!cache.empty() && load_corpus(cache, &corpus) &&
      static_cast<std::int64_t>(corpus.size()) == n) {
    std::printf("loaded %zu cached DLMC matrices from %s\n", corpus.size(),
                cache.c_str());
  } else {
    DlmcSpec spec;
    spec.count = n;
    spec.seed = seed;
    corpus = build_dlmc_corpus(spec);
    std::printf("generated %zu DLMC matrices (densities 2%%..50%%)\n",
                corpus.size());
    if (!cache.empty() && save_corpus(cache, corpus))
      std::printf("cached corpus to %s\n", cache.c_str());
  }

  // DIA is excluded: pruned weights have no diagonal structure, so it only
  // burns conversion attempts. This is the GPU library's set (DESIGN.md §2).
  const std::vector<Format>& formats = gpu_formats();

  std::printf("labelling SpMV (measured, %d reps)...\n", reps);
  const std::unique_ptr<Platform> host = make_measured(formats, reps);
  const std::vector<LabeledMatrix> spmv_labeled =
      collect_labels(corpus, *host);
  std::printf("labelling SpMM at K=%d (measured, %d reps)...\n",
              static_cast<int>(k), reps);
  const std::vector<LabeledMatrix> spmm_labeled =
      collect_labels_spmm(corpus, formats, k, reps);

  // Winner divergence: same matrix, different op, different best format.
  std::int64_t diverged = 0;
  std::vector<std::int64_t> spmv_wins(formats.size(), 0);
  std::vector<std::int64_t> spmm_wins(formats.size(), 0);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (spmv_labeled[i].label != spmm_labeled[i].label) ++diverged;
    ++spmv_wins[static_cast<std::size_t>(spmv_labeled[i].label)];
    ++spmm_wins[static_cast<std::size_t>(spmm_labeled[i].label)];
  }
  const double divergence_rate =
      static_cast<double>(diverged) / static_cast<double>(corpus.size());
  std::printf("\n=== winner distribution (SpMV vs SpMM, same matrices) ===\n");
  for (std::size_t f = 0; f < formats.size(); ++f)
    std::printf("  %-5s  spmv %4lld   spmm %4lld\n",
                format_name(formats[f]).c_str(),
                static_cast<long long>(spmv_wins[f]),
                static_cast<long long>(spmm_wins[f]));
  std::printf("divergence: %lld/%zu matrices (%.1f%%) change winner with "
              "the op\n",
              static_cast<long long>(diverged), corpus.size(),
              100.0 * divergence_rate);

  // Both heads, one selector: the SpMV head defines geometry, the SpMM
  // head rides along (core/selector.hpp).
  SelectorOptions opts;
  opts.spmm_cols = k;
  opts.train.epochs = epochs;
  opts.train.seed = seed;
  FormatSelector selector(opts);
  std::printf("\ntraining SpMV head (%d epochs)...\n", epochs);
  selector.fit(spmv_labeled, formats);
  std::printf("training SpMM head (%d epochs)...\n", epochs);
  selector.fit_spmm(spmm_labeled);

  std::vector<const Csr*> mats;
  mats.reserve(corpus.size());
  for (const CorpusEntry& e : corpus) mats.push_back(&e.matrix);
  const std::vector<std::int32_t> pick_spmm =
      selector.predict_index_batch(mats, SpOp::kSpmm);
  const std::vector<std::int32_t> pick_spmv =
      selector.predict_index_batch(mats, SpOp::kSpmv);

  // Aggregate SpMM cost of each policy, charged from the measured label
  // times. A pick the matrix refuses (inf) falls back to CSR, which every
  // matrix supports — same as a deployment would.
  const auto csr_idx = static_cast<std::size_t>(
      selector.candidate_index(Format::kCsr));
  const auto charge = [&](const std::vector<double>& times,
                          std::int32_t pick) {
    const double t = times[static_cast<std::size_t>(pick)];
    return std::isfinite(t) ? t : times[csr_idx];
  };
  double t_oracle = 0, t_selector = 0, t_spmv_head = 0, t_csr = 0;
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::vector<double>& times = spmm_labeled[i].format_times;
    t_oracle += times[static_cast<std::size_t>(spmm_labeled[i].label)];
    t_selector += charge(times, pick_spmm[i]);
    t_spmv_head += charge(times, pick_spmv[i]);
    t_csr += times[csr_idx];
    if (pick_spmm[i] == spmm_labeled[i].label) ++correct;
  }
  const double accuracy =
      static_cast<double>(correct) / static_cast<double>(corpus.size());

  std::printf("\n=== aggregate SpMM time, %zu matrices at K=%d ===\n\n",
              corpus.size(), static_cast<int>(k));
  std::printf("  %-22s %12.1f us  (lower bound)\n", "oracle",
              t_oracle * 1e6);
  std::printf("  %-22s %12.1f us  (accuracy %.1f%%)\n", "selector SpMM head",
              t_selector * 1e6, 100.0 * accuracy);
  std::printf("  %-22s %12.1f us  (op-unaware deployment)\n",
              "selector SpMV head", t_spmv_head * 1e6);
  std::printf("  %-22s %12.1f us\n", "always CSR", t_csr * 1e6);
  std::printf("\nselector vs always-CSR: %.2fx\n", t_csr / t_selector);
  std::printf("selector vs SpMV-head picks: %.2fx\n",
              t_spmv_head / t_selector);

  const bool pass = t_selector < t_csr && diverged > 0;

  JsonWriter w;
  w.begin_object();
  w.field("bench", "spmm");
  w.field("n", static_cast<std::int64_t>(corpus.size()));
  w.field("k", static_cast<std::int64_t>(k));
  w.field("reps", reps);
  w.begin_array("formats");
  for (std::size_t f = 0; f < formats.size(); ++f) {
    w.begin_object();
    w.field("name", format_name(formats[f]));
    w.field("spmv_wins", spmv_wins[f]);
    w.field("spmm_wins", spmm_wins[f]);
    w.end_object();
  }
  w.end_array();
  w.begin_object("divergence");
  w.field("count", static_cast<std::int64_t>(diverged));
  w.field("rate", divergence_rate);
  w.end_object();
  w.begin_object("totals_us");
  w.field("oracle", t_oracle * 1e6);
  w.field("selector_spmm_head", t_selector * 1e6);
  w.field("selector_spmv_head", t_spmv_head * 1e6);
  w.field("always_csr", t_csr * 1e6);
  w.end_object();
  w.field("selector_accuracy", accuracy);
  w.field("speedup_vs_csr", t_csr / t_selector);
  w.field("speedup_vs_spmv_head", t_spmv_head / t_selector);
  w.field("pass", pass);
  w.end_object();
  if (w.write_file(json_path))
    std::printf("wrote %s\n", json_path.c_str());

  std::printf("gate (selector < always-CSR, divergence > 0): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
