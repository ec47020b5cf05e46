// perfbench — the repository's end-to-end benchmark.
//
// One deployment (deployment.hpp) driven by one of three seeded workloads:
//   serve_cold  open-loop serving where every request misses the cache
//   serve_hot   closed-loop serving from a cached pool, with model publishes
//   solve       select -> convert -> N multiplies, end to end
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale full|tiny] [--corrupt 0|1|2] [--rate <req/s>]
//             [--trace-out <path>]
//
// --trace 0 measures the end-to-end metrics with no instrumentation at all;
// --trace 1 re-runs the same load with every call wrapped in a span and
// reports the per-layer ledger instead (see ledger.hpp), writing a chrome
// trace to --trace-out. Every output is checked; the last stdout line is
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the exit code is non-zero when any output was wrong.
#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "ledger.hpp"
#include "obs/trace.hpp"

using namespace perfbench;

namespace {

// Set-up runs this many times; setup_s is the median.
constexpr int kSetups = 5;
// OpenMP team of this thread: set-up and the solve caller's kernels. Every
// other thread (service workers, load threads) keeps the environment's
// team size, which run.py pins to 1 so no worker's forward pass forks a
// team onto a CPU another thread is using.
constexpr int kKernelTeam = 2;
// Spans written to the chrome trace (the earliest ones).
constexpr std::size_t kTraceEvents = 200000;

void print_json(bool correct, const Verdict& v,
                const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(v.attempted);
  out += ", \"failed\": " + std::to_string(v.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(int argc, char** argv) {
  dnnspmv::Cli cli(argc, argv);
  const Workload w = workload_from_name(cli.get_string("workload", "solve"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 10);
  const bool trace = cli.get_int("trace", 0) != 0;
  const bool tiny = cli.get_string("scale", "full") == "tiny";
  const auto corrupt = static_cast<Corrupt>(
      std::clamp<std::int64_t>(cli.get_int("corrupt", 0), 0, 2));
  // serve_cold's arrival rate, when not the workload's own (calibrate.py).
  const double rate = cli.get_double("rate", 0);
  const std::string trace_out = cli.get_string("trace-out", "");
  cli.check_unused();

  // The program's own spans stay off in both runs: they would add their
  // cost to the untraced run and double-count in the traced one.
  dnnspmv::obs::set_enabled(false);
  omp_set_num_threads(kKernelTeam);
  std::printf("perfbench: workload %s seed %llu seconds %g trace %d scale %s "
              "kernel team %d\n",
              workload_name(w), static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0, tiny ? "tiny" : "full", omp_get_max_threads());

  // Inputs first, from the seed alone; nothing below generates any more.
  const Inputs in = make_inputs(w, seed, {tiny, seconds, rate});
  std::printf("inputs: %zu matrices, %zu keys\n", in.mats.size(),
              in.keys.size());

  const SetupConfig scfg = tiny ? SetupConfig::tiny() : SetupConfig::full();
  std::vector<double> setup_s;
  Deployment dep;
  for (int i = 0; i < kSetups; ++i) {
    dep.router.reset();  // tear the previous one down before timing
    dep.registry.reset();
    const std::int64_t t0 = now_ns();
    dep = set_up(seed, scfg);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  std::sort(setup_s.begin(), setup_s.end());
  const double setup_median = setup_s[setup_s.size() / 2];
  std::printf("setup: median %.3f s of %d (%.3f .. %.3f)\n", setup_median,
              kSetups, setup_s.front(), setup_s.back());

  for (std::size_t r = 0; r < dep.router->placement().size(); ++r) {
    std::string cpus;
    for (int c : dep.router->placement()[r].cpus) {
      if (!cpus.empty()) cpus += ',';
      cpus += std::to_string(c);
    }
    std::printf("placement: replica %zu workers on cpus {%s}\n", r,
                cpus.c_str());
  }

  const Expected exp = expected_picks(dep, in);
  // Per-thread span room: a serve_hot client's three spans per request at
  // its record room's rate, plus the probes' spans on this thread.
  SpanRecorder rec(trace, static_cast<std::size_t>(
                              400'000 + 3 * kHotRecordsPerClientSecond *
                                            std::max(1.0, seconds)));
  RunResult res = run_workload(dep, in, {w, seconds, tiny, corrupt}, rec);
  const Verdict v = check(w, res, exp, dep.router->candidates(), corrupt);

  const std::vector<Metric> e2e = end_to_end(w, res, v, setup_median);
  std::vector<std::string> notes = v.notes;
  std::vector<Metric> metrics = e2e;
  if (trace) metrics = per_layer(w, dep, in, res, exp, rec, tiny, notes);

  std::size_t answered = 0;
  for (const Record& r : res.records) answered += r.done_ns > 0 && !r.error;
  std::printf("load: %zu attempted, %zu answered in %.3f s\n%s\n",
              res.records.size(), answered, res.wall_s,
              latency_summary(w, res).c_str());
  std::printf("%s\n", router_summary(res).c_str());
  std::printf("served picks digest: %s (model v%llu, %lld publishes)\n",
              v.digest.c_str(),
              static_cast<unsigned long long>(dep.registry->version()),
              static_cast<long long>(res.published));
  std::printf("checks: %lld failed, %lld degraded\n",
              static_cast<long long>(v.failed),
              static_cast<long long>(v.degraded));
  if (trace)
    for (const Metric& m : e2e)
      std::printf("  (traced) %-22s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  for (const Metric& m : metrics)
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const std::string& n : notes) std::printf("note: %s\n", n.c_str());
  if (trace && !trace_out.empty()) {
    const bool ok = write_chrome_trace(trace_out, rec.merged(), kTraceEvents);
    std::printf("trace: %s %s\n", ok ? "wrote" : "could not write",
                trace_out.c_str());
  }

  const bool correct = v.failed == 0;
  std::fflush(stdout);
  print_json(correct, v, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
