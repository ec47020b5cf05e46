#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>

#include "serve/fingerprint.hpp"
#include "sparse/spmm.hpp"
#include "sparse/stats.hpp"

namespace perfbench {

using namespace dnnspmv;

namespace {

// Linear-interpolation quantile (numpy's default); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::size_t out_len(const Csr& a, SpOp op) {
  return static_cast<std::size_t>(a.rows) *
         (op == SpOp::kSpmm ? kSpmmCols : 1);
}

std::size_t in_len(const Csr& a, SpOp op) {
  return static_cast<std::size_t>(a.cols) *
         (op == SpOp::kSpmm ? kSpmmCols : 1);
}

// Median wall time in µs of `f` over `reps` calls after one warm call,
// each call recorded as span `name` (id = key) when tracing.
template <class F>
double timed_us(SpanRecorder& rec, const char* name, std::int64_t id, F&& f,
                int reps = 3) {
  f();
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    SpanRecorder::Scope s(rec, name, id);
    const std::int64_t a = now_ns();
    f();
    t.push_back(static_cast<double>(now_ns() - a) * 1e-3);
  }
  return quantile(t, 0.5);
}

bool is_load_root(const char* name) {
  return std::strcmp(name, "request") == 0 || std::strcmp(name, "job") == 0;
}

// One probed matrix: the miss path's stages, timed on the matrix the
// workload sent, plus the kernels the answer leads to.
struct Probe {
  std::int32_t key = 0;
  double fingerprint_us = 0, rep_us = 0, forward_us = 0, forward_batch_us = 0;
  double convert_us = 0;  // 0 when the pick is CSR (nothing to convert)
  bool converted = false, refused = false;
  double kernel_us = 0;   // one call in the picked format (CSR if refused)
  double best_us = 0;     // fastest candidate's call
  double bytes = 0;       // matrix + x + y of the picked call
  double select_us() const { return fingerprint_us + rep_us + forward_us; }
};

// Latency of every answered request/job, in issue order. Open loop times
// a request from when it was due, so generator lag counts against the
// service instead of hiding it.
std::vector<double> latencies_us(Workload w, const RunResult& run) {
  std::vector<double> lat;
  for (const Record& r : run.records) {
    if (r.done_ns == 0 || r.error) continue;
    const std::int64_t from = w == Workload::kServeCold ? r.due_ns : r.issue_ns;
    lat.push_back(static_cast<double>(r.done_ns - from) * 1e-3);
  }
  return lat;
}

// The workload's fixed latency limit for slo_share: the smallest 1-2-5
// step at or above the workload's p95 latency measured on a 4-vCPU x86 VM
// when the benchmark was defined (serve_cold 0.86-1.08 ms at 2000 req/s,
// serve_hot 0.29-0.46 ms, solve 25-33 ms), so slo_share reads about
// 0.97-0.99 and moves with the tail.
double slo_limit_us(Workload w) {
  switch (w) {
    case Workload::kServeCold: return 2000;
    case Workload::kServeHot: return 500;
    case Workload::kSolve: return 50000;
  }
  return 0;
}

}  // namespace

Expected expected_picks(const Deployment& dep, const Inputs& in) {
  const auto model = dep.model();
  const FallbackSelector& fb = dep.router->replica(0).fallback();
  Expected e;
  for (const Key& k : in.keys) {
    const Csr& a = in.mats[static_cast<std::size_t>(k.mat)];
    e.pick.push_back(model->predict_index(a, k.op));
    e.fallback.push_back(fb.predict_index(compute_stats(a)));
  }
  return e;
}

Verdict check(Workload w, RunResult& run, const Expected& exp,
              const std::vector<Format>& candidates, Corrupt corrupt) {
  const auto ncand = static_cast<std::int32_t>(candidates.size());
  if (corrupt != Corrupt::kNone && w != Workload::kSolve && run.records.size() > 3 &&
      run.records[3].pick >= 0)
    run.records[3].pick = (run.records[3].pick + 1) % ncand;

  std::uint64_t degraded_counted = 0;
  for (const ServiceStats& s : run.stats.replica)
    degraded_counted += s.degraded;

  Verdict v;
  std::int64_t fallback_like = 0;
  std::vector<std::int32_t> served(exp.pick.size(), -1);
  const auto fail = [&](Record& r, const char* why) {
    r.error = true;
    ++v.failed;
    if (v.notes.size() < 5) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s %lld: %s (key %d, pick %d)",
                    w == Workload::kSolve ? "job" : "request",
                    static_cast<long long>(r.id), why, r.key, r.pick);
      v.notes.push_back(buf);
    }
  };
  for (Record& r : run.records) {
    ++v.attempted;
    const auto k = static_cast<std::size_t>(r.key);
    if (r.done_ns == 0) {
      fail(r, "unanswered");
    } else if (r.error) {
      fail(r, "router error");
    } else if (r.pick < 0 || r.pick >= ncand) {
      fail(r, "pick outside candidates()");
    } else if (r.bad_output) {
      fail(r, "y differs from the CSR kernel's y");
    } else if (r.pick != exp.pick[k]) {
      // A degraded answer comes from the fallback, not the model; the
      // router counts those, so at most that many can be excused.
      if (r.pick == exp.fallback[k] &&
          fallback_like < static_cast<std::int64_t>(degraded_counted))
        ++fallback_like;
      else
        fail(r, "pick differs from FormatSelector::predict_index");
    }
    if (r.pick >= 0 && served[k] < 0) served[k] = r.pick;
  }
  v.degraded = std::min<std::int64_t>(
      static_cast<std::int64_t>(degraded_counted), v.attempted);

  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over (key, pick)
  for (std::size_t k = 0; k < served.size(); ++k) {
    if (served[k] < 0) continue;
    for (std::uint64_t x : {static_cast<std::uint64_t>(k),
                            static_cast<std::uint64_t>(served[k])})
      for (int b = 0; b < 8; ++b) {
        h ^= (x >> (8 * b)) & 0xff;
        h *= 1099511628211ULL;
      }
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  v.digest = buf;
  return v;
}

std::vector<Metric> end_to_end(Workload w, const RunResult& run,
                               const Verdict& v, double setup_s) {
  const std::vector<double> lat = latencies_us(w, run);
  const double limit = slo_limit_us(w);
  const auto within = std::count_if(lat.begin(), lat.end(),
                                    [&](double us) { return us <= limit; });
  const auto attempted =
      static_cast<double>(std::max<std::int64_t>(1, v.attempted));
  return {
      {"setup_s", setup_s, "s"},
      {"req_per_s", ratio(static_cast<double>(lat.size()), run.wall_s), "1/s"},
      {"latency_p50_us", quantile(lat, 0.50), "us"},
      {"slo_share", static_cast<double>(within) / attempted, "ratio"},
      {"answered_share", 1.0 - static_cast<double>(v.failed) / attempted,
       "ratio"},
      {"model_answer_share", 1.0 - static_cast<double>(v.degraded) / attempted,
       "ratio"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
  };
}

std::string latency_summary(Workload w, const RunResult& run) {
  const std::vector<double> lat = latencies_us(w, run);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "latency n=%zu: p50 %.1f  p95 %.1f  p99 %.1f  p99.9 %.1f us "
                "(%zu samples beyond p99)",
                lat.size(), quantile(lat, 0.5), quantile(lat, 0.95),
                quantile(lat, 0.99), quantile(lat, 0.999),
                lat.size() / 100);
  return buf;
}

std::string router_summary(const RunResult& run) {
  const RouterStats& st = run.stats;
  std::uint64_t batches = 0, batched = 0, swaps = 0;
  for (const ServiceStats& s : st.replica) {
    batches += s.batches;
    batched += s.batched_samples;
    swaps += s.model_swaps;
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "router: hit_ratio %.4f  mean_batch %.3f  hedges %llu  "
                "hedge_won %llu  degraded %llu  model_swaps %llu",
                st.hit_rate(),
                ratio(static_cast<double>(batched),
                      static_cast<double>(batches)),
                static_cast<unsigned long long>(st.hedges),
                static_cast<unsigned long long>(st.hedge_won),
                static_cast<unsigned long long>(st.total_degraded()),
                static_cast<unsigned long long>(swaps));
  return buf;
}

namespace {

// Per-key CSR times: one CSR SpMV of the key's matrix (the paper's unit
// for `*_iters`) and one CSR call of the key's own op (the always-CSR
// baseline of core.speedup_vs_csr).
struct CsrBaseline {
  std::vector<double> spmv_us, op_us;
};

CsrBaseline csr_baselines(const Inputs& in, SpanRecorder& rec) {
  CsrBaseline b;
  for (std::size_t k = 0; k < in.keys.size(); ++k) {
    const Csr& a = in.mats[static_cast<std::size_t>(in.keys[k].mat)];
    const SpOp op = in.keys[k].op;
    const auto id = static_cast<std::int64_t>(k);
    std::vector<double> x(in_len(a, op), 1.0), y(out_len(a, op));
    b.spmv_us.push_back(timed_us(rec, "probe.csr_spmv", id, [&] {
      spmv_csr(a, std::span(x).first(a.cols), std::span(y).first(a.rows));
    }, 5));
    b.op_us.push_back(op == SpOp::kSpmv
                          ? b.spmv_us.back()
                          : timed_us(rec, "probe.csr_spmm", id, [&] {
                              spmm_csr(a, x, y, kSpmmCols);
                            }, 5));
  }
  return b;
}

// Probes an even sample of each op's keys through the miss path's public
// functions and the kernels its answer leads to.
std::vector<Probe> run_probes(const Deployment& dep, const Inputs& in,
                              const Expected& exp, SpanRecorder& rec,
                              bool tiny) {
  const auto model = dep.model();
  const std::vector<Format>& cands = dep.router->candidates();
  std::vector<std::int32_t> by_op[kNumOps], sample;
  for (std::size_t k = 0; k < in.keys.size(); ++k)
    by_op[static_cast<int>(in.keys[k].op)].push_back(
        static_cast<std::int32_t>(k));
  for (const auto& keys : by_op) {
    const std::size_t n = std::min<std::size_t>(keys.size(), tiny ? 6 : 32);
    for (std::size_t i = 0; i < n; ++i)
      sample.push_back(keys[i * keys.size() / n]);
  }
  const std::size_t max_batch = dep.router->replica(0).options().max_batch;
  std::vector<Probe> probes;
  for (std::int32_t key_index : sample) {
    Probe p;
    p.key = key_index;
    const auto id = static_cast<std::int64_t>(p.key);
    const Key& key = in.keys[static_cast<std::size_t>(p.key)];
    const Csr& a = in.mats[static_cast<std::size_t>(key.mat)];
    SpanRecorder::Scope root(rec, "probe", id);
    p.fingerprint_us = timed_us(rec, "probe.fingerprint", id,
                                [&] { structural_fingerprint(a); });
    std::vector<Tensor> inputs;
    p.rep_us = timed_us(rec, "probe.rep_build", id,
                        [&] { inputs = model->prepare_inputs(a); });
    const std::vector<std::vector<Tensor>> one = {inputs};
    p.forward_us = timed_us(rec, "probe.forward", id, [&] {
      model->predict_prepared(one, nullptr, key.op);
    });
    const std::vector<std::vector<Tensor>> batch(max_batch, inputs);
    p.forward_batch_us = timed_us(rec, "probe.forward_batch", id, [&] {
                           model->predict_prepared(batch, nullptr, key.op);
                         }) /
                         static_cast<double>(max_batch);

    std::vector<double> x(in_len(a, key.op), 1.0), y(out_len(a, key.op));
    const Format pick = cands[static_cast<std::size_t>(
        exp.pick[static_cast<std::size_t>(p.key)])];
    std::optional<AnyFormatMatrix> m;
    if (pick != Format::kCsr) {
      p.converted = true;
      p.convert_us = timed_us(rec, "probe.convert", id, [&] {
        m = AnyFormatMatrix::convert(a, pick);
      });
      p.refused = !m.has_value();
    }
    p.kernel_us = timed_us(rec, "probe.kernel", id, [&] {
      multiply(a, m ? &*m : nullptr, key.op, x, y);
    }, 5);
    p.bytes = static_cast<double>(m ? m->bytes() : a.bytes()) +
              static_cast<double>(sizeof(double) * (x.size() + y.size()));
    p.best_us = std::numeric_limits<double>::infinity();
    for (Format f : cands) {
      std::optional<AnyFormatMatrix> c;
      if (f != Format::kCsr) {
        c = AnyFormatMatrix::convert(a, f);
        if (!c) continue;
      }
      p.best_us = std::min(p.best_us, timed_us(rec, "probe.candidate", id, [&] {
        multiply(a, c ? &*c : nullptr, key.op, x, y);
      }, 5));
    }
    probes.push_back(p);
  }
  return probes;
}

}  // namespace

std::vector<Metric> per_layer(Workload w, Deployment& dep, const Inputs& in,
                              const RunResult& run, const Expected& exp,
                              SpanRecorder& rec, bool tiny,
                              std::vector<std::string>& notes) {
  // Span-cost bookkeeping first: only the load phase's spans count.
  const auto load_spans = static_cast<double>(rec.recorded());
  const double scope_ns = SpanRecorder::calibrate_scope_ns();

  const CsrBaseline csr = csr_baselines(in, rec);
  const std::vector<double>& csr_spmv = csr.spmv_us;
  const std::vector<Probe> probes = run_probes(dep, in, exp, rec, tiny);
  for (int i = 0; i < 3; ++i) {
    SpanRecorder::Scope s(rec, "core.publish", -1 - i);
    dep.registry->publish(dep.registry->current()->clone());
  }

  // ---- span analysis -------------------------------------------------
  const std::vector<Span> spans = rec.merged();
  const std::vector<double> self = self_times_us(spans);
  std::int64_t max_id = 0;
  for (const Record& r : run.records) max_id = std::max(max_id, r.id);
  std::vector<std::int32_t> rec_of_id(static_cast<std::size_t>(max_id) + 1, -1);
  for (std::size_t i = 0; i < run.records.size(); ++i)
    rec_of_id[static_cast<std::size_t>(run.records[i].id)] =
        static_cast<std::int32_t>(i);
  const auto record_of = [&](const Span& s) -> const Record* {
    if (s.id < 0 || s.id > max_id) return nullptr;
    const std::int32_t i = rec_of_id[static_cast<std::size_t>(s.id)];
    return i < 0 ? nullptr : &run.records[static_cast<std::size_t>(i)];
  };

  std::map<std::string, std::vector<double>> us, iters;
  std::vector<double> sel(run.records.size()), conv(run.records.size()),
      kern(run.records.size());
  // Reconciliation: stage spans under each request/job root against the
  // caller's own stopwatch for the same request/job.
  double root_us = 0, attributed_us = 0, wall_us = 0;
  double spmv_bytes = 0, spmv_time = 0, spmm_bytes = 0, spmm_time = 0;
  // SpMV small/large split: every workload's pool has matrices on both
  // sides of it.
  constexpr std::int64_t kLargeNnz = 8192;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    if (name == "core.publish") {
      us[name].push_back(s.us());
      continue;
    }
    if (name.rfind("probe", 0) == 0) continue;
    const Record* r = record_of(s);
    if (!r) continue;
    const auto k = static_cast<std::size_t>(r->key);
    const std::size_t ri = static_cast<std::size_t>(r - run.records.data());
    if (is_load_root(s.name)) {
      root_us += s.us();
      attributed_us += s.us() - self[i];
      wall_us += static_cast<double>(r->done_ns - r->issue_ns) * 1e-3;
      continue;
    }
    const Csr& a = in.mats[static_cast<std::size_t>(in.keys[k].mat)];
    std::string metric = name;
    if (name == "serve.submit" || name == "serve.wait") {
      sel[ri] += s.us();
    } else if (name == "sparse.convert") {
      conv[ri] += s.us();
    } else if (name == "sparse.spmv") {
      kern[ri] += s.us();
      metric = a.nnz() >= kLargeNnz ? "sparse.spmv_large" : "sparse.spmv_small";
      spmv_bytes += static_cast<double>(r->bytes);
      spmv_time += s.us();
    } else if (name == "sparse.spmm") {
      kern[ri] += s.us();
      spmm_bytes += static_cast<double>(r->bytes);
      spmm_time += s.us();
    }
    us[metric].push_back(s.us());
    iters[metric].push_back(s.us() / csr_spmv[k]);
  }

  // Probe-derived stages.
  std::map<std::string, std::vector<double>> pus, piters;
  std::int64_t p_refused = 0;
  std::vector<double> regret;
  for (const Probe& p : probes) {
    const auto k = static_cast<std::size_t>(p.key);
    const Key& key = in.keys[k];
    const Csr& a = in.mats[static_cast<std::size_t>(key.mat)];
    const auto add = [&](const char* n, double v) {
      pus[n].push_back(v);
      piters[n].push_back(v / csr_spmv[k]);
    };
    add("serve.fingerprint", p.fingerprint_us);
    add("core.rep_build", p.rep_us);
    add("nn.forward", p.forward_us);
    add("nn.forward_batch", p.forward_batch_us);
    add("core.select", p.select_us());
    if (p.converted) add("sparse.convert", p.convert_us);
    if (p.refused) ++p_refused;
    if (key.op == SpOp::kSpmm) {
      add("sparse.spmm", p.kernel_us);
    } else {
      add(a.nnz() >= kLargeNnz ? "sparse.spmv_large" : "sparse.spmv_small",
          p.kernel_us);
    }
    regret.push_back(p.kernel_us / p.best_us);
  }
  std::vector<Metric> out;
  const auto put = [&](const std::string& n, double v, const char* unit) {
    out.push_back({n, v, unit});
  };
  // Stage quantiles: the load phase's own spans where the workload made
  // that call, otherwise the probes of the same function.
  const auto stage = [&](const std::string& name, bool p99, bool with_iters) {
    const bool live = us.count(name) && !us.at(name).empty();
    const auto& u = live ? us.at(name) : pus[name];
    const auto& it = live ? iters.at(name) : piters[name];
    put(name + "_us.p50", quantile(u, 0.5), "us");
    if (p99) put(name + "_us.p99", quantile(u, 0.99), "us");
    if (with_iters) put(name + "_iters.p50", quantile(it, 0.5), "iters");
  };

  const RouterStats& st = run.stats;
  std::uint64_t batches = 0, batched = 0, shed = 0, expired = 0, swaps = 0;
  for (const ServiceStats& s : st.replica) {
    batches += s.batches;
    batched += s.batched_samples;
    shed += s.shed;
    expired += s.deadline_expired;
    swaps += s.model_swaps;
  }

  stage("serve.submit", true, true);
  stage("serve.wait", true, true);
  put("serve.hit_ratio", st.hit_rate(), "ratio");
  put("serve.mean_batch", ratio(static_cast<double>(batched),
                                static_cast<double>(batches)), "count");
  put("serve.hedges", static_cast<double>(st.hedges), "count");
  put("serve.hedge_won", static_cast<double>(st.hedge_won), "count");
  put("serve.degraded", static_cast<double>(st.total_degraded()), "count");
  put("serve.shed", static_cast<double>(shed), "count");
  put("serve.deadline_expired", static_cast<double>(expired), "count");
  put("serve.errors", static_cast<double>(st.errors), "count");
  stage("serve.fingerprint", false, true);
  put("serve.model_swaps", static_cast<double>(swaps), "count");
  put("core.publish_us.p50", quantile(us["core.publish"], 0.5), "us");
  stage("core.rep_build", true, true);
  stage("nn.forward", false, true);
  stage("nn.forward_batch", false, true);
  stage("core.select", false, true);
  stage("sparse.convert", false, true);
  std::int64_t refused = 0;
  for (const Record& r : run.records) refused += r.refused;
  put("sparse.convert_refused",
      static_cast<double>(w == Workload::kSolve ? refused : p_refused),
      "count");
  stage("sparse.spmv_small", false, true);
  stage("sparse.spmv_large", false, true);
  stage("sparse.spmm", false, true);
  // Computed bytes (format bytes() + x + y per call) over kernel time:
  // the load phase's kernel calls, or the probes' where it made none.
  double probe_bytes[2] = {0, 0}, probe_time[2] = {0, 0};
  for (const Probe& p : probes) {
    const auto op = static_cast<std::size_t>(
        in.keys[static_cast<std::size_t>(p.key)].op);
    probe_bytes[op] += p.bytes;
    probe_time[op] += p.kernel_us;
  }
  const auto gbps = [&](double bytes, double time_us, std::size_t op) {
    return time_us > 0 ? bytes / (time_us * 1e3)
                       : ratio(probe_bytes[op], probe_time[op] * 1e3);
  };
  put("sparse.spmv_gbps", gbps(spmv_bytes, spmv_time, 0), "GB/s");
  put("sparse.spmm_gbps", gbps(spmm_bytes, spmm_time, 1), "GB/s");

  // Job-time shares. A serve request is a job with N = 0: selection only,
  // so on the serve workloads the convert and kernel shares, the N-class
  // shares and the speedup read 0.
  {
    double t_sel = 0, t_conv = 0, t_kern = 0, t_wall = 0, n1_sel = 0,
           n1_wall = 0, big_kern = 0, big_wall = 0, csr_total = 0;
    for (std::size_t i = 0; i < run.records.size(); ++i) {
      const Record& r = run.records[i];
      if (r.done_ns == 0) continue;
      const double job = static_cast<double>(r.done_ns - r.issue_ns) * 1e-3;
      t_sel += sel[i];
      t_conv += conv[i];
      t_kern += kern[i];
      t_wall += job;
      csr_total += r.n * csr.op_us[static_cast<std::size_t>(r.key)];
      if (r.n == 1) {
        n1_sel += sel[i];
        n1_wall += job;
      } else if (r.n >= 100) {
        big_kern += kern[i];
        big_wall += job;
      }
    }
    put("solve.select_share", ratio(t_sel, t_wall), "ratio");
    put("solve.convert_share", ratio(t_conv, t_wall), "ratio");
    put("solve.kernel_share", ratio(t_kern, t_wall), "ratio");
    put("solve.select_share.n1", ratio(n1_sel, n1_wall), "ratio");
    put("solve.kernel_share.n100plus", ratio(big_kern, big_wall), "ratio");
    put("core.speedup_vs_csr", ratio(csr_total, t_wall), "x");
  }
  double regret_sum = 0;
  for (double g : regret) regret_sum += g;
  put("core.regret", ratio(regret_sum, static_cast<double>(regret.size())),
      "x");

  // Generator lag: how late each request/job was issued once both its due
  // time and its thread's previous call had passed. Waiting behind the
  // previous submit is the service's client-side work, which latency
  // already counts from the due time; this isolates the load generator.
  std::vector<double> late;
  for (const Record& r : run.records)
    late.push_back(static_cast<double>(r.issue_ns - r.ready_ns) * 1e-3);
  put("bench.lateness_us.p99", quantile(late, 0.99), "us");
  put("bench.trace_overhead_pct",
      100.0 * ratio(load_spans * scope_ns * 1e-3, root_us), "%");
  put("bench.reconcile_err", ratio(std::abs(attributed_us - wall_us), wall_us),
      "ratio");
  if (rec.dropped() > 0)
    notes.push_back("spans dropped at the per-thread cap: " +
                    std::to_string(rec.dropped()));
  return out;
}

}  // namespace perfbench
