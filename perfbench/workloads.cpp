#include "workloads.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <optional>
#include <thread>

#include "sparse/spmm.hpp"

namespace perfbench {

using namespace dnnspmv;

namespace {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Concatenates the per-thread records, ordered by id.
std::vector<Record> merge(std::vector<std::vector<Record>>& lanes) {
  std::size_t n = 0;
  for (const auto& l : lanes) n += l.size();
  std::vector<Record> all;
  all.reserve(n);
  for (auto& l : lanes) {
    all.insert(all.end(), l.begin(), l.end());
    std::vector<Record>().swap(l);
  }
  std::sort(all.begin(), all.end(),
            [](const Record& a, const Record& b) { return a.id < b.id; });
  return all;
}

bool ready(std::future<std::int32_t>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

// Resolves a ready future into its record: the answer, or an error.
void collect(std::future<std::int32_t>& f, Record& r) {
  try {
    r.pick = f.get();
  } catch (...) {
    r.error = true;
  }
}

// Load threads share the host with the router's pinned workers: load
// thread i runs on the last CPU of replica i's group, so each replica's
// worker keeps a CPU of its group to itself instead of waiting out a busy
// load thread's time slice.
void pin_load_thread(Deployment& dep, int i) {
  const auto& groups = dep.router->placement();
  if (groups.empty()) return;
  const auto& cpus = groups[static_cast<std::size_t>(i) % groups.size()].cpus;
  if (cpus.size() > 1) affinity::pin_current_thread({cpus.back()});
}

// ---- serve_cold: open loop, two generator threads ---------------------

// One generator: issues its share of the Poisson schedule (every second
// request) at the due times and collects answers from its own outstanding
// futures between arrivals, so the load does not depend on how fast the
// service answers.
void cold_generator(Deployment& dep, const Inputs& in, int lane, int lanes,
                    std::int64_t t0, SpanRecorder& rec,
                    std::vector<Record>& out) {
  pin_load_thread(dep, lane);
  struct Pending {
    std::size_t rec;
    std::int64_t submitted_ns;
    std::future<std::int32_t> f;
  };
  std::vector<Pending> pending;  // in submission order
  const auto finish = [&](Pending& p, std::int64_t done) {
    Record& r = out[p.rec];
    r.done_ns = done;
    collect(p.f, r);
    const std::int32_t root =
        rec.add("request", r.issue_ns, done, r.id, -1);
    if (root >= 0) {
      rec.add("serve.submit", r.issue_ns, p.submitted_ns, r.id, root);
      rec.add("serve.wait", p.submitted_ns, done, r.id, root);
    }
  };
  // Collects every ready answer, keeping the rest in submission order.
  const auto poll = [&] {
    std::size_t kept = 0;
    for (Pending& p : pending) {
      if (ready(p.f))
        finish(p, now_ns());
      else
        pending[kept++] = std::move(p);
    }
    pending.resize(kept);
  };
  // Blocks until `until` or until the oldest outstanding answer arrives
  // (answers mostly arrive in submission order), then collects whatever
  // is ready. Blocking instead of polling keeps the load threads off the
  // CPUs the workers need; the timer slack is cut to 1 ns so arrivals keep
  // to the schedule.
  const auto wait = [&](std::int64_t until) {
    const Clock::time_point tp{std::chrono::nanoseconds(until)};
    if (pending.empty())
      std::this_thread::sleep_until(tp);
    else
      pending.front().f.wait_until(tp);
    poll();
  };
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  std::int64_t free_ns = 0;  // when this thread's previous submit returned
  for (std::size_t j = static_cast<std::size_t>(lane); j < in.due_ns.size();
       j += static_cast<std::size_t>(lanes)) {
    const std::int64_t due = t0 + in.due_ns[j];
    poll();
    while (now_ns() < due) wait(due);
    const Key& k = in.keys[j % in.keys.size()];
    Record r;
    r.id = static_cast<std::int64_t>(j);
    r.key = static_cast<std::int32_t>(j % in.keys.size());
    r.due_ns = due;
    r.ready_ns = std::max(due, free_ns);
    r.issue_ns = now_ns();
    out.push_back(r);
    try {
      auto f = dep.router->submit(in.mats[static_cast<std::size_t>(k.mat)],
                                  k.op);
      free_ns = now_ns();
      pending.push_back({out.size() - 1, free_ns, std::move(f)});
    } catch (...) {
      out.back().error = true;
      out.back().done_ns = free_ns = now_ns();
    }
  }
  // Drain: anything still unanswered 5 s after the last arrival counts as
  // unfinished (a failure).
  const std::int64_t give_up = now_ns() + 5'000'000'000;
  while (!pending.empty() && now_ns() < give_up) wait(give_up);
  for (Pending& p : pending) out[p.rec].done_ns = 0;
}

RunResult run_cold(Deployment& dep, const Inputs& in, SpanRecorder& rec) {
  constexpr int kLanes = 2;
  std::vector<std::vector<Record>> lanes(kLanes);
  for (auto& l : lanes) l.reserve(in.due_ns.size() / kLanes + 1);
  const std::int64_t t0 = now_ns() + 2'000'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kLanes; ++t)
    threads.emplace_back(cold_generator, std::ref(dep), std::cref(in), t,
                         kLanes, t0, std::ref(rec), std::ref(lanes[t]));
  for (auto& t : threads) t.join();

  RunResult res;
  res.peak_rss_mb = peak_rss_mb();
  std::int64_t end = t0;
  for (const auto& l : lanes)
    for (const Record& r : l) end = std::max(end, r.done_ns);
  res.records = merge(lanes);
  res.wall_s = static_cast<double>(end - t0) * 1e-9;
  return res;
}

// ---- serve_hot: closed loop, two clients, a publisher ------------------

RunResult run_hot(Deployment& dep, const Inputs& in, const RunConfig& cfg,
                  SpanRecorder& rec) {
  constexpr int kClients = 2;
  const std::int64_t every = hot_publish_every(cfg.tiny);
  std::atomic<std::int64_t> completed{0};
  // Bumped once per `every` completed requests (and once at stop); the
  // publisher sleeps on it between publishes.
  std::atomic<std::int64_t> publish_due{0};
  std::atomic<bool> stop{false};
  std::int64_t published = 0;

  std::thread publisher([&] {
    std::int64_t seen = 0;
    for (;;) {
      publish_due.wait(seen);
      seen = publish_due.load();
      if (stop.load()) break;
      while (published < seen) {
        SpanRecorder::Scope s(rec, "core.publish", published);
        dep.registry->publish(dep.registry->current()->clone());
        ++published;
      }
    }
  });

  const auto room = static_cast<std::size_t>(
      std::max(1.0, cfg.seconds) * kHotRecordsPerClientSecond);
  std::vector<std::vector<Record>> lanes(kClients);
  for (auto& l : lanes) l.resize(room);
  std::vector<std::size_t> used(kClients, 0);
  const std::int64_t t0 = now_ns();
  const auto deadline =
      t0 + static_cast<std::int64_t>(cfg.seconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      pin_load_thread(dep, c);
      const std::vector<std::int32_t>& seq =
          in.client_seq[static_cast<std::size_t>(c)];
      std::vector<Record>& out = lanes[static_cast<std::size_t>(c)];
      std::size_t& n = used[static_cast<std::size_t>(c)];
      std::int64_t prev_done = now_ns();
      for (std::size_t i = 0; prev_done < deadline; ++i) {
        Record r;
        r.id = static_cast<std::int64_t>(i * kClients + c);
        r.key = seq[i % seq.size()];
        const Key& k = in.keys[static_cast<std::size_t>(r.key)];
        const Csr& a = in.mats[static_cast<std::size_t>(k.mat)];
        r.due_ns = prev_done;
        r.ready_ns = now_ns();  // closed loop: no schedule to fall behind
        r.issue_ns = now_ns();
        {
          SpanRecorder::Scope req(rec, "request", r.id);
          try {
            std::optional<std::future<std::int32_t>> f;
            {
              SpanRecorder::Scope s(rec, "serve.submit", r.id);
              f.emplace(dep.router->submit(a, k.op));
            }
            SpanRecorder::Scope w(rec, "serve.wait", r.id);
            collect(*f, r);
          } catch (...) {
            r.error = true;
          }
        }
        r.done_ns = prev_done = now_ns();
        if (n < out.size())
          out[n] = r;
        else
          out.push_back(r);
        ++n;
        if ((completed.fetch_add(1) + 1) % every == 0) {
          publish_due.fetch_add(1);
          publish_due.notify_one();
        }
      }
    });
  for (auto& t : clients) t.join();
  const std::int64_t end = now_ns();
  stop.store(true);
  publish_due.fetch_add(1);
  publish_due.notify_one();
  publisher.join();

  RunResult res;
  res.peak_rss_mb = peak_rss_mb();
  for (std::size_t c = 0; c < lanes.size(); ++c) lanes[c].resize(used[c]);
  res.records = merge(lanes);
  res.wall_s = static_cast<double>(end - t0) * 1e-9;
  res.published = published;
  return res;
}

// ---- solve: one closed-loop caller -------------------------------------

bool same_output(std::span<const double> y, std::span<const double> ref,
                 bool bitwise) {
  if (bitwise)
    return std::memcmp(y.data(), ref.data(), y.size_bytes()) == 0;
  double scale = 1.0;
  for (double r : ref) {
    if (!std::isfinite(r)) return false;
    scale = std::max(scale, std::abs(r));
  }
  const double tol = kSolveRtol * scale;
  for (std::size_t i = 0; i < y.size(); ++i)
    if (!(std::abs(y[i] - ref[i]) <= tol)) return false;  // NaN fails too
  return true;
}

RunResult run_solve(Deployment& dep, const Inputs& in, const RunConfig& cfg,
                    SpanRecorder& rec) {
  const std::vector<Format>& cands = dep.router->candidates();
  std::size_t ymax = 0;
  for (std::size_t k = 0; k < in.keys.size(); ++k) {
    const Csr& a = in.mats[static_cast<std::size_t>(in.keys[k].mat)];
    ymax = std::max(ymax, static_cast<std::size_t>(a.rows) *
                              (in.keys[k].op == SpOp::kSpmm ? kSpmmCols : 1));
  }
  std::vector<double> ybuf(ymax), refbuf(ymax);

  RunResult res;
  bool corrupted = false;
  const std::int64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::int64_t>(cfg.seconds * 1e9);
  std::int64_t prev_done = t0;
  for (std::size_t j = 0; prev_done < deadline; ++j) {
    const Job& job = in.jobs[j % in.jobs.size()];
    const Key& k = in.keys[static_cast<std::size_t>(job.key)];
    const Csr& a = in.mats[static_cast<std::size_t>(k.mat)];
    const std::vector<double>& x = in.x[static_cast<std::size_t>(job.key)];
    const std::size_t ylen = static_cast<std::size_t>(a.rows) *
                             (k.op == SpOp::kSpmm ? kSpmmCols : 1);
    const std::span<double> y(ybuf.data(), ylen);
    const char* kernel = k.op == SpOp::kSpmm ? "sparse.spmm" : "sparse.spmv";

    Record r;
    r.id = static_cast<std::int64_t>(j);
    r.key = job.key;
    r.n = job.n;
    r.due_ns = prev_done;
    r.ready_ns = now_ns();  // closed loop: no schedule to fall behind
    r.issue_ns = now_ns();
    std::optional<AnyFormatMatrix> m;
    {
      SpanRecorder::Scope root(rec, "job", r.id);
      try {
        std::optional<std::future<std::int32_t>> f;
        {
          SpanRecorder::Scope s(rec, "serve.submit", r.id);
          f.emplace(dep.router->submit(a, k.op));
        }
        {
          SpanRecorder::Scope s(rec, "serve.wait", r.id);
          r.pick = f->get();
        }
      } catch (...) {
        r.error = true;
      }
      // A failed selection still runs the job, on CSR.
      const Format fmt = r.pick >= 0 && static_cast<std::size_t>(r.pick) <
                                            cands.size()
                             ? cands[static_cast<std::size_t>(r.pick)]
                             : Format::kCsr;
      if (fmt != Format::kCsr) {
        SpanRecorder::Scope s(rec, "sparse.convert", r.id);
        m = AnyFormatMatrix::convert(a, fmt);
        r.refused = !m.has_value();
      }
      r.bytes = (m ? m->bytes() : a.bytes()) +
                static_cast<std::int64_t>(sizeof(double) * (x.size() + ylen));
      for (std::int32_t i = 0; i < job.n; ++i) {
        SpanRecorder::Scope s(rec, kernel, r.id);
        multiply(a, m ? &*m : nullptr, k.op, x, y);
      }
    }
    r.done_ns = prev_done = now_ns();
    // The check runs outside the timed job: y against the CSR kernel's y
    // on the same x.
    if (!corrupted && cfg.corrupt == Corrupt::kValue && j == 3) {
      y[0] += 1.0;
      corrupted = true;
    } else if (!corrupted && cfg.corrupt == Corrupt::kNan && m) {
      y[0] = std::numeric_limits<double>::quiet_NaN();
      corrupted = true;
    }
    const std::span<double> ref(refbuf.data(), ylen);
    multiply(a, nullptr, k.op, x, ref);
    r.bad_output = !same_output(y, ref, !m.has_value());
    res.records.push_back(r);
  }
  res.peak_rss_mb = peak_rss_mb();
  res.wall_s = static_cast<double>(prev_done - t0) * 1e-9;
  return res;
}

}  // namespace

void multiply(const Csr& a, const AnyFormatMatrix* m, SpOp op,
              std::span<const double> x, std::span<double> y) {
  if (op == SpOp::kSpmm) {
    if (m)
      m->spmm(x, y, kSpmmCols);
    else
      spmm_csr(a, x, y, kSpmmCols);
  } else {
    if (m)
      m->spmv(x, y);
    else
      spmv_csr(a, x, y);
  }
}

RunResult run_workload(Deployment& dep, const Inputs& in, const RunConfig& cfg,
                       SpanRecorder& rec) {
  RunResult res;
  switch (cfg.workload) {
    case Workload::kServeCold: res = run_cold(dep, in, rec); break;
    case Workload::kServeHot: res = run_hot(dep, in, cfg, rec); break;
    case Workload::kSolve: res = run_solve(dep, in, cfg, rec); break;
  }
  res.stats = dep.router->snapshot();
  return res;
}

}  // namespace perfbench
