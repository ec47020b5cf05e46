#include "serve/fault.hpp"

#include <chrono>
#include <thread>

#include "common/error.hpp"

namespace dnnspmv::fault {

const char* site_name(Site s) {
  switch (s) {
    case Site::kQueuePush: return "queue_push";
    case Site::kWorkerPop: return "worker_pop";
    case Site::kForward: return "forward";
  }
  return "unknown";
}

void Injector::configure(Site site, const Plan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plans_[static_cast<std::size_t>(site)] = plan;
  enabled_.store(true, std::memory_order_relaxed);
}

void Injector::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  plans_ = {};
  hits_ = {};
  enabled_.store(false, std::memory_order_relaxed);
}

void Injector::seed(std::uint64_t s) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_.reseed(s);
}

Decision Injector::decide(Site site) {
  Decision d;
  if (!enabled()) return d;
  std::lock_guard<std::mutex> lock(mu_);
  Plan& p = plans_[static_cast<std::size_t>(site)];
  if (p.delay_next > 0) {
    --p.delay_next;
    d.delay_us = p.delay_us;
  } else if (p.delay_prob > 0.0 && rng_.bernoulli(p.delay_prob)) {
    d.delay_us = p.delay_us;
  }
  if (p.drop_next > 0) {
    --p.drop_next;
    d.should_drop = true;
  } else if (p.drop_prob > 0.0 && rng_.bernoulli(p.drop_prob)) {
    d.should_drop = true;
  }
  if (p.throw_next > 0) {
    --p.throw_next;
    d.should_throw = true;
  } else if (p.throw_prob > 0.0 && rng_.bernoulli(p.throw_prob)) {
    d.should_throw = true;
  }
  if (d.should_throw || d.should_drop || d.delay_us > 0)
    ++hits_[static_cast<std::size_t>(site)];
  return d;
}

bool Injector::inject(Site site) {
  if (!enabled()) return false;
  const Decision d = decide(site);
  if (d.delay_us > 0)
    std::this_thread::sleep_for(std::chrono::microseconds(d.delay_us));
  if (d.should_throw)
    throw DnnspmvError(errc::fault_injected,
                       std::string("injected fault at serve site '") +
                           site_name(site) + "'");
  return d.should_drop;
}

std::uint64_t Injector::injected(Site site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_[static_cast<std::size_t>(site)];
}

}  // namespace dnnspmv::fault
