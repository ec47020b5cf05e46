// Seeded workload inputs. Everything a workload sends to the program is
// generated here, from the workload seed, before set-up and timing start.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/format.hpp"

namespace perfbench {

/// One cache key the workload can ask for: a pool matrix and an op.
struct Key {
  std::int32_t mat = 0;
  dnnspmv::SpOp op = dnnspmv::SpOp::kSpmv;
};

/// One solve job: select for key, convert, then `n` multiplies.
struct Job {
  std::int32_t key = 0;
  std::int32_t n = 1;
};

struct Inputs {
  std::vector<dnnspmv::Csr> mats;
  std::vector<Key> keys;

  // serve_cold: request j asks for keys[j % keys.size()], due at due_ns[j]
  // (offset from the start of the load phase).
  std::vector<std::int64_t> due_ns;
  // serve_hot: per client, a sequence of key indices, cycled.
  std::vector<std::vector<std::int32_t>> client_seq;
  // solve: the job sequence (cycled) and one dense input per key
  // (cols for SpMV, cols*K row-major for SpMM).
  std::vector<Job> jobs;
  std::vector<std::vector<double>> x;
};

enum class Workload { kServeCold, kServeHot, kSolve };

Workload workload_from_name(const std::string& name);  // throws on unknown
const char* workload_name(Workload w);

struct InputScale {
  bool tiny = false;
  double seconds = 10;
  double rate = 0;  // serve_cold arrivals per second; 0: cold_rate(tiny)
};

/// Open-loop arrival rate of serve_cold (requests per second).
double cold_rate(bool tiny);
/// serve_hot publishes a model version every this many requests.
std::int64_t hot_publish_every(bool tiny);

Inputs make_inputs(Workload w, std::uint64_t seed, const InputScale& scale);

}  // namespace perfbench
