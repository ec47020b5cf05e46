#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <tuple>
#include <unordered_set>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "deployment.hpp"
#include "gen/dlmc.hpp"
#include "gen/generators.hpp"
#include "serve/fingerprint.hpp"

namespace perfbench {

using namespace dnnspmv;

namespace {

// Salts keep every input stream independent of the set-up corpora, which
// are drawn from the bare seed.
constexpr std::uint64_t kSynthSalt = 0x73796e7468ULL;
constexpr std::uint64_t kPaperSalt = 0x7061706572ULL;
constexpr std::uint64_t kDlmcSalt = 0x646c6d63ULL;
constexpr std::uint64_t kDlmcPaperSalt = 0x646c6d6370ULL;
constexpr std::uint64_t kOrderSalt = 0x6f72646572ULL;

// Serve-scale DLMC densities (the collection's grid without its 50% end).
const std::vector<double> kServeDensities = {0.2, 0.1, 0.05, 0.02};

// Row counts for `count` matrices, log-spaced over [lo, hi)
// and listed in bit-reversed (van der Corput) order: any run of the list
// covers the range evenly, so however many of them a run reaches, it sees
// the same spread of sizes.
std::vector<index_t> stratified_rows(std::int64_t count, index_t lo,
                                     index_t hi) {
  std::int64_t bits = 0;
  while ((std::int64_t{1} << bits) < count) ++bits;
  std::vector<index_t> rows;
  for (std::int64_t i = 0; static_cast<std::int64_t>(rows.size()) < count;
       ++i) {
    std::int64_t r = 0;  // i with its low `bits` bits reversed
    for (std::int64_t b = 0; b < bits; ++b)
      r |= ((i >> b) & 1) << (bits - 1 - b);
    if (r >= count) continue;
    const double t = static_cast<double>(r) / static_cast<double>(count);
    rows.push_back(static_cast<index_t>(
        static_cast<double>(lo) *
        std::pow(static_cast<double>(hi) / static_cast<double>(lo), t)));
  }
  return rows;
}

// Synthetic matrices with rows from stratified_rows(count, lo, hi),
// cycling through the generator classes at fixed parameters: the nonzero
// count (and with it the cost of every stage) is set by the row count, not
// by the seed; the seed only places the nonzeros.
std::vector<Csr> synthetic_fixed(std::int64_t count, index_t lo, index_t hi,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Csr> out;
  const std::vector<index_t> rows = stratified_rows(count, lo, hi);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const index_t n = rows[i];
    switch (i % 6) {
      case 0: out.push_back(gen_banded(n, n, 4, 0.9, rng)); break;
      case 1: out.push_back(gen_uniform_rows(n, n, 12, 0, rng)); break;
      case 2: out.push_back(gen_powerlaw(n, n, 8.0, 2.0, rng)); break;
      case 3: out.push_back(gen_block(n, n, 2.0, 0.9, rng)); break;
      case 4: out.push_back(gen_multidiag(n, n, 8, 0.9, rng)); break;
      default:
        out.push_back(
            gen_dense_rows(n, n, 6, 4, std::min<index_t>(n, 256), rng));
        break;
    }
  }
  return out;
}

// DLMC-style pruned layers of rows x `cols`, rows as above, cycling the
// pruning methods and `densities`, for the same reason.
std::vector<Csr> pruned_fixed(std::int64_t count, index_t lo, index_t hi,
                              index_t cols,
                              const std::vector<double>& densities,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Csr> out;
  const std::vector<index_t> rows = stratified_rows(count, lo, hi);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double d = densities[i % densities.size()];
    switch (i % 3) {
      case 0: out.push_back(gen_pruned_random(rows[i], cols, d, rng)); break;
      case 1: out.push_back(gen_pruned_magnitude(rows[i], cols, d, rng)); break;
      default: out.push_back(gen_pruned_block(rows[i], cols, 4, d, rng)); break;
    }
  }
  return out;
}

struct PoolBuilder {
  Inputs& in;
  std::unordered_set<std::uint64_t> seen;  // fingerprints already pooled

  // Adds `a` unless its structural fingerprint collides with a pooled
  // matrix: the service caches by fingerprint, so a collision would serve
  // one matrix the other's answer.
  std::int32_t add(Csr a) {
    if (a.nnz() == 0 || !seen.insert(structural_fingerprint(a)).second)
      return -1;
    in.mats.push_back(std::move(a));
    return static_cast<std::int32_t>(in.mats.size() - 1);
  }
  void add_all(std::vector<Csr> as) {
    for (Csr& a : as) add(std::move(a));
  }
};

std::vector<double> dense_input(std::size_t n, Rng& rng) {
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

void cold_inputs(Inputs& in, std::uint64_t seed, const InputScale& s) {
  // 4x the router's cache capacity of distinct keys, cycled in order: LRU
  // has evicted every key long before it recurs.
  const std::int64_t half = s.tiny ? 32 : 2 * kCacheCapacity;
  PoolBuilder pb{in, {}};
  pb.add_all(synthetic_fixed(half, 128, 1024, hash_combine(seed, kSynthSalt)));
  pb.add_all(pruned_fixed(half, 128, 512, 256, kServeDensities,
                          hash_combine(seed, kDlmcSalt)));
  std::vector<std::int32_t> order(in.mats.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<std::int32_t>(i);
  Rng rng(hash_combine(seed, kOrderSalt));
  std::shuffle(order.begin(), order.end(), rng);
  for (std::size_t i = 0; i < order.size(); ++i)
    in.keys.push_back({order[i], i % 2 == 0 ? SpOp::kSpmv : SpOp::kSpmm});

  // Poisson arrivals at one fixed rate for the whole measured window.
  const double rate = s.rate > 0 ? s.rate : cold_rate(s.tiny);
  const auto count = static_cast<std::size_t>(rate * s.seconds);
  double t = 0;
  in.due_ns.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    in.due_ns.push_back(static_cast<std::int64_t>(t * 1e9));
  }
}

void hot_inputs(Inputs& in, std::uint64_t seed, const InputScale& s) {
  // 32 matrices x both ops = 64 keys, a quarter of the cache, so the pool
  // stays resident. Sizes and generator parameters are fixed (the seed
  // places the nonzeros): a pool this small would otherwise swing the
  // hit-path cost from seed to seed.
  const std::int64_t half = s.tiny ? 8 : 16;
  PoolBuilder pb{in, {}};
  pb.add_all(synthetic_fixed(half, 128, 1024, hash_combine(seed, kSynthSalt)));
  pb.add_all(pruned_fixed(half, 128, 512, 256, kServeDensities,
                          hash_combine(seed, kDlmcSalt)));
  for (std::size_t m = 0; m < in.mats.size(); ++m)
    for (SpOp op : {SpOp::kSpmv, SpOp::kSpmm})
      in.keys.push_back({static_cast<std::int32_t>(m), op});
  Rng rng(hash_combine(seed, kOrderSalt));
  constexpr std::size_t kSeqLen = 1 << 16;
  in.client_seq.resize(2);
  for (auto& seq : in.client_seq) {
    seq.resize(kSeqLen);
    for (auto& k : seq)
      k = static_cast<std::int32_t>(rng.uniform_u64(in.keys.size()));
  }
}

void solve_inputs(Inputs& in, std::uint64_t seed, const InputScale& s) {
  // Four groups: SpMV on synthetic and SpMM at K=32 on DLMC-style
  // matrices, each at serve scale and at paper scale. Paper-scale rows are
  // split into bands log-evenly over 2048..16384. Sizes are spread evenly
  // and generator parameters fixed, so every seed has the same size mix
  // and the job tail is the same shape from run to run.
  const std::int64_t bands = s.tiny ? 2 : 4;
  const double bottom = 2048, top = s.tiny ? 4096 : 16384;
  const std::int64_t per = s.tiny ? 2 : kCacheCapacity / 8;  // per class
  const auto edge = [&](std::int64_t b) {
    return static_cast<index_t>(
        bottom * std::pow(top / bottom, static_cast<double>(b) /
                                            static_cast<double>(bands)));
  };
  struct Group {
    SpOp op;
    std::vector<std::vector<std::int32_t>> classes;  // keys per size band
  };
  std::vector<Group> groups;
  PoolBuilder pb{in, {}};
  Rng rng(hash_combine(seed, kOrderSalt));
  const auto add_class = [&](Group& g, std::vector<Csr> mats) {
    g.classes.emplace_back();
    for (Csr& a : mats) {
      const std::int32_t m = pb.add(std::move(a));
      if (m < 0) continue;
      in.keys.push_back({m, g.op});
      const auto cols = static_cast<std::size_t>(in.mats.back().cols);
      in.x.push_back(
          dense_input(g.op == SpOp::kSpmv ? cols : cols * kSpmmCols, rng));
      g.classes.back().push_back(static_cast<std::int32_t>(in.keys.size() - 1));
    }
  };
  Group spmv_serve{SpOp::kSpmv, {}}, spmv_paper{SpOp::kSpmv, {}},
      spmm_serve{SpOp::kSpmm, {}}, spmm_paper{SpOp::kSpmm, {}};
  add_class(spmv_serve,
            synthetic_fixed(per * bands, 128, 1024,
                            hash_combine(seed, kSynthSalt)));
  add_class(spmm_serve,
            pruned_fixed(per * bands, 128, 512, 256, kServeDensities,
                         hash_combine(seed, kDlmcSalt)));
  for (std::int64_t b = 0; b < bands; ++b) {
    const auto band = static_cast<std::uint64_t>(b);
    const std::uint64_t paper_seed =
        hash_combine(hash_combine(seed, kPaperSalt), band);
    const std::uint64_t dlmc_seed =
        hash_combine(hash_combine(seed, kDlmcPaperSalt), band);
    add_class(spmv_paper,
              synthetic_fixed(per, edge(b), edge(b + 1), paper_seed));
    add_class(spmm_paper, pruned_fixed(per, edge(b), edge(b + 1), 64,
                                       {0.05, 0.02}, dlmc_seed));
  }
  groups = {spmv_serve, spmv_paper, spmm_serve, spmm_paper};

  // Jobs come in blocks holding every (group, N) pair with N = 1, 10, 100,
  // 1000 in the ratio 8:4:2:1, shuffled, so every run sees the same mix.
  // Each (group, N) pair rotates through the group's size bands. Within a
  // band, each N owns a slice of the band's size-stratified key list (half
  // for N=1, a quarter for N=10, an eighth each for N=100 and N=1000) and
  // walks it in order: the same N meets the same sizes in the same order
  // whatever the seed, and a key recurs only after hundreds of other keys
  // have evicted it. Every third occurrence of a pair repeats the key of
  // its previous occurrence instead, a cache hit.
  const std::vector<std::int32_t> ns = {1, 1, 1, 1, 1, 1, 1, 1,
                                        10, 10, 10, 10, 100, 100, 1000};
  const auto slice = [](std::int32_t n, std::size_t len) {
    // [begin, end) eighths of a band's list owned by `n`.
    const std::size_t lo = n == 1 ? 0 : n == 10 ? 4 : n == 100 ? 6 : 7;
    const std::size_t hi = n == 1 ? 4 : n == 10 ? 6 : n == 100 ? 7 : 8;
    const std::size_t b = lo * len / 8, e = hi * len / 8;
    return b < e ? std::make_pair(b, e) : std::make_pair<std::size_t>(0, len);
  };
  struct Slot {
    std::size_t group;
    std::int32_t n;
  };
  std::vector<Slot> block;
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (std::int32_t n : ns) block.push_back({g, n});
  std::map<std::pair<std::size_t, std::int32_t>, std::int64_t> occurrences;
  std::map<std::pair<std::size_t, std::int32_t>, std::int32_t> last_key;
  std::map<std::tuple<std::size_t, std::int32_t, std::size_t>, std::size_t>
      walk;
  constexpr std::size_t kBlocks = 400;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    std::shuffle(block.begin(), block.end(), rng);
    for (const Slot& slot : block) {
      const auto pair = std::make_pair(slot.group, slot.n);
      const std::int64_t occ = occurrences[pair]++;
      Job job;
      job.n = slot.n;
      if (occ % 3 == 2) {
        job.key = last_key[pair];
      } else {
        const Group& g = groups[slot.group];
        const auto c = static_cast<std::size_t>(occ) % g.classes.size();
        const std::vector<std::int32_t>& cls = g.classes[c];
        const auto [first, last] = slice(slot.n, cls.size());
        const std::size_t step = walk[{slot.group, slot.n, c}]++;
        job.key = cls[first + step % (last - first)];
        last_key[pair] = job.key;
      }
      in.jobs.push_back(job);
    }
  }
}

}  // namespace

Workload workload_from_name(const std::string& name) {
  if (name == "serve_cold") return Workload::kServeCold;
  if (name == "serve_hot") return Workload::kServeHot;
  if (name == "solve") return Workload::kSolve;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (serve_cold, serve_hot, solve)");
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kServeCold: return "serve_cold";
    case Workload::kServeHot: return "serve_hot";
    case Workload::kSolve: return "solve";
  }
  return "?";
}

// serve_cold's rate is about a quarter of the router's saturation
// throughput on cold misses, measured with calibrate.py on a 4-vCPU x86
// VM: at most 7.6k req/s completed; p50 latency stayed within 12% of its
// 1000 req/s value up to 3000 req/s and doubled by 4000 req/s. At 3000
// req/s, p50 spread 0.28 (IQR / median) over five seeds on that noisy
// host, against 0.12 at 2000 req/s.
double cold_rate(bool tiny) { return tiny ? 400.0 : 2000.0; }

// One publish per ~2 s of serve_hot load at the 12.7k req/s it ran at when
// the benchmark was defined: the cadence bench_serve's hot-swap check
// calls aggressive for an online fine-tune loop. Counting requests instead
// of seconds gives every run the same number of publishes per request.
std::int64_t hot_publish_every(bool tiny) { return tiny ? 500 : 25'000; }

Inputs make_inputs(Workload w, std::uint64_t seed, const InputScale& scale) {
  Inputs in;
  switch (w) {
    case Workload::kServeCold: cold_inputs(in, seed, scale); break;
    case Workload::kServeHot: hot_inputs(in, seed, scale); break;
    case Workload::kSolve: solve_inputs(in, seed, scale); break;
  }
  return in;
}

}  // namespace perfbench
