// Repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload is one closed-loop client solving the Z-eigenproblem of
// a symmetric 3-tensor with the shifted higher-order power method (the
// paper's motivating application), each through a different STTSV path:
//
//   hopm-n96-p10        apps::hopm_parallel: core driver, one vector per
//                       call, flat Direct transport, P = 10 ranks;
//   engine-n96-b16      16 starts in lock step through batch::Engine
//                       (max_batch_size 16): panel kernels and aggregated
//                       messages, core::parallel_sttsv never called;
//   small-n60-p14-hier  core::parallel_sttsv over the hierarchical
//                       transport (2 nodes x 7 ranks, reliable fabric):
//                       tiny kernels, many small framed messages.
//
// The seed builds the tensor and the start vectors; the library only
// receives them. With --trace 0 the run prints the end-to-end metrics,
// with --trace 1 the per-layer split, measured from outside the library:
// wall-clock around public calls, a forwarding TimingExchanger on the
// transport seam, and the CommLedger and BufferPool counters. Timings are
// rescaled to a nominal host speed by a reference kernel timed between
// operations (host_speed.hpp). Every timed output is checked; the last
// stdout line is one JSON object and the exit code is nonzero when any
// check fails.

#include <sched.h>
#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/hopm.hpp"
#include "apps/vec_ops.hpp"
#include "batch/batched_run.hpp"
#include "batch/engine.hpp"
#include "batch/panel_kernels.hpp"
#include "batch/plan.hpp"
#include "core/block_kernels.hpp"
#include "core/costs.hpp"
#include "core/parallel_sttsv.hpp"
#include "hier/make_exchanger.hpp"
#include "hier/topology.hpp"
#include "host_speed.hpp"
#include "obs/metrics.hpp"
#include "oracle.hpp"
#include "partition/blocks.hpp"
#include "simt/buffer_pool.hpp"
#include "simt/machine.hpp"
#include "simt/parallel_for.hpp"
#include "simt/simd.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"
#include "timing_exchanger.hpp"

namespace {

using namespace sttsv;
using perfbench::Clock;
using perfbench::HostSpeed;
using perfbench::Interval;
using perfbench::TimingExchanger;
using Vectors = std::vector<std::vector<double>>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// p50 and p90 of consecutive windows of `window` samples, each reported
/// as the median over the windows. Other tenants of a shared host slow
/// whole seconds of a run; the median over windows keeps a few such seconds
/// from deciding the figure. Only the per-window figures are kept, so
/// peak_rss_mb does not grow with the number of driver passes a run makes.
class WindowedPercentiles {
 public:
  explicit WindowedPercentiles(std::size_t window) : window_(window) {
    current_.reserve(window);
  }

  void add(double sample) {
    ++count_;
    current_.push_back(sample);
    if (current_.size() == window_) flush();
  }

  [[nodiscard]] std::size_t count() const { return count_; }

  /// Median over the windows of each window's q-percentile, q = 0.5 or 0.9.
  /// A trailing partial window counts only when it is the only one.
  [[nodiscard]] double p50() { return over_windows(p50_); }
  [[nodiscard]] double p90() { return over_windows(p90_); }

 private:
  void flush() {
    p50_.push_back(percentile(current_, 0.5));
    p90_.push_back(percentile(current_, 0.9));
    current_.clear();
  }
  double over_windows(const std::vector<double>& per_window) {
    if (p50_.empty() && !current_.empty()) flush();
    return median(per_window);
  }

  std::size_t window_;
  std::size_t count_ = 0;
  std::vector<double> current_, p50_, p90_;
};

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Workloads

enum class Job { kAppsHopm, kEngineHopm, kCoreHopm };

struct Workload {
  const char* name;
  Job job;
  std::size_t n;
  batch::Family family;
  std::uint64_t param;
  simt::TransportKind transport;
  std::size_t nodes;  // hierarchical transport only
  std::size_t lanes;  // vectors per driver pass
};

// The two n = 96 tensors (1.2 MB packed) fit in one core's private L2
// cache. At n = 256 (22 MB) a solve's time depended on how much of the
// shared L3 other tenants of the host left it: it moved by up to 23% from
// run to run, and the host_speed.hpp reference did not move with it.
const Workload kWorkloads[] = {
    {"hopm-n96-p10", Job::kAppsHopm, 96, batch::Family::kSpherical, 2,
     simt::TransportKind::kDirect, 1, 1},
    {"engine-n96-b16", Job::kEngineHopm, 96, batch::Family::kSpherical, 2,
     simt::TransportKind::kDirect, 1, 16},
    {"small-n60-p14-hier", Job::kCoreHopm, 60, batch::Family::kBoolean, 3,
     simt::TransportKind::kHierarchical, 2, 1},
};

// ---------------------------------------------------------------------------
// The eigenproblem. A = Σ_r λ_r u_r⊗u_r⊗u_r with orthonormal u_r, so the
// Z-eigenpairs (λ_r, u_r) are known exactly. The factors are drawn around
// the start vector so that its coordinates on them are the same for every
// seed: the SS-HOPM trajectory in span{u_r, start} — and with it the
// iteration count — then depends on the seed only through rounding, while
// every tensor entry and vector element changes with the seed. (Plain
// random_low_rank factors give anywhere from 16 to 500+ iterations, some
// starts never converging, which no timing bound can absorb.)

constexpr double kLambda[3] = {8.0, 2.0, 1.0};
constexpr double kStartCoord[3] = {-0.1, 0.2, 0.1};
constexpr std::size_t kTargetFactor = 1;  // the start lies in u_1's basin
constexpr double kShift = 1.0;
constexpr double kTolerance = 1e-12;  // apps::HopmOptions default
constexpr std::size_t kMaxIterations = 500;

std::vector<double> gaussian(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.next_normal();
  return v;
}

/// Removes from v its components along the (orthonormal) basis, twice for
/// stability, and normalizes it.
void orthonormalize_against(std::vector<double>& v, const Vectors& basis) {
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::vector<double>& e : basis) {
      const double c = apps::dot(v, e);
      for (std::size_t i = 0; i < v.size(); ++i) v[i] -= c * e[i];
    }
  }
  apps::normalize(v);
}

struct Problem {
  tensor::SymTensor3 a;
  Vectors u;
  std::uint64_t hopm_seed;
};

apps::HopmOptions hopm_options(std::uint64_t hopm_seed) {
  apps::HopmOptions opts;
  opts.max_iterations = kMaxIterations;
  opts.tolerance = kTolerance;
  opts.shift = kShift;
  opts.seed = hopm_seed;
  return opts;
}

Problem make_problem(std::size_t n, std::uint64_t seed) {
  const std::uint64_t hopm_seed = seed;
  // The start apps::hopm draws for this seed.
  Rng start_rng(hopm_seed);
  std::vector<double> e0 = start_rng.uniform_vector(n, -1.0, 1.0);
  apps::normalize(e0);

  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL);
  Vectors basis{e0};
  while (basis.size() < 4) {
    std::vector<double> g = gaussian(n, rng);
    orthonormalize_against(g, basis);
    basis.push_back(std::move(g));
  }
  // u_r = c_r e0 + Σ_k M_rk e_{k+1} with M = I − t ĉĉᵀ, t = 1 − √(1−|c|²):
  // then M² = I − ccᵀ and the u_r are orthonormal with u_r · e0 = c_r.
  double c2 = 0.0;
  for (const double c : kStartCoord) c2 += c * c;
  const double t = 1.0 - std::sqrt(1.0 - c2);
  Vectors u(3, std::vector<double>(n, 0.0));
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t i = 0; i < n; ++i) u[r][i] = kStartCoord[r] * e0[i];
    for (std::size_t k = 0; k < 3; ++k) {
      const double m = (r == k ? 1.0 : 0.0) -
                       t * kStartCoord[r] * kStartCoord[k] / c2;
      for (std::size_t i = 0; i < n; ++i) u[r][i] += m * basis[k + 1][i];
    }
  }
  tensor::SymTensor3 a = tensor::low_rank_symmetric(
      n, std::vector<double>(std::begin(kLambda), std::end(kLambda)), u);
  return Problem{std::move(a), std::move(u), hopm_seed};
}

/// A fresh start with the fixed coordinates on the factors and a seeded
/// random direction in their orthogonal complement.
std::vector<double> start_vector(const Problem& pb, Rng& rng) {
  const std::size_t n = pb.a.dim();
  std::vector<double> w = gaussian(n, rng);
  orthonormalize_against(w, pb.u);
  double c2 = 0.0;
  for (const double c : kStartCoord) c2 += c * c;
  const double s = std::sqrt(1.0 - c2);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = s * w[i];
    for (std::size_t r = 0; r < 3; ++r) x[i] += kStartCoord[r] * pb.u[r][i];
  }
  apps::normalize(x);
  return x;
}

// ---------------------------------------------------------------------------
// Setup: tensor, plan, machine, exchanger, pool prewarm, warm-up.

struct Instance {
  Instance(const Workload& workload, std::uint64_t run_seed)
      : w(&workload), seed(run_seed), pb(make_problem(workload.n, run_seed)) {}

  const Workload* w;
  std::uint64_t seed;
  Problem pb;
  std::shared_ptr<const batch::Plan> plan;
  std::unique_ptr<simt::Machine> machine;
  std::unique_ptr<simt::Exchanger> exchanger;
  std::unique_ptr<batch::Engine> engine;  // engine workload only
  double plan_build_ms = 0.0;
  double prewarm_ms = 0.0;
};

simt::ExchangerConfig exchanger_config(const Workload& w, std::size_t ranks) {
  simt::ExchangerConfig config;
  config.kind = w.transport;
  if (w.transport == simt::TransportKind::kHierarchical) {
    config.node_of = hier::Topology::uniform(ranks, w.nodes).node_map();
    config.hier_inter = simt::TransportKind::kReliable;
  }
  return config;
}

std::vector<double> core_call(simt::Exchanger& ex, const Instance& in,
                              const std::vector<double>& x) {
  return core::parallel_sttsv(ex, in.plan->partition(),
                              in.plan->distribution(), in.pb.a, x,
                              in.plan->key().transport)
      .y;
}

std::unique_ptr<batch::Engine> make_engine(Instance& in, simt::Exchanger& ex) {
  batch::EngineOptions opts;
  opts.max_batch_size = 16;
  opts.exchanger = &ex;
  return std::make_unique<batch::Engine>(*in.machine, in.plan, in.pb.a, opts);
}

/// Runs one full batch through `engine`: submits xs (xs.size() must equal
/// the engine's batch size) and returns the outputs. `cut_seconds`
/// receives the time from the submit that cuts the batch to its last
/// callback.
Vectors engine_batch(batch::Engine& engine, const Vectors& xs,
                     double* cut_seconds) {
  Vectors ys(xs.size());
  std::size_t done = 0;
  std::size_t base = 0;
  Clock::time_point last_callback{};
  for (std::size_t v = 0; v < xs.size(); ++v) {
    const bool cuts = v + 1 == xs.size();
    const Clock::time_point t0 = Clock::now();
    const std::size_t id = engine.submit(
        xs[v], [&](std::size_t rid, std::vector<double> y) {
          ys[rid - base] = std::move(y);
          if (++done == xs.size()) last_callback = Clock::now();
        });
    if (v == 0) base = id;
    if (cuts && cut_seconds != nullptr) {
      *cut_seconds = std::chrono::duration<double>(last_callback - t0).count();
    }
  }
  if (done != xs.size()) throw std::runtime_error("engine left requests pending");
  return ys;
}

std::unique_ptr<Instance> setup(const Workload& w, std::uint64_t seed) {
  auto in = std::make_unique<Instance>(w, seed);
  const Clock::time_point t_plan = Clock::now();
  in->plan = batch::Plan::build(
      batch::plan_key(w.n, w.family, w.param, simt::Transport::kPointToPoint));
  in->plan_build_ms = 1e3 * seconds_since(t_plan);

  const std::size_t P = in->plan->num_processors();
  in->machine = std::make_unique<simt::Machine>(P);
  in->exchanger = simt::make_exchanger(*in->machine, exchanger_config(w, P));

  const Clock::time_point t_warm = Clock::now();
  in->plan->prewarm_pool(in->machine->pool(), w.lanes);
  in->machine->first_touch();
  in->prewarm_ms = 1e3 * seconds_since(t_warm);

  Rng rng(seed + 0x3a3aULL);
  if (w.job == Job::kEngineHopm) {
    in->engine = make_engine(*in, *in->exchanger);
    Vectors xs;
    for (std::size_t v = 0; v < w.lanes; ++v) xs.push_back(start_vector(in->pb, rng));
    for (int rep = 0; rep < 3; ++rep) engine_batch(*in->engine, xs, nullptr);
  } else {
    // hopm_parallel runs the core driver over a DirectExchange of its own;
    // the same calls warm the pool either way.
    const std::vector<double> x = start_vector(in->pb, rng);
    for (int rep = 0; rep < 3; ++rep) core_call(*in->exchanger, *in, x);
  }
  in->machine->reset_ledger();
  return in;
}

// ---------------------------------------------------------------------------
// One solve through the workload's path.

/// A (x, y) pair kept from a timed solve and checked after the timed
/// region: bitwise against flat-Direct core::parallel_sttsv and against
/// the long double oracle.
struct Captured {
  std::size_t solve = 0;
  std::vector<double> x;
  std::vector<double> y;
};

struct SolveResult {
  double seconds = 0.0;
  std::size_t iterations = 0;  // max over lanes
  std::size_t calls = 0;       // driver passes, final evaluation included
  std::size_t vectors = 0;     // STTSV vectors computed
  bool converged = false;
  std::vector<double> eigenvalues;  // per lane
  std::vector<double> residuals;    // per lane
  Vectors eigenvectors;             // per lane
  std::vector<double> step_seconds;  // per driver pass (core/engine paths)
};

/// Lock-step SS-HOPM over `lanes` starts. `step` maps the current iterates
/// to their STTSVs through the workload's driver. Mirrors apps::hopm's
/// iteration (shift, normalize, sign-invariant distance) so the result can
/// be held against it.
SolveResult hopm_lockstep(Vectors x,
                          const std::function<Vectors(const Vectors&)>& step) {
  SolveResult r;
  const std::size_t lanes = x.size();
  std::vector<char> done(lanes, 0);
  std::size_t remaining = lanes;
  for (std::size_t it = 1; it <= kMaxIterations && remaining > 0; ++it) {
    Vectors y = step(x);
    ++r.calls;
    for (std::size_t v = 0; v < lanes; ++v) {
      y[v] = apps::axpy(y[v], kShift, x[v]);
      apps::normalize(y[v]);
      const double delta = apps::sign_invariant_distance(x[v], y[v]);
      x[v] = std::move(y[v]);
      if (done[v] == 0 && delta < kTolerance) {
        done[v] = 1;
        --remaining;
      }
    }
    r.iterations = it;
  }
  r.converged = remaining == 0;
  const Vectors ax = step(x);
  ++r.calls;
  for (std::size_t v = 0; v < lanes; ++v) {
    const double lambda = apps::dot(x[v], ax[v]);
    double res2 = 0.0;
    for (std::size_t i = 0; i < x[v].size(); ++i) {
      const double d = ax[v][i] - lambda * x[v][i];
      res2 += d * d;
    }
    r.eigenvalues.push_back(lambda);
    r.residuals.push_back(std::sqrt(res2));
  }
  r.eigenvectors = std::move(x);
  r.vectors = r.calls * lanes;
  return r;
}

class Solver {
 public:
  Solver(Instance& in, simt::Exchanger& ex, batch::Engine* engine)
      : in_(in), ex_(ex), engine_(engine), rng_(in.seed + 0x51a7ULL) {}

  /// Runs one solve; when `capture` is set, the first pass's lane-0 and
  /// last-lane (x, y) pairs are appended to it.
  SolveResult solve(std::vector<Captured>* capture, std::size_t index) {
    const Workload& w = *in_.w;
    if (w.job == Job::kAppsHopm) {
      const Clock::time_point t0 = Clock::now();
      const apps::HopmResult h = apps::hopm_parallel(
          *in_.machine, in_.plan->partition(), in_.plan->distribution(),
          in_.pb.a, hopm_options(in_.pb.hopm_seed),
          in_.plan->key().transport);
      SolveResult r;
      r.seconds = seconds_since(t0);
      r.iterations = h.iterations;
      r.calls = h.iterations + 1;
      r.vectors = r.calls;
      r.converged = h.converged;
      r.eigenvalues = {h.eigenvalue};
      r.residuals = {h.residual};
      r.eigenvectors = {h.eigenvector};
      return r;
    }
    Vectors x0;
    for (std::size_t v = 0; v < w.lanes; ++v) x0.push_back(start_vector(in_.pb, rng_));
    std::vector<double> steps;
    bool first = true;
    const auto keep = [&](const Vectors& xs, const Vectors& ys) {
      if (capture == nullptr || !first) return;
      capture->push_back(Captured{index, xs.front(), ys.front()});
      if (xs.size() > 1) capture->push_back(Captured{index, xs.back(), ys.back()});
    };
    std::function<Vectors(const Vectors&)> step;
    if (w.job == Job::kEngineHopm) {
      step = [&](const Vectors& xs) {
        double cut = 0.0;
        Vectors ys = engine_batch(*engine_, xs, &cut);
        steps.push_back(cut);
        keep(xs, ys);
        first = false;
        return ys;
      };
    } else {
      step = [&](const Vectors& xs) {
        const Clock::time_point t0 = Clock::now();
        Vectors ys{core_call(ex_, in_, xs.front())};
        steps.push_back(seconds_since(t0));
        keep(xs, ys);
        first = false;
        return ys;
      };
    }
    const Clock::time_point t0 = Clock::now();
    SolveResult r = hopm_lockstep(std::move(x0), step);
    r.seconds = seconds_since(t0);
    r.step_seconds = std::move(steps);
    return r;
  }

 private:
  Instance& in_;
  simt::Exchanger& ex_;
  batch::Engine* engine_;
  Rng rng_;
};

// ---------------------------------------------------------------------------
// Ledger counts

struct LedgerCounts {
  std::uint64_t max_payload_words = 0;  // max over ranks, goodput + onesided
  std::uint64_t max_messages = 0;       // max over ranks, goodput messages
  std::uint64_t rounds = 0;             // goodput + onesided rounds
  std::uint64_t overhead_words = 0;
  std::uint64_t intra_words = 0;
  std::uint64_t inter_words = 0;
  std::uint64_t sync_ops = 0;
  bool conserved = true;
};

LedgerCounts read_ledger(const simt::CommLedger& ledger) {
  LedgerCounts c;
  for (std::size_t p = 0; p < ledger.num_ranks(); ++p) {
    c.max_payload_words = std::max(
        c.max_payload_words, ledger.words_sent(simt::Channel::kGoodput, p) +
                                 ledger.words_sent(simt::Channel::kOneSided, p));
    c.max_messages = std::max(c.max_messages, ledger.messages_sent(p));
  }
  c.rounds = ledger.rounds(simt::Channel::kGoodput) +
             ledger.rounds(simt::Channel::kOneSided);
  c.overhead_words = ledger.total_words(simt::Channel::kOverhead);
  c.intra_words = ledger.total_payload_words(simt::Level::kIntra);
  c.inter_words = ledger.total_payload_words(simt::Level::kInter);
  c.sync_ops = ledger.sync_ops();
  try {
    ledger.verify_conservation();
  } catch (const std::exception&) {
    c.conserved = false;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records a failed check; the first few are printed to stderr.
  void fail(const std::string& what) {
    if (++failures_ <= 20) std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  }
  [[nodiscard]] bool ok() const { return failures_ == 0; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
  std::size_t failures_ = 0;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used: it survives execve, so it would report the launching
/// process's footprint whenever that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// CPUs this process may run on.
std::vector<std::size_t> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<std::size_t> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Binds the calling thread, and every thread it starts from now on, to
/// one CPU. Returns false when the binding failed.
bool pin_to_cpu(std::size_t cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

// ---------------------------------------------------------------------------
// Checks applied to every timed solve

struct Checker {
  const Instance& in;
  Report& report;
  apps::HopmResult reference;  // sequential apps::hopm, same tensor and start
  std::uint64_t words_per_vector = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// Gates on one solve and its ledger; returns false (and counts the
  /// solve failed) when any fails.
  bool solve(const SolveResult& r, const LedgerCounts& led) {
    ++attempted;
    std::vector<std::string> bad;
    if (!r.converged) bad.push_back("did not converge");
    const std::vector<double>& target = in.pb.u[kTargetFactor];
    for (std::size_t v = 0; v < r.eigenvalues.size(); ++v) {
      const double lam = r.eigenvalues[v];
      if (std::fabs(lam - reference.eigenvalue) >
          1e-9 * std::fabs(reference.eigenvalue)) {
        bad.push_back("eigenvalue " + json_number(lam) + " vs sequential " +
                      json_number(reference.eigenvalue));
      }
      if (std::fabs(lam - kLambda[kTargetFactor]) > 1e-8) {
        bad.push_back("eigenvalue " + json_number(lam) + " vs exact " +
                      json_number(kLambda[kTargetFactor]));
      }
      if (!(r.residuals[v] <= std::max(1e-9, 10.0 * reference.residual))) {
        bad.push_back("residual " + json_number(r.residuals[v]));
      }
      if (std::fabs(apps::dot(r.eigenvectors[v], target)) < 1.0 - 1e-9) {
        bad.push_back("eigenvector is not ±u_target");
      }
    }
    if (!led.conserved) bad.push_back("ledger conservation violated");
    if (led.max_payload_words != words_per_vector * r.vectors) {
      bad.push_back("max words sent " + std::to_string(led.max_payload_words) +
                    " != closed form " + std::to_string(words_per_vector) +
                    " x " + std::to_string(r.vectors) + " vectors");
    }
    if (r.calls == 0 || led.max_messages % r.calls != 0) {
      bad.push_back("messages are not a whole number per call");
    }
    for (const std::string& b : bad) report.fail(std::string(in.w->name) + ": " + b);
    if (!bad.empty()) ++failed;
    return bad.empty();
  }
};

/// Bitwise check of captured outputs against flat-Direct
/// core::parallel_sttsv on a fresh machine, plus the long double oracle on
/// up to `oracle_samples` of them. Returns the indices of solves that fail.
std::vector<std::size_t> check_captures(const Instance& in,
                                        const std::vector<Captured>& caps,
                                        std::size_t oracle_samples,
                                        Report& report, double* worst_ratio) {
  std::vector<std::size_t> bad;
  simt::Machine flat(in.plan->num_processors());
  std::size_t oracle_done = 0;
  const std::size_t stride =
      std::max<std::size_t>(1, caps.size() / std::max<std::size_t>(oracle_samples, 1));
  for (std::size_t c = 0; c < caps.size(); ++c) {
    const Captured& cap = caps[c];
    const std::vector<double> ref =
        core::parallel_sttsv(flat, in.plan->partition(), in.plan->distribution(),
                             in.pb.a, cap.x, simt::Transport::kPointToPoint)
            .y;
    bool ok = bitwise_equal(ref, cap.y);
    if (!ok) report.fail(std::string(in.w->name) + ": y differs bitwise from flat Direct");
    if (oracle_done < oracle_samples && c % stride == 0) {
      ++oracle_done;
      const double ratio = perfbench::forward_error_ratio(in.pb.a, cap.x, cap.y);
      *worst_ratio = std::max(*worst_ratio, ratio);
      if (!(ratio <= 1.0)) {
        ok = false;
        report.fail(std::string(in.w->name) + ": forward error " +
                    json_number(ratio) + " x the rounding bound");
      }
    }
    if (!ok) bad.push_back(cap.solve);
  }
  return bad;
}

/// The decorator must be invisible: y and every ledger counter bitwise
/// identical with and without it, under both pipeline modes, for the core
/// and the batched driver. Also pins the closed-form word count to
/// core::optimal_algorithm_words on a size where the shares divide evenly.
bool decorator_self_test(const Instance& in, Report& report) {
  bool ok = true;
  const std::size_t P = in.plan->num_processors();
  Rng rng(in.seed + 0x7e57ULL);
  const Vectors xs{start_vector(in.pb, rng), start_vector(in.pb, rng),
                   start_vector(in.pb, rng), start_vector(in.pb, rng)};
  for (const simt::PipelineMode mode :
       {simt::PipelineMode::kSerialized, simt::PipelineMode::kDoubleBuffered}) {
    const char* mode_name =
        mode == simt::PipelineMode::kSerialized ? "serialized" : "double-buffered";
    Vectors ys[2];
    obs::MetricsRegistry ledgers[2];
    for (int decorated = 0; decorated < 2; ++decorated) {
      simt::Machine machine(P);
      std::unique_ptr<simt::Exchanger> inner =
          simt::make_exchanger(machine, exchanger_config(*in.w, P));
      TimingExchanger timed(*inner);
      simt::Exchanger& ex = decorated == 1 ? static_cast<simt::Exchanger&>(timed)
                                           : *inner;
      for (std::size_t v = 0; v < 2; ++v) {
        ys[decorated].push_back(
            core::parallel_sttsv(ex, in.plan->partition(), in.plan->distribution(),
                                 in.pb.a, xs[v], in.plan->key().transport, mode)
                .y);
      }
      for (std::vector<double>& y :
           batch::parallel_sttsv_batch(ex, *in.plan, in.pb.a, xs, mode).y) {
        ys[decorated].push_back(std::move(y));
      }
      machine.ledger().to_metrics(ledgers[decorated]);
      if (decorated == 1 && timed.take_intervals().empty()) {
        ok = false;
        report.fail(std::string("self-test: decorator recorded no transport calls (") +
                    mode_name + ")");
      }
    }
    for (std::size_t v = 0; v < ys[0].size(); ++v) {
      if (!bitwise_equal(ys[0][v], ys[1][v])) {
        ok = false;
        report.fail(std::string("self-test: y differs with the decorator (") +
                    mode_name + ")");
        break;
      }
    }
    if (ledgers[0].counters() != ledgers[1].counters()) {
      ok = false;
      report.fail(std::string("self-test: ledger differs with the decorator (") +
                  mode_name + ")");
    }
  }
  const auto divisible = batch::Plan::build(batch::plan_key(
      60, batch::Family::kSpherical, 2, simt::Transport::kPointToPoint));
  const double closed = static_cast<double>(perfbench::closed_form_words_per_vector(
      divisible->partition(), divisible->distribution().block_length_b()));
  if (closed != core::optimal_algorithm_words(60, 2)) {
    ok = false;
    report.fail("self-test: closed-form words disagree with "
                "core::optimal_algorithm_words at n=60, q=2");
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Isolated kernel pass (traced run): core::apply_block and
// batch::apply_block_panel over each rank's owned blocks, one rank at a
// time on this thread.

struct KernelTimes {
  std::vector<double> rank_seconds;  // per rank, median over repetitions
  double bytes = 0.0;                // computed: tensor entries + x/y slices
};

std::size_t block_entries(const partition::BlockCoord& c, std::size_t b) {
  if (c.i == c.j && c.j == c.k) return b * (b + 1) * (b + 2) / 6;
  if (c.i == c.j || c.j == c.k) return b * b * (b + 1) / 2;
  return b * b * b;
}

KernelTimes kernel_pass(const Instance& in, std::size_t lanes, std::size_t reps) {
  const batch::Plan& plan = *in.plan;
  const std::size_t P = plan.num_processors();
  const std::size_t b = plan.distribution().block_length_b();
  KernelTimes kt;
  Rng rng(in.seed + 0x6e6eULL);
  for (std::size_t p = 0; p < P; ++p) {
    const std::size_t r = plan.partition().R(p).size();
    std::vector<double> x(r * b * lanes);
    for (double& v : x) v = rng.next_in(-1.0, 1.0);
    std::vector<double> y(x.size(), 0.0);
    const auto slice = [&](std::vector<double>& v, std::size_t block) {
      return v.data() + plan.local_index(p, block) * b * lanes;
    };
    std::vector<double> samples;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const Clock::time_point t0 = Clock::now();
      for (const partition::BlockCoord& c : plan.owned(p)) {
        const auto point = [&](auto& buf) {
          const std::size_t blocks[3] = {c.i, c.j, c.k};
          for (std::size_t t = 0; t < 3; ++t) {
            buf.x[t] = slice(x, blocks[t]);
            buf.y[t] = slice(y, blocks[t]);
          }
        };
        if (lanes == 1) {
          core::BlockBuffers buf;
          point(buf);
          core::apply_block(in.pb.a, c, b, buf);
        } else {
          batch::PanelBuffers buf;
          point(buf);
          batch::apply_block_panel(in.pb.a, c, b, lanes, buf);
        }
      }
      samples.push_back(seconds_since(t0));
    }
    kt.rank_seconds.push_back(median(samples));
    for (const partition::BlockCoord& c : plan.owned(p)) {
      kt.bytes += 8.0 * (static_cast<double>(block_entries(c, b)) +
                         6.0 * static_cast<double>(b * lanes));
    }
  }
  return kt;
}

// ---------------------------------------------------------------------------
// Traced probes: driver calls through the TimingExchanger.

struct ProbeStats {
  std::vector<double> traced;    // wall per traced call
  std::vector<double> covered;   // exchanger-covered union per traced call
  std::vector<double> untraced;  // wall per untraced call
  std::size_t intervals = 0;     // transport calls seen while traced
  LedgerCounts ledger;           // over the traced calls only
};

/// Driver passes per untraced or traced chunk of a probe.
constexpr std::size_t kProbeChunk = 4;

/// Alternates chunks of untraced and traced driver passes, so drift on a
/// shared host lands on both sides. `pass(ex)` runs one pass through `ex`
/// and returns the span the decorator's intervals are clipped to. The
/// ledger counts cover the first traced chunk. `host` is sampled once per
/// round, for the run's rescaling factor.
ProbeStats probe(Instance& in, simt::Exchanger& plain, TimingExchanger& timed,
                 HostSpeed& host, double budget_s,
                 const std::function<Interval(simt::Exchanger&)>& pass) {
  ProbeStats st;
  const Clock::time_point start = Clock::now();
  std::size_t rounds = 0;
  while (rounds < 4 || seconds_since(start) < budget_s) {
    for (std::size_t k = 0; k < kProbeChunk; ++k) {
      const Interval iv = pass(plain);
      st.untraced.push_back(std::chrono::duration<double>(iv.end - iv.begin).count());
    }
    in.machine->reset_ledger();
    for (std::size_t k = 0; k < kProbeChunk; ++k) {
      timed.take_intervals();
      const Interval iv = pass(timed);
      std::vector<Interval> got = timed.take_intervals();
      st.intervals += got.size();
      st.traced.push_back(std::chrono::duration<double>(iv.end - iv.begin).count());
      st.covered.push_back(perfbench::covered_seconds(std::move(got), iv.begin, iv.end));
    }
    if (rounds == 0) st.ledger = read_ledger(in.machine->ledger());
    host.sample();
    ++rounds;
  }
  return st;
}

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

/// Set-ups per run: at least kMinSetups, more while under kSetupBudgetS.
constexpr std::size_t kMinSetups = 11;
constexpr std::size_t kMaxSetups = 201;
constexpr double kSetupBudgetS = 1.5;
/// Driver passes per window of the p50/p90 estimates: small enough that
/// even the hopm workload (one sample per solve) has several windows.
constexpr std::size_t kWindow = 25;
/// Solves whose first driver pass is kept for the bitwise and oracle checks.
constexpr std::size_t kCapturedSolves = 32;

int run(const Options& opt) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) found = &w;
  }
  if (found == nullptr) throw std::invalid_argument("unknown workload " + opt.workload);
  const Workload& w = *found;

  // The run is bound to one CPU with one host thread for the ranks' local
  // work, before the pipeline's SerialExecutor thread starts (it inherits
  // the binding). On a shared virtualised host, cross-CPU wake-ups between
  // the driver and the wire thread, and supersteps waiting for their
  // slowest host thread, made the run-to-run spread of p90 timings 50%
  // and more; on one CPU it was under 5%.
  const std::vector<std::size_t> cpus = allowed_cpus();
  const bool pinned = !cpus.empty() && pin_to_cpu(cpus.back());
  simt::set_host_concurrency(1);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::cout << "perfbench workload=" << w.name << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0) << "\n"
            << "env nproc=" << cpus.size() << " pinned_cpu="
            << (pinned ? std::to_string(cpus.back()) : "none")
            << " aslr=" << ((personality(0xffffffff) & ADDR_NO_RANDOMIZE) != 0 ? "off" : "on")
            << " host_concurrency=" << simt::host_concurrency()
            << " isa=" << simt::isa_name(simt::preferred_isa())
            << " build=" << build_type << " compiler=\"" << PERFBENCH_COMPILER << "\"\n";
  if (build_type != "Release") {
    std::cerr << "perfbench: WARNING: this is a " << build_type
              << " build, not Release; its timings are not comparable\n";
  }

  Report report;
  HostSpeed host;
  for (int rep = 0; rep < 3; ++rep) host.sample();  // warm
  // Setup, several times; the median is setup_s and the last one is used.
  // Each set-up is rescaled by the reference samples around it.
  std::vector<double> setup_s, setup_raw_s, plan_ms, prewarm_ms;
  std::unique_ptr<Instance> in;
  double ref_before = host.sample();
  const Clock::time_point setups_start = Clock::now();
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups && seconds_since(setups_start) < kSetupBudgetS)) {
    in.reset();
    const Clock::time_point t0 = Clock::now();
    in = setup(w, opt.seed);
    const double raw = seconds_since(t0);
    const double ref_after = host.sample();
    const double k = HostSpeed::scale(ref_before, ref_after);
    ref_before = ref_after;
    setup_raw_s.push_back(raw);
    setup_s.push_back(k * raw);
    plan_ms.push_back(k * in->plan_build_ms);
    prewarm_ms.push_back(k * in->prewarm_ms);
  }
  const std::size_t P = in->plan->num_processors();
  const std::size_t b = in->plan->distribution().block_length_b();

  Checker check{*in, report, apps::hopm(in->pb.a, hopm_options(in->pb.hopm_seed)),
                perfbench::closed_form_words_per_vector(in->plan->partition(), b)};
  ++check.attempted;
  if (!check.reference.converged) {
    report.fail("sequential apps::hopm did not converge");
    ++check.failed;
  }

  // Per-solve figures; buffers are sized up front so the run's own
  // bookkeeping does not move peak RSS with the number of solves.
  Solver solver(*in, *in->exchanger, in->engine.get());
  struct SolveFigures {
    double seconds;      // rescaled to the nominal host speed
    double raw_seconds;  // as measured
    std::size_t iterations, calls, vectors;
  };
  std::vector<SolveFigures> solves;
  WindowedPercentiles batch_s(kWindow);  // rescaled driver passes
  solves.reserve(1 << 14);
  std::vector<Captured> captures;
  std::vector<char> solve_ok;
  std::vector<double> first_eigenvector;
  LedgerCounts led0;  // the first solve's ledger
  double calls0 = 0.0, vectors0 = 0.0;
  const auto timed_solves = [&](double budget_s, std::size_t min_solves,
                                bool record) {
    const Clock::time_point start = Clock::now();
    std::size_t done = 0;
    double before = host.sample();
    while (done < min_solves || seconds_since(start) < budget_s) {
      ++done;
      const std::size_t index = solve_ok.size();
      in->machine->reset_ledger();
      SolveResult r = solver.solve(index < kCapturedSolves ? &captures : nullptr, index);
      const double after = host.sample();
      const double k = HostSpeed::scale(before, after);
      before = after;
      const LedgerCounts led = read_ledger(in->machine->ledger());
      bool ok = check.solve(r, led);
      if (index == 0) {
        led0 = led;
        calls0 = static_cast<double>(r.calls);
        vectors0 = static_cast<double>(r.vectors);
        first_eigenvector = r.eigenvectors.front();
      } else if (w.job == Job::kAppsHopm &&
                 !bitwise_equal(r.eigenvectors.front(), first_eigenvector)) {
        report.fail("hopm_parallel is not deterministic across solves");
        if (ok) ++check.failed;
        ok = false;
      }
      solve_ok.push_back(ok ? 1 : 0);
      if (!record) continue;
      solves.push_back(
          SolveFigures{k * r.seconds, r.seconds, r.iterations, r.calls, r.vectors});
      if (r.step_seconds.empty()) {
        // apps::hopm_parallel: only the whole solve is observable.
        batch_s.add(k * r.seconds / static_cast<double>(r.calls));
      } else {
        for (const double t : r.step_seconds) batch_s.add(k * t);
      }
    }
  };

  // The allocation window: a fixed number of solves, so the deltas are
  // exact counts.
  const simt::BufferPool::Stats pool0 = in->machine->pool().stats();
  const std::uint64_t unpooled0 = simt::unpooled_buffer_allocations();
  timed_solves(0.0, 3, false);
  const std::uint64_t slab_allocs =
      in->machine->pool().stats().slab_allocations - pool0.slab_allocations;
  const std::uint64_t unpooled_allocs = simt::unpooled_buffer_allocations() - unpooled0;

  timed_solves(opt.trace ? 0.3 * opt.seconds : opt.seconds, 8, true);

  // ---- output checks outside the timed region
  if (w.job == Job::kAppsHopm) {
    // hopm_parallel keeps its iterates to itself: check the core driver's
    // STTSV of the eigenvector against flat Direct and the oracle.
    captures.push_back(Captured{0, first_eigenvector,
                                core_call(*in->exchanger, *in, first_eigenvector)});
  }
  double worst_forward = 0.0;
  const std::size_t oracle_samples = w.n > 100 ? 2 : 24;
  for (const std::size_t s :
       check_captures(*in, captures, oracle_samples, report, &worst_forward)) {
    if (solve_ok[s] != 0) ++check.failed;
    solve_ok[s] = 0;
  }
  ++check.attempted;
  if (!decorator_self_test(*in, report)) ++check.failed;

  // ---- end-to-end figures
  std::vector<double> solve_s, solve_raw_s, throughput, iters;
  for (const SolveFigures& r : solves) {
    solve_s.push_back(r.seconds);
    solve_raw_s.push_back(r.raw_seconds);
    throughput.push_back(static_cast<double>(r.vectors) / r.seconds);
    iters.push_back(static_cast<double>(r.iterations));
  }
  const double words_per_vector =
      static_cast<double>(led0.max_payload_words) / vectors0;
  const double messages_per_call = static_cast<double>(led0.max_messages) / calls0;

  std::cout << "samples solves=" << solve_s.size() << " driver_passes=" << batch_s.count()
            << " setups=" << setup_s.size() << " oracle_worst_ratio=" << worst_forward << "\n"
            << "ranks=" << P << " n=" << w.n << " b=" << b << " lanes=" << w.lanes
            << " closed_form_words=" << check.words_per_vector << "\n"
            << "host reference_ms_median=" << 1e3 * HostSpeed::kNominalSeconds / host.run_scale()
            << " nominal_ms=" << 1e3 * HostSpeed::kNominalSeconds
            << " samples=" << host.samples()
            << " raw_setup_s=" << median(setup_raw_s)
            << " raw_hopm_solve_s=" << median(solve_raw_s) << "\n";

  if (!opt.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("words_per_vector", words_per_vector, "words");
    report.add("messages_per_call", messages_per_call, "messages");
    report.add("hopm_solve_s", median(solve_s), "s");
    report.add("hopm_iterations", median(iters), "count");
    report.add("vectors_per_s", median(throughput), "1/s");
    // A pass carries w.lanes vectors, so the per-vector percentiles are the
    // per-pass ones over w.lanes.
    const auto lanes = static_cast<double>(w.lanes);
    report.add("batch_ms_p50", 1e3 * batch_s.p50(), "ms");
    report.add("batch_ms_p90", 1e3 * batch_s.p90(), "ms");
    report.add("sttsv_ms_p50", 1e3 * batch_s.p50() / lanes, "ms");
    report.add("sttsv_ms_p90", 1e3 * batch_s.p90() / lanes, "ms");
  } else {
    // ---- traced probes
    Rng rng(opt.seed + 0x7a7aULL);
    TimingExchanger timed(*in->exchanger);
    std::vector<double> xs1 = start_vector(in->pb, rng);
    const auto core_pass = [&](simt::Exchanger& ex) {
      const Clock::time_point t0 = Clock::now();
      core_call(ex, *in, xs1);
      return Interval{t0, Clock::now()};
    };
    const ProbeStats core_probe =
        probe(*in, *in->exchanger, timed, host, 0.3 * opt.seconds, core_pass);

    Vectors panel;
    for (std::size_t v = 0; v < 16; ++v) panel.push_back(start_vector(in->pb, rng));
    std::unique_ptr<batch::Engine> plain_engine =
        w.job == Job::kEngineHopm ? nullptr : make_engine(*in, *in->exchanger);
    batch::Engine& plain = w.job == Job::kEngineHopm ? *in->engine : *plain_engine;
    std::unique_ptr<batch::Engine> timed_engine = make_engine(*in, timed);
    const auto batch_pass = [&](simt::Exchanger& ex) {
      batch::Engine& engine = &ex == &timed ? *timed_engine : plain;
      double cut = 0.0;
      engine_batch(engine, panel, &cut);
      const Clock::time_point end = Clock::now();
      return Interval{end - std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(cut)),
                      end};
    };
    const ProbeStats batch_probe =
        probe(*in, *in->exchanger, timed, host, 0.2 * opt.seconds, batch_pass);

    const KernelTimes kc = kernel_pass(*in, 1, 7);
    const KernelTimes kp = kernel_pass(*in, 16, 3);
    host.sample();
    std::vector<double> seq_s;
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point t0 = Clock::now();
      apps::hopm(in->pb.a, hopm_options(in->pb.hopm_seed));
      seq_s.push_back(seconds_since(t0));
      host.sample();
    }
    // The probes, kernel passes and sequential solves are rescaled by the
    // run's median reference sample; the solves and set-ups already are.
    const double k = host.run_scale();
    const auto total = [k](const KernelTimes& kt) {
      double s = 0.0;
      for (const double t : kt.rank_seconds) s += t;
      return k * s;
    };
    std::vector<double> iter_ms;
    for (const SolveFigures& r : solves) {
      iter_ms.push_back(1e3 * r.seconds / static_cast<double>(r.calls));
    }

    const double core_call_ms = 1e3 * k * mean(core_probe.traced);
    const double core_exchange_ms = 1e3 * k * mean(core_probe.covered);
    const double batch_run_ms = 1e3 * k * mean(batch_probe.traced);
    const double batch_exchange_ms = 1e3 * k * mean(batch_probe.covered);
    const auto probe_calls = static_cast<double>(kProbeChunk);
    const ProbeStats& own = w.job == Job::kEngineHopm ? batch_probe : core_probe;

    report.add("core.call_ms", core_call_ms, "ms");
    report.add("core.driver_self_ms", core_call_ms - core_exchange_ms, "ms");
    report.add("core.kernel_ms", 1e3 * total(kc), "ms");
    report.add("core.kernel_rank_max_ms",
               1e3 * k * *std::max_element(kc.rank_seconds.begin(), kc.rank_seconds.end()),
               "ms");
    report.add("core.kernel_rank_min_ms",
               1e3 * k * *std::min_element(kc.rank_seconds.begin(), kc.rank_seconds.end()),
               "ms");
    report.add("core.kernel_gbps", kc.bytes / total(kc) / 1e9, "GB/s");
    report.add("batch.run_ms", batch_run_ms, "ms");
    report.add("batch.driver_self_ms", batch_run_ms - batch_exchange_ms, "ms");
    report.add("batch.panel_kernel_ms", 1e3 * total(kp), "ms");
    report.add("batch.panel_kernel_gbps", kp.bytes / total(kp) / 1e9, "GB/s");
    report.add("simt.exchange_ms", core_exchange_ms, "ms");
    report.add("simt.parts_per_call",
               static_cast<double>(core_probe.intervals) /
                   static_cast<double>(core_probe.traced.size()), "count");
    report.add("simt.rounds_per_call",
               static_cast<double>(core_probe.ledger.rounds) / probe_calls, "count");
    report.add("simt.overhead_words_per_call",
               static_cast<double>(core_probe.ledger.overhead_words) / probe_calls, "words");
    report.add("simt.unpooled_allocs", static_cast<double>(unpooled_allocs), "count");
    report.add("simt.pool_slab_allocs", static_cast<double>(slab_allocs), "count");
    report.add("hier.intra_words_per_call",
               static_cast<double>(core_probe.ledger.intra_words) / probe_calls, "words");
    report.add("hier.inter_words_per_call",
               static_cast<double>(core_probe.ledger.inter_words) / probe_calls, "words");
    report.add("hier.sync_ops_per_call",
               static_cast<double>(core_probe.ledger.sync_ops) / probe_calls, "count");
    report.add("batch.plan_build_ms", median(plan_ms), "ms");
    report.add("batch.prewarm_ms", median(prewarm_ms), "ms");
    report.add("apps.iter_ms", median(iter_ms), "ms");
    report.add("ref.seq_solve_s", k * median(seq_s), "s");
    const core::AlphaBeta network = core::HierCostModel{}.inter;
    report.add("model.alpha_beta_us",
               1e6 * core::alpha_beta_time_s(
                         network, static_cast<std::uint64_t>(messages_per_call),
                         static_cast<std::uint64_t>(words_per_vector)), "us");
    report.add("model.words_over_bound",
               words_per_vector / core::lower_bound_words(w.n, P), "ratio");
    report.add("obs.trace_overhead_ratio", median(own.traced) / median(own.untraced),
               "ratio");

    std::cout << "split core.call_ms=" << core_call_ms
              << " = driver_self " << core_call_ms - core_exchange_ms
              << " + exchange " << core_exchange_ms << "\n";
  }

  for (const Metric& m : report.metrics()) {
    std::cout << "metric " << m.name << " " << json_number(m.value) << " " << m.unit << "\n";
  }
  const double error_rate =
      static_cast<double>(check.failed) / static_cast<double>(check.attempted);
  std::cout << "metric error_rate " << json_number(error_rate) << " ratio\n";

  const bool correct = report.ok() && check.failed == 0;
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << check.attempted << ", \"failed\": " << check.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics().size(); ++i) {
    const Metric& m = report.metrics()[i];
    js << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Address-space randomisation moves heap, stack and mapping offsets
  // between runs, and with them cache-set conflicts: on the small workload
  // it alone moved batch_ms_p50 by 30% from run to run. Re-executing once
  // with randomisation off gives every run the same layout. Where the
  // personality change is refused, the run goes on randomised.
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(static_cast<unsigned long>(persona | ADDR_NO_RANDOMIZE)) != -1) {
    execv("/proc/self/exe", argv);
    personality(static_cast<unsigned long>(persona));  // exec failed
  }
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
