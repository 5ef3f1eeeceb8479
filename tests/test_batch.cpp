// Batched STTSV subsystem tests (DESIGN.md §9): the aggregated panel run
// must be bitwise identical to the B-iteration single-vector loop for
// every Steiner family (covering every block-kernel class), both
// transports, padded and divisible sizes; the plan cache must memoize
// with pointer identity and rebuild after eviction; the engine must cut
// deterministic batches and preserve submission order.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "apps/cp_gradient.hpp"
#include "batch/batched_run.hpp"
#include "batch/engine.hpp"
#include "batch/plan.hpp"
#include "core/parallel_sttsv.hpp"
#include "core/sttsv_seq.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::batch {
namespace {

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint64_t gb = 0;
    std::uint64_t wb = 0;
    std::memcpy(&gb, &got[i], sizeof(double));
    std::memcpy(&wb, &want[i], sizeof(double));
    ASSERT_EQ(gb, wb) << what << " differs at i=" << i << " (got " << got[i]
                      << ", want " << want[i] << ")";
  }
}

std::vector<std::vector<double>> make_panel(std::size_t n, std::size_t lanes,
                                            std::uint64_t seed) {
  std::vector<std::vector<double>> panel(lanes);
  for (std::size_t v = 0; v < lanes; ++v) {
    Rng rng(seed + v);
    panel[v] = rng.uniform_vector(n, -1.0, 1.0);
  }
  return panel;
}

/// The baseline the batched run must reproduce bitwise: B independent
/// single-vector Algorithm-5 runs over the plan's own structures.
std::vector<std::vector<double>> run_loop(
    simt::Machine& machine, const Plan& plan, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& x) {
  std::vector<std::vector<double>> y(x.size());
  for (std::size_t v = 0; v < x.size(); ++v) {
    y[v] = core::parallel_sttsv(machine, plan.partition(),
                                plan.distribution(), a, x[v],
                                plan.key().transport)
               .y;
  }
  return y;
}

struct Case {
  const char* name;
  Family family;
  std::uint64_t param;
  std::size_t n;
};

// Spherical q=2 exercises every kernel class (interior, both face
// classes, central); n=53 adds padding. Boolean and trivial cover the
// other Steiner constructions.
constexpr Case kCases[] = {
    {"spherical q=2 n=60", Family::kSpherical, 2, 60},
    {"spherical q=2 n=53 (padded)", Family::kSpherical, 2, 53},
    {"boolean k=3 n=48", Family::kBoolean, 3, 48},
    {"trivial m=5 n=36 (padded)", Family::kTrivial, 5, 36},
};

TEST(BatchedRun, BitwiseEqualToSingleVectorLoop) {
  for (const Case& s : kCases) {
    for (const simt::Transport transport :
         {simt::Transport::kPointToPoint, simt::Transport::kAllToAll}) {
      SCOPED_TRACE(s.name);
      const PlanKey key = plan_key(s.n, s.family, s.param, transport);
      const auto plan = Plan::build(key);
      simt::Machine machine = plan->make_machine();
      Rng rng(77);
      const auto a = tensor::random_symmetric(s.n, rng);
      const auto x = make_panel(s.n, 5, 300);

      const auto want = run_loop(machine, *plan, a, x);
      const BatchRunResult got = parallel_sttsv_batch(machine, *plan, a, x);
      ASSERT_EQ(got.y.size(), x.size());
      for (std::size_t v = 0; v < x.size(); ++v) {
        expect_bitwise(got.y[v], want[v], s.name);
      }
    }
  }
}

TEST(BatchedRun, LaneWidthsOneThroughSixteen) {
  // Exercises every register-blocked lane chunk (8/4/2/1 and mixes).
  const auto plan = Plan::build(plan_key(60, Family::kSpherical, 2,
                                         simt::Transport::kPointToPoint));
  simt::Machine machine = plan->make_machine();
  Rng rng(5);
  const auto a = tensor::random_symmetric(60, rng);
  for (const std::size_t lanes : {1u, 2u, 3u, 7u, 8u, 13u, 16u}) {
    const auto x = make_panel(60, lanes, 900);
    const auto want = run_loop(machine, *plan, a, x);
    const BatchRunResult got = parallel_sttsv_batch(machine, *plan, a, x);
    for (std::size_t v = 0; v < lanes; ++v) {
      expect_bitwise(got.y[v], want[v], "lane sweep");
    }
  }
}

TEST(BatchedRun, MatchesSequentialReference) {
  const auto plan = Plan::build(plan_key(48, Family::kBoolean, 3,
                                         simt::Transport::kPointToPoint));
  simt::Machine machine = plan->make_machine();
  Rng rng(11);
  const auto a = tensor::random_symmetric(48, rng);
  const auto x = make_panel(48, 4, 40);
  const BatchRunResult got = parallel_sttsv_batch(machine, *plan, a, x);
  for (std::size_t v = 0; v < x.size(); ++v) {
    const auto ref = core::sttsv_packed(a, x[v]);
    ASSERT_EQ(got.y[v].size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(got.y[v][i], ref[i], 1e-10) << "lane " << v << " i=" << i;
    }
  }
}

TEST(BatchedRun, ValidatesInputs) {
  const auto plan = Plan::build(plan_key(60, Family::kSpherical, 2,
                                         simt::Transport::kPointToPoint));
  simt::Machine machine = plan->make_machine();
  Rng rng(3);
  const auto a = tensor::random_symmetric(60, rng);

  EXPECT_THROW(parallel_sttsv_batch(machine, *plan, a, {}),
               PreconditionError);
  EXPECT_THROW(
      parallel_sttsv_batch(machine, *plan, a, make_panel(59, 2, 1)),
      PreconditionError);
  const auto small = tensor::random_symmetric(30, rng);
  EXPECT_THROW(
      parallel_sttsv_batch(machine, *plan, small, make_panel(60, 2, 1)),
      PreconditionError);
  simt::Machine wrong(plan->num_processors() + 1);
  EXPECT_THROW(
      parallel_sttsv_batch(wrong, *plan, a, make_panel(60, 2, 1)),
      PreconditionError);
}

TEST(Plan, KeyComputesProcessorCount) {
  EXPECT_EQ(plan_key(60, Family::kSpherical, 2,
                     simt::Transport::kPointToPoint)
                .processors,
            10u);  // q(q²+1)
  EXPECT_EQ(plan_key(48, Family::kBoolean, 3,
                     simt::Transport::kPointToPoint)
                .processors,
            14u);  // 8·7·6/24
  EXPECT_EQ(plan_key(36, Family::kTrivial, 5,
                     simt::Transport::kPointToPoint)
                .processors,
            10u);  // C(5,3)
}

TEST(Plan, KeyRejectsParametersTheFamilyRejects) {
  // k = 2^32 + 3 would shift 1ULL by more than 63 bits.
  for (const std::uint64_t k : {std::uint64_t{2}, std::uint64_t{13},
                                std::uint64_t{4294967299}}) {
    EXPECT_THROW((void)plan_key(48, Family::kBoolean, k,
                                simt::Transport::kPointToPoint),
                 PreconditionError)
        << "k=" << k;
  }
  for (const std::uint64_t m : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{3}, std::uint64_t{513}}) {
    EXPECT_THROW((void)plan_key(36, Family::kTrivial, m,
                                simt::Transport::kPointToPoint),
                 PreconditionError)
        << "m=" << m;
  }
  // q = 2^22 would wrap q(q²+1); q = 0 would give P = 0; q = 6 is no
  // prime power; q = 4099 is prime but past the field table's size.
  for (const std::uint64_t q :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{6},
        std::uint64_t{4099}, std::uint64_t{1} << 22}) {
    EXPECT_THROW((void)plan_key(36, Family::kSpherical, q,
                                simt::Transport::kPointToPoint),
                 PreconditionError)
        << "q=" << q;
  }
  // A hand-built key whose param would narrow to k = 3 in the build.
  PlanKey key = plan_key(48, Family::kBoolean, 3,
                         simt::Transport::kPointToPoint);
  key.param = 4294967299;
  EXPECT_THROW((void)Plan::build(key), PreconditionError);
}

TEST(Plan, ExchangeWalkIsConsistent) {
  const auto plan = Plan::build(plan_key(53, Family::kSpherical, 2,
                                         simt::Transport::kPointToPoint));
  const auto routes = plan->table().routes();
  ASSERT_FALSE(routes.empty());
  using Route = core::CommTable::RouteView;
  std::map<std::pair<std::size_t, std::size_t>, const Route*> by_pair;
  for (std::size_t k = 0; k < routes.size(); ++k) {
    const Route& route = routes[k];
    if (k > 0) {
      EXPECT_LT(std::pair(routes[k - 1].from, routes[k - 1].to),
                std::pair(route.from, route.to))
          << "routes ascending";
    }
    EXPECT_NE(route.from, route.to);
    std::size_t x_words = 0;
    for (const core::CommTable::Segment& s : route.x) x_words += s.len;
    EXPECT_EQ(route.x_words, x_words);
    by_pair[{route.from, route.to}] = &route;
  }
  // Phase-3 traffic from -> to carries the receiver's shares, i.e. what
  // the receiver sends back in phase 1: the reverse route must agree.
  for (const Route& route : routes) {
    const auto rev = by_pair.find({route.to, route.from});
    ASSERT_NE(rev, by_pair.end()) << route.from << " -> " << route.to;
    EXPECT_EQ(route.x_words, rev->second->y_words);
    EXPECT_EQ(route.y_words, rev->second->x_words);
  }
}

TEST(PlanCacheTest, HitReturnsPointerIdenticalPlan) {
  PlanCache cache;
  const PlanKey key = plan_key(60, Family::kSpherical, 2,
                               simt::Transport::kPointToPoint);
  const auto first = cache.get(key);
  const auto second = cache.get(key);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  // A different transport is a different plan.
  const auto other = cache.get(
      plan_key(60, Family::kSpherical, 2, simt::Transport::kAllToAll));
  EXPECT_NE(other.get(), first.get());
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PlanCacheTest, EvictionRebuildsLeastRecentlyUsed) {
  PlanCache cache(2);
  const PlanKey a = plan_key(40, Family::kSpherical, 2,
                             simt::Transport::kPointToPoint);
  const PlanKey b = plan_key(60, Family::kSpherical, 2,
                             simt::Transport::kPointToPoint);
  const PlanKey c = plan_key(48, Family::kBoolean, 3,
                             simt::Transport::kPointToPoint);

  const auto pa = cache.get(a);
  cache.get(b);
  cache.get(c);  // evicts a (LRU)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 3u);

  const auto pa2 = cache.get(a);  // rebuilt, evicts b
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(pa2->key(), a);
  EXPECT_NE(pa2.get(), pa.get()) << "eviction must drop the cached entry";

  cache.get(c);  // still resident
  EXPECT_EQ(cache.hits(), 1u);
  cache.get(b);  // was evicted by the a rebuild
  EXPECT_EQ(cache.misses(), 5u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EngineTest, AutoFlushPreservesSubmissionOrder) {
  const auto plan = Plan::build(plan_key(60, Family::kSpherical, 2,
                                         simt::Transport::kPointToPoint));
  simt::Machine machine = plan->make_machine();
  Rng rng(21);
  const auto a = tensor::random_symmetric(60, rng);
  const auto panel = make_panel(60, 5, 70);

  EngineOptions opts;
  opts.max_batch_size = 2;
  Engine engine(machine, plan, a, opts);

  std::vector<std::size_t> completed;
  std::vector<std::vector<double>> served(5);
  const auto cb = [&](std::size_t id, std::vector<double> y) {
    completed.push_back(id);
    served[id] = std::move(y);
  };

  EXPECT_EQ(engine.submit(panel[0], cb), 0u);
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_TRUE(completed.empty());

  engine.submit(panel[1], cb);  // hits max_batch_size: auto-flush
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(completed, (std::vector<std::size_t>{0, 1}));

  engine.submit(panel[2], cb);
  engine.submit(panel[3], cb);
  engine.submit(panel[4], cb);
  EXPECT_EQ(engine.pending(), 1u);
  engine.flush();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(completed, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.requests_submitted, 5u);
  EXPECT_EQ(stats.requests_completed, 5u);
  EXPECT_EQ(stats.batches_run, 3u);
  EXPECT_EQ(stats.largest_batch, 2u);

  // Each served vector is bitwise the single-vector Algorithm-5 result.
  const auto want = run_loop(machine, *plan, a, panel);
  for (std::size_t v = 0; v < 5; ++v) {
    expect_bitwise(served[v], want[v], "engine output");
  }
}

TEST(EngineTest, ValidatesRequests) {
  const auto plan = Plan::build(plan_key(60, Family::kSpherical, 2,
                                         simt::Transport::kPointToPoint));
  simt::Machine machine = plan->make_machine();
  Rng rng(2);
  const auto a = tensor::random_symmetric(60, rng);

  Engine engine(machine, plan, a);
  EXPECT_THROW(engine.submit(std::vector<double>(59, 0.0), nullptr),
               PreconditionError);

  EngineOptions bad;
  bad.max_batch_size = 0;
  EXPECT_THROW(Engine(machine, plan, a, bad), PreconditionError);
  EXPECT_THROW(Engine(machine, nullptr, a), PreconditionError);
}

TEST(CpGradientBatched, BitwiseEqualToParallelLoop) {
  const std::size_t n = 60;
  const auto plan = Plan::build(plan_key(n, Family::kSpherical, 2,
                                         simt::Transport::kPointToPoint));
  simt::Machine machine = plan->make_machine();
  Rng rng(31);
  const auto a = tensor::random_symmetric(n, rng);
  const auto columns = make_panel(n, 3, 600);

  const auto want = apps::cp_gradient_parallel(
      machine, plan->partition(), plan->distribution(), a, columns,
      plan->key().transport);
  const auto got = apps::cp_gradient_batched(machine, *plan, a, columns);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t l = 0; l < got.size(); ++l) {
    expect_bitwise(got[l], want[l], "gradient column");
  }
}

}  // namespace
}  // namespace sttsv::batch
