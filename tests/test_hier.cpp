// Hierarchical communication subsystem tests (DESIGN.md §17): the
// Topology model and its STTSV_TOPOLOGY spelling, the composed two-level
// partition (pair-traffic closed form, placement invariants, the
// flat-never-wins guarantee), the HierarchicalExchange backend (bitwise
// equivalence against DirectExchange across seeds and pipeline modes,
// merged delivery order, node-fence α accounting, dead ranks, epoch
// abandonment), the per-level ledger split with its conservation check,
// and the engine/serve topology plumbing.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "batch/batched_run.hpp"
#include "batch/engine.hpp"
#include "batch/plan.hpp"
#include "core/costs.hpp"
#include "core/parallel_sttsv.hpp"
#include "hier/compose.hpp"
#include "hier/hier_exchange.hpp"
#include "hier/make_exchanger.hpp"
#include "hier/topology.hpp"
#include "obs/metrics.hpp"
#include "onesided/onesided_exchange.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "serve/frontend.hpp"
#include "simt/machine.hpp"
#include "simt/pipeline.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv {
namespace {

using hier::HierarchicalExchange;
using hier::Topology;
using simt::Channel;
using simt::Delivery;
using simt::Envelope;
using simt::Level;
using simt::Machine;
using simt::PipelineMode;
using simt::TransportKind;

std::unique_ptr<simt::DirectExchange> direct_inner(Machine& machine) {
  return std::make_unique<simt::DirectExchange>(machine);
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// --- Topology ---------------------------------------------------------------

TEST(Topology, UniformSpreadsRanksContiguously) {
  const Topology topo = Topology::uniform(10, 3);
  EXPECT_EQ(topo.num_ranks(), 10u);
  EXPECT_EQ(topo.num_nodes(), 3u);
  // 10 = 4 + 3 + 3: the first P mod N nodes take one extra rank.
  EXPECT_EQ(topo.ranks_on(0), (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(topo.ranks_on(1), (std::vector<std::size_t>{4, 5, 6}));
  EXPECT_EQ(topo.ranks_on(2), (std::vector<std::size_t>{7, 8, 9}));
  EXPECT_TRUE(topo.same_node(0, 3));
  EXPECT_FALSE(topo.same_node(3, 4));
  EXPECT_EQ(topo.node_of(9), 2u);
  EXPECT_THROW((void)Topology::uniform(4, 0), PreconditionError);
  EXPECT_THROW((void)Topology::uniform(4, 5), PreconditionError);
}

TEST(Topology, SingleNodeIsLegalAndFlat) {
  const Topology topo = Topology::uniform(4, 1);
  EXPECT_EQ(topo.num_nodes(), 1u);
  EXPECT_TRUE(topo.same_node(0, 3));
}

TEST(Topology, FromMapRequiresDenseLabels) {
  const Topology topo = Topology::from_map({1, 0, 1, 0});
  EXPECT_EQ(topo.num_nodes(), 2u);
  EXPECT_EQ(topo.ranks_on(1), (std::vector<std::size_t>{0, 2}));
  EXPECT_THROW((void)Topology::from_map({}), PreconditionError);
  EXPECT_THROW((void)Topology::from_map({0, 2, 0}), PreconditionError);
}

TEST(Topology, ParsesNxMAgainstTheRankCount) {
  const Topology topo = Topology::parse("2x5", 10);
  EXPECT_EQ(topo.num_nodes(), 2u);
  EXPECT_EQ(topo.node_of(4), 0u);
  EXPECT_EQ(topo.node_of(5), 1u);
  EXPECT_THROW((void)Topology::parse("2x4", 10), PreconditionError);
  EXPECT_THROW((void)Topology::parse("0x5", 10), PreconditionError);
  EXPECT_THROW((void)Topology::parse("2x", 10), PreconditionError);
  EXPECT_THROW((void)Topology::parse("x5", 10), PreconditionError);
  EXPECT_THROW((void)Topology::parse("ten", 10), PreconditionError);
  EXPECT_THROW((void)Topology::parse("2x5x1", 10), PreconditionError);
  // 2^64 + 2 wraps to 2 and 2 * (2^63 + 5) wraps to 10 in 64-bit size_t.
  EXPECT_THROW((void)Topology::parse("18446744073709551618x5", 10),
               PreconditionError);
  EXPECT_THROW((void)Topology::parse("2x9223372036854775813", 10),
               PreconditionError);
}

TEST(Topology, EnvOverrideRoundTrip) {
  ::unsetenv("STTSV_TOPOLOGY");
  EXPECT_FALSE(Topology::from_env(10).has_value());
  ::setenv("STTSV_TOPOLOGY", "5x2", 1);
  const auto topo = Topology::from_env(10);
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->num_nodes(), 5u);
  ::setenv("STTSV_TOPOLOGY", "3x5", 1);
  EXPECT_THROW((void)Topology::from_env(10), PreconditionError);
  ::unsetenv("STTSV_TOPOLOGY");
}

// --- Composed partition -----------------------------------------------------

class ComposeTest : public ::testing::Test {
 protected:
  ComposeTest()
      : part_(partition::TetraPartition::build(steiner::spherical_system(2))),
        dist_(part_, 70) {}

  partition::TetraPartition part_;
  partition::VectorDistribution dist_;
};

TEST_F(ComposeTest, PairTrafficMatrixIsSymmetricZeroDiagonal) {
  const auto w = hier::pair_traffic_matrix(part_, dist_);
  const std::size_t P = part_.num_processors();
  ASSERT_EQ(w.size(), P);
  for (std::size_t p = 0; p < P; ++p) {
    ASSERT_EQ(w[p].size(), P);
    EXPECT_EQ(w[p][p], 0u);
    for (std::size_t q = 0; q < P; ++q) {
      EXPECT_EQ(w[p][q], w[q][p]);
      EXPECT_EQ(w[p][q], hier::pair_traffic_words(part_, dist_, p, q));
    }
  }
}

TEST_F(ComposeTest, TotalWordsAreAPlacementInvariant) {
  // Placement moves words between levels; the total is fixed by the
  // partition. Check flat, composed (both seeds), and a hand-rolled map.
  const auto w = hier::pair_traffic_matrix(part_, dist_);
  const std::size_t P = part_.num_processors();
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t q = p + 1; q < P; ++q) total += w[p][q];
  }
  const auto flat = hier::flat_assignment(part_, dist_, 3);
  const auto tri = hier::compose_assignment(part_, dist_, 3,
                                            hier::IntraLayout::kTriangleBlock);
  const auto cyc = hier::compose_assignment(part_, dist_, 3,
                                            hier::IntraLayout::kCyclic);
  for (const auto& asg : {flat, tri, cyc}) {
    const auto lw = hier::predict_level_words(part_, dist_, asg.node_of);
    EXPECT_EQ(lw.total(), total);
    EXPECT_EQ(lw.inter, asg.inter_words);
  }
}

TEST_F(ComposeTest, ComposedNeverLosesToFlat) {
  for (const std::size_t N : {2u, 3u, 5u}) {
    const auto flat = hier::flat_assignment(part_, dist_, N);
    for (const auto layout :
         {hier::IntraLayout::kTriangleBlock, hier::IntraLayout::kCyclic}) {
      const auto comp = hier::compose_assignment(part_, dist_, N, layout);
      EXPECT_LE(comp.inter_words, flat.inter_words);
      // Same balanced node sizes as the flat baseline.
      const Topology ft = Topology::from_map(flat.node_of);
      const Topology ct = Topology::from_map(comp.node_of);
      ASSERT_EQ(ct.num_nodes(), ft.num_nodes());
      for (std::size_t node = 0; node < ft.num_nodes(); ++node) {
        EXPECT_EQ(ct.ranks_on(node).size(), ft.ranks_on(node).size());
      }
    }
  }
}

TEST_F(ComposeTest, OneNodePutsEverythingIntra) {
  const auto flat = hier::flat_assignment(part_, dist_, 1);
  EXPECT_EQ(flat.inter_words, 0u);
  const auto lw = hier::predict_level_words(part_, dist_, flat.node_of);
  EXPECT_EQ(lw.inter, 0u);
  EXPECT_GT(lw.intra, 0u);
}

// --- Per-level ledger -------------------------------------------------------

TEST(PerLevelLedger, SplitsByNodeMapAndSumsToAggregate) {
  Machine machine(4);
  machine.ledger().set_node_map({0, 0, 1, 1});
  EXPECT_EQ(machine.ledger().num_nodes(), 2u);
  machine.ledger().record(Channel::kGoodput, 0, 1, 10);  // intra
  machine.ledger().record(Channel::kGoodput, 1, 2, 7);   // inter
  machine.ledger().record(Channel::kGoodput, 2, 3, 5);   // intra
  EXPECT_EQ(machine.ledger().total_words(Channel::kGoodput, Level::kIntra),
            15u);
  EXPECT_EQ(machine.ledger().total_words(Channel::kGoodput, Level::kInter),
            7u);
  EXPECT_EQ(machine.ledger().total_words(), 22u);
  machine.ledger().verify_conservation();
}

TEST(PerLevelLedger, ConservationIsCheckedPerLevel) {
  // S3: a send/receive skew confined to one level must trip the checker
  // even when the aggregate view happens to balance.
  Machine machine(4);
  machine.ledger().set_node_map({0, 0, 1, 1});
  machine.ledger().record(Channel::kGoodput, 1, 2, 9);
  machine.ledger().verify_conservation();
  machine.ledger().debug_skew_sent_for_test(Channel::kGoodput, Level::kInter,
                                            1, 4);
  EXPECT_THROW(machine.ledger().verify_conservation(), InternalError);
}

TEST(PerLevelLedger, NodeMapRequiresAnEmptyLedger) {
  Machine machine(4);
  machine.ledger().record(Channel::kGoodput, 0, 1, 3);
  EXPECT_THROW(machine.ledger().set_node_map({0, 0, 1, 1}),
               PreconditionError);
  machine.reset_ledger();
  machine.ledger().set_node_map({0, 0, 1, 1});
  EXPECT_EQ(machine.ledger().num_nodes(), 2u);
}

// --- HierarchicalExchange ---------------------------------------------------

TEST(HierExchange, CtorValidatesItsPieces) {
  Machine machine(4);
  EXPECT_THROW(HierarchicalExchange(machine, Topology::uniform(4, 2), nullptr),
               PreconditionError);
  // Topology must cover the machine's ranks.
  Machine m2(4);
  EXPECT_THROW(HierarchicalExchange(m2, Topology::uniform(6, 2),
                                    direct_inner(m2)),
               PreconditionError);
  // The inner backend must wrap the same machine.
  Machine m3(4);
  Machine other(4);
  EXPECT_THROW(HierarchicalExchange(m3, Topology::uniform(4, 2),
                                    direct_inner(other)),
               PreconditionError);
  // An active-message inner would interleave handler deliveries with the
  // shared path; the factory and the ctor both reject it.
  Machine m4(4);
  EXPECT_THROW(
      HierarchicalExchange(
          m4, Topology::uniform(4, 2),
          std::make_unique<onesided::OneSidedExchange>(
              m4, onesided::Mode::kActiveMessage)),
      PreconditionError);
}

TEST(HierExchange, MergesSharedAndFabricDeliveriesByOrigin) {
  Machine machine(4);
  HierarchicalExchange hx(machine, Topology::from_map({0, 0, 1, 1}),
                          direct_inner(machine));
  const auto send = [&](std::vector<std::vector<Envelope>>& out,
                        std::size_t from, std::size_t to, double tag) {
    simt::PooledBuffer buf = machine.pool().acquire(from, 2);
    const double payload[2] = {tag, tag + 0.5};
    buf.append(payload, 2);
    out[from].push_back(Envelope{to, std::move(buf)});
  };
  std::vector<std::vector<Envelope>> out(4);
  send(out, 0, 1, 10.0);  // intra on node 0
  send(out, 2, 1, 20.0);  // inter: node 1 -> node 0
  send(out, 3, 1, 30.0);  // inter
  send(out, 3, 2, 40.0);  // intra on node 1
  auto in = hx.exchange(std::move(out), simt::Transport::kPointToPoint);
  ASSERT_EQ(in.size(), 4u);
  ASSERT_EQ(in[1].size(), 3u);
  // Origin-ascending regardless of which path carried each delivery.
  EXPECT_EQ(in[1][0].from, 0u);
  EXPECT_EQ(in[1][1].from, 2u);
  EXPECT_EQ(in[1][2].from, 3u);
  EXPECT_EQ(in[1][0].data[0], 10.0);
  EXPECT_EQ(in[1][1].data[0], 20.0);
  EXPECT_EQ(in[1][2].data[0], 30.0);
  ASSERT_EQ(in[2].size(), 1u);
  EXPECT_EQ(in[2][0].from, 3u);
  EXPECT_EQ(in[2][0].data[1], 40.5);

  // Accounting: two intra hand-offs (one per node) cost one fence each;
  // fabric words and shared words split exactly.
  EXPECT_EQ(hx.stats().epochs, 1u);
  EXPECT_EQ(hx.stats().node_fences, 2u);
  EXPECT_EQ(hx.stats().shared_puts, 2u);
  EXPECT_EQ(hx.stats().shared_words, 4u);
  EXPECT_EQ(hx.stats().inter_envelopes, 2u);
  EXPECT_EQ(hx.stats().inter_words, 4u);
  EXPECT_EQ(machine.ledger().sync_ops(Level::kIntra), 2u);
  EXPECT_EQ(machine.ledger().total_payload_words(Level::kIntra), 4u);
  EXPECT_EQ(machine.ledger().total_payload_words(Level::kInter), 4u);
  machine.ledger().verify_conservation();
}

TEST(HierExchange, DeadRanksDropSharedTrafficUncharged) {
  Machine machine(4);
  HierarchicalExchange hx(machine, Topology::from_map({0, 0, 1, 1}),
                          direct_inner(machine));
  machine.mark_dead(1);
  std::vector<std::vector<Envelope>> out(4);
  simt::PooledBuffer buf = machine.pool().acquire(0, 1);
  const double one = 1.0;
  buf.append(&one, 1);
  out[0].push_back(Envelope{1, std::move(buf)});
  auto in = hx.exchange(std::move(out), simt::Transport::kPointToPoint);
  EXPECT_TRUE(in[1].empty());
  EXPECT_EQ(hx.stats().shared_puts, 0u);
  EXPECT_EQ(machine.ledger().total_payload_words(Level::kIntra), 0u);
  // No surviving intra traffic: no fence either.
  EXPECT_EQ(machine.ledger().sync_ops(Level::kIntra), 0u);
}

TEST(HierExchange, AbandonedPartsStillSettleTheEpoch) {
  Machine machine(4);
  HierarchicalExchange hx(machine, Topology::from_map({0, 0, 1, 1}),
                          direct_inner(machine));
  {
    auto parts = hx.begin_parts(simt::Transport::kPointToPoint);
    std::vector<std::vector<Envelope>> out(4);
    simt::PooledBuffer buf = machine.pool().acquire(0, 1);
    const double one = 1.0;
    buf.append(&one, 1);
    out[0].push_back(Envelope{1, std::move(buf)});
    (void)parts->part(std::move(out));
    // No finish(): the destructor must settle fences and rounds anyway.
  }
  EXPECT_EQ(hx.stats().epochs, 1u);
  EXPECT_EQ(hx.stats().node_fences, 1u);
  machine.ledger().verify_conservation();
}

// --- Bitwise sweep (S3) -----------------------------------------------------

TEST(HierBitwise, ThirtyTwoSeedSweepAcrossPipelineModes) {
  const auto part = partition::TetraPartition::build(steiner::spherical_system(2));
  const std::size_t n = 44;
  const partition::VectorDistribution dist(part, n);
  const std::size_t P = part.num_processors();
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Rng rng(1000 + seed);
    const auto a = tensor::random_symmetric(n, rng);
    const auto x = rng.uniform_vector(n);
    for (const auto mode :
         {PipelineMode::kSerialized, PipelineMode::kDoubleBuffered}) {
      Machine flat_machine(P);
      simt::DirectExchange direct(flat_machine);
      const auto want = core::parallel_sttsv(
          direct, part, dist, a, x, simt::Transport::kPointToPoint, mode);
      const auto comp = hier::compose_assignment(part, dist, 2);
      Machine hier_machine(P);
      HierarchicalExchange hx(hier_machine,
                              Topology::from_map(comp.node_of),
                              direct_inner(hier_machine));
      const auto got = core::parallel_sttsv(
          hx, part, dist, a, x, simt::Transport::kPointToPoint, mode);
      ASSERT_TRUE(bitwise_equal(got.y, want.y))
          << "seed " << seed << " mode "
          << (mode == PipelineMode::kSerialized ? "serialized" : "pipelined");
      // Equal payload volume, strictly cheaper fabric.
      const auto& fl = flat_machine.ledger();
      const auto& hl = hier_machine.ledger();
      ASSERT_EQ(hl.total_payload_words(Level::kIntra) +
                    hl.total_payload_words(Level::kInter),
                fl.total_words());
      ASSERT_LT(hl.total_payload_words(Level::kInter), fl.total_words());
    }
  }
}

TEST(HierBitwise, BatchedRunsMatchAndMeetTheClosedForm) {
  const auto plan = batch::Plan::build(batch::plan_key(
      60, batch::Family::kSpherical, 2, simt::Transport::kPointToPoint));
  const auto& part = plan->partition();
  const auto& dist = plan->distribution();
  Rng rng(7);
  const auto a = tensor::random_symmetric(60, rng);
  std::vector<std::vector<double>> xs;
  for (int k = 0; k < 4; ++k) xs.push_back(rng.uniform_vector(60));

  Machine flat_machine(plan->num_processors());
  const auto want = batch::parallel_sttsv_batch(flat_machine, *plan, a, xs);

  const auto comp = hier::compose_assignment(part, dist, 2);
  const auto pred = hier::predict_level_words(part, dist, comp.node_of);
  Machine hier_machine(plan->num_processors());
  HierarchicalExchange hx(hier_machine, Topology::from_map(comp.node_of),
                          direct_inner(hier_machine));
  const auto got = batch::parallel_sttsv_batch(hx, *plan, a, xs);
  ASSERT_EQ(got.y.size(), want.y.size());
  for (std::size_t v = 0; v < want.y.size(); ++v) {
    EXPECT_TRUE(bitwise_equal(got.y[v], want.y[v]));
  }
  // Measured per-level words == closed form × batch width, to the word.
  const auto& led = hier_machine.ledger();
  EXPECT_EQ(led.total_payload_words(Level::kIntra), pred.intra * xs.size());
  EXPECT_EQ(led.total_payload_words(Level::kInter), pred.inter * xs.size());
  // α: at most one fence per node per epoch (2 phases = 2 epochs).
  EXPECT_LE(led.sync_ops(Level::kIntra), hx.stats().epochs * 2);
  EXPECT_EQ(led.sync_ops(Level::kInter), 0u);
}

// --- Cost model -------------------------------------------------------------

TEST(HierCosts, AlphaBetaComposesPerLevel) {
  const core::AlphaBeta link{1e-6, 1e-9};
  EXPECT_DOUBLE_EQ(core::alpha_beta_time_s(link, 10, 1000),
                   10 * 1e-6 + 1000 * 1e-9);
  const core::HierCostModel model;
  // Defaults: the fabric is strictly more expensive on both terms.
  EXPECT_GT(model.inter.alpha_s, model.intra.alpha_s);
  EXPECT_GT(model.inter.beta_s_per_word, model.intra.beta_s_per_word);
  const double t = core::hier_time_s(model, 4, 100, 2, 100);
  EXPECT_DOUBLE_EQ(t, core::alpha_beta_time_s(model.intra, 4, 100) +
                          core::alpha_beta_time_s(model.inter, 2, 100));
}

// --- Engine and serve plumbing ----------------------------------------------

TEST(HierPlumbing, EngineTopologyOptionMatchesDirectBitwise) {
  const std::size_t n = 60;
  const auto plan = batch::Plan::build(batch::plan_key(
      n, batch::Family::kSpherical, 2, simt::Transport::kPointToPoint));
  Rng rng(43);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<std::vector<double>> xs;
  for (int k = 0; k < 5; ++k) xs.push_back(rng.uniform_vector(n));

  const auto comp = hier::compose_assignment(plan->partition(),
                                             plan->distribution(), 2);
  const auto run = [&](batch::EngineOptions opts) {
    Machine machine(plan->num_processors());
    batch::Engine engine(machine, plan, a, opts);
    std::vector<std::vector<double>> ys(xs.size());
    for (std::size_t k = 0; k < xs.size(); ++k) {
      engine.submit(xs[k], [&ys, k](std::size_t, std::vector<double> y) {
        ys[k] = std::move(y);
      });
    }
    engine.flush();
    return ys;
  };
  const auto want = run({});
  batch::EngineOptions hier_opts;
  hier_opts.transport = TransportKind::kHierarchical;
  hier_opts.topology = comp.node_of;
  const auto got = run(hier_opts);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_TRUE(bitwise_equal(got[k], want[k])) << "request " << k;
  }

  // A bare topology under a flat transport still splits the ledger.
  Machine machine(plan->num_processors());
  batch::EngineOptions flat_opts;
  flat_opts.topology = comp.node_of;
  batch::Engine engine(machine, plan, a, flat_opts);
  engine.submit(xs[0], [](std::size_t, std::vector<double>) {});
  engine.flush();
  EXPECT_EQ(machine.ledger().num_nodes(), 2u);
  EXPECT_GT(machine.ledger().total_payload_words(Level::kInter), 0u);
}

TEST(HierPlumbing, FrontendForwardsTopology) {
  const std::size_t n = 40;
  const auto plan = batch::Plan::build(batch::plan_key(
      n, batch::Family::kSpherical, 2, simt::Transport::kPointToPoint));
  Rng rng(44);
  const auto a = tensor::random_symmetric(n, rng);
  Machine machine(plan->num_processors());
  serve::FrontendOptions opts;
  opts.batch_width = 2;
  opts.transport = TransportKind::kHierarchical;
  opts.topology = hier::compose_assignment(plan->partition(),
                                           plan->distribution(), 2)
                      .node_of;
  serve::Frontend frontend(machine, plan, a, opts);
  const auto tenant = frontend.add_tenant("t0", {});
  std::size_t completed = 0;
  (void)frontend.submit(tenant, rng.uniform_vector(n),
                        [&](serve::JobResult) { ++completed; });
  frontend.drain();
  EXPECT_EQ(completed, 1u);
  EXPECT_EQ(machine.ledger().num_nodes(), 2u);
  EXPECT_GT(machine.ledger().sync_ops(Level::kIntra), 0u);
}

TEST(HierPlumbing, FirstTouchIsIdempotentAndHarmless) {
  Machine machine(4);
  simt::PooledBuffer buf = machine.pool().acquire(0, 64);
  const std::vector<double> payload(64, 3.25);
  buf.append(payload.data(), payload.size());
  buf.release();
  machine.first_touch();  // zero-fills free slabs from their worker threads
  machine.first_touch();
  simt::PooledBuffer again = machine.pool().acquire(0, 64);
  again.append(payload.data(), payload.size());
  EXPECT_EQ(again.size(), 64u);
  EXPECT_EQ(again[0], 3.25);
}

}  // namespace
}  // namespace sttsv
