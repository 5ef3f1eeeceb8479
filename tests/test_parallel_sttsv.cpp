// Parallel Algorithm 5 tests: correctness against the dense reference for
// both Steiner families, both transports, divisible and padded sizes; and
// the communication properties the paper proves (no tensor communicated,
// per-rank words match the closed form, step counts, load balance).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "core/costs.hpp"
#include "core/parallel_sttsv.hpp"
#include "core/sttsv_seq.hpp"
#include "elastic/assignment.hpp"
#include "hier/compose.hpp"
#include "hier/make_exchanger.hpp"
#include "obs/metrics.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::core {
namespace {

// The distribution references the partition, so the partition lives in a
// unique_ptr: moving the fixture must not relocate it.
struct Fixture {
  std::unique_ptr<partition::TetraPartition> part_ptr;
  std::unique_ptr<partition::VectorDistribution> dist_ptr;
  tensor::SymTensor3 a;
  std::vector<double> x;
  std::vector<double> y_ref;

  [[nodiscard]] const partition::TetraPartition& part() const {
    return *part_ptr;
  }
  [[nodiscard]] const partition::VectorDistribution& dist() const {
    return *dist_ptr;
  }
};

Fixture make_setup(steiner::SteinerSystem sys, std::size_t n,
                   std::uint64_t seed) {
  auto part = std::make_unique<partition::TetraPartition>(
      partition::TetraPartition::build(std::move(sys)));
  auto dist = std::make_unique<partition::VectorDistribution>(*part, n);
  Rng rng(seed);
  auto a = tensor::random_symmetric(n, rng);
  auto x = rng.uniform_vector(n);
  auto y_ref = sttsv_packed(a, x);
  return Fixture{std::move(part), std::move(dist), std::move(a),
                 std::move(x), std::move(y_ref)};
}

void expect_equal(const std::vector<double>& got,
                  const std::vector<double>& want, double tol = 1e-10) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << "i=" << i;
  }
}

TEST(ParallelSttsv, SphericalQ2DivisibleExact) {
  // q=2: m=5, P=10, |Q_i|=6; n = 5*12 is fully divisible.
  Fixture s = make_setup(steiner::spherical_system(2), 60, 1);
  simt::Machine machine(s.part().num_processors());
  const auto result = parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                                     simt::Transport::kPointToPoint);
  expect_equal(result.y, s.y_ref);

  // Exact divisible case: every rank sends exactly the paper's
  // 2(n(q+1)/(q²+1) - n/P) words across the two vector phases.
  const double predicted = optimal_algorithm_words(60, 2);
  for (std::size_t p = 0; p < machine.num_ranks(); ++p) {
    EXPECT_DOUBLE_EQ(static_cast<double>(machine.ledger().words_sent(p)),
                     predicted)
        << "p=" << p;
    EXPECT_DOUBLE_EQ(
        static_cast<double>(machine.ledger().words_received(p)), predicted);
  }
}

TEST(ParallelSttsv, SphericalQ3Divisible) {
  // q=3: m=10, P=30, |Q_i|=12; n = 10*12.
  Fixture s = make_setup(steiner::spherical_system(3), 120, 2);
  simt::Machine machine(30);
  const auto result = parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                                     simt::Transport::kPointToPoint);
  expect_equal(result.y, s.y_ref);
  const double predicted = optimal_algorithm_words(120, 3);
  EXPECT_DOUBLE_EQ(static_cast<double>(machine.ledger().max_words_sent()),
                   predicted);
}

TEST(ParallelSttsv, PaddedVectorLengths) {
  // Non-divisible n exercises padding and uneven shares.
  for (const std::size_t n : {17u, 23u, 61u, 97u}) {
    Fixture s = make_setup(steiner::spherical_system(2), n, 100 + n);
    simt::Machine machine(10);
    const auto result = parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                                       simt::Transport::kPointToPoint);
    expect_equal(result.y, s.y_ref);
  }
}

TEST(ParallelSttsv, BooleanFamilyTable3System) {
  // The S(8,4,3) partition of Table 3 (P = 14).
  Fixture s = make_setup(steiner::boolean_quadruple_system(3), 56, 3);
  simt::Machine machine(14);
  const auto result = parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                                     simt::Transport::kPointToPoint);
  expect_equal(result.y, s.y_ref);
}

TEST(ParallelSttsv, AllToAllTransportSameAnswer) {
  Fixture s = make_setup(steiner::spherical_system(2), 60, 4);
  simt::Machine machine(10);
  const auto result = parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                                     simt::Transport::kAllToAll);
  expect_equal(result.y, s.y_ref);
  // All-to-All charges P-1 rounds per phase: 2 phases = 2(P-1).
  EXPECT_EQ(machine.ledger().rounds(), 2u * (10 - 1));
  EXPECT_GT(machine.ledger().modeled_collective_words(), 0u);
}

TEST(ParallelSttsv, PointToPointStepsMatchTheorem722) {
  // Divisible case: rounds per vector = q³/2 + 3q²/2 - 1 (König schedule
  // lower bound Δ equals the partner count).
  for (const std::size_t q : {2u, 3u}) {
    const std::size_t m = q * q + 1;
    const std::size_t b = q * (q + 1);
    Fixture s = make_setup(steiner::spherical_system(q), m * b, 5 + q);
    simt::Machine machine(s.part().num_processors());
    (void)parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                         simt::Transport::kPointToPoint);
    EXPECT_EQ(machine.ledger().rounds(), 2 * p2p_steps_per_vector(q));
  }
}

TEST(ParallelSttsv, LoadBalanceSection71) {
  const std::size_t q = 3;
  const std::size_t b = 12;
  const std::size_t n = b * (q * q + 1);
  Fixture s = make_setup(steiner::spherical_system(q), n, 6);
  simt::Machine machine(s.part().num_processors());
  const auto result = parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                                     simt::Transport::kPointToPoint);
  // Total ternary mults = Algorithm 4's count; max per rank bounded by
  // the Section 7.1 closed form.
  std::uint64_t total = 0;
  for (const auto t : result.ternary_mults) {
    total += t;
    EXPECT_LE(t, per_rank_ternary_bound(q, b));
  }
  EXPECT_EQ(total, symmetric_ternary_mults(n));
}

TEST(ParallelSttsv, MessagesCarryAtMostTwoRowBlockShares) {
  // Each pair exchanges at most 2 shares per vector (Steiner blocks meet
  // in at most 2 points): per-pair words <= 2 * max share length per phase.
  Fixture s = make_setup(steiner::spherical_system(3), 240, 7);
  simt::Machine machine(30);
  (void)parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                       simt::Transport::kPointToPoint);
  const std::size_t share = 240 / 30;  // b / (q(q+1)) = 24/12 = 2... n/P = 8
  for (std::size_t p = 0; p < 30; ++p) {
    for (std::size_t peer = 0; peer < 30; ++peer) {
      if (p == peer) continue;
      EXPECT_LE(machine.ledger().pair_words(p, peer), 2 * 2 * (share / 4))
          << p << "->" << peer;
    }
  }
}

TEST(ParallelSttsv, LowRankTensorSanity) {
  // Structured (low-rank) input as an independent correctness probe.
  Rng rng(8);
  const std::size_t n = 60;
  const auto a = tensor::random_low_rank(n, {3.0, 1.0, 0.25}, rng, nullptr);
  const auto x = rng.uniform_vector(n);
  auto part = partition::TetraPartition::build(steiner::spherical_system(2));
  partition::VectorDistribution dist(part, n);
  simt::Machine machine(10);
  const auto result = parallel_sttsv(machine, part, dist, a, x,
                                     simt::Transport::kPointToPoint);
  expect_equal(result.y, sttsv_packed(a, x), 1e-9);
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<std::pair<std::string, std::uint64_t>> ledger_counters(
    const simt::Machine& machine) {
  obs::MetricsRegistry reg;
  machine.ledger().to_metrics(reg);
  return reg.counters();
}

TEST(ParallelSttsv, ReusedCommTableMatchesPerCallRunsBitwise) {
  // Padded n: uneven shares exercise every segment length.
  const std::size_t n = 61;
  Fixture s = make_setup(steiner::spherical_system(2), n, 41);
  const std::size_t P = s.part().num_processors();
  Rng rng(42);
  std::vector<std::vector<double>> xs;
  std::vector<std::vector<double>> flat_y;
  for (int v = 0; v < 3; ++v) {
    xs.push_back(rng.uniform_vector(n));
    simt::Machine flat(P);
    flat_y.push_back(parallel_sttsv(flat, s.part(), s.dist(), s.a, xs.back(),
                                    simt::Transport::kPointToPoint)
                         .y);
  }
  const std::vector<std::uint32_t> node_of =
      hier::compose_assignment(s.part(), s.dist(), 2).node_of;
  const std::vector<std::size_t> shrunk =
      elastic::BlockAssignment::identity(P).shrink({2, 5}).hosts();

  for (const std::vector<std::size_t>& placement :
       {std::vector<std::size_t>{}, shrunk}) {
    const CommTable table(s.part(), s.dist(), placement);
    for (const auto kind :
         {simt::TransportKind::kDirect, simt::TransportKind::kReliable,
          simt::TransportKind::kOneSidedPut,
          simt::TransportKind::kActiveMessage,
          simt::TransportKind::kHierarchical}) {
      simt::ExchangerConfig config;
      config.kind = kind;
      if (kind == simt::TransportKind::kHierarchical) config.node_of = node_of;
      for (const auto mode : {simt::PipelineMode::kSerialized,
                              simt::PipelineMode::kDoubleBuffered}) {
        SCOPED_TRACE(std::string(simt::transport_kind_name(kind)) +
                     (placement.empty() ? " identity" : " shrunk") +
                     (mode == simt::PipelineMode::kSerialized
                          ? " serialized"
                          : " double-buffered"));
        simt::Machine reused_machine(P);
        simt::Machine per_call_machine(P);
        const auto reused = simt::make_exchanger(reused_machine, config);
        const auto per_call = simt::make_exchanger(per_call_machine, config);
        for (std::size_t v = 0; v < xs.size(); ++v) {
          const auto got = parallel_sttsv(*reused, table, s.a, xs[v],
                                          simt::Transport::kPointToPoint,
                                          mode);
          const auto want = parallel_sttsv(
              *per_call, s.part(), s.dist(), s.a, xs[v],
              simt::Transport::kPointToPoint, mode, placement);
          EXPECT_TRUE(bitwise_equal(got.y, want.y)) << "call " << v;
          EXPECT_TRUE(bitwise_equal(got.y, flat_y[v])) << "call " << v;
          EXPECT_EQ(got.ternary_mults, want.ternary_mults);
          // Both machines started empty, so equal totals after every call
          // mean equal per-call deltas.
          EXPECT_EQ(ledger_counters(reused_machine),
                    ledger_counters(per_call_machine))
              << "call " << v;
        }
      }
    }
  }
}

TEST(ParallelSttsv, LanesMatchFlatDirectAtEveryPlacement) {
  // One parallel_sttsv pass runs B lanes: every lane is the flat-Direct
  // single-vector run bit for bit, and B lanes move B × the words of one
  // vector in the same messages and rounds, at the identity and a shrunk
  // placement.
  const std::size_t n = 61;
  Fixture s = make_setup(steiner::spherical_system(2), n, 45);
  const std::size_t P = s.part().num_processors();
  Rng rng(46);
  std::vector<std::vector<double>> xs;
  std::vector<std::vector<double>> flat_y;
  for (int v = 0; v < 16; ++v) {
    xs.push_back(rng.uniform_vector(n));
    simt::Machine flat(P);
    flat_y.push_back(parallel_sttsv(flat, s.part(), s.dist(), s.a, xs.back(),
                                    simt::Transport::kPointToPoint)
                         .y);
  }
  const std::vector<std::uint32_t> node_of =
      hier::compose_assignment(s.part(), s.dist(), 2).node_of;
  const std::vector<std::size_t> shrunk =
      elastic::BlockAssignment::identity(P).shrink({2, 5}).hosts();
  constexpr simt::Channel kPayload[] = {simt::Channel::kGoodput,
                                        simt::Channel::kOneSided};

  for (const std::vector<std::size_t>& placement :
       {std::vector<std::size_t>{}, shrunk}) {
    const CommTable table(s.part(), s.dist(), placement);
    for (const auto kind :
         {simt::TransportKind::kDirect, simt::TransportKind::kReliable,
          simt::TransportKind::kOneSidedPut,
          simt::TransportKind::kActiveMessage,
          simt::TransportKind::kHierarchical}) {
      simt::ExchangerConfig config;
      config.kind = kind;
      if (kind == simt::TransportKind::kHierarchical) config.node_of = node_of;
      for (const auto mode : {simt::PipelineMode::kSerialized,
                              simt::PipelineMode::kDoubleBuffered}) {
        const auto run = [&](std::size_t lanes, simt::Machine& machine) {
          const auto exchanger = simt::make_exchanger(machine, config);
          return parallel_sttsv(
              *exchanger, table, s.a,
              std::span<const std::vector<double>>(xs.data(), lanes),
              simt::Transport::kPointToPoint, mode);
        };
        simt::Machine one(P);
        (void)run(1, one);
        for (const std::size_t lanes : {1u, 3u, 16u}) {
          SCOPED_TRACE(std::string(simt::transport_kind_name(kind)) +
                       (placement.empty() ? " identity" : " shrunk") +
                       (mode == simt::PipelineMode::kSerialized
                            ? " serialized"
                            : " double-buffered") +
                       " B=" + std::to_string(lanes));
          simt::Machine machine(P);
          const BatchRunResult got = run(lanes, machine);
          ASSERT_EQ(got.y.size(), lanes);
          for (std::size_t v = 0; v < lanes; ++v) {
            EXPECT_TRUE(bitwise_equal(got.y[v], flat_y[v])) << "lane " << v;
          }
          const simt::CommLedger& want = one.ledger();
          const simt::CommLedger& have = machine.ledger();
          for (const simt::Channel c : kPayload) {
            EXPECT_EQ(have.total_words(c), lanes * want.total_words(c))
                << simt::channel_name(c);
            EXPECT_EQ(have.total_messages(c), want.total_messages(c))
                << simt::channel_name(c);
            EXPECT_EQ(have.rounds(c), want.rounds(c))
                << simt::channel_name(c);
          }
        }
      }
    }
  }
}

TEST(ParallelSttsv, CommTableRejectsMismatchedOperands) {
  Fixture s = make_setup(steiner::spherical_system(2), 60, 43);
  const CommTable table(s.part(), s.dist());
  EXPECT_EQ(table.num_roles(), 10u);
  EXPECT_EQ(table.logical_n(), 60u);
  simt::Machine machine(10);
  simt::DirectExchange direct(machine);
  EXPECT_THROW(parallel_sttsv(direct, table, s.a, std::vector<double>(61, 1.0),
                              simt::Transport::kPointToPoint),
               PreconditionError);
  Rng rng(44);
  const auto other = tensor::random_symmetric(61, rng);
  EXPECT_THROW(parallel_sttsv(direct, table, other,
                              std::vector<double>(61, 1.0),
                              simt::Transport::kPointToPoint),
               PreconditionError);
  simt::Machine wrong(7);
  simt::DirectExchange wrong_direct(wrong);
  EXPECT_THROW(parallel_sttsv(wrong_direct, table, s.a, s.x,
                              simt::Transport::kPointToPoint),
               PreconditionError);
  EXPECT_THROW(CommTable(s.part(), s.dist(), std::vector<std::size_t>(3, 0)),
               PreconditionError);
  EXPECT_THROW(CommTable(s.part(), s.dist(), std::vector<std::size_t>(10, 10)),
               PreconditionError);
}

TEST(ParallelSttsv, RequiresMatchingRankCount) {
  Fixture s = make_setup(steiner::spherical_system(2), 20, 9);
  simt::Machine machine(7);  // wrong P
  EXPECT_THROW(parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                              simt::Transport::kPointToPoint),
               PreconditionError);
}

}  // namespace
}  // namespace sttsv::core
