// Budget planning tests: family selection against the budget, summary
// consistency, and end-to-end runs through the chosen batch::Plan.

#include <gtest/gtest.h>

#include "batch/plan.hpp"
#include "core/costs.hpp"
#include "core/parallel_sttsv.hpp"
#include "core/sttsv_seq.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::batch {
namespace {

using core::lower_bound_words;
using core::optimal_algorithm_words;

std::shared_ptr<const Plan> plan_for(std::size_t budget, std::size_t n) {
  return Plan::build(plan_key_for_budget(budget, n));
}

std::vector<double> run(const Plan& plan, simt::Machine& machine,
                        const tensor::SymTensor3& a,
                        const std::vector<double>& x) {
  simt::DirectExchange direct(machine);
  return core::parallel_sttsv(direct, plan.table(), a, x,
                              plan.key().transport)
      .y;
}

TEST(Planner, MinimizesPredictedCommunication) {
  // Budget 35: trivial m=7 offers more processors (P=35) but its
  // replication λ₁ = 15 makes it costlier than spherical q=3 (P=30,
  // λ₁ = 12, predicted 220 words at n = 300): spherical must win.
  const PlanSummary s = summarize(*plan_for(35, 300));
  EXPECT_EQ(s.processors, 30u);
  EXPECT_EQ(s.family, "spherical");
  EXPECT_EQ(s.q, 3u);

  // Budget 100: spherical q=4 (P=68) beats trivial m=9 (P=84).
  const PlanSummary s100 = summarize(*plan_for(100, 680));
  EXPECT_EQ(s100.family, "spherical");
  EXPECT_EQ(s100.q, 4u);
}

TEST(Planner, PrefersSphericalOnTies) {
  // Budget 10: spherical q=2 (P=10) vs trivial m=5 (P=10): spherical wins.
  const PlanSummary s = summarize(*plan_for(10, 100));
  EXPECT_EQ(s.processors, 10u);
  EXPECT_EQ(s.family, "spherical");
}

TEST(Planner, SmallBudgetsFallBackToTrivial) {
  const PlanSummary s = summarize(*plan_for(5, 50));  // only m=4 (P=4) fits
  EXPECT_EQ(s.processors, 4u);
  EXPECT_EQ(s.family, "triples");
  EXPECT_THROW((void)plan_key_for_budget(3, 50), PreconditionError);
}

TEST(Planner, SummaryConsistent) {
  const std::size_t n = 480;
  const PlanSummary s = summarize(*plan_for(30, n));
  EXPECT_EQ(s.row_blocks, 10u);
  EXPECT_EQ(s.block_length, 48u);
  EXPECT_NEAR(s.predicted_words, optimal_algorithm_words(n, 3), 1e-9);
  EXPECT_NEAR(s.lower_bound_words, lower_bound_words(n, 30), 1e-9);
  EXPECT_GT(s.tensor_words_per_rank, 0u);
  EXPECT_EQ(s.vector_words_per_rank, n / 30);
}

TEST(Planner, EndToEndRunMatchesReference) {
  const std::size_t n = 120;
  Rng rng(1);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  for (const std::size_t budget : {10u, 14u, 30u, 40u}) {
    const auto plan = plan_for(budget, n);
    auto machine = plan->make_machine();
    const auto y = run(*plan, machine, a, x);
    const auto y_ref = core::sttsv_packed(a, x);
    ASSERT_EQ(y.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[i], y_ref[i], 1e-9)
          << "budget=" << budget << " i=" << i;
    }
    EXPECT_LE(machine.num_ranks(), budget);
  }
}

TEST(Planner, PredictionMatchesMeasurementDivisible) {
  // Divisible spherical case: measured == predicted exactly.
  const std::size_t n = 10 * 12 * 3;  // m=10, |Q_i|=12 divisible
  Rng rng(2);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  const auto plan = plan_for(30, n);
  auto machine = plan->make_machine();
  (void)run(*plan, machine, a, x);
  EXPECT_DOUBLE_EQ(static_cast<double>(machine.ledger().max_words_sent()),
                   summarize(*plan).predicted_words);
}

}  // namespace
}  // namespace sttsv::batch
