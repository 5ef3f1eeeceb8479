#include "core/planner.hpp"

#include <algorithm>
#include <cmath>

#include "core/costs.hpp"
#include "core/parallel_sttsv.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"

namespace sttsv::core {

namespace {

/// Estimated per-rank words for a generic partition: each rank owns
/// shares of r row blocks, receiving the rest of each block from the
/// other λ₁ - 1 owners, twice (x and y).
double predicted_words(const partition::TetraPartition& part,
                       std::size_t b) {
  const double lambda1 =
      static_cast<double>(part.system().point_replication());
  const double r = static_cast<double>(part.steiner_block_size());
  return 2.0 * r * static_cast<double>(b) * (lambda1 - 1.0) / lambda1;
}

}  // namespace

Planner::Planner(std::size_t processor_budget, std::size_t n) {
  STTSV_REQUIRE(n >= 1, "problem size must be >= 1");
  STTSV_REQUIRE(processor_budget >= 4,
                "need a budget of at least 4 processors (trivial m=4)");

  // Candidates: built-in families plus the trivial S(m,3,3) for the
  // largest m with C(m,3) <= budget. Select the candidate minimizing the
  // predicted per-rank words 2·r·b·(λ₁-1)/λ₁ (larger P is not enough: a
  // high-replication family can cost more communication than a smaller
  // spherical one). Ties prefer spherical, then larger P.
  struct Candidate {
    std::string family;
    std::size_t q = 0;      // spherical parameter
    unsigned k = 0;         // boolean parameter
    std::size_t m = 0;      // trivial parameter / row blocks
    std::size_t P = 0;
    double words = 0.0;
  };
  auto estimate = [&](std::size_t m, std::size_t r,
                      std::size_t lambda1) {
    const double b =
        std::ceil(static_cast<double>(n) / static_cast<double>(m));
    return 2.0 * static_cast<double>(r) * b *
           (static_cast<double>(lambda1) - 1.0) /
           static_cast<double>(lambda1);
  };

  std::vector<Candidate> candidates;
  for (const auto& f :
       steiner::admissible_processor_counts(processor_budget)) {
    Candidate cand;
    cand.family = f.family;
    cand.q = f.q;
    cand.k = f.k;
    cand.m = f.m;
    cand.P = f.P;
    const std::size_t lambda1 =
        (f.m - 1) * (f.m - 2) / ((f.r - 1) * (f.r - 2));
    cand.words = estimate(f.m, f.r, lambda1);
    candidates.push_back(cand);
  }
  for (std::size_t m = 4; m * (m - 1) * (m - 2) / 6 <= processor_budget;
       ++m) {
    Candidate cand;
    cand.family = "triples";
    cand.m = m;
    cand.P = m * (m - 1) * (m - 2) / 6;
    cand.words = estimate(m, 3, (m - 1) * (m - 2) / 2);
    candidates.push_back(cand);
  }
  STTSV_REQUIRE(!candidates.empty(),
                "no admissible partition fits the processor budget");

  const Candidate best = *std::min_element(
      candidates.begin(), candidates.end(),
      [](const Candidate& a, const Candidate& b) {
        if (a.words != b.words) return a.words < b.words;
        if ((a.family == "spherical") != (b.family == "spherical")) {
          return a.family == "spherical";
        }
        return a.P > b.P;
      });

  summary_.family = best.family;
  summary_.q = best.q;
  steiner::SteinerSystem sys = [&] {
    if (best.family == "spherical") return steiner::spherical_system(best.q);
    if (best.family == "boolean") {
      return steiner::boolean_quadruple_system(best.k);
    }
    return steiner::trivial_triple_system(best.m);
  }();

  part_ = std::make_unique<partition::TetraPartition>(
      partition::TetraPartition::build(std::move(sys)));
  dist_ = std::make_unique<partition::VectorDistribution>(*part_, n);
  table_ = std::make_unique<const CommTable>(*part_, *dist_);

  summary_.processors = part_->num_processors();
  summary_.row_blocks = part_->num_row_blocks();
  summary_.block_length = dist_->block_length_b();
  summary_.lower_bound_words = lower_bound_words(n, summary_.processors);
  summary_.predicted_words =
      summary_.family == "spherical"
          ? optimal_algorithm_words(n, summary_.q)
          : predicted_words(*part_, summary_.block_length);
  for (std::size_t p = 0; p < summary_.processors; ++p) {
    summary_.tensor_words_per_rank =
        std::max(summary_.tensor_words_per_rank,
                 part_->stored_entries(p, summary_.block_length));
    summary_.vector_words_per_rank = std::max(
        summary_.vector_words_per_rank, dist_->local_elements(p));
  }
}

simt::Machine Planner::make_machine() const {
  return simt::Machine(summary_.processors);
}

std::vector<double> Planner::run(simt::Machine& machine,
                                 const tensor::SymTensor3& a,
                                 const std::vector<double>& x,
                                 simt::Transport transport) const {
  simt::DirectExchange direct(machine);
  return parallel_sttsv(direct, *table_, a, x, transport).y;
}

}  // namespace sttsv::core
