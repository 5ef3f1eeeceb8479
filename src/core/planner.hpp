#pragma once
// High-level entry point: given a processor budget and a problem size,
// choose an admissible Steiner family, build the partition, distribution
// and schedule once, and expose predictions plus a one-call parallel run.
// This is the API a downstream application uses without touching the
// combinatorial machinery.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/parallel_sttsv.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/machine.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::core {

struct PlanSummary {
  std::string family;          // "spherical", "boolean", or "triples"
  std::size_t q = 0;           // spherical parameter (0 otherwise)
  std::size_t processors = 0;  // exact P of the plan
  std::size_t row_blocks = 0;  // m
  std::size_t block_length = 0;  // b (from n)
  double predicted_words = 0.0;  // per-rank, both vectors (divisible est.)
  double lower_bound_words = 0.0;
  std::size_t tensor_words_per_rank = 0;  // storage bound
  std::size_t vector_words_per_rank = 0;
};

class Planner {
 public:
  /// Builds a plan for (at most) `processor_budget` ranks and problem
  /// size n. Picks the largest admissible P <= budget, preferring the
  /// spherical family (lowest replication) when several match; falls
  /// back to the trivial S(m,3,3) family if nothing else fits.
  /// Throws PreconditionError if even P = 4 (trivial m = 4) exceeds the
  /// budget.
  Planner(std::size_t processor_budget, std::size_t n);

  [[nodiscard]] const PlanSummary& summary() const { return summary_; }
  [[nodiscard]] const partition::TetraPartition& partition() const {
    return *part_;
  }
  [[nodiscard]] const partition::VectorDistribution& distribution() const {
    return *dist_;
  }

  /// A machine sized for this plan.
  [[nodiscard]] simt::Machine make_machine() const;

  /// One STTSV run; see parallel_sttsv for semantics.
  std::vector<double> run(simt::Machine& machine,
                          const tensor::SymTensor3& a,
                          const std::vector<double>& x,
                          simt::Transport transport =
                              simt::Transport::kPointToPoint) const;

 private:
  std::unique_ptr<partition::TetraPartition> part_;
  std::unique_ptr<partition::VectorDistribution> dist_;
  std::unique_ptr<const CommTable> table_;  // built once, reused per run
  PlanSummary summary_;
};

}  // namespace sttsv::core
