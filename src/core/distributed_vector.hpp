#pragma once
// Vectors that LIVE in Algorithm 5's distribution: rank p holds the
// share(i, p) slice of each row block i ∈ R_p. Iterative solvers (HOPM)
// keep their iterates in shares; the scalar reductions they need cost
// O(log P) words through the machine. An STTSV on a DistributedVector
// gathers it, runs core::parallel_sttsv over a prebuilt CommTable and
// scatters y: gather and scatter are free by the paper's I/O model, since
// every share stays with its rank.

#include <span>
#include <utility>
#include <vector>

#include "partition/vector_distribution.hpp"
#include "simt/machine.hpp"

namespace sttsv::core {

class DistributedVector {
 public:
  /// Zero vector in the given distribution (kept by pointer: the
  /// distribution must outlive the vector).
  explicit DistributedVector(const partition::VectorDistribution& dist);

  /// Splits a global vector of length dist.logical_n() into shares.
  /// This models the paper's initial data placement; no communication
  /// is charged.
  static DistributedVector scatter(const partition::VectorDistribution& dist,
                                   const std::vector<double>& global);

  /// Reassembles the global vector (logical length, padding dropped).
  /// Models final output collection; no communication charged.
  [[nodiscard]] std::vector<double> gather() const;

  [[nodiscard]] const partition::VectorDistribution& distribution() const {
    return *dist_;
  }

  /// Rank p's share of row block i (i must be in R_p); length equals
  /// dist.share(i, p).length.
  [[nodiscard]] std::span<const double> share(std::size_t rank,
                                              std::size_t row_block) const;
  std::span<double> share(std::size_t rank, std::size_t row_block);

  // --- distributed BLAS-1 (local arithmetic; reductions go through the
  // machine so their words are counted) --------------------------------

  /// Global dot product: local partial dots + allreduce (O(log P) words
  /// per rank).
  static double dot(simt::Machine& machine, const DistributedVector& a,
                    const DistributedVector& b);

  /// Global squared distances min(||a-b||², ||a+b||²) computed with one
  /// fused allreduce of two partials (for sign-invariant convergence
  /// tests).
  static std::pair<double, double> diff_norms2(simt::Machine& machine,
                                               const DistributedVector& a,
                                               const DistributedVector& b);

  /// x <- s·x, locally on every rank.
  void scale(double s);

  /// x <- x + alpha·other (same distribution required).
  void axpy(double alpha, const DistributedVector& other);

 private:
  /// Index into start_ of rank's share of row_block (which must be in R_p).
  [[nodiscard]] std::size_t slot(std::size_t rank,
                                 std::size_t row_block) const;
  /// Rank p's shares, back to back.
  [[nodiscard]] std::span<const double> local(std::size_t rank) const;

  const partition::VectorDistribution* dist_;
  // One buffer for every rank: rank p's shares of its R_p blocks sit back
  // to back in R_p order, ranks ascending. start_[first_[p] + t] is the
  // offset of p's t-th share; both arrays end with a sentinel.
  std::vector<double> data_;
  std::vector<std::size_t> first_;  // rank -> index into start_
  std::vector<std::size_t> start_;
};

}  // namespace sttsv::core
