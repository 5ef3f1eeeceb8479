#pragma once
// Independent checks the benchmark applies to the outputs it times. None
// of this calls the library's kernels or drivers: the STTSV reference is
// a plain dense triple loop in long double, and the word count is derived
// from the Steiner partition's block membership alone.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "partition/tetra_partition.hpp"
#include "tensor/sym_tensor.hpp"

namespace perfbench {

/// Largest componentwise forward error of `y` against y = A ×₂ x ×₃ x,
/// as a multiple of the rigorous bound γ_{n²+2} · Σ_jk |a_ijk x_j x_k|
/// (u = 2^-53). Any summation order of the at most n² two-rounding terms
/// stays within the bound, so a value above 1 is a wrong result, not
/// rounding. The reference accumulates in long double.
inline double forward_error_ratio(const sttsv::tensor::SymTensor3& a,
                                  const std::vector<double>& x,
                                  const std::vector<double>& y) {
  const std::size_t n = a.dim();
  if (x.size() != n || y.size() != n) {
    return std::numeric_limits<double>::infinity();
  }
  const double u = std::ldexp(1.0, -53);
  const double terms = static_cast<double>(n) * static_cast<double>(n) + 2.0;
  const double gamma = terms * u / (1.0 - terms * u);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    long double exact = 0.0L;
    long double magnitude = 0.0L;
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        const long double t = static_cast<long double>(a(i, j, k)) * x[j] * x[k];
        exact += t;
        magnitude += std::fabs(t);
      }
    }
    const long double err = std::fabs(static_cast<long double>(y[i]) - exact);
    const long double bound = static_cast<long double>(gamma) * magnitude;
    if (err == 0.0L) continue;
    if (bound == 0.0L) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, static_cast<double>(err / bound));
  }
  return worst;
}

/// Words rank p sends in one single-vector Algorithm-5 run, maximized over
/// ranks. Row block i (b padded elements) is split over its w = |Q_i|
/// requirers, the first b mod w of them holding one extra element. In
/// phase 1 p sends its share of every i ∈ R_p to the w−1 other
/// requirers; in phase 3 it sends each of them that requirer's slice of
/// p's partial sum, b minus p's own share in total. Per rank:
/// Σ_{i∈R_p} (w−2)·len(i,p) + b. When w divides b this is the paper's
/// 2(n(q+1)/(q²+1) − n/P) (core::optimal_algorithm_words).
inline std::uint64_t closed_form_words_per_vector(
    const sttsv::partition::TetraPartition& part, std::size_t b) {
  std::uint64_t best = 0;
  for (std::size_t p = 0; p < part.num_processors(); ++p) {
    std::uint64_t words = 0;
    for (const std::size_t i : part.R(p)) {
      const std::vector<std::size_t>& q = part.Q(i);
      const std::size_t w = q.size();
      std::size_t pos = 0;
      while (q[pos] != p) ++pos;
      const std::size_t len = b / w + (pos < b % w ? 1 : 0);
      words += (w - 2) * len + b;
    }
    best = std::max(best, words);
  }
  return best;
}

}  // namespace perfbench
