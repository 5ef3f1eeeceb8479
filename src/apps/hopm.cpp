#include "apps/hopm.hpp"

#include <cmath>
#include <functional>

#include "apps/vec_ops.hpp"
#include "core/distributed_vector.hpp"
#include "core/parallel_sttsv.hpp"
#include "core/sttsv_seq.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace sttsv::apps {

namespace {

using SttsvFn =
    std::function<std::vector<double>(const std::vector<double>&)>;

HopmResult hopm_loop(const tensor::SymTensor3& a, const HopmOptions& opts,
                     const SttsvFn& sttsv) {
  const std::size_t n = a.dim();
  Rng rng(opts.seed);
  std::vector<double> x = rng.uniform_vector(n, -1.0, 1.0);
  normalize(x);

  HopmResult result;
  for (std::size_t it = 1; it <= opts.max_iterations; ++it) {
    std::vector<double> y = sttsv(x);
    if (opts.shift != 0.0) y = axpy(y, opts.shift, x);
    normalize(y);
    const double delta = sign_invariant_distance(x, y);
    x = std::move(y);
    result.iterations = it;
    if (delta < opts.tolerance) {
      result.converged = true;
      break;
    }
  }

  // λ = A ×₁x ×₂x ×₃x = xᵀ(A ×₂x ×₃x); residual of the Z-eigen equation.
  std::vector<double> ax = sttsv(x);
  result.eigenvalue = dot(x, ax);
  double res2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = ax[i] - result.eigenvalue * x[i];
    res2 += r * r;
  }
  result.residual = std::sqrt(res2);
  result.eigenvector = std::move(x);
  return result;
}

}  // namespace

HopmResult hopm(const tensor::SymTensor3& a, const HopmOptions& opts) {
  return hopm_loop(a, opts, [&a](const std::vector<double>& x) {
    return core::sttsv_packed(a, x);
  });
}

HopmResult hopm_parallel(simt::Machine& machine,
                         const partition::TetraPartition& part,
                         const partition::VectorDistribution& dist,
                         const tensor::SymTensor3& a,
                         const HopmOptions& opts,
                         simt::Transport transport) {
  STTSV_REQUIRE(dist.logical_n() == a.dim(),
                "distribution/tensor dimension mismatch");
  // Every iteration exchanges the same pattern: build it once per solve.
  const core::CommTable table(part, dist);
  simt::DirectExchange direct(machine);
  return hopm_loop(a, opts, [&](const std::vector<double>& x) {
    return core::parallel_sttsv(direct, table, a, x, transport).y;
  });
}

HopmResult hopm_fully_distributed(simt::Machine& machine,
                                  const partition::TetraPartition& part,
                                  const partition::VectorDistribution& dist,
                                  const tensor::SymTensor3& a,
                                  const HopmOptions& opts,
                                  simt::Transport transport) {
  using core::DistributedVector;
  STTSV_REQUIRE(dist.logical_n() == a.dim(),
                "distribution/tensor dimension mismatch");
  const std::size_t n = a.dim();
  Rng rng(opts.seed);
  // One table per solve, as in hopm_parallel. Each apply gathers x and
  // scatters y, both free by the paper's I/O model: every share stays
  // with its rank, so the run moves exactly Algorithm 5's words.
  const core::CommTable table(part, dist);
  simt::DirectExchange direct(machine);
  const auto apply = [&](const DistributedVector& v) {
    return DistributedVector::scatter(
        dist, core::parallel_sttsv(direct, table, a, v.gather(), transport).y);
  };

  // Initial iterate: the same start vector as the other drivers,
  // scattered into shares and normalized with a counted allreduce.
  std::vector<double> x0 = rng.uniform_vector(n, -1.0, 1.0);
  DistributedVector x = DistributedVector::scatter(dist, x0);
  {
    const double norm2_x = DistributedVector::dot(machine, x, x);
    x.scale(1.0 / std::sqrt(norm2_x));
  }

  HopmResult result;
  for (std::size_t it = 1; it <= opts.max_iterations; ++it) {
    DistributedVector y = apply(x);
    if (opts.shift != 0.0) y.axpy(opts.shift, x);
    const double norm2_y = DistributedVector::dot(machine, y, y);
    STTSV_CHECK(norm2_y > 0.0, "HOPM iterate collapsed to zero");
    y.scale(1.0 / std::sqrt(norm2_y));
    const auto [dm, dp] = DistributedVector::diff_norms2(machine, x, y);
    const double delta = std::sqrt(std::min(dm, dp));
    x = std::move(y);
    result.iterations = it;
    if (delta < opts.tolerance) {
      result.converged = true;
      break;
    }
  }

  // λ = xᵀ(A ×₂x ×₃x), residual ||Ax² − λx|| — all in shares.
  DistributedVector ax = apply(x);
  result.eigenvalue = DistributedVector::dot(machine, x, ax);
  DistributedVector r = ax;
  r.axpy(-result.eigenvalue, x);
  result.residual = std::sqrt(DistributedVector::dot(machine, r, r));
  result.eigenvector = x.gather();
  return result;
}

}  // namespace sttsv::apps
