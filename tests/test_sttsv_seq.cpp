// Sequential STTSV kernel tests: Algorithm 4 and the packed variant agree
// with the dense Algorithm 3 ground truth; operation counts match the
// paper's Section 3 formulas; closed-form cases.

#include <gtest/gtest.h>

#include <cmath>

#include "core/costs.hpp"
#include "core/sttsv_seq.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/dense3.hpp"
#include "tensor/generators.hpp"

namespace sttsv::core {
namespace {

constexpr double kTol = 1e-11;

class SeqAgreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SeqAgreement, SymmetricMatchesNaive) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  const auto dense = tensor::to_dense(a);

  const auto y_ref = sttsv_naive(dense, x);
  const auto y_sym = sttsv_symmetric(a, x);
  const auto y_packed = sttsv_packed(a, x);
  ASSERT_EQ(y_ref.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y_sym[i], y_ref[i], kTol) << "i=" << i;
    EXPECT_NEAR(y_packed[i], y_ref[i], kTol) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SeqAgreement,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 21, 40));

TEST(OpCounts, MatchSection3Formulas) {
  for (const std::size_t n : {1u, 2u, 5u, 9u, 16u}) {
    Rng rng(n);
    const auto a = tensor::random_symmetric(n, rng);
    const auto x = rng.uniform_vector(n);

    OpCount naive_ops;
    (void)sttsv_naive(tensor::to_dense(a), x, &naive_ops);
    EXPECT_EQ(naive_ops.ternary_mults, naive_ternary_mults(n));

    OpCount sym_ops;
    (void)sttsv_symmetric(a, x, &sym_ops);
    EXPECT_EQ(sym_ops.ternary_mults, symmetric_ternary_mults(n));

    OpCount packed_ops;
    (void)sttsv_packed(a, x, &packed_ops);
    EXPECT_EQ(packed_ops.ternary_mults, symmetric_ternary_mults(n));
  }
}

TEST(ClosedForm, SuperDiagonalTensor) {
  // a_iii = d_i, zero elsewhere: y_i = d_i x_i².
  const std::vector<double> d{2.0, -1.0, 0.5, 4.0};
  const auto a = tensor::super_diagonal(d);
  const std::vector<double> x{1.0, 2.0, 3.0, -1.0};
  const auto y = sttsv_packed(a, x);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(y[i], d[i] * x[i] * x[i], kTol);
  }
}

TEST(ClosedForm, RankOneTensor) {
  // A = v∘v∘v: y = (vᵀx)² v.
  Rng rng(77);
  const std::size_t n = 9;
  const auto v = rng.uniform_vector(n);
  const auto a = tensor::low_rank_symmetric(n, {1.0}, {v});
  const auto x = rng.uniform_vector(n);
  double vx = 0.0;
  for (std::size_t i = 0; i < n; ++i) vx += v[i] * x[i];
  const auto y = sttsv_packed(a, x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], vx * vx * v[i], 1e-10);
  }
}

TEST(ClosedForm, AllOnesTensor) {
  // a_ijk = 1: y_i = (Σ x)².
  const std::size_t n = 6;
  tensor::SymTensor3 a(n);
  for (std::size_t idx = 0; idx < a.packed_size(); ++idx) {
    a.data()[idx] = 1.0;
  }
  std::vector<double> x{1, 2, 3, 4, 5, 6};
  const double s = 21.0;
  const auto y = sttsv_packed(a, x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], s * s, kTol);
  }
}

TEST(Linearity, SttsvIsLinearInTensor) {
  Rng rng(4);
  const std::size_t n = 7;
  const auto a = tensor::random_symmetric(n, rng);
  const auto b = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  tensor::SymTensor3 sum(n);
  for (std::size_t idx = 0; idx < sum.packed_size(); ++idx) {
    sum.data()[idx] = a.packed(idx) + b.packed(idx);
  }
  const auto ya = sttsv_packed(a, x);
  const auto yb = sttsv_packed(b, x);
  const auto ys = sttsv_packed(sum, x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ys[i], ya[i] + yb[i], kTol);
  }
}

TEST(Quadratic, ScalingXScalesYQuadratically) {
  Rng rng(8);
  const std::size_t n = 6;
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  std::vector<double> x2(x);
  for (auto& v : x2) v *= 3.0;
  const auto y = sttsv_packed(a, x);
  const auto y2 = sttsv_packed(a, x2);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y2[i], 9.0 * y[i], 1e-9);
  }
}

TEST(FullContraction, MatchesExplicitTripleSum) {
  Rng rng(15);
  const std::size_t n = 5;
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  double expected = 0.0;
  const auto dense = tensor::to_dense(a);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        expected += dense(i, j, k) * x[i] * x[j] * x[k];
      }
    }
  }
  EXPECT_NEAR(full_contraction(a, x), expected, 1e-10);
}

TEST(Preconditions, VectorLengthMustMatch) {
  tensor::SymTensor3 a(4);
  EXPECT_THROW(sttsv_packed(a, std::vector<double>(3)),
               PreconditionError);
  EXPECT_THROW(sttsv_symmetric(a, std::vector<double>(5)),
               PreconditionError);
}

}  // namespace
}  // namespace sttsv::core
