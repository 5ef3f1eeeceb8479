// Order-d symmetric tensor and STTV tests (paper Section 8 direction):
// packed index bijection for several orders, agreement of the symmetric
// one-pass algorithm with the naive n^d reference, and operation counts.

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "core/sttv_d.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/sym_tensor.hpp"
#include "tensor/sym_tensor_d.hpp"

namespace sttsv {
namespace {

using core::OpCountD;
using tensor::SymTensorD;

TEST(Binomial, Values) {
  EXPECT_EQ(tensor::binomial(5, 0), 1u);
  EXPECT_EQ(tensor::binomial(5, 2), 10u);
  EXPECT_EQ(tensor::binomial(5, 5), 1u);
  EXPECT_EQ(tensor::binomial(3, 5), 0u);
  EXPECT_EQ(tensor::binomial(50, 3), 19600u);
}

struct OrderCase {
  std::size_t n;
  std::size_t d;
};

void PrintTo(const OrderCase& c, std::ostream* os) {
  *os << "n" << c.n << "_d" << c.d;
}

class PackedIndexBijective : public ::testing::TestWithParam<OrderCase> {};

TEST_P(PackedIndexBijective, EnumerationMatchesIndexAndInverse) {
  const auto [n, d] = GetParam();
  std::size_t counter = 0;
  std::vector<std::size_t> recovered;
  tensor::for_each_sorted_index(n, d, [&](const std::vector<std::size_t>& idx) {
    EXPECT_EQ(SymTensorD::packed_index(idx), counter);
    SymTensorD::unpack_index(counter, d, recovered);
    EXPECT_EQ(recovered, idx);
    ++counter;
  });
  EXPECT_EQ(counter, SymTensorD::packed_count(n, d));
}

INSTANTIATE_TEST_SUITE_P(Cases, PackedIndexBijective,
                         ::testing::Values(OrderCase{6, 1}, OrderCase{6, 2},
                                           OrderCase{6, 3}, OrderCase{5, 4},
                                           OrderCase{4, 5}, OrderCase{3, 6}));

TEST(SymTensorD, Order3MatchesSymTensor3Layout) {
  // The order-3 combinatorial index must equal tetra_index.
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      for (std::size_t k = 0; k <= j; ++k) {
        EXPECT_EQ(SymTensorD::packed_index({i, j, k}),
                  tensor::tetra_index(i, j, k));
      }
    }
  }
  EXPECT_EQ(SymTensorD::packed_count(9, 3), tensor::tetra_count(9));
}

TEST(SymTensorD, PermutationInvariantAccess) {
  SymTensorD a(5, 4);
  a.at({4, 1, 3, 1}) = 2.5;
  EXPECT_DOUBLE_EQ(a({1, 3, 4, 1}), 2.5);
  EXPECT_DOUBLE_EQ(a({1, 1, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(a({4, 3, 1, 1}), 2.5);
  EXPECT_THROW(static_cast<void>(a({0, 0, 0})), PreconditionError);
  EXPECT_THROW(static_cast<void>(a({5, 0, 0, 0})), PreconditionError);
}

class SttvDAgreement : public ::testing::TestWithParam<OrderCase> {};

TEST_P(SttvDAgreement, SymmetricMatchesNaive) {
  const auto [n, d] = GetParam();
  Rng rng(100 * n + d);
  SymTensorD a(n, d);
  for (std::size_t idx = 0; idx < a.packed_size(); ++idx) {
    a.data()[idx] = rng.next_in(-1.0, 1.0);
  }
  const auto x = rng.uniform_vector(n);

  OpCountD naive_ops, sym_ops;
  const auto y_ref = core::sttv_naive_d(a, x, &naive_ops);
  const auto y = core::sttv_symmetric_d(a, x, &sym_ops);
  ASSERT_EQ(y.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], y_ref[i], 1e-9) << "i=" << i;
  }

  // Naive performs exactly n^d d-ary multiplications.
  std::uint64_t nd = 1;
  for (std::size_t t = 0; t < d; ++t) nd *= n;
  EXPECT_EQ(naive_ops.dary_mults, nd);
  // Symmetric count matches the closed-form enumeration.
  EXPECT_EQ(sym_ops.dary_mults, core::symmetric_dary_mults(n, d));
}

INSTANTIATE_TEST_SUITE_P(Cases, SttvDAgreement,
                         ::testing::Values(OrderCase{4, 1}, OrderCase{6, 2},
                                           OrderCase{7, 3}, OrderCase{6, 4},
                                           OrderCase{5, 5}, OrderCase{4, 6}));

TEST(SttvD, Order3MatchesAlgorithm4Count) {
  // d = 3 must reproduce the paper's n²(n+1)/2.
  for (const std::size_t n : {2u, 5u, 10u, 16u}) {
    EXPECT_EQ(core::symmetric_dary_mults(n, 3),
              static_cast<std::uint64_t>(n) * n * (n + 1) / 2);
  }
}

TEST(SttvD, Order2IsSymmetricMatrixVector) {
  // d = 2: y = A x for symmetric A; check against a direct matvec.
  const std::size_t n = 7;
  Rng rng(9);
  SymTensorD a(n, 2);
  for (std::size_t idx = 0; idx < a.packed_size(); ++idx) {
    a.data()[idx] = rng.next_in(-1.0, 1.0);
  }
  const auto x = rng.uniform_vector(n);
  const auto y = core::sttv_symmetric_d(a, x);
  for (std::size_t i = 0; i < n; ++i) {
    double expected = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      expected += a({i, j}) * x[j];
    }
    EXPECT_NEAR(y[i], expected, 1e-11);
  }
}

TEST(SttvD, SavingsGrowWithOrder) {
  // Packed storage is ~d! smaller than dense; the symmetric op count is
  // ~d!/(d-1)!... concretely symmetric/naive -> 1/(d-1)! asymptotically.
  const std::size_t n = 20;
  for (const std::size_t d : {2u, 3u, 4u}) {
    std::uint64_t nd = 1;
    for (std::size_t t = 0; t < d; ++t) nd *= n;
    const double ratio =
        static_cast<double>(core::symmetric_dary_mults(n, d)) /
        static_cast<double>(nd);
    double bound = 1.0;
    for (std::size_t t = 2; t + 1 <= d; ++t) bound *= static_cast<double>(t);
    // ratio ≈ d / d! = 1/(d-1)!; allow slack for small n.
    EXPECT_NEAR(ratio, 1.0 / bound, 0.35 / bound);
  }
}

}  // namespace
}  // namespace sttsv
