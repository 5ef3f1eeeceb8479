#include "core/sttsv_seq.hpp"

#include "support/check.hpp"

namespace sttsv::core {

namespace {

/// One row i of the packed walk with the multiplicity branches hoisted out
/// of the inner loops (the same structure as the specialized block
/// kernels): rows j < i split into a branch-free strict run k < j plus the
/// k == j tail, and the j == i row handles the i == j > k run and the
/// central element. `row0` points at the first entry of row (i, 0).
/// Returns the ternary multiplications performed: i(3i+1)/2 + 1... counted
/// exactly as Algorithm 4 does.
inline std::uint64_t packed_row_update(const double* __restrict row0,
                                       const double* __restrict x,
                                       double* __restrict y, std::size_t i) {
  const double xi = x[i];
  const double* row = row0;
  double yi_acc = 0.0;
  std::uint64_t count = 0;
  for (std::size_t j = 0; j < i; ++j) {
    const double xj = x[j];
    const double cij = 2.0 * xi * xj;
    double acc = 0.0;
    for (std::size_t k = 0; k < j; ++k) {
      const double v = row[k];
      acc += v * x[k];
      y[k] += cij * v;  // strict: y_k += 2 a x_i x_j
    }
    // k == j tail (i > j == k): y_i += a x_j², y_j += 2 a x_i x_j.
    const double vt = row[j];
    yi_acc += 2.0 * xj * acc + vt * xj * xj;
    y[j] += 2.0 * xi * acc + 2.0 * vt * xi * xj;
    row += j + 1;
    count += 3 * j + 2;
  }
  // j == i row: k < i entries are class i == j > k; k == i is central.
  const double cii = xi * xi;
  double acc = 0.0;
  for (std::size_t k = 0; k < i; ++k) {
    const double v = row[k];
    acc += v * x[k];
    y[k] += cii * v;  // y_k += a x_i x_j = a x_i²
  }
  y[i] += yi_acc + 2.0 * xi * acc + row[i] * cii;
  return count + 2 * i + 1;
}

}  // namespace

std::vector<double> sttsv_naive(const tensor::Dense3& a,
                                const std::vector<double>& x,
                                OpCount* ops) {
  const std::size_t n = a.dim();
  STTSV_REQUIRE(x.size() == n, "vector length must match tensor dimension");
  std::vector<double> y(n, 0.0);
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        acc += a(i, j, k) * x[j] * x[k];
        ++count;
      }
    }
    y[i] = acc;
  }
  if (ops != nullptr) ops->ternary_mults += count;
  return y;
}

std::vector<double> sttsv_symmetric(const tensor::SymTensor3& a,
                                    const std::vector<double>& x,
                                    OpCount* ops) {
  const std::size_t n = a.dim();
  STTSV_REQUIRE(x.size() == n, "vector length must match tensor dimension");
  std::vector<double> y(n, 0.0);
  std::uint64_t count = 0;
  // Algorithm 4: every lower-tetra entry updates all outputs it touches.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      for (std::size_t k = 0; k <= j; ++k) {
        const double v = a(i, j, k);
        if (i != j && j != k) {
          y[i] += 2.0 * v * x[j] * x[k];
          y[j] += 2.0 * v * x[i] * x[k];
          y[k] += 2.0 * v * x[i] * x[j];
          count += 3;
        } else if (i == j && j != k) {
          y[i] += 2.0 * v * x[j] * x[k];
          y[k] += v * x[i] * x[j];
          count += 2;
        } else if (i != j && j == k) {
          y[i] += v * x[j] * x[k];
          y[j] += 2.0 * v * x[i] * x[k];
          count += 2;
        } else {
          y[i] += v * x[j] * x[k];
          count += 1;
        }
      }
    }
  }
  if (ops != nullptr) ops->ternary_mults += count;
  return y;
}

std::vector<double> sttsv_packed(const tensor::SymTensor3& a,
                                 const std::vector<double>& x,
                                 OpCount* ops) {
  const std::size_t n = a.dim();
  STTSV_REQUIRE(x.size() == n, "vector length must match tensor dimension");
  std::vector<double> y(n, 0.0);
  std::uint64_t count = 0;
  const double* data = a.data();
  // Linear walk of packed storage, one row (i, *) at a time with the
  // multiplicity branches hoisted out of the inner loops; row (i, 0)
  // starts at offset i(i+1)(i+2)/6 and holds (i+1)(i+2)/2 entries.
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += packed_row_update(data + idx, x.data(), y.data(), i);
    idx += (i + 1) * (i + 2) / 2;
  }
  STTSV_CHECK(idx == a.packed_size(), "packed walk out of sync");
  if (ops != nullptr) ops->ternary_mults += count;
  return y;
}

double full_contraction(const tensor::SymTensor3& a,
                        const std::vector<double>& x) {
  const std::vector<double> y = sttsv_packed(a, x);
  double lambda = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) lambda += y[i] * x[i];
  return lambda;
}

}  // namespace sttsv::core
