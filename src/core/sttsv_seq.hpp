#pragma once
// Sequential STTSV kernels.
//
//  * sttsv_naive        — paper Algorithm 3: all n³ ternary multiplications
//                         over the dense tensor (ground truth + baseline).
//  * sttsv_symmetric    — paper Algorithm 4: walks the lower tetrahedron
//                         once, performing every update an entry implies;
//                         n²(n+1)/2 ternary multiplications.
//  * sttsv_packed       — same math as Algorithm 4 but iterating packed
//                         storage linearly (cache-friendlier ablation).
//
// All return y = A ×₂ x ×₃ x.

#include <cstdint>
#include <vector>

#include "tensor/dense3.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::core {

/// Counters filled by the kernels when a non-null pointer is passed.
struct OpCount {
  std::uint64_t ternary_mults = 0;
};

std::vector<double> sttsv_naive(const tensor::Dense3& a,
                                const std::vector<double>& x,
                                OpCount* ops = nullptr);

std::vector<double> sttsv_symmetric(const tensor::SymTensor3& a,
                                    const std::vector<double>& x,
                                    OpCount* ops = nullptr);

std::vector<double> sttsv_packed(const tensor::SymTensor3& a,
                                 const std::vector<double>& x,
                                 OpCount* ops = nullptr);

/// Full contraction λ = A ×₁ x ×₂ x ×₃ x (line 8 of Algorithm 1),
/// computed symmetry-aware in one pass.
double full_contraction(const tensor::SymTensor3& a,
                        const std::vector<double>& x);

}  // namespace sttsv::core
