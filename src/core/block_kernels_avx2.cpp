// AVX2 instantiation of the canonical block kernels. Compiled only when
// STTSV_ENABLE_SIMD resolves (see src/core/CMakeLists.txt) with
// -mavx2 -ffp-contract=off; executed only when the runtime dispatcher
// selects simt::KernelIsa::kAvx2. The TU issues no FMA: without -mfma the
// compiler cannot, and -ffp-contract=off keeps it so when a build adds
// FMA itself (STTSV_ENABLE_NATIVE) — fusing the _mm256_mul_pd /
// _mm256_add_pd pairs of the canonical order would break the bitwise
// contract with the scalar instantiation (DESIGN.md §13.1).

#include "core/block_kernels_impl.hpp"

#ifndef STTSV_SIMD_TU_HAS_AVX2
#error "block_kernels_avx2.cpp must be compiled with -mavx2"
#endif

namespace sttsv::core::detail {

const KernelVTable& avx2_kernel_vtable() {
  static const KernelVTable t = make_kernel_vtable<simt::simd::VecAvx2>();
  return t;
}

}  // namespace sttsv::core::detail
