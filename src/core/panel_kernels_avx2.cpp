// AVX2 instantiation of the panel kernels. Compiled only when
// STTSV_ENABLE_SIMD resolves, with -mavx2 -ffp-contract=off (the
// contraction ban keeps the bitwise contract with the scalar
// instantiation — see panel_kernels_impl.hpp).

#include "core/panel_kernels_impl.hpp"

#ifndef STTSV_SIMD_TU_HAS_AVX2
#error "panel_kernels_avx2.cpp must be compiled with -mavx2"
#endif

namespace sttsv::core::panel_detail {

const PanelVTable& avx2_panel_vtable() {
  static const PanelVTable t = make_panel_vtable<simt::simd::VecAvx2>();
  return t;
}

}  // namespace sttsv::core::panel_detail
