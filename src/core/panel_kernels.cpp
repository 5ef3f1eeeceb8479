#include "core/panel_kernels.hpp"

#include <algorithm>

#include "core/panel_kernels_impl.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

// Portable instantiation of the panel kernels (VecScalar). Compiled with
// -ffp-contract=off — see the bitwise contract in panel_kernels_impl.hpp.

namespace sttsv::core {

namespace {

using panel_detail::PanelVTable;

const PanelVTable& scalar_vtable() {
  static const PanelVTable t =
      panel_detail::make_panel_vtable<simt::simd::VecScalar>();
  return t;
}

const PanelVTable& vtable_for(simt::KernelIsa isa) {
#ifdef STTSV_HAVE_AVX2_KERNELS
  if (isa == simt::KernelIsa::kAvx2 && simt::cpu_features().avx2) {
    return panel_detail::avx2_panel_vtable();
  }
#else
  (void)isa;
#endif
  return scalar_vtable();
}

}  // namespace

std::uint64_t apply_block_panel_isa(const tensor::SymTensor3& a,
                                    const partition::BlockCoord& c,
                                    std::size_t b, std::size_t lanes,
                                    const PanelBuffers& buf,
                                    simt::KernelIsa isa) {
  STTSV_REQUIRE(c.i >= c.j && c.j >= c.k, "block coordinate must be sorted");
  STTSV_REQUIRE(lanes >= 1, "panel needs at least one lane");
  for (int s = 0; s < 3; ++s) {
    STTSV_REQUIRE(buf.x[s] != nullptr && buf.y[s] != nullptr,
                  "panel buffers must be bound");
  }
  const std::size_t n = a.dim();
  const std::size_t i0 = c.i * b;
  const std::size_t j0 = c.j * b;
  const std::size_t k0 = c.k * b;
  if (i0 >= n) return 0;  // fully padded block
  const std::size_t i_end = std::min(i0 + b, n);
  const std::size_t j_end = std::min(j0 + b, n);
  const std::size_t k_end = std::min(k0 + b, n);

  obs::Span span("kernel.panel", obs::Category::kKernel);
  const PanelVTable& vt = vtable_for(isa);
  constexpr std::size_t kW = simt::simd::kLanes;

  // Walk the panel in vector-width lane chunks; the last chunk may be a
  // masked partial one. Chunks are independent (lane arithmetic never
  // crosses lanes), so the order is irrelevant to the bitwise contract.
  const auto for_chunks = [&](const auto& full, const auto& part) {
    std::size_t v0 = 0;
    for (; v0 + kW <= lanes; v0 += kW) full(v0);
    if (v0 < lanes) part(v0, lanes - v0);
  };

  std::uint64_t mults = 0;
  if (c.i > c.j && c.j > c.k) {
    const auto run = [&](auto fn, std::size_t v0, std::size_t m) {
      fn(a.data(), i0, i_end, j0, j_end, k0, k_end, buf.x[0] + v0,
         buf.x[1] + v0, buf.x[2] + v0, buf.y[0] + v0, buf.y[1] + v0,
         buf.y[2] + v0, lanes, m);
    };
    for_chunks([&](std::size_t v0) { run(vt.interior_full, v0, kW); },
               [&](std::size_t v0, std::size_t m) {
                 run(vt.interior_part, v0, m);
               });
    mults = 3 * static_cast<std::uint64_t>(i_end - i0) * (j_end - j0) *
            (k_end - k0) * lanes;
  } else if (c.i == c.j && c.j > c.k) {
    // Slots 0 and 1 view the same row block (aliased by contract).
    const auto run = [&](auto fn, std::size_t v0, std::size_t m) {
      fn(a.data(), i0, i_end, k0, k_end, buf.x[0] + v0, buf.x[2] + v0,
         buf.y[0] + v0, buf.y[2] + v0, lanes, m);
    };
    for_chunks([&](std::size_t v0) { run(vt.face_ij_full, v0, kW); },
               [&](std::size_t v0, std::size_t m) {
                 run(vt.face_ij_part, v0, m);
               });
    const std::uint64_t ni = i_end - i0;
    mults = (k_end - k0) * (3 * (ni * (ni - 1) / 2) + 2 * ni) * lanes;
  } else if (c.i > c.j && c.j == c.k) {
    // Slots 1 and 2 view the same row block (aliased by contract).
    const auto run = [&](auto fn, std::size_t v0, std::size_t m) {
      fn(a.data(), i0, i_end, j0, j_end, buf.x[0] + v0, buf.x[1] + v0,
         buf.y[0] + v0, buf.y[1] + v0, lanes, m);
    };
    for_chunks([&](std::size_t v0) { run(vt.face_jk_full, v0, kW); },
               [&](std::size_t v0, std::size_t m) {
                 run(vt.face_jk_part, v0, m);
               });
    const std::uint64_t ni = i_end - i0;
    const std::uint64_t nj = j_end - j0;
    mults = ni * (3 * (nj * (nj - 1) / 2) + 2 * nj) * lanes;
  } else {
    // Central diagonal block: all three slots alias one panel pair.
    const auto run = [&](auto fn, std::size_t v0, std::size_t m) {
      fn(a.data(), i0, i_end, buf.x[0] + v0, buf.y[0] + v0, lanes, m);
    };
    for_chunks([&](std::size_t v0) { run(vt.central_full, v0, kW); },
               [&](std::size_t v0, std::size_t m) {
                 run(vt.central_part, v0, m);
               });
    // 3·C(e,3) strict + 2·2·C(e,2) face + e central elements per lane.
    const std::uint64_t e = i_end - i0;
    mults = (e * (e - 1) * (e - 2) / 2 + 2 * e * (e - 1) + e) * lanes;
  }
  span.set_arg(mults);
  return mults;
}

std::uint64_t apply_block_panel(const tensor::SymTensor3& a,
                                const partition::BlockCoord& c,
                                std::size_t b, std::size_t lanes,
                                const PanelBuffers& buf) {
  if (lanes == 1) return apply_block(a, c, b, buf);
  return apply_block_panel_isa(a, c, b, lanes, buf, simt::preferred_isa());
}

}  // namespace sttsv::core
