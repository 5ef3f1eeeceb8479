#pragma once
// Templated bodies of the lane-blocked panel kernels (DESIGN.md §9, §13).
//
// Panels are lane-interleaved — element l of lane v lives at l*stride+v —
// so a chunk of simd::kLanes panel lanes is one contiguous vector load.
// Each kernel is a template over the 4-lane vector type V and a Full flag
// (Full = a whole lane chunk; !Full = a masked partial chunk of m < 4
// lanes), instantiated in panel_kernels.cpp (VecScalar, always built) and
// panel_kernels_avx2.cpp (VecAvx2, -mavx2). Both TUs are compiled
// with -ffp-contract=off.
//
// Bitwise contract: lane v of the output equals running the single-vector
// core kernels on lane v alone, bit for bit. The core kernels follow the
// canonical arithmetic order of DESIGN.md §13.1 (4 k-partial sums over
// full 4-chunks combined as (p0+p1)+(p2+p3), sequential leftovers, one
// rounded mul+add per elementwise update); the panel kernels replay that
// exact per-lane scalar sequence with the k-partials held as 4 lane
// vectors — vector lane = panel lane, partial index = k position mod 4.

#include <cstddef>
#include <cstdint>

#include "simt/simd.hpp"

#ifndef STTSV_RESTRICT
#define STTSV_RESTRICT __restrict__
#endif

namespace sttsv::core::panel_detail {

/// Packed offset of the row (gi, gj, *): data[row + gk] is a_{gi,gj,gk}.
inline std::size_t packed_row_base(std::size_t gi, std::size_t gj) {
  return gi * (gi + 1) * (gi + 2) / 6 + gj * (gj + 1) / 2;
}

template <class V, bool Full>
inline V lane_load(const double* p, std::size_t m) {
  if constexpr (Full) {
    (void)m;
    return V::load(p);
  } else {
    return V::load_partial(p, m);
  }
}

template <class V, bool Full>
inline void lane_store(double* p, std::size_t m, V v) {
  if constexpr (Full) {
    (void)m;
    v.store(p);
  } else {
    v.store_partial(p, m);
  }
}

/// One strict row over a k-run of length kb for one lane chunk: returns
/// the per-lane dot product Σ_lk row[lk]·xk[lk] in the canonical partial
/// order and applies yk[lk] += cy·row[lk] elementwise. Per lane this is
/// exactly core::detail::strict_rows with RJ = 1.
template <class V, bool Full>
inline V panel_strict_row(const double* STTSV_RESTRICT row, std::size_t kb,
                          V cy, const double* STTSV_RESTRICT xk,
                          double* STTSV_RESTRICT yk, std::size_t stride,
                          std::size_t m) {
  V acc[simt::simd::kLanes];
  for (auto& a : acc) a = V::zero();
  std::size_t lk = 0;
  for (; lk + simt::simd::kLanes <= kb; lk += simt::simd::kLanes) {
    for (std::size_t p = 0; p < simt::simd::kLanes; ++p) {
      const V vv = V::broadcast(row[lk + p]);
      const double* xp = xk + (lk + p) * stride;
      double* yp = yk + (lk + p) * stride;
      acc[p] = acc[p] + vv * lane_load<V, Full>(xp, m);
      lane_store<V, Full>(yp, m, lane_load<V, Full>(yp, m) + cy * vv);
    }
  }
  // Canonical combine, then sequential leftovers (cf. VecScalar::reduce).
  V accv = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (; lk < kb; ++lk) {
    const V vv = V::broadcast(row[lk]);
    const double* xp = xk + lk * stride;
    double* yp = yk + lk * stride;
    accv = accv + vv * lane_load<V, Full>(xp, m);
    lane_store<V, Full>(yp, m, lane_load<V, Full>(yp, m) + cy * vv);
  }
  return accv;
}

/// One face_jk/central row: strict run of lj elements plus the gk == gj
/// tail element at row[lj]; mirrors core::detail::face_jk_row.
template <class V, bool Full>
inline void panel_face_jk_row(const double* STTSV_RESTRICT row,
                              std::size_t lj, V xiv, V xjv,
                              const double* STTSV_RESTRICT xjk,
                              double* STTSV_RESTRICT yjk, V& yi_row,
                              std::size_t stride, std::size_t m) {
  const V two = V::broadcast(2.0);
  const V cy = (two * xiv) * xjv;
  const V acc = panel_strict_row<V, Full>(row, lj, cy, xjk, yjk, stride, m);
  const V vt = V::broadcast(row[lj]);
  yi_row = yi_row + ((two * xjv) * acc + (vt * xjv) * xjv);
  double* yp = yjk + lj * stride;
  lane_store<V, Full>(
      yp, m,
      lane_load<V, Full>(yp, m) +
          ((two * xiv) * acc + ((two * vt) * xiv) * xjv));
}

template <class V, bool Full>
void interior_panel(const double* STTSV_RESTRICT data, std::size_t i0,
                    std::size_t i_end, std::size_t j0, std::size_t j_end,
                    std::size_t k0, std::size_t k_end,
                    const double* STTSV_RESTRICT xi,
                    const double* STTSV_RESTRICT xj,
                    const double* STTSV_RESTRICT xk,
                    double* STTSV_RESTRICT yi, double* STTSV_RESTRICT yj,
                    double* STTSV_RESTRICT yk, std::size_t stride,
                    std::size_t m) {
  const std::size_t kb = k_end - k0;
  const V two = V::broadcast(2.0);
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const V xiv = lane_load<V, Full>(xi + li * stride, m);
    V yi_row = V::zero();
    for (std::size_t gj = j0; gj < j_end; ++gj) {
      const std::size_t lj = gj - j0;
      const V xjv = lane_load<V, Full>(xj + lj * stride, m);
      const double* row = data + packed_row_base(gi, gj) + k0;
      const V cy = (two * xiv) * xjv;
      const V acc = panel_strict_row<V, Full>(row, kb, cy, xk, yk, stride, m);
      yi_row = yi_row + xjv * acc;
      double* yp = yj + lj * stride;
      lane_store<V, Full>(yp, m,
                          lane_load<V, Full>(yp, m) + (two * xiv) * acc);
    }
    double* yp = yi + li * stride;
    lane_store<V, Full>(yp, m, lane_load<V, Full>(yp, m) + two * yi_row);
  }
}

template <class V, bool Full>
void face_ij_panel(const double* STTSV_RESTRICT data, std::size_t i0,
                   std::size_t i_end, std::size_t k0, std::size_t k_end,
                   const double* STTSV_RESTRICT xij,
                   const double* STTSV_RESTRICT xk,
                   double* STTSV_RESTRICT yij, double* STTSV_RESTRICT yk,
                   std::size_t stride, std::size_t m) {
  const std::size_t kb = k_end - k0;
  const V two = V::broadcast(2.0);
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const V xiv = lane_load<V, Full>(xij + li * stride, m);
    V yi_row = V::zero();
    for (std::size_t gj = i0; gj < gi; ++gj) {
      const std::size_t lj = gj - i0;
      const V xjv = lane_load<V, Full>(xij + lj * stride, m);
      const double* row = data + packed_row_base(gi, gj) + k0;
      const V cy = (two * xiv) * xjv;
      const V acc = panel_strict_row<V, Full>(row, kb, cy, xk, yk, stride, m);
      yi_row = yi_row + xjv * acc;
      double* yp = yij + lj * stride;
      lane_store<V, Full>(yp, m,
                          lane_load<V, Full>(yp, m) + (two * xiv) * acc);
    }
    // gj == gi diagonal row, hoisted exactly as in the single kernel.
    const double* row = data + packed_row_base(gi, gi) + k0;
    const V cy = xiv * xiv;
    const V acc = panel_strict_row<V, Full>(row, kb, cy, xk, yk, stride, m);
    double* yp = yij + li * stride;
    lane_store<V, Full>(yp, m,
                        lane_load<V, Full>(yp, m) + two * (yi_row + xiv * acc));
  }
}

template <class V, bool Full>
void face_jk_panel(const double* STTSV_RESTRICT data, std::size_t i0,
                   std::size_t i_end, std::size_t j0, std::size_t j_end,
                   const double* STTSV_RESTRICT xi,
                   const double* STTSV_RESTRICT xjk,
                   double* STTSV_RESTRICT yi, double* STTSV_RESTRICT yjk,
                   std::size_t stride, std::size_t m) {
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    const V xiv = lane_load<V, Full>(xi + li * stride, m);
    V yi_row = V::zero();
    for (std::size_t gj = j0; gj < j_end; ++gj) {
      const std::size_t lj = gj - j0;
      panel_face_jk_row<V, Full>(data + gi_base + gj * (gj + 1) / 2 + j0, lj,
                                 xiv, lane_load<V, Full>(xjk + lj * stride, m),
                                 xjk, yjk, yi_row, stride, m);
    }
    double* yp = yi + li * stride;
    lane_store<V, Full>(yp, m, lane_load<V, Full>(yp, m) + yi_row);
  }
}

/// Central diagonal block: all three slots alias one x/y panel pair.
/// Mirrors core::detail::central_kernel (face_jk rows below the diagonal
/// row plus the central element) — replacing the seed's element-wise
/// generic panel walk so central lanes stay bitwise-tied to the core.
template <class V, bool Full>
void central_panel(const double* STTSV_RESTRICT data, std::size_t i0,
                   std::size_t i_end, const double* STTSV_RESTRICT x,
                   double* STTSV_RESTRICT y, std::size_t stride,
                   std::size_t m) {
  const V two = V::broadcast(2.0);
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    const V xiv = lane_load<V, Full>(x + li * stride, m);
    V yi_row = V::zero();
    for (std::size_t gj = i0; gj < gi; ++gj) {
      const std::size_t lj = gj - i0;
      panel_face_jk_row<V, Full>(data + gi_base + gj * (gj + 1) / 2 + i0, lj,
                                 xiv, lane_load<V, Full>(x + lj * stride, m),
                                 x, y, yi_row, stride, m);
    }
    const double* row = data + gi_base + gi * (gi + 1) / 2 + i0;
    const V cy = xiv * xiv;
    const V acc = panel_strict_row<V, Full>(row, li, cy, x, y, stride, m);
    const V vt = V::broadcast(row[li]);
    double* yp = y + li * stride;
    lane_store<V, Full>(
        yp, m,
        lane_load<V, Full>(yp, m) +
            ((yi_row + (two * xiv) * acc) + (vt * xiv) * xiv));
  }
}

/// Function-pointer table of one ISA instantiation; one full-chunk and
/// one masked partial-chunk entry point per block class.
struct PanelVTable {
  using InteriorFn = void (*)(const double*, std::size_t, std::size_t,
                              std::size_t, std::size_t, std::size_t,
                              std::size_t, const double*, const double*,
                              const double*, double*, double*, double*,
                              std::size_t, std::size_t);
  using FaceIjFn = void (*)(const double*, std::size_t, std::size_t,
                            std::size_t, std::size_t, const double*,
                            const double*, double*, double*, std::size_t,
                            std::size_t);
  using FaceJkFn = void (*)(const double*, std::size_t, std::size_t,
                            std::size_t, std::size_t, const double*,
                            const double*, double*, double*, std::size_t,
                            std::size_t);
  using CentralFn = void (*)(const double*, std::size_t, std::size_t,
                             const double*, double*, std::size_t,
                             std::size_t);
  InteriorFn interior_full, interior_part;
  FaceIjFn face_ij_full, face_ij_part;
  FaceJkFn face_jk_full, face_jk_part;
  CentralFn central_full, central_part;
};

template <class V>
PanelVTable make_panel_vtable() {
  PanelVTable t;
  t.interior_full = &interior_panel<V, true>;
  t.interior_part = &interior_panel<V, false>;
  t.face_ij_full = &face_ij_panel<V, true>;
  t.face_ij_part = &face_ij_panel<V, false>;
  t.face_jk_full = &face_jk_panel<V, true>;
  t.face_jk_part = &face_jk_panel<V, false>;
  t.central_full = &central_panel<V, true>;
  t.central_part = &central_panel<V, false>;
  return t;
}

/// Defined in panel_kernels_avx2.cpp when STTSV_HAVE_AVX2_KERNELS.
const PanelVTable& avx2_panel_vtable();

}  // namespace sttsv::core::panel_detail
