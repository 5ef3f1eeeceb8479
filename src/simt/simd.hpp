#pragma once
// Portable SIMD layer for the local kernels (DESIGN.md §13).
//
// Two pieces live here:
//
//  1. Runtime CPU-feature detection and kernel-ISA selection. The build
//     may compile AVX2 kernel translation units (STTSV_ENABLE_SIMD,
//     defines STTSV_HAVE_AVX2_KERNELS); whether they are *used* is decided
//     at runtime from a cached CPUID probe plus an explicit kill switch
//     (set_simd_enabled / environment variable STTSV_SIMD=off). Scalar
//     fallback kernels are always built, so a binary compiled with SIMD
//     on still runs correctly on a machine without AVX2.
//
//  2. A 4-lane double vector abstraction. The kernel bodies are written
//     once as templates over a vector type V and instantiated twice:
//     VecScalar (plain double[4], compiles everywhere) in the portable
//     translation unit, and VecAvx2 (__m256d) in a TU compiled with
//     -mavx2. Both types implement each operation with the same
//     IEEE arithmetic per lane and the same combination order, so the two
//     instantiations produce bitwise-identical results — the repo's
//     bitwise-`y` invariant holds whichever path the dispatcher picks.
//
// Both kernel TUs are compiled with -ffp-contract=off so the compiler
// cannot fuse the mul/add pairs below behind our back and silently break
// the bitwise contract.

#include <cstddef>
#include <cstdint>
#include <string>

#if defined(__AVX2__) && (defined(__x86_64__) || defined(_M_X64))
#include <immintrin.h>
#define STTSV_SIMD_TU_HAS_AVX2 1
#endif

namespace sttsv::simt {

/// Cached CPUID probe (satellite: self-describing BENCH artifacts print
/// these). All fields false on non-x86 hosts or unknown compilers.
struct CpuFeatures {
  bool sse2 = false;
  bool avx = false;
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
};

/// Returns the host CPU features; the probe runs once and is cached.
const CpuFeatures& cpu_features();

/// Space-separated feature list, e.g. "sse2 avx avx2 fma" ("none" if the
/// probe found nothing).
std::string cpu_features_string();

/// Which kernel implementation the dispatcher runs.
enum class KernelIsa : std::uint8_t { kScalar = 0, kAvx2 = 1 };

const char* isa_name(KernelIsa isa);

/// True when the AVX2 kernel translation units were compiled into
/// this binary (STTSV_ENABLE_SIMD build option).
bool simd_compiled();

/// Runtime kill switch. Starts from the environment: STTSV_SIMD=off|0|
/// scalar forces the scalar fallback (CI uses this to exercise it on
/// AVX2 hosts). Thread-safe.
void set_simd_enabled(bool enabled);
bool simd_enabled();

/// The ISA the kernel dispatchers use by default: kAvx2 iff the AVX2
/// kernels are compiled in, the CPU reports AVX2, and the
/// runtime switch is on; kScalar otherwise.
KernelIsa preferred_isa();

namespace simd {

/// Number of lanes in the kernel vector type — also the number of
/// partial accumulators in the canonical reduction order (DESIGN.md
/// §13.1), so it is fixed at 4 for every instantiation.
inline constexpr std::size_t kLanes = 4;

/// Portable 4-lane vector: the scalar fallback instantiation. Each
/// operation performs exactly one IEEE arithmetic op per lane, mirroring
/// the AVX2 instructions lane-for-lane.
struct VecScalar {
  double v[kLanes];

  static VecScalar zero() { return {{0.0, 0.0, 0.0, 0.0}}; }
  static VecScalar broadcast(double s) { return {{s, s, s, s}}; }
  static VecScalar load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
  /// First m lanes from p, remaining lanes zero. Never reads p[m..].
  static VecScalar load_partial(const double* p, std::size_t m) {
    VecScalar r = zero();
    for (std::size_t t = 0; t < m; ++t) r.v[t] = p[t];
    return r;
  }
  void store(double* p) const {
    for (std::size_t t = 0; t < kLanes; ++t) p[t] = v[t];
  }
  /// Stores the first m lanes only.
  void store_partial(double* p, std::size_t m) const {
    for (std::size_t t = 0; t < m; ++t) p[t] = v[t];
  }
  friend VecScalar operator+(VecScalar a, VecScalar b) {
    return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
             a.v[3] + b.v[3]}};
  }
  friend VecScalar operator-(VecScalar a, VecScalar b) {
    return {{a.v[0] - b.v[0], a.v[1] - b.v[1], a.v[2] - b.v[2],
             a.v[3] - b.v[3]}};
  }
  friend VecScalar operator*(VecScalar a, VecScalar b) {
    return {{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2],
             a.v[3] * b.v[3]}};
  }
  /// Canonical horizontal sum: (v0 + v1) + (v2 + v3). Every
  /// instantiation must combine in exactly this order.
  double reduce() const { return (v[0] + v[1]) + (v[2] + v[3]); }
};

#ifdef STTSV_SIMD_TU_HAS_AVX2

/// AVX2 instantiation: one ymm register. Compiled only in TUs built with
/// -mavx2; executed only when preferred_isa() == kAvx2.
struct VecAvx2 {
  __m256d v;

  static VecAvx2 zero() { return {_mm256_setzero_pd()}; }
  static VecAvx2 broadcast(double s) { return {_mm256_set1_pd(s)}; }
  static VecAvx2 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static __m256i partial_mask(std::size_t m) {
    // Lane t is active iff t < m; maskload/maskstore never touch memory
    // of inactive lanes, which is what makes padded tails safe.
    alignas(32) static const std::int64_t table[8] = {-1, -1, -1, -1,
                                                      0,  0,  0,  0};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(table + (4 - m)));
  }
  static VecAvx2 load_partial(const double* p, std::size_t m) {
    return {_mm256_maskload_pd(p, partial_mask(m))};
  }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  void store_partial(double* p, std::size_t m) const {
    _mm256_maskstore_pd(p, partial_mask(m), v);
  }
  friend VecAvx2 operator+(VecAvx2 a, VecAvx2 b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend VecAvx2 operator-(VecAvx2 a, VecAvx2 b) {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend VecAvx2 operator*(VecAvx2 a, VecAvx2 b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  /// (v0 + v1) + (v2 + v3), bitwise identical to VecScalar::reduce.
  double reduce() const {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_hadd_pd(lo, hi);  // (v0+v1, v2+v3)
    return _mm_cvtsd_f64(
        _mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  }
};

#endif  // STTSV_SIMD_TU_HAS_AVX2

}  // namespace simd
}  // namespace sttsv::simt
