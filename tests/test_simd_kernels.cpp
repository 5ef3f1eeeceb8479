// SIMD kernel contract tests (DESIGN.md §13): the AVX2 instantiation,
// every register-block shape, and the panel kernels must produce output
// bitwise identical to the portable scalar instantiation — across block
// classes, padded tails, and aliased diagonal buffers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/block_kernels.hpp"
#include "core/kernel_autotune.hpp"
#include "core/panel_kernels.hpp"
#include "partition/blocks.hpp"
#include "simt/simd.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv {
namespace {

// ---------------------------------------------------------------------------
// CPU feature probing.
// ---------------------------------------------------------------------------

TEST(CpuFeatures, ProbeIsCachedAndConsistent) {
  const simt::CpuFeatures& f1 = simt::cpu_features();
  const simt::CpuFeatures& f2 = simt::cpu_features();
  EXPECT_EQ(&f1, &f2);  // one cached probe per process
  // avx2 without sse2 (or fma without avx) would mean a broken probe.
  if (f1.avx2) {
    EXPECT_TRUE(f1.sse2);
  }
  if (f1.fma) {
    EXPECT_TRUE(f1.avx);
  }
  const std::string s = simt::cpu_features_string();
  EXPECT_FALSE(s.empty());
  if (f1.avx2) {
    EXPECT_NE(s.find("avx2"), std::string::npos);
  }
}

TEST(CpuFeatures, PreferredIsaRespectsRuntimeSwitch) {
  const bool was_enabled = simt::simd_enabled();  // may start off via env
  simt::set_simd_enabled(false);
  EXPECT_EQ(simt::preferred_isa(), simt::KernelIsa::kScalar);
  simt::set_simd_enabled(true);
  // The AVX2 kernel objects issue no FMA (DESIGN.md §13.1): dispatch
  // follows the AVX2 bit alone, whatever the FMA bit says.
  const simt::CpuFeatures& f = simt::cpu_features();
  const simt::KernelIsa expect = simt::simd_compiled() && f.avx2
                                     ? simt::KernelIsa::kAvx2
                                     : simt::KernelIsa::kScalar;
  EXPECT_EQ(simt::preferred_isa(), expect);
  simt::set_simd_enabled(was_enabled);
}

TEST(CpuFeatures, IsaNames) {
  EXPECT_STREQ(simt::isa_name(simt::KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(simt::isa_name(simt::KernelIsa::kAvx2), "avx2");
}

// ---------------------------------------------------------------------------
// Golden bitwise tests: AVX2 vs scalar, all classes, all RJ shapes.
// ---------------------------------------------------------------------------

/// Applies one block under the given options into a fresh padded y and
/// returns (y, mults). Buffer slots alias exactly as the tiling drivers
/// alias them for diagonal blocks.
std::pair<std::vector<double>, std::uint64_t> run_block(
    const tensor::SymTensor3& a, const partition::BlockCoord& c,
    std::size_t m, std::size_t b, const std::vector<double>& x_pad,
    const core::KernelOptions& opts) {
  std::vector<double> y_pad(m * b, 0.0);
  core::BlockBuffers buf;
  buf.x[0] = x_pad.data() + c.i * b;
  buf.x[1] = x_pad.data() + c.j * b;
  buf.x[2] = x_pad.data() + c.k * b;
  buf.y[0] = y_pad.data() + c.i * b;
  buf.y[1] = y_pad.data() + c.j * b;
  buf.y[2] = y_pad.data() + c.k * b;
  const std::uint64_t mults = core::apply_block_ex(a, c, b, buf, opts);
  return {std::move(y_pad), mults};
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Bitwise, not EXPECT_DOUBLE_EQ: the contract is exact replay.
    std::uint64_t gb = 0, wb = 0;
    std::memcpy(&gb, &got[i], 8);
    std::memcpy(&wb, &want[i], 8);
    ASSERT_EQ(gb, wb) << what << " differs at element " << i << " (got "
                      << got[i] << ", want " << want[i] << ")";
  }
}

/// One representative block per class: interior, face_ij, face_jk,
/// central (diagonal blocks get aliased slots via run_block).
const partition::BlockCoord kClassBlocks[] = {
    {2, 1, 0},  // interior
    {1, 1, 0},  // face_ij
    {2, 0, 0},  // face_jk
    {1, 1, 1},  // central
};

class SimdGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimdGolden, Avx2MatchesScalarBitwise) {
  const std::size_t b = GetParam();
  const std::size_t m = 3;
  // Full tiling and a padded one (n not a multiple of b) so the masked
  // tail path of every class is exercised. b == 1 pads to n == 2.
  std::vector<std::size_t> dims = {m * b};
  if (m * b >= 2) dims.push_back(m * b - 1);
  if (b >= 3) dims.push_back(m * b - (b - 2));  // short last block
  for (const std::size_t n : dims) {
    Rng rng(7 * n + b);
    const auto a = tensor::random_symmetric(n, rng);
    std::vector<double> x_pad(m * b, 0.0);
    for (std::size_t i = 0; i < n; ++i) x_pad[i] = rng.next_in(-1.0, 1.0);

    for (const auto& c : kClassBlocks) {
      core::KernelOptions scalar_opts;
      scalar_opts.isa = simt::KernelIsa::kScalar;
      core::KernelOptions simd_opts = scalar_opts;
      simd_opts.isa = simt::KernelIsa::kAvx2;  // falls back if unsupported
      const auto [y_scalar, m_scalar] = run_block(a, c, m, b, x_pad,
                                                  scalar_opts);
      const auto [y_simd, m_simd] = run_block(a, c, m, b, x_pad, simd_opts);
      EXPECT_EQ(m_scalar, m_simd);
      expect_bitwise_equal(y_simd, y_scalar, "avx2 vs scalar");
    }
  }
}

TEST_P(SimdGolden, RegisterBlockShapeIsBitwiseInvariant) {
  const std::size_t b = GetParam();
  const std::size_t m = 3;
  const std::size_t n = m * b > 1 ? m * b - 1 : 1;  // padded tail too
  Rng rng(11 * b + 3);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<double> x_pad(m * b, 0.0);
  for (std::size_t i = 0; i < n; ++i) x_pad[i] = rng.next_in(-1.0, 1.0);

  for (const simt::KernelIsa isa :
       {simt::KernelIsa::kScalar, simt::KernelIsa::kAvx2}) {
    for (const auto& c : kClassBlocks) {
      core::KernelOptions ref_opts;
      ref_opts.isa = isa;
      ref_opts.rj_interior = 1;
      ref_opts.rj_face_ij = 1;
      const auto [y_ref, m_ref] = run_block(a, c, m, b, x_pad, ref_opts);
      for (const std::uint8_t rj : {std::uint8_t{2}, std::uint8_t{4}}) {
        core::KernelOptions opts = ref_opts;
        opts.rj_interior = rj;
        opts.rj_face_ij = rj;
        const auto [y, mults] = run_block(a, c, m, b, x_pad, opts);
        EXPECT_EQ(mults, m_ref);
        expect_bitwise_equal(y, y_ref, "register-block shape");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BlockEdges, SimdGolden,
                         ::testing::Values(1, 3, 8, 13, 16, 17));

// The default options must route every class through the same arithmetic
// as the explicit scalar request — the ISA is a speed knob, never a
// semantics knob (ROADMAP: default path stays bitwise reproducible).
TEST(SimdGolden, DefaultOptionsMatchScalarBitwise) {
  const std::size_t m = 3, b = 16, n = 46;
  Rng rng(99);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<double> x_pad(m * b, 0.0);
  for (std::size_t i = 0; i < n; ++i) x_pad[i] = rng.next_in(-1.0, 1.0);
  for (const auto& c : kClassBlocks) {
    core::KernelOptions scalar_opts = core::kernel_options();
    scalar_opts.isa = simt::KernelIsa::kScalar;
    const auto [y_scalar, m_scalar] = run_block(a, c, m, b, x_pad,
                                                scalar_opts);
    const auto [y_def, m_def] =
        run_block(a, c, m, b, x_pad, core::kernel_options());
    EXPECT_EQ(m_scalar, m_def);
    expect_bitwise_equal(y_def, y_scalar, "default options vs scalar");
  }
}

// ---------------------------------------------------------------------------
// Grouped face_jk/central rows (DESIGN.md §13.1): the kernels walk each
// gi's rows four at a time, with the rows past the last whole group one by
// one. Every b up to 24 (every b mod 4, several whole groups), full and
// padded tilings, aliased slots and both ISAs are held bitwise to the
// one-lane panel kernel, which replays the canonical order row by row.
// ---------------------------------------------------------------------------

TEST(GroupedRows, FaceJkAndCentralMatchOneLanePanelBitwise) {
  const std::size_t m = 3;
  const partition::BlockCoord blocks[] = {
      {2, 0, 0},  // face_jk
      {1, 1, 1},  // central
      {2, 2, 2},  // central, shortened when n is padded
  };
  for (std::size_t b = 1; b <= 24; ++b) {
    std::vector<std::size_t> dims = {m * b};
    if (m * b >= 2) dims.push_back(m * b - 1);
    if (b >= 3) dims.push_back(m * b - (b - 2));  // short last block
    for (const std::size_t n : dims) {
      SCOPED_TRACE("b = " + std::to_string(b) + ", n = " + std::to_string(n));
      Rng rng(13 * n + b);
      const auto a = tensor::random_symmetric(n, rng);
      std::vector<double> x_pad(m * b, 0.0);
      for (std::size_t i = 0; i < n; ++i) x_pad[i] = rng.next_in(-1.0, 1.0);
      for (const auto& c : blocks) {
        std::vector<double> y_panel(m * b, 0.0);
        core::PanelBuffers pbuf;
        pbuf.x[0] = x_pad.data() + c.i * b;
        pbuf.x[1] = x_pad.data() + c.j * b;
        pbuf.x[2] = x_pad.data() + c.k * b;
        pbuf.y[0] = y_panel.data() + c.i * b;
        pbuf.y[1] = y_panel.data() + c.j * b;
        pbuf.y[2] = y_panel.data() + c.k * b;
        const std::uint64_t panel_mults = core::apply_block_panel_isa(
            a, c, b, 1, pbuf, simt::KernelIsa::kScalar);
        for (const simt::KernelIsa isa :
             {simt::KernelIsa::kScalar, simt::KernelIsa::kAvx2}) {
          core::KernelOptions opts;
          opts.isa = isa;  // kAvx2 falls back if unsupported
          const auto [y, mults] = run_block(a, c, m, b, x_pad, opts);
          EXPECT_EQ(mults, panel_mults);
          expect_bitwise_equal(y, y_panel, "grouped rows vs one-lane panel");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Panel kernels: lane-interleaved panels vs the single-vector kernels,
// both instantiations.
// ---------------------------------------------------------------------------

TEST(PanelSimd, MatchesCoreBitwisePerLaneBothIsas) {
  const std::size_t m = 3, b = 13, n = m * b - 2;  // padded tail
  Rng rng(31);
  const auto a = tensor::random_symmetric(n, rng);
  for (const std::size_t lanes :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{8}, std::size_t{11}}) {
    std::vector<double> x_pan(m * b * lanes, 0.0);
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t v = 0; v < lanes; ++v) {
        x_pan[l * lanes + v] = rng.next_in(-1.0, 1.0);
      }
    }
    for (const auto& c : kClassBlocks) {
      for (const simt::KernelIsa isa :
           {simt::KernelIsa::kScalar, simt::KernelIsa::kAvx2}) {
        std::vector<double> y_pan(m * b * lanes, 0.0);
        core::PanelBuffers pbuf;
        pbuf.x[0] = x_pan.data() + c.i * b * lanes;
        pbuf.x[1] = x_pan.data() + c.j * b * lanes;
        pbuf.x[2] = x_pan.data() + c.k * b * lanes;
        pbuf.y[0] = y_pan.data() + c.i * b * lanes;
        pbuf.y[1] = y_pan.data() + c.j * b * lanes;
        pbuf.y[2] = y_pan.data() + c.k * b * lanes;
        const std::uint64_t pm =
            core::apply_block_panel_isa(a, c, b, lanes, pbuf, isa);

        // Per lane: deinterleave x, run the scalar single-vector kernel,
        // compare the lane's slice of the panel output bitwise.
        std::uint64_t sm = 0;
        for (std::size_t v = 0; v < lanes; ++v) {
          std::vector<double> x_pad(m * b, 0.0);
          for (std::size_t l = 0; l < m * b; ++l) {
            x_pad[l] = x_pan[l * lanes + v];
          }
          core::KernelOptions opts;
          opts.isa = simt::KernelIsa::kScalar;
          const auto [y_ref, mults] = run_block(a, c, m, b, x_pad, opts);
          sm += mults;
          std::vector<double> y_lane(m * b, 0.0);
          for (std::size_t l = 0; l < m * b; ++l) {
            y_lane[l] = y_pan[l * lanes + v];
          }
          expect_bitwise_equal(y_lane, y_ref, "panel lane vs core");
        }
        EXPECT_EQ(pm, sm);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Autotuner.
// ---------------------------------------------------------------------------

TEST(KernelAutotune, CalibratesWithoutChangingOptions) {
  const core::KernelOptions before = core::kernel_options();
  const auto cal = core::calibrate_kernel_shapes(12, 0.001);
  EXPECT_EQ(cal.b, 12u);
  EXPECT_EQ(cal.interior.size(), 3u);
  EXPECT_EQ(cal.face_ij.size(), 3u);
  for (const auto& s : cal.interior) EXPECT_GT(s.seconds, 0.0);
  const auto is_shape = [](std::uint8_t rj) {
    return rj == 1 || rj == 2 || rj == 4;
  };
  EXPECT_TRUE(is_shape(cal.rj_interior));
  EXPECT_TRUE(is_shape(cal.rj_face_ij));
  const core::KernelOptions after = core::kernel_options();
  EXPECT_EQ(before.rj_interior, after.rj_interior);
  EXPECT_EQ(before.rj_face_ij, after.rj_face_ij);
}

TEST(KernelAutotune, AutotuneInstallsWinnersAndPreservesSemantics) {
  const core::KernelOptions before = core::kernel_options();
  const auto cal = core::autotune_kernels(12);
  const core::KernelOptions tuned = core::kernel_options();
  EXPECT_EQ(tuned.rj_interior, cal.rj_interior);
  EXPECT_EQ(tuned.rj_face_ij, cal.rj_face_ij);
  EXPECT_EQ(tuned.isa, before.isa);

  // Tuned options still replay the scalar reference bitwise.
  const std::size_t m = 3, b = 12, n = m * b - 1;
  Rng rng(41);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<double> x_pad(m * b, 0.0);
  for (std::size_t i = 0; i < n; ++i) x_pad[i] = rng.next_in(-1.0, 1.0);
  for (const auto& c : kClassBlocks) {
    core::KernelOptions ref;
    ref.isa = simt::KernelIsa::kScalar;
    ref.rj_interior = 1;
    ref.rj_face_ij = 1;
    const auto [y_ref, m_ref] = run_block(a, c, m, b, x_pad, ref);
    const auto [y_tuned, m_tuned] = run_block(a, c, m, b, x_pad, tuned);
    EXPECT_EQ(m_ref, m_tuned);
    expect_bitwise_equal(y_tuned, y_ref, "tuned options");
  }
  core::set_kernel_options(before);  // leave process-wide state as found
}

}  // namespace
}  // namespace sttsv
