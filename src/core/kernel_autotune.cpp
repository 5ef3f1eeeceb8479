#include "core/kernel_autotune.hpp"

#include <chrono>
#include <cstring>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Time-per-invocation of apply_block_ex on (a, c, b, buf) under `opts`,
/// measured over enough repetitions to fill min_seconds.
double time_block(const tensor::SymTensor3& a, const partition::BlockCoord& c,
                  std::size_t b, const BlockBuffers& buf,
                  const KernelOptions& opts, double min_seconds) {
  // Warm caches and pull lazy pages in before timing.
  apply_block_ex(a, c, b, buf, opts);
  std::size_t reps = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) apply_block_ex(a, c, b, buf, opts);
    const double dt = seconds_since(t0);
    if (dt >= min_seconds) return dt / static_cast<double>(reps);
    const double scale = min_seconds / (dt > 1e-9 ? dt : 1e-9);
    reps = static_cast<std::size_t>(static_cast<double>(reps) *
                                    (scale < 8.0 ? 2.0 * scale : 8.0)) +
           1;
  }
}

}  // namespace

CalibrationResult calibrate_kernel_shapes(std::size_t b, double min_seconds) {
  STTSV_REQUIRE(b >= 1, "calibration edge must be positive");
  CalibrationResult res;
  res.isa = simt::preferred_isa();
  res.b = b;

  const std::size_t n = 3 * b;
  Rng rng(0xA11C0DEULL + n);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  std::vector<double> y(n, 0.0);

  const auto buffers_for = [&](const partition::BlockCoord& c) {
    BlockBuffers buf;
    const std::size_t blocks[3] = {c.i, c.j, c.k};
    for (int s = 0; s < 3; ++s) {
      buf.x[s] = x.data() + blocks[s] * b;
      buf.y[s] = y.data() + blocks[s] * b;
    }
    return buf;
  };

  KernelOptions opts = kernel_options();
  opts.isa = res.isa;

  constexpr std::uint8_t kShapes[] = {1, 2, 4};

  const auto sweep = [&](const partition::BlockCoord& c, std::uint8_t* knob,
                         std::vector<ShapeTiming>& out) {
    const BlockBuffers buf = buffers_for(c);
    std::uint8_t winner = kShapes[0];
    double best = 0.0;
    for (const std::uint8_t rj : kShapes) {
      *knob = rj;
      const double s = time_block(a, c, b, buf, opts, min_seconds);
      out.push_back({rj, s});
      if (out.size() == 1 || s < best) {
        best = s;
        winner = rj;
      }
    }
    *knob = winner;
    return winner;
  };

  res.rj_interior = sweep({2, 1, 0}, &opts.rj_interior, res.interior);
  res.rj_face_ij = sweep({1, 1, 0}, &opts.rj_face_ij, res.face_ij);
  return res;
}

CalibrationResult autotune_kernels(std::size_t b) {
  const CalibrationResult res = calibrate_kernel_shapes(b);
  KernelOptions opts = kernel_options();
  opts.rj_interior = res.rj_interior;
  opts.rj_face_ij = res.rj_face_ij;
  set_kernel_options(opts);
  return res;
}

}  // namespace sttsv::core
