#pragma once
// One-shot register-block calibration (DESIGN.md §13.3).
//
// The interior and face_ij kernels are template-instantiated for RJ ∈
// {1, 2, 4} fused j-rows per strict-row sweep. All shapes are bitwise
// identical by construction (the canonical order is shape-invariant), so
// picking one is purely a throughput decision: the calibrator times each
// instantiation on a synthetic block at the requested edge length and
// installs the winners into the process-wide kernel options. Exposed to
// users through `bench_kernels --tune`.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/block_kernels.hpp"

namespace sttsv::core {

struct ShapeTiming {
  std::uint8_t rj = 1;
  double seconds = 0.0;  // time per kernel invocation
};

struct CalibrationResult {
  simt::KernelIsa isa = simt::KernelIsa::kScalar;
  std::size_t b = 0;
  std::uint8_t rj_interior = 1;
  std::uint8_t rj_face_ij = 1;
  std::vector<ShapeTiming> interior;  // one entry per candidate shape
  std::vector<ShapeTiming> face_ij;
};

/// Times every register-block shape of the interior and face_ij kernels
/// on one synthetic b-edge block per class (ISA = preferred_isa()) and
/// returns the fastest shapes. Does not modify the global options.
CalibrationResult calibrate_kernel_shapes(std::size_t b = 64,
                                          double min_seconds = 0.02);

/// calibrate_kernel_shapes + set_kernel_options with the winners
/// (leaving isa untouched). Returns the calibration detail.
CalibrationResult autotune_kernels(std::size_t b = 64);

}  // namespace sttsv::core
