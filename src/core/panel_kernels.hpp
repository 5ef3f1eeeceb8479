#pragma once
// Panel variants of the local block kernels (DESIGN.md §9.3): apply one
// b×b×b tensor block to a *panel* of B vectors at once. Panels are
// lane-interleaved — element l of lane v lives at l*lanes + v — so the
// innermost lane loop is a contiguous SIMD-friendly run and every packed
// tensor entry is loaded once per block instead of once per vector.
//
// Contract: lane v of the output is bitwise identical to running the
// single-vector kernels (apply_block) on lane v alone. Both sides follow
// the canonical arithmetic order of DESIGN.md §13.1, so the contract
// holds across the scalar and AVX2 instantiations in any combination
// (block scalar vs. panel AVX2 and vice versa).

#include <cstddef>
#include <cstdint>

#include "core/block_kernels.hpp"
#include "partition/blocks.hpp"
#include "simt/simd.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::core {

/// Row-block-local panel views: BlockBuffers whose slots each point at a
/// b×lanes lane-interleaved panel. For diagonal blocks the caller passes
/// aliased pointers, as for apply_block.
using PanelBuffers = BlockBuffers;

/// apply_block_panel with an explicit kernel ISA and always the panel
/// kernels (tests pin this to compare instantiations; requesting kAvx2
/// on a host or build without AVX2 kernels silently falls back to
/// scalar — bitwise identical).
std::uint64_t apply_block_panel_isa(const tensor::SymTensor3& a,
                                    const partition::BlockCoord& c,
                                    std::size_t b, std::size_t lanes,
                                    const PanelBuffers& buf,
                                    simt::KernelIsa isa);

/// Accumulates the contributions of block c into the y panels for all
/// `lanes` vectors. Returns the ternary multiplication count summed over
/// lanes (lanes × the single-vector count). One lane runs apply_block
/// with the process-wide kernel options; wider panels dispatch by block
/// class like apply_block, with the ISA from simt::preferred_isa(), in
/// vector-width lane chunks with a masked partial tail.
std::uint64_t apply_block_panel(const tensor::SymTensor3& a,
                                const partition::BlockCoord& c,
                                std::size_t b, std::size_t lanes,
                                const PanelBuffers& buf);

}  // namespace sttsv::core
