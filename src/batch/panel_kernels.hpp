#pragma once
// The panel kernels live in core (core/panel_kernels.hpp); these aliases
// keep the batch-namespace spellings compiling.

#include "core/panel_kernels.hpp"

namespace sttsv::batch {

using core::apply_block_panel;
using core::apply_block_panel_isa;
using core::PanelBuffers;

}  // namespace sttsv::batch
