#pragma once
// Batched multi-vector STTSV (DESIGN.md §9): run y_v = A ×₂ x_v ×₃ x_v
// for a panel of B vectors against one tensor in a single Algorithm-5
// pass. This is core::parallel_sttsv over B lanes, on the CommTable the
// plan built at the identity placement: all B shares travelling between
// an ordered rank pair ride in ONE lane-interleaved envelope per phase,
// so the per-rank message count is that of a single-vector run while
// words sent are exactly B × the single-vector ledger value — the
// per-vector word count stays at the paper's optimum and the per-vector
// latency term drops ~B×.

#include <vector>

#include "batch/plan.hpp"
#include "core/parallel_sttsv.hpp"
#include "simt/machine.hpp"
#include "simt/pipeline.hpp"
#include "simt/reliable_exchange.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::batch {

using core::BatchRunResult;

/// Runs the batch {x_0..x_{B-1}} (B >= 1) through one aggregated
/// Algorithm-5 pass over `plan`'s table. Lane v of the result is bitwise
/// identical to core::parallel_sttsv(machine, ..., x_v,
/// plan.key().transport). Requirements: machine.num_ranks() ==
/// plan.num_processors(), a.dim() == plan.key().n, every x_v of length n.
/// `pipeline` selects the phase schedule (see core::parallel_sttsv);
/// lanes and ledger are identical either way.
BatchRunResult parallel_sttsv_batch(
    simt::Machine& machine, const Plan& plan, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& x,
    simt::PipelineMode pipeline = simt::PipelineMode::kDoubleBuffered);

/// Same batch, communication routed through `exchanger` (DESIGN.md §10):
/// with simt::ReliableExchange the aggregated exchanges survive injected
/// wire faults bitwise, goodput stays at B × the single-vector optimum,
/// and protocol cost lands on the ledger's overhead channel. Phases are
/// labeled "x-shares" and "y-partials" in any FaultReport.
BatchRunResult parallel_sttsv_batch(
    simt::Exchanger& exchanger, const Plan& plan, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& x,
    simt::PipelineMode pipeline = simt::PipelineMode::kDoubleBuffered);

}  // namespace sttsv::batch
