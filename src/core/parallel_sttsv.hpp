#pragma once
// Parallel STTSV (paper Algorithm 5) on the simulated machine.
//
// Data distribution (Section 6.1): processor p owns the extended
// tetrahedral block A[T_p] = TB₃(R_p) ∪ N_p ∪ D_p of the tensor and the
// share x[i]^(p) of each row block i ∈ R_p. The run is the paper's three
// phases: All-to-All (or scheduled point-to-point) exchange of x shares,
// local block kernels, exchange + reduction of partial y shares.
//
// Only vector data moves; the tensor is never communicated (owner-compute).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/ledger.hpp"
#include "simt/machine.hpp"
#include "simt/pipeline.hpp"
#include "simt/reliable_exchange.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::core {

struct ParallelRunResult {
  /// Assembled output, logical length n (padding dropped).
  std::vector<double> y;
  /// Ternary multiplications per rank (Section 7.1 load balance).
  std::vector<std::uint64_t> ternary_mults;
  /// Convenience: max over ranks of words sent during this run
  /// (the quantity bounded by Theorem 5.2). Also available via the ledger.
  std::uint64_t max_words_sent = 0;
  std::uint64_t max_words_received = 0;
};

struct BatchRunResult {
  /// y[v] is the assembled output for input vector v, logical length n.
  std::vector<std::vector<double>> y;
  /// Ternary multiplications per role, summed over the lanes.
  std::vector<std::uint64_t> ternary_mults;
  /// Ledger maxima after this run (CommLedger::maxima()).
  simt::LedgerMaxima maxima;
};

/// Algorithm 5's communication pattern and local layout for one partition,
/// vector distribution and role→host placement (DESIGN.md §15.6). The
/// traffic depends only on these three, so a solver builds the table once
/// and hands it to every parallel_sttsv call of the solve; the table keeps
/// no reference to its inputs and is immutable once built.
///
/// Each role's row blocks live in one flat buffer per vector (x shares
/// gathered, y partials accumulated), b words per block in R_r order. The
/// table precomputes every copy a call makes as (src, dst, len) segments:
/// the seeding and packing of x shares out of the padded input, their
/// unpacking into the receivers' slots, the packing of partial y out of
/// the senders' slots and the reduction into the padded output — plus
/// each role's owned blocks with their slots and a host-pair route index.
/// The segments count words of one vector; a run over B lanes applies
/// each as (src·B, dst·B, len·B) to lane-interleaved buffers.
class CommTable {
 public:
  /// [src, src + len) copied (or added) to [dst, dst + len). For a link
  /// reduced from the wire, src counts from the start of its route's
  /// envelope instead of the flat y buffer.
  struct Segment {
    std::size_t src = 0;
    std::size_t dst = 0;
    std::size_t len = 0;
  };
  /// A read-only view of one route: its hosts, the per-vector words of
  /// its x and y envelopes, and its x copy list (src into the padded
  /// input, dst into the receiving roles' flat x slots).
  struct RouteView {
    std::size_t from = 0;
    std::size_t to = 0;
    std::size_t x_words = 0;
    std::size_t y_words = 0;
    std::span<const Segment> x;
  };

  /// `host_of_role` places the partition's P roles on ranks; empty means
  /// every role runs on its own rank. Throws PreconditionError if the
  /// placement does not cover every role or names a rank >= P.
  CommTable(const partition::TetraPartition& part,
            const partition::VectorDistribution& dist,
            std::span<const std::size_t> host_of_role = {});

  /// P: the partition's roles, and the ranks a machine must have.
  [[nodiscard]] std::size_t num_roles() const { return host_.size(); }
  /// Logical vector length n the table was built for.
  [[nodiscard]] std::size_t logical_n() const { return n_; }
  /// Every route, (from, to) ascending: a phase's envelope order. Routes
  /// may carry 0 words in a phase; parallel_sttsv sends no envelope for
  /// those.
  [[nodiscard]] std::vector<RouteView> routes() const;

 private:
  friend BatchRunResult parallel_sttsv(simt::Exchanger&, const CommTable&,
                                       const tensor::SymTensor3&,
                                       std::span<const std::vector<double>>,
                                       simt::Transport, simt::PipelineMode);

  static constexpr std::size_t kNoRoute = static_cast<std::size_t>(-1);

  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  template <class T>
  static std::span<const T> slice(const std::vector<T>& v, Range range) {
    return {v.data() + range.begin, range.end - range.begin};
  }
  /// One owned block and the flat-buffer slots of its row blocks
  /// coord.i, coord.j and coord.k (the same in the x and y buffers).
  struct Block {
    partition::BlockCoord coord;
    std::size_t slot[3] = {0, 0, 0};
  };
  /// One envelope per phase from host `from` to host `to`.
  struct Route {
    std::size_t from = 0;
    std::size_t to = 0;
    Range x;  // x_route_: x_pad -> receiving role's flat x slot
    Range y;  // y_route_: sending role's flat y slot -> y_pad
    std::size_t x_words = 0;
    std::size_t y_words = 0;
  };
  /// Reduction of one sending role's partials into one receiving role's
  /// share: from the flat y buffer (co-hosted roles) or from the
  /// delivered envelope of `route`.
  struct Sender {
    std::size_t route = kNoRoute;
    Range segments;  // into reduce_
  };

  std::size_t n_ = 0;
  std::size_t padded_n_ = 0;
  std::size_t b_ = 0;
  std::vector<std::size_t> host_;   // role -> rank
  std::vector<std::size_t> roles_;  // roles by (host, role)
  std::vector<Range> roles_of_;     // rank -> roles_
  std::vector<std::size_t> live_;   // ranks hosting a role, ascending
  // live_ split by position parity: the two-chunk pipeline's host groups.
  std::vector<std::size_t> live_half_[2];
  std::vector<std::size_t> half_of_host_;  // rank -> 0/1
  bool identity_ = true;                   // every role on its own rank
  std::vector<std::size_t> base_;  // role -> first flat word; P+1 entries
  std::vector<Range> seed_of_;     // role -> seed_: own + co-hosted x
  std::vector<Segment> seed_;
  std::vector<Range> blocks_of_;  // role -> blocks_
  std::vector<Block> blocks_;
  std::vector<Range> own_of_;  // role -> own_: own partial y -> y_pad
  std::vector<Segment> own_;
  // role -> senders_, sending roles ascending: the reduction order.
  std::vector<Range> senders_of_;
  std::vector<Sender> senders_;
  std::vector<Segment> reduce_;
  std::vector<Route> routes_;  // (from, to) ascending
  std::vector<Segment> x_route_;
  std::vector<Segment> y_route_;
  std::vector<std::size_t> route_index_;  // from * P + to -> route

  /// The route carrying host hf's envelope to host ht.
  [[nodiscard]] std::size_t route_between(std::size_t hf,
                                          std::size_t ht) const;
};

/// Runs y = A ×₂ x ×₃ x on `machine` using the given partition and vector
/// distribution. Requirements: machine.num_ranks() == part.num_processors(),
/// dist built over the same partition, x.size() == dist.logical_n(),
/// a.dim() == dist.logical_n().
/// `pipeline` selects the phase schedule: kDoubleBuffered (default)
/// overlaps each chunk's pack/kernels with the previous chunk's wire
/// time; kSerialized is the historical pack-all-then-exchange order.
/// Both produce bitwise-identical y and identical ledger channels
/// (DESIGN.md §12).
ParallelRunResult parallel_sttsv(
    simt::Machine& machine, const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const tensor::SymTensor3& a,
    const std::vector<double>& x, simt::Transport transport,
    simt::PipelineMode pipeline = simt::PipelineMode::kDoubleBuffered);

/// Same run, but communication goes through `exchanger` (the resilience
/// seam, DESIGN.md §10). With simt::DirectExchange this is the raw run
/// above; with simt::ReliableExchange the two vector phases survive
/// injected wire faults — y stays bitwise identical to the fault-free
/// run and the ledger's goodput channel stays at the fault-free value,
/// with retransmission/ACK cost accounted as overhead. A rank exceeding
/// the retry budget raises simt::FaultError (kFailFast) or is healed by
/// owner-compute replay (kDegrade); phases are labeled "x-shares" and
/// "y-partials" in any FaultReport.
///
/// `host_of_role` places the partition's P roles on ranks (DESIGN.md
/// §15); empty means every role runs on its own rank. A rank hosting
/// several roles runs their kernels back to back and exchanges one
/// aggregated envelope per host pair and phase; role pairs on one rank
/// are local copies and never touch the wire or the ledger. Partial y
/// is reduced in sending-role order at every placement, so y is bitwise
/// identical to the P-rank run whatever the placement. ternary_mults
/// stay per role. Ranks that host no role send and receive nothing.
ParallelRunResult parallel_sttsv(
    simt::Exchanger& exchanger, const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const tensor::SymTensor3& a,
    const std::vector<double>& x, simt::Transport transport,
    simt::PipelineMode pipeline = simt::PipelineMode::kDoubleBuffered,
    std::span<const std::size_t> host_of_role = {});

/// The same run over a prebuilt table: the overloads above build one per
/// call and forward here. Requirements: exchanger.machine().num_ranks() ==
/// table.num_roles(), x.size() == a.dim() == table.logical_n(). y and the
/// ledger are bitwise those of the per-call overloads.
ParallelRunResult parallel_sttsv(
    simt::Exchanger& exchanger, const CommTable& table,
    const tensor::SymTensor3& a, const std::vector<double>& x,
    simt::Transport transport,
    simt::PipelineMode pipeline = simt::PipelineMode::kDoubleBuffered);

/// Runs the B >= 1 vectors {x_0..x_{B-1}} through one Algorithm-5 pass
/// over `table`: the single-vector overloads are this run at B = 1. All B
/// shares between two hosts ride in one envelope per phase, lane-
/// interleaved (element g of lane v at g·B + v), so messages and rounds
/// are those of one vector while words are exactly B × its words. Lane v
/// of y is bitwise the single-vector run on x_v, under every exchanger,
/// placement and pipeline mode; ternary_mults are summed over the lanes.
/// Requirements as above, for every x_v.
BatchRunResult parallel_sttsv(
    simt::Exchanger& exchanger, const CommTable& table,
    const tensor::SymTensor3& a, std::span<const std::vector<double>> x,
    simt::Transport transport,
    simt::PipelineMode pipeline = simt::PipelineMode::kDoubleBuffered);

}  // namespace sttsv::core
