#pragma once
// A simulated distributed-memory machine in the α-β-γ (MPI) model of the
// paper's Section 3.1: P ranks with private memories, a fully connected
// network, at most one message sent and one received per rank per step.
//
// Substitution note (see DESIGN.md §2): there is no MPI runtime in this
// environment. Algorithms execute in BSP-style supersteps — local compute
// phases loop over ranks, communication phases are machine-wide exchanges.
// The semantics (who knows what, when) are identical to the per-rank MPI
// program, and the ledger counts exactly the words the α-β-γ model counts.
//
// Payloads live in PooledBuffers drawn from the machine's per-rank
// BufferPool (DESIGN.md §12): mailbox traffic moves slabs, never copies,
// and a steady-state superstep performs zero heap allocations.
//
// An optional FaultInjector (DESIGN.md §10) sits on the wire: frames may
// be dropped, corrupted, duplicated, delayed by a stalled sender, or
// reordered within an inbox. The ledger charges traffic at send time, so
// its conservation invariant holds under every fault pattern; recovering
// the delivered data is the job of simt::ReliableExchange one layer up.
//
// The machine also owns membership truth (DESIGN.md §15): once a rank is
// marked dead — by the injector's crash model, synced at exchange start —
// every frame it sends or should receive is silently discarded *below*
// the injector and the fault-hiding protocols, charging nothing. Death is
// therefore indistinguishable from permanent silence on the wire, which
// is exactly what the liveness detector in ReliableExchange keys on, and
// degraded-mode replays (which bypass the injector) cannot resurrect a
// dead peer. Detected losses are recorded as RankLossReports here, and
// each death bumps a membership epoch that invalidates cached plans.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "simt/buffer_pool.hpp"
#include "simt/ledger.hpp"

namespace sttsv::simt {

class FaultInjector;

/// One outgoing message: destination rank plus payload words. The first
/// `overhead_words` words are protocol framing (sequence numbers,
/// checksums, ACK entries) and are charged to the ledger's overhead
/// channel; the rest are goodput. Raw algorithm traffic leaves it 0.
/// `recovery` marks rank-loss redistribution traffic: the whole payload
/// is charged to the ledger's recovery channel instead (overhead_words
/// must be 0 — redistribution uses the raw exchange, not the protocol).
struct Envelope {
  std::size_t to = 0;
  PooledBuffer data;
  std::size_t overhead_words = 0;
  bool recovery = false;
};

/// Orders an outbox by destination, keeping each destination's envelopes
/// in insertion order: the deterministic send order of every exchanger.
/// An outbox that is already ordered (as the drivers emit them) is left
/// alone, without the sort's temporary buffer.
void order_by_destination(std::vector<Envelope>& outbox);

/// One delivered message: source rank plus payload words. Deliveries are
/// handed to the receiver sorted by sender, so execution is deterministic
/// (a fault injector may reorder them afterwards). `data` is leased from
/// the Machine's pool: a Delivery must be destroyed before its Machine
/// (see PooledBuffer).
struct Delivery {
  std::size_t from = 0;
  PooledBuffer data;
};

/// Structured verdict of the liveness detector (DESIGN.md §15): which
/// peers were declared dead, where in the run, and the evidence — how
/// many consecutive silent attempts each accumulated and how many frames
/// were still undelivered when the verdict fired. The injection-log
/// window [begin, end) points into FaultInjector::log() for replay.
struct RankLossReport {
  std::vector<std::size_t> dead_ranks;
  std::string phase;
  std::uint64_t exchange_index = 0;
  std::size_t silent_attempts = 0;
  std::size_t undelivered_frames = 0;
  std::uint64_t membership_epoch = 0;
  std::size_t injection_log_begin = 0;
  std::size_t injection_log_end = 0;
};

/// How a communication phase is realized on the wire; affects the rounds
/// and modeled-cost accounting (Section 7.2.2), not the delivered data.
enum class Transport {
  /// Direct point-to-point sends scheduled in König rounds: the number of
  /// steps charged is the max over ranks of max(#sends, #receives), which
  /// is achievable by edge coloring (paper Theorem 7.2.2 via Lemma 7.2.1).
  kPointToPoint,
  /// A bandwidth-optimal All-to-All collective: P-1 steps, each charged
  /// the maximum per-pair buffer size (paper's "All-to-All collectives"
  /// cost model at the end of Section 7.2.2).
  kAllToAll,
};

class Machine {
 public:
  explicit Machine(std::size_t num_ranks);
  // The pool's shard mutexes make the machine non-copyable; every use in
  // the tree either constructs in place or returns a prvalue (guaranteed
  // elision), so nothing is lost.
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] std::size_t num_ranks() const { return P_; }

  /// One logical machine-wide exchange delivered in parts, so a driver
  /// can put pair-block t+1 on the wire while kernels consume pair-block
  /// t (DESIGN.md §12). Ledger accounting is deferred to finish(): sends,
  /// receives, and per-pair maxima accumulate across parts and the
  /// rounds/modeled-cost/overhead-only classification are computed over
  /// their union — exactly what a single exchange() of the concatenated
  /// outboxes would charge, which is why the pipeline leaves the ledger
  /// bitwise unchanged.
  class ExchangeSession {
   public:
    ~ExchangeSession();
    ExchangeSession(const ExchangeSession&) = delete;
    ExchangeSession& operator=(const ExchangeSession&) = delete;

    /// Validates and delivers one partial outbox set. A validation
    /// failure throws PreconditionError and charges nothing for the
    /// offending part (earlier parts stay charged — they were sent).
    std::vector<std::vector<Delivery>> part(
        std::vector<std::vector<Envelope>> outboxes);

    /// Settles rounds/modeled cost over the union of all parts. Runs at
    /// most once; the destructor calls it as a backstop.
    void finish();

    [[nodiscard]] bool finished() const { return finished_; }

   private:
    friend class Machine;
    ExchangeSession(Machine& machine, Transport transport);

    Machine& machine_;
    Transport transport_;
    std::optional<obs::Span> span_;
    bool injector_started_ = false;
    bool finished_ = false;
    std::size_t parts_ = 0;
    /// Per-level König degrees (DESIGN.md §17): the intra networks of the
    /// nodes and the inter-node network schedule independently, so each
    /// level gets its own Δ. On a flat machine everything lands on
    /// kIntra and the totals match the historical single-level charge.
    std::array<std::vector<std::size_t>, kNumLevels> sends_per_rank_;
    std::array<std::vector<std::size_t>, kNumLevels> recvs_per_rank_;
    std::size_t max_pair_words_ = 0;
    std::size_t total_goodput_ = 0;
    std::size_t total_overhead_ = 0;
    std::size_t total_recovery_ = 0;
  };

  /// Opens a multi-part exchange session on this machine.
  [[nodiscard]] ExchangeSession begin_session(Transport transport);

  /// Executes one machine-wide exchange: outboxes[p] holds rank p's
  /// outgoing messages. Returns inboxes[p]. Every outbox is validated
  /// up front — destinations in range, no self-sends, overhead_words
  /// within the payload — and a PreconditionError leaves the ledger and
  /// all payloads untouched. Ledger records every word (split into
  /// goodput and overhead channels); rounds/modeled cost depend on the
  /// transport and are charged to the overhead channel when the exchange
  /// carries no goodput at all (pure protocol traffic). Equivalent to a
  /// one-part session.
  std::vector<std::vector<Delivery>> exchange(
      std::vector<std::vector<Envelope>> outboxes, Transport transport);

  /// Runs body(p) once for every rank p — the local compute half of a
  /// superstep. Rank programs are independent between exchanges (each
  /// reads/writes only rank-p state), so they may execute on host threads
  /// (simt::parallel_for); the ledger is untouched and results are bitwise
  /// identical to the sequential rank-order schedule.
  void run_ranks(const std::function<void(std::size_t)>& body) const;

  /// Same, over an explicit subset of ranks — the pipelined drivers run
  /// one half-superstep per pair-block chunk.
  void run_ranks(const std::vector<std::size_t>& ranks,
                 const std::function<void(std::size_t)>& body) const;

  [[nodiscard]] const CommLedger& ledger() const { return ledger_; }
  CommLedger& ledger() { return ledger_; }

  /// Message-slab arena, one shard per rank. Drivers acquire outgoing
  /// payload buffers from the sender's shard; buffers return there when
  /// the receiver drops them.
  [[nodiscard]] BufferPool& pool() { return pool_; }
  [[nodiscard]] const BufferPool& pool() const { return pool_; }

  /// NUMA-friendly first touch (DESIGN.md §17): writes every idle slab of
  /// each rank's pool shard from a worker thread via run_ranks, so the
  /// pages backing rank-local message buffers are faulted on the socket
  /// that will drive them — not on whichever thread happened to call
  /// prewarm. Call after BufferPool::reserve / Plan::prewarm_pool;
  /// idempotent and allocation-free (it only touches what is already
  /// reserved).
  void first_touch();

  /// Installs (or with nullptr removes) a wire fault injector. Non-owning;
  /// the injector must outlive its installation.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const { return injector_; }

  /// Marks rank permanently dead (idempotent). From now on every frame to
  /// or from it is discarded uncharged, below injector and protocol, so a
  /// dead peer stays silent even on degraded-mode replays. Each newly
  /// dead rank bumps the membership epoch. At least one rank must stay
  /// alive. Crash-injected deaths are synced here automatically at the
  /// start of each exchange; detectors call it directly on a verdict.
  void mark_dead(std::size_t rank);

  [[nodiscard]] bool alive(std::size_t rank) const {
    return !dead_flags_.empty() ? dead_flags_[rank] == 0 : true;
  }
  [[nodiscard]] std::size_t num_alive() const { return num_alive_; }
  /// Sorted ranks marked dead so far.
  [[nodiscard]] std::vector<std::size_t> dead_ranks() const;
  /// Bumped once per newly-dead rank; plan caches key on it.
  [[nodiscard]] std::uint64_t membership_epoch() const {
    return membership_epoch_;
  }

  /// Files a detector verdict for later audit / recovery planning.
  void record_rank_loss(RankLossReport report);
  [[nodiscard]] const std::vector<RankLossReport>& rank_loss_reports() const {
    return rank_loss_reports_;
  }

  /// Resets accounting (e.g. to ignore a warm-up distribution phase).
  /// An installed node map survives the reset: the machine's topology is
  /// physical, not per-run.
  void reset_ledger();

 private:
  std::size_t P_;
  CommLedger ledger_;
  FaultInjector* injector_ = nullptr;
  BufferPool pool_;
  std::vector<char> dead_flags_;
  std::size_t num_alive_;
  std::uint64_t membership_epoch_ = 0;
  std::vector<RankLossReport> rank_loss_reports_;
};

}  // namespace sttsv::simt
