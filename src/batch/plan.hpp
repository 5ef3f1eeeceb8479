#pragma once
// Memoized execution plans for repeated STTSV runs against one tensor
// shape (DESIGN.md §9). Building a run's combinatorial state — the
// Steiner system, the tetrahedral partition, the vector distribution and
// the communication table — costs far more than a single apply once
// the tensor is resident, and none of it depends on the vector values.
// A Plan captures all of it immutably; a PlanCache memoizes Plans by
// (n, P, Steiner family, transport) with LRU eviction so serving
// workloads (batch::Engine, multi-start HOPM, CP sweeps) pay setup once.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/parallel_sttsv.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/machine.hpp"

namespace sttsv::obs {
class MetricsRegistry;
}  // namespace sttsv::obs

namespace sttsv::batch {

/// Which built-in Steiner (m, r, 3) construction backs the partition.
enum class Family : std::uint8_t {
  kSpherical,  // S(q²+1, q+1, 3), param = q (prime power)
  kBoolean,    // S(2^k, 4, 3),    param = k >= 3
  kTrivial,    // S(m, 3, 3),      param = m >= 4
};

/// Cache key: everything a plan's structure depends on. `processors` is
/// derived from (family, param) — plan_key() fills it — but stays in the
/// key so lookups are self-describing and mismatches fail loudly.
struct PlanKey {
  std::size_t n = 0;           // logical vector/tensor dimension
  std::size_t processors = 0;  // P = number of Steiner blocks
  Family family = Family::kSpherical;
  std::uint64_t param = 0;     // q / k / m, per Family
  simt::Transport transport = simt::Transport::kPointToPoint;
  /// Membership epoch the plan was built for (Machine::membership_epoch).
  /// Plans are structurally identical across epochs, but keying on the
  /// epoch invalidates cached plans after an elastic shrink: stale
  /// entries age out of the LRU instead of being served to a machine
  /// whose live set no longer matches.
  std::uint64_t epoch = 0;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

/// Builds a key with `processors` computed from the family formulas
/// (spherical q(q²+1), boolean 2^k(2^k-1)(2^k-2)/24, trivial C(m,3)).
PlanKey plan_key(std::size_t n, Family family, std::uint64_t param,
                 simt::Transport transport);

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept;
};

/// An immutable, shareable plan: partition + distribution + the
/// core::CommTable of Algorithm 5 at the identity placement, which every
/// batched run over this plan reuses.
class Plan {
 public:
  /// Builds the plan for `key` (constructs the Steiner system, partition,
  /// distribution and communication table). Throws PreconditionError on
  /// an inadmissible key (e.g. non-prime-power q).
  static std::shared_ptr<const Plan> build(const PlanKey& key);

  [[nodiscard]] const PlanKey& key() const { return key_; }
  [[nodiscard]] const partition::TetraPartition& partition() const {
    return *part_;
  }
  [[nodiscard]] const partition::VectorDistribution& distribution() const {
    return *dist_;
  }
  [[nodiscard]] std::size_t num_processors() const { return key_.processors; }

  /// The communication table, every role on its own rank.
  [[nodiscard]] const core::CommTable& table() const { return table_; }

  /// Owned blocks of p (cached copy of partition().owned_blocks(p)).
  [[nodiscard]] const std::vector<partition::BlockCoord>& owned(
      std::size_t p) const {
    return owned_[p];
  }

  /// Position of row block i within R_p (p's local block numbering).
  [[nodiscard]] std::size_t local_index(std::size_t p, std::size_t i) const;

  /// A machine sized for this plan.
  [[nodiscard]] simt::Machine make_machine() const {
    return simt::Machine(key_.processors);
  }

  /// Pre-sizes a machine's BufferPool from this plan's table routes: for
  /// every (rank, peer) message of up to `lanes` aggregated vectors, the
  /// serving slab bucket is topped up, so the first batch — not just the
  /// second — runs the message path allocation-free (DESIGN.md §12).
  /// Also covers ReliableExchange's framed copies (header + payload).
  void prewarm_pool(simt::BufferPool& pool, std::size_t lanes) const;

 private:
  Plan(PlanKey key, std::unique_ptr<partition::TetraPartition> part,
       std::unique_ptr<partition::VectorDistribution> dist);

  PlanKey key_;
  std::unique_ptr<partition::TetraPartition> part_;
  std::unique_ptr<partition::VectorDistribution> dist_;
  core::CommTable table_;
  std::vector<std::vector<partition::BlockCoord>> owned_;
  // local_index lookup: per rank, row block -> position in R_p (or npos).
  std::vector<std::vector<std::size_t>> local_index_;
};

/// The key of the plan Algorithm 5 should run with at most `budget` ranks
/// on problem size n (Point-to-Point transport). Candidates are every
/// built-in spherical and boolean system with P <= budget and every
/// trivial S(m,3,3) with C(m,3) <= budget; the winner minimizes the
/// predicted per-rank words 2·r·⌈n/m⌉·(λ₁-1)/λ₁ (a larger P is not enough:
/// a high-replication family can cost more than a smaller spherical one),
/// ties preferring spherical, then larger P. Throws PreconditionError if
/// n = 0 or budget < 4 (trivial m = 4 is the smallest plan).
PlanKey plan_key_for_budget(std::size_t budget, std::size_t n);

/// What a plan costs, per rank.
struct PlanSummary {
  std::string family;          // "spherical", "boolean", or "triples"
  std::size_t q = 0;           // spherical parameter (0 otherwise)
  std::size_t processors = 0;  // exact P of the plan
  std::size_t row_blocks = 0;  // m
  std::size_t block_length = 0;  // b (from n)
  double predicted_words = 0.0;  // per-rank, both vectors (divisible est.)
  double lower_bound_words = 0.0;
  std::size_t tensor_words_per_rank = 0;  // storage bound
  std::size_t vector_words_per_rank = 0;
};

PlanSummary summarize(const Plan& plan);

/// LRU-memoized Plan::build. Hits return the cached shared_ptr (pointer
/// identity); misses build, insert, and evict the least recently used
/// entry beyond `capacity`. Not thread-safe: the simulated machine is
/// driven from one thread (host threads live below run_ranks only).
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 8);

  std::shared_ptr<const Plan> get(const PlanKey& key);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  void clear();

  /// Publishes hit/miss/size/capacity into `out` as "<prefix>.*" counters,
  /// set absolutely so re-export is idempotent.
  void publish_metrics(obs::MetricsRegistry& out,
                       const std::string& prefix = "plan_cache") const;

 private:
  using Entry = std::pair<PlanKey, std::shared_ptr<const Plan>>;
  std::size_t capacity_;
  std::list<Entry> entries_;  // front = most recently used
  std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace sttsv::batch
