#pragma once
// Communication accounting for the simulated α-β-γ machine.
//
// "Words" are vector/tensor elements (doubles), matching the unit of the
// paper's bounds. The ledger tracks, per rank: words and messages sent and
// received, plus per-pair traffic, plus two cost models:
//
//  * measured words: what was actually placed on the network;
//  * modeled collective words: the paper's Section 7.2.2 accounting, where
//    a bandwidth-optimal All-to-All takes P-1 steps each costing the
//    maximum per-pair message size (so empty slots still pay).
//
// Measured traffic is split into four channels (DESIGN.md §10, §15, §16),
// each with identical per-rank counters kept in one Channel-indexed array
// so adding a channel is one enum entry, not another copy of the
// counters, maxima and conservation arms:
//
//  * goodput — unique useful payload words, the quantity Theorem 5.2
//    bounds. Under the resilient protocol each logical payload is charged
//    here exactly once (on its first transmission attempt), so goodput is
//    identical to the fault-free ledger by construction.
//  * overhead — everything resilience costs on top: protocol framing
//    (sequence numbers, checksums), ACK/NACK frames, retransmissions,
//    injected duplicate deliveries, and degraded-mode replays. Overhead
//    rounds (ACK rounds, retries, backoff) are counted separately from
//    goodput rounds for the same reason.
//  * recovery — rank-loss redistribution traffic: the vector slices moved
//    when orphaned Steiner blocks are re-homed onto survivors after a
//    crash (DESIGN.md §15). Kept apart from overhead so the measured
//    redistribution cost can be checked word-for-word against the
//    block-movement diff computed by the elastic planner.
//  * onesided — payload words Put directly into a peer's registered
//    segment (DESIGN.md §16). One-sided writes carry no per-message
//    framing and no mailbox hop, so the channel's "messages" count the
//    Puts themselves while the α-term cost lives in the separate
//    synchronization counter (sync_ops): epoch fences at origins plus
//    exposure notifications at targets. Conservation holds per channel
//    exactly as for two-sided traffic.
//
// Every channel is additionally split by *level* (DESIGN.md §17): a
// topology-aware run installs a rank -> node map (set_node_map) and from
// then on every record() is classified intra-node (both endpoints on one
// node) or inter-node. Counters, rounds, sync ops and the conservation
// check all exist per (channel, level); the level-agnostic accessors sum
// the two levels, so a flat machine (no map, or one node) behaves exactly
// as before — everything lands on the intra level and the aggregate
// numbers are unchanged. This is what lets the per-level α-β cost model
// price intra-node words at shared-memory rates and inter-node words at
// network rates, and lets the planner minimize inter-node words
// specifically.

#include <cstddef>
#include <cstdint>
#include <array>
#include <string>
#include <vector>

namespace sttsv::obs {
class MetricsRegistry;
}  // namespace sttsv::obs

namespace sttsv::simt {

/// The measured-traffic channels, in declaration order of their history:
/// goodput (PR 0), overhead (PR 3), recovery (PR 8), onesided (PR 9).
enum class Channel : std::uint8_t {
  kGoodput = 0,
  kOverhead = 1,
  kRecovery = 2,
  kOneSided = 3,
};

inline constexpr std::size_t kNumChannels = 4;

/// The two topology levels of DESIGN.md §17. A flat machine (no node map)
/// classifies everything kIntra — one node holds all ranks.
enum class Level : std::uint8_t {
  kIntra = 0,  ///< both endpoints on the same node (shared-segment fast path)
  kInter = 1,  ///< endpoints on different nodes (full α-β network price)
};

inline constexpr std::size_t kNumLevels = 2;

/// Stable lowercase name, used for metric keys and error messages.
[[nodiscard]] const char* channel_name(Channel c);

/// Stable lowercase name: "intra" | "inter".
[[nodiscard]] const char* level_name(Level level);

/// The per-run maxima bounded by the paper's Theorem 5.2: max over ranks
/// of words sent and of words received (equal for symmetric exchanges).
/// The overhead/recovery/onesided maxima cover the channels the bound
/// does not constrain but the benches plot.
struct LedgerMaxima {
  std::uint64_t words_sent = 0;
  std::uint64_t words_received = 0;
  std::uint64_t overhead_words_sent = 0;
  std::uint64_t overhead_words_received = 0;
  std::uint64_t recovery_words_sent = 0;
  std::uint64_t recovery_words_received = 0;
  std::uint64_t onesided_words_sent = 0;
  std::uint64_t onesided_words_received = 0;
};

class CommLedger {
 public:
  explicit CommLedger(std::size_t num_ranks);

  /// Installs the rank -> node map that classifies every subsequent
  /// record() by level. Must cover every rank; node labels must be dense
  /// in [0, num_nodes). Legal only while the ledger is empty (or with a
  /// map identical to the installed one — re-installation is idempotent),
  /// so no traffic is ever classified under two different topologies.
  void set_node_map(std::vector<std::uint32_t> node_of);

  /// The installed map; empty when the machine is flat.
  [[nodiscard]] const std::vector<std::uint32_t>& node_map() const {
    return node_of_;
  }

  /// Nodes in the installed map; 1 when flat.
  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }

  /// Level of a from -> to message under the installed map (kIntra when
  /// the machine is flat).
  [[nodiscard]] Level level_of(std::size_t from, std::size_t to) const {
    if (node_of_.empty()) return Level::kIntra;
    return node_of_[from] == node_of_[to] ? Level::kIntra : Level::kInter;
  }

  /// Records one message from -> to of `words` payload words on the given
  /// channel, classified by level under the installed node map. Goodput
  /// messages additionally feed the per-pair table.
  void record(Channel channel, std::size_t from, std::size_t to,
              std::size_t words);

  /// Adds k communication rounds to the given channel and level (steps in
  /// the paper's sense: in one round a rank sends at most one message and
  /// receives at most one; the two levels schedule independently — the
  /// intra-node network of each node and the inter-node network are
  /// disjoint resources).
  void add_rounds(Channel channel, Level level, std::size_t k);

  /// Level-agnostic overload for flat call sites: charges the default
  /// level (kIntra on a flat machine, kInter once a topology is
  /// installed — protocol rounds with no per-pair attribution are
  /// network-side work).
  void add_rounds(Channel channel, std::size_t k) {
    add_rounds(channel, default_level(), k);
  }

  /// Goodput shorthand: k rounds on the Theorem 5.2 channel.
  void add_rounds(std::size_t k) { add_rounds(Channel::kGoodput, k); }

  /// Counts k one-sided synchronization operations at the given level:
  /// epoch fences issued by origins and exposure notifications observed
  /// by targets. This is the α-term cost of the one-sided channel — Puts
  /// themselves pay only bandwidth — so bench_transport compares Direct's
  /// message count against the Put count plus this. The hierarchical
  /// shared-segment path charges one intra fence per *node* per epoch,
  /// which is why its α-term beats per-pair mailbox envelopes.
  void add_sync_ops(Level level, std::size_t k) {
    sync_ops_[static_cast<std::size_t>(level)] += k;
  }
  void add_sync_ops(std::size_t k) { add_sync_ops(default_level(), k); }

  /// Adds modeled collective cost: per-rank words the paper's model charges
  /// for a collective phase (e.g. (P-1) * max message size for All-to-All).
  void add_modeled_collective_words(std::size_t words_per_rank);

  [[nodiscard]] std::size_t num_ranks() const { return num_ranks_; }

  // Generic per-channel accessors (aggregated over both levels).
  [[nodiscard]] std::uint64_t words_sent(Channel channel,
                                         std::size_t rank) const;
  [[nodiscard]] std::uint64_t words_received(Channel channel,
                                             std::size_t rank) const;
  [[nodiscard]] std::uint64_t max_words_sent(Channel channel) const;
  [[nodiscard]] std::uint64_t max_words_received(Channel channel) const;
  [[nodiscard]] std::uint64_t total_words(Channel channel) const;
  [[nodiscard]] std::uint64_t total_messages(Channel channel) const;
  [[nodiscard]] std::uint64_t rounds(Channel channel) const;

  // Per-(channel, level) accessors — the DESIGN.md §17 split.
  [[nodiscard]] std::uint64_t words_sent(Channel channel, Level level,
                                         std::size_t rank) const;
  [[nodiscard]] std::uint64_t words_received(Channel channel, Level level,
                                             std::size_t rank) const;
  [[nodiscard]] std::uint64_t max_words_sent(Channel channel,
                                             Level level) const;
  [[nodiscard]] std::uint64_t max_words_received(Channel channel,
                                                 Level level) const;
  [[nodiscard]] std::uint64_t total_words(Channel channel, Level level) const;
  [[nodiscard]] std::uint64_t total_messages(Channel channel,
                                             Level level) const;
  [[nodiscard]] std::uint64_t rounds(Channel channel, Level level) const;
  [[nodiscard]] std::uint64_t sync_ops(Level level) const {
    return sync_ops_[static_cast<std::size_t>(level)];
  }

  /// Payload words (goodput + onesided + recovery, no protocol framing)
  /// at one level, summed over ranks — the quantity the hierarchy bench
  /// compares against the composed partition's closed-form prediction.
  [[nodiscard]] std::uint64_t total_payload_words(Level level) const;

  /// All channel maxima in one reduction — the set every run result reports.
  [[nodiscard]] LedgerMaxima maxima() const;

  // Goodput shorthands (the Theorem 5.2 quantities).
  [[nodiscard]] std::uint64_t words_sent(std::size_t rank) const {
    return words_sent(Channel::kGoodput, rank);
  }
  [[nodiscard]] std::uint64_t words_received(std::size_t rank) const {
    return words_received(Channel::kGoodput, rank);
  }
  [[nodiscard]] std::uint64_t messages_sent(std::size_t rank) const;
  [[nodiscard]] std::uint64_t messages_received(std::size_t rank) const;

  /// max_p (words sent by p + nothing else): the paper's "number of words
  /// sent or received by any processor" uses max over ranks of send (==
  /// receive for our symmetric exchanges); expose both.
  [[nodiscard]] std::uint64_t max_words_sent() const {
    return max_words_sent(Channel::kGoodput);
  }
  [[nodiscard]] std::uint64_t max_words_received() const {
    return max_words_received(Channel::kGoodput);
  }
  [[nodiscard]] std::uint64_t total_words() const {
    return total_words(Channel::kGoodput);
  }
  [[nodiscard]] std::uint64_t total_messages() const {
    return total_messages(Channel::kGoodput);
  }
  [[nodiscard]] std::uint64_t rounds() const {
    return rounds(Channel::kGoodput);
  }
  [[nodiscard]] std::uint64_t sync_ops() const {
    return sync_ops_[0] + sync_ops_[1];
  }
  [[nodiscard]] std::uint64_t modeled_collective_words() const {
    return modeled_words_;
  }

  /// Goodput words sent from -> to so far (0 if never communicated).
  [[nodiscard]] std::uint64_t pair_words(std::size_t from,
                                         std::size_t to) const;

  /// Distinct ordered pairs that exchanged at least one goodput word.
  [[nodiscard]] std::size_t active_pairs() const { return active_pairs_; }

  /// Publishes the full ledger state into `out` under `prefix` (DESIGN.md
  /// §11): per channel the maxima, totals, message counts and rounds plus
  /// per-rank words as "<prefix>.<channel>.words_sent.r<p>" counters, the
  /// per-level split as "<prefix>.<channel>.<level>.*", the one-sided
  /// sync-op count (total and per level), modeled collective words and
  /// the active pair count. Values are set absolutely (set_counter), so
  /// exporting twice is idempotent. The Theorem 5.2 quantities remain
  /// phrased on the goodput channel alone.
  void to_metrics(obs::MetricsRegistry& out,
                  const std::string& prefix = "ledger") const;

  /// Conservation check on every (channel, level) pair: Σ sent ==
  /// Σ received for goodput, overhead, recovery and onesided at both the
  /// intra and inter level (throws InternalError on violation). Eight
  /// arms total; the aggregate per-channel invariant follows.
  void verify_conservation() const;

  /// Test-only mutation hook: skews rank's sent-words counter on the
  /// given channel and level without a matching receive so
  /// failure-injection tests can prove that verify_conservation actually
  /// fires on every channel at every level. Never call outside tests.
  void debug_skew_sent_for_test(Channel channel, Level level,
                                std::size_t rank, std::uint64_t words);
  void debug_skew_sent_for_test(Channel channel, std::size_t rank,
                                std::uint64_t words) {
    debug_skew_sent_for_test(channel, default_level(), rank, words);
  }
  void debug_skew_sent_for_test(std::size_t rank, std::uint64_t words) {
    debug_skew_sent_for_test(Channel::kGoodput, rank, words);
  }

 private:
  /// One (channel, level)'s complete account: per-rank words and messages
  /// in both directions plus the rounds spent moving them.
  struct ChannelCounters {
    std::vector<std::uint64_t> sent;
    std::vector<std::uint64_t> received;
    std::vector<std::uint64_t> msg_sent;
    std::vector<std::uint64_t> msg_received;
    std::uint64_t rounds = 0;
  };

  [[nodiscard]] const ChannelCounters& chan(Channel channel,
                                            Level level) const {
    return chan_[static_cast<std::size_t>(channel)]
                [static_cast<std::size_t>(level)];
  }
  [[nodiscard]] ChannelCounters& chan(Channel channel, Level level) {
    return chan_[static_cast<std::size_t>(channel)]
                [static_cast<std::size_t>(level)];
  }

  /// Where level-agnostic charges (rounds, sync ops, legacy skew hooks)
  /// land: the single level of a flat machine, the network level of a
  /// topology-mapped one.
  [[nodiscard]] Level default_level() const {
    return num_nodes_ <= 1 ? Level::kIntra : Level::kInter;
  }

  [[nodiscard]] bool empty() const;

  std::size_t num_ranks_;
  std::array<std::array<ChannelCounters, kNumLevels>, kNumChannels> chan_;
  /// Goodput words per ordered pair at from·P + to; empty until the
  /// first goodput word, then P² entries.
  std::vector<std::uint64_t> pair_;
  std::size_t active_pairs_ = 0;  ///< nonzero entries of pair_
  std::array<std::uint64_t, kNumLevels> sync_ops_ = {0, 0};
  std::uint64_t modeled_words_ = 0;
  std::vector<std::uint32_t> node_of_;  ///< empty: flat machine
  std::size_t num_nodes_ = 1;
};

}  // namespace sttsv::simt
