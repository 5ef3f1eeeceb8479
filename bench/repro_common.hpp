#pragma once
// Shared helpers for the reproduction binaries: a tiny check harness that
// prints PASS/FAIL lines and accumulates an exit code, formatting
// utilities for paper-style tables, and a minimal streaming JSON writer
// for the BENCH_*.json artifacts.

#include <cstdint>
#include <iostream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "partition/blocks.hpp"
#include "simt/ledger.hpp"
#include "support/check.hpp"
#include "support/json_writer.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace sttsv::repro {

/// Collects reproduction checks; exit_code() is 0 iff all passed.
class Checker {
 public:
  void check(bool ok, const std::string& what) {
    std::cout << (ok ? "  [PASS] " : "  [FAIL] ") << what << "\n";
    if (!ok) ++failures_;
  }

  void check_near(double got, double want, double rel_tol,
                  const std::string& what) {
    const double denom = want == 0.0 ? 1.0 : want;
    const bool ok = std::abs(got - want) / std::abs(denom) <= rel_tol;
    std::ostringstream os;
    os << what << " (got " << got << ", expected " << want << " ±"
       << rel_tol * 100 << "%)";
    check(ok, os.str());
  }

  [[nodiscard]] int exit_code() const { return failures_ == 0 ? 0 : 1; }
  [[nodiscard]] std::size_t failures() const { return failures_; }

 private:
  std::size_t failures_ = 0;
};

/// Renders an index set 1-based, matching the paper's tables.
inline std::string set_1based(const std::vector<std::size_t>& v) {
  std::vector<std::size_t> shifted(v);
  for (auto& x : shifted) ++x;
  return brace_set(shifted);
}

/// Renders a list of block coordinates 1-based: "(7,2,2) (2,1,1)".
inline std::string blocks_1based(
    const std::vector<partition::BlockCoord>& blocks) {
  std::string out;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (i) out += ' ';
    out += triple(blocks[i].i + 1, blocks[i].j + 1, blocks[i].k + 1);
  }
  return out.empty() ? "{}" : out;
}

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

// JsonWriter lives in support/json_writer.hpp (same namespace) so library
// code — the obs exporters in particular — can emit artifacts too.

/// Emits the ledger's four channels — goodput (the Theorem 5.2
/// quantity), resilience overhead, rank-loss recovery traffic, and
/// one-sided put traffic with its synchronization count — as one
/// "ledger" object in the current JSON scope. Every bench that
/// exercises ReliableExchange or OneSidedExchange reports all four so
/// artifacts can show the paper bound holding on goodput while pricing
/// the protocol, any redistribution, and RMA sync separately.
inline void write_ledger_channels(JsonWriter& w,
                                  const simt::CommLedger& ledger) {
  w.begin_object("ledger");
  w.field("max_words_sent", ledger.max_words_sent());
  w.field("max_words_received", ledger.max_words_received());
  w.field("total_words", ledger.total_words());
  w.field("total_messages", ledger.total_messages());
  w.field("rounds", ledger.rounds());
  for (const simt::Channel c : {simt::Channel::kOverhead,
                                simt::Channel::kRecovery,
                                simt::Channel::kOneSided}) {
    const std::string ch = simt::channel_name(c);
    w.field(("max_" + ch + "_words_sent").c_str(), ledger.max_words_sent(c));
    w.field(("max_" + ch + "_words_received").c_str(),
            ledger.max_words_received(c));
    w.field(("total_" + ch + "_words").c_str(), ledger.total_words(c));
    w.field((ch + "_messages").c_str(), ledger.total_messages(c));
    w.field((ch + "_rounds").c_str(), ledger.rounds(c));
  }
  w.field("sync_ops", ledger.sync_ops());
  // Per-level split (DESIGN.md §17): zero for a flat machine (everything
  // lands intra when no node map is installed).
  w.field("num_nodes", static_cast<std::uint64_t>(ledger.num_nodes()));
  w.field("intra_payload_words",
          ledger.total_payload_words(simt::Level::kIntra));
  w.field("inter_payload_words",
          ledger.total_payload_words(simt::Level::kInter));
  w.field("intra_sync_ops", ledger.sync_ops(simt::Level::kIntra));
  w.field("inter_sync_ops", ledger.sync_ops(simt::Level::kInter));
  w.end_object();
}

/// One bench cell's view of a finished run's ledger — the per-backend
/// rollup every transport-style bench (bench_transport, bench_hierarchy)
/// extracts: the α-term "messages" count (envelopes for two-sided
/// transports; sync ops for one-sided/AM/hierarchical, whose Puts pay
/// bandwidth only), payload and overhead words, rounds across the
/// channels a backend uses, and the per-level split.
struct LedgerRollup {
  std::uint64_t messages = 0;  // α-term count: envelopes or sync ops
  std::uint64_t payload_words = 0;
  std::uint64_t overhead_words = 0;
  std::uint64_t sync_ops = 0;
  std::uint64_t rounds = 0;
  std::uint64_t intra_words = 0;
  std::uint64_t inter_words = 0;
  std::uint64_t intra_sync_ops = 0;
  std::uint64_t inter_sync_ops = 0;
};

/// `onesided_alpha` selects the α-term rule: true for backends whose
/// latency cost is epoch synchronization (one-sided, active-message,
/// hierarchical), false for envelope-counting two-sided backends.
inline LedgerRollup ledger_rollup(const simt::CommLedger& led,
                                  bool onesided_alpha) {
  LedgerRollup r;
  r.payload_words =
      led.total_words() + led.total_words(simt::Channel::kOneSided);
  r.overhead_words = led.total_words(simt::Channel::kOverhead);
  r.sync_ops = led.sync_ops();
  r.messages = onesided_alpha
                   ? led.sync_ops()
                   : led.total_messages() +
                         led.total_messages(simt::Channel::kOverhead);
  r.rounds = led.rounds(simt::Channel::kGoodput) +
             led.rounds(simt::Channel::kOverhead) +
             led.rounds(simt::Channel::kOneSided);
  r.intra_words = led.total_payload_words(simt::Level::kIntra);
  r.inter_words = led.total_payload_words(simt::Level::kInter);
  r.intra_sync_ops = led.sync_ops(simt::Level::kIntra);
  r.inter_sync_ops = led.sync_ops(simt::Level::kInter);
  return r;
}

/// Emits a LedgerRollup's fields into the current JSON object scope —
/// the shared slice of every sttsv.bench/v1 sweep cell.
inline void write_ledger_rollup(JsonWriter& w, const LedgerRollup& r) {
  w.field("messages", r.messages);
  w.field("payload_words", r.payload_words);
  w.field("overhead_words", r.overhead_words);
  w.field("sync_ops", r.sync_ops);
  w.field("rounds", r.rounds);
  w.field("intra_words", r.intra_words);
  w.field("inter_words", r.inter_words);
  w.field("intra_sync_ops", r.intra_sync_ops);
  w.field("inter_sync_ops", r.inter_sync_ops);
}

/// The one observability block every bench artifact shares: the ledger's
/// two-channel summary ("ledger") followed by the full metrics registry
/// ("metrics"). Callers publish whatever they have into `registry`
/// (CommLedger::to_metrics, ReliableExchange/FaultInjector/PlanCache/
/// Engine::publish_metrics) before calling.
inline void write_observability(JsonWriter& w, const simt::CommLedger& ledger,
                                const obs::MetricsRegistry& registry) {
  write_ledger_channels(w, ledger);
  obs::write_metrics_json(w, registry);
}

}  // namespace sttsv::repro
