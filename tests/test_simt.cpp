// Simulated machine tests: delivery semantics, ledger accounting,
// round/modeled-cost models for both transports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "simt/fault_injector.hpp"
#include "simt/machine.hpp"
#include "simt/reliable_exchange.hpp"
#include "support/check.hpp"

namespace sttsv::simt {
namespace {

TEST(Machine, DeliversSortedBySender) {
  Machine m(3);
  std::vector<std::vector<Envelope>> out(3);
  out[2].push_back(Envelope{0, {1.0, 2.0}});
  out[1].push_back(Envelope{0, {3.0}});
  const auto in = m.exchange(std::move(out), Transport::kPointToPoint);
  ASSERT_EQ(in[0].size(), 2u);
  EXPECT_EQ(in[0][0].from, 1u);
  EXPECT_EQ(in[0][1].from, 2u);
  EXPECT_EQ(in[0][0].data, (std::vector<double>{3.0}));
  EXPECT_EQ(in[0][1].data, (std::vector<double>{1.0, 2.0}));
  EXPECT_TRUE(in[1].empty());
  EXPECT_TRUE(in[2].empty());
}

TEST(Machine, LedgerCountsWordsAndMessages) {
  Machine m(4);
  std::vector<std::vector<Envelope>> out(4);
  out[0].push_back(Envelope{1, {1, 2, 3}});
  out[0].push_back(Envelope{2, {4}});
  out[3].push_back(Envelope{0, {5, 6}});
  (void)m.exchange(std::move(out), Transport::kPointToPoint);
  const auto& L = m.ledger();
  EXPECT_EQ(L.words_sent(0), 4u);
  EXPECT_EQ(L.words_received(1), 3u);
  EXPECT_EQ(L.words_received(2), 1u);
  EXPECT_EQ(L.words_sent(3), 2u);
  EXPECT_EQ(L.words_received(0), 2u);
  EXPECT_EQ(L.messages_sent(0), 2u);
  EXPECT_EQ(L.messages_received(0), 1u);
  EXPECT_EQ(L.total_words(), 6u);
  EXPECT_EQ(L.total_messages(), 3u);
  EXPECT_EQ(L.pair_words(0, 1), 3u);
  EXPECT_EQ(L.pair_words(1, 0), 0u);
  EXPECT_EQ(L.active_pairs(), 3u);
  L.verify_conservation();
}

TEST(Machine, SelfSendRejected) {
  Machine m(2);
  std::vector<std::vector<Envelope>> out(2);
  out[0].push_back(Envelope{0, {1.0}});
  EXPECT_THROW(m.exchange(std::move(out), Transport::kPointToPoint),
               PreconditionError);
}

TEST(Machine, PointToPointRoundsAreKoenigDelta) {
  // Rank 0 sends to 1, 2, 3 (out-degree 3); everyone else sends one.
  Machine m(4);
  std::vector<std::vector<Envelope>> out(4);
  for (std::size_t dest = 1; dest < 4; ++dest) {
    out[0].push_back(Envelope{dest, {0.0}});
  }
  out[1].push_back(Envelope{2, {0.0}});
  (void)m.exchange(std::move(out), Transport::kPointToPoint);
  // Δ = max(out-degree 3, in-degree 2) = 3.
  EXPECT_EQ(m.ledger().rounds(), 3u);
}

TEST(Machine, AllToAllRoundsArePMinus1) {
  Machine m(5);
  std::vector<std::vector<Envelope>> out(5);
  out[0].push_back(Envelope{1, {1.0, 2.0, 3.0}});  // max message = 3 words
  out[2].push_back(Envelope{3, {1.0}});
  (void)m.exchange(std::move(out), Transport::kAllToAll);
  EXPECT_EQ(m.ledger().rounds(), 4u);  // P - 1
  // Modeled cost: (P-1) * max pair message = 4 * 3 = 12 words.
  EXPECT_EQ(m.ledger().modeled_collective_words(), 12u);
}

TEST(Machine, ResetLedgerClears) {
  Machine m(2);
  std::vector<std::vector<Envelope>> out(2);
  out[0].push_back(Envelope{1, {1.0}});
  (void)m.exchange(std::move(out), Transport::kPointToPoint);
  EXPECT_GT(m.ledger().total_words(), 0u);
  m.reset_ledger();
  EXPECT_EQ(m.ledger().total_words(), 0u);
  EXPECT_EQ(m.ledger().rounds(), 0u);
}

TEST(Machine, EmptyExchangeIsFree) {
  Machine m(3);
  (void)m.exchange(std::vector<std::vector<Envelope>>(3),
                   Transport::kPointToPoint);
  EXPECT_EQ(m.ledger().total_words(), 0u);
  EXPECT_EQ(m.ledger().rounds(), 0u);
}

// ---------------------------------------------------------------------------
// Delivery order does not depend on outbox order.

using Outboxes = std::vector<std::vector<Envelope>>;

/// What each rank received, as (sender, payload), copied out so it
/// outlives the machine whose pool held the payloads.
using Inboxes =
    std::vector<std::vector<std::pair<std::size_t, std::vector<double>>>>;

Inboxes snapshot(const std::vector<std::vector<Delivery>>& delivered) {
  Inboxes in(delivered.size());
  for (std::size_t to = 0; to < delivered.size(); ++to) {
    for (const Delivery& d : delivered[to]) {
      in[to].emplace_back(d.from,
                          std::vector<double>(d.data.begin(), d.data.end()));
    }
  }
  return in;
}

/// Every rank sends 1-3 envelopes to each of a few peers; the payload
/// {from, to, k} names the envelope's place k among the pair's sends. With
/// `shuffle_seed` == 0 each outbox is destination-ordered (the drivers'
/// layout); otherwise its envelopes are shuffled, keeping each pair's
/// sends in the order k = 0, 1, ...
Outboxes order_test_outboxes(std::size_t P, std::uint64_t shuffle_seed) {
  std::mt19937_64 rng(shuffle_seed);
  Outboxes out(P);
  for (std::size_t from = 0; from < P; ++from) {
    std::vector<std::size_t> dests;
    for (std::size_t to = 0; to < P; ++to) {
      if (to == from || (from + 2 * to) % 3 == 0) continue;
      for (std::size_t k = 0; k <= (from + to) % 3; ++k) dests.push_back(to);
    }
    if (shuffle_seed != 0) std::shuffle(dests.begin(), dests.end(), rng);
    std::vector<std::size_t> sent(P, 0);
    for (const std::size_t to : dests) {
      const auto k = static_cast<double>(sent[to]++);
      // Payloads of different lengths, so the ledger sees distinct sizes.
      std::vector<double> data{static_cast<double>(from),
                               static_cast<double>(to), k};
      data.resize(3 + (from + to + sent[to]) % 4, 0.5);
      out[from].push_back(Envelope{to, data});
    }
  }
  return out;
}

/// Every ledger counter, rounds included.
std::vector<std::pair<std::string, std::uint64_t>> ledger_counters(
    const CommLedger& ledger) {
  obs::MetricsRegistry reg;
  ledger.to_metrics(reg);
  return reg.counters();
}

/// Inboxes must be sender-ascending, with each pair's payloads in the
/// order the sender posted them.
void expect_canonical_order(const Inboxes& in) {
  for (std::size_t to = 0; to < in.size(); ++to) {
    for (std::size_t i = 1; i < in[to].size(); ++i) {
      const auto& [a_from, a_data] = in[to][i - 1];
      const auto& [b_from, b_data] = in[to][i];
      ASSERT_LE(a_from, b_from) << "inbox " << to;
      if (a_from == b_from) {
        EXPECT_LT(a_data[2], b_data[2]) << "inbox " << to;
      }
    }
  }
}

TEST(Machine, ShuffledOutboxesDeliverAsSorted) {
  constexpr std::size_t P = 7;
  for (const Transport t : {Transport::kPointToPoint, Transport::kAllToAll}) {
    for (const bool faults : {false, true}) {
      SCOPED_TRACE(std::string(t == Transport::kAllToAll ? "a2a" : "p2p") +
                   (faults ? " with faults" : ""));
      Inboxes in[2];
      std::vector<std::pair<std::string, std::uint64_t>> counters[2];
      std::size_t injected[2] = {0, 0};
      for (std::size_t shuffled = 0; shuffled < 2; ++shuffled) {
        Machine m(P);
        FaultInjector injector({.drop = 0.1, .duplicate = 0.1, .seed = 3});
        if (faults) m.set_fault_injector(&injector);
        in[shuffled] =
            snapshot(m.exchange(order_test_outboxes(P, shuffled * 11), t));
        counters[shuffled] = ledger_counters(m.ledger());
        EXPECT_GT(m.ledger().rounds(), 0u);
        injected[shuffled] = injector.log().size();
      }
      // Injected duplicates repeat a payload; every other inbox is exact.
      if (!faults) expect_canonical_order(in[0]);
      EXPECT_EQ(in[0], in[1]);
      EXPECT_EQ(counters[0], counters[1]);
      EXPECT_EQ(injected[0], injected[1]);
      EXPECT_EQ(injected[0] > 0, faults);
    }
  }
}

TEST(ReliableExchange, ShuffledOutboxesDeliverAsSorted) {
  constexpr std::size_t P = 7;
  for (const bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "with faults" : "fault-free");
    Inboxes in[2];
    std::vector<std::pair<std::string, std::uint64_t>> counters[2];
    std::size_t injected[2] = {0, 0};
    for (std::size_t shuffled = 0; shuffled < 2; ++shuffled) {
      Machine m(P);
      FaultInjector injector(
          {.drop = 0.1, .corrupt = 0.1, .duplicate = 0.1, .seed = 5});
      if (faults) m.set_fault_injector(&injector);
      ReliableExchange rex(m);
      in[shuffled] = snapshot(rex.exchange(
          order_test_outboxes(P, shuffled * 13), Transport::kPointToPoint));
      counters[shuffled] = ledger_counters(m.ledger());
      injected[shuffled] = injector.log().size();
    }
    // The protocol hides injected faults: both inboxes are exact.
    expect_canonical_order(in[0]);
    EXPECT_EQ(in[0], in[1]);
    EXPECT_EQ(counters[0], counters[1]);
    EXPECT_EQ(injected[0], injected[1]);
    EXPECT_EQ(injected[0] > 0, faults);
  }

  // A wire that loses everything: the fault report lists the undelivered
  // frames by (sender, destination, sequence) whatever the outbox order.
  using Lost = std::tuple<std::size_t, std::size_t, std::uint64_t>;
  std::vector<Lost> lost[2];
  for (std::size_t shuffled = 0; shuffled < 2; ++shuffled) {
    Machine m(P);
    FaultInjector injector({.drop = 1.0, .seed = 1});
    m.set_fault_injector(&injector);
    ReliableExchange rex(m, RetryPolicy{2, 1, 8}, RecoveryPolicy::kFailFast);
    try {
      (void)rex.exchange(order_test_outboxes(P, shuffled * 17),
                         Transport::kPointToPoint);
      ADD_FAILURE() << "expected FaultError";
    } catch (const FaultError& e) {
      for (const FrameFault& f : e.report().undelivered) {
        lost[shuffled].emplace_back(f.from, f.to, f.seq);
      }
    }
  }
  EXPECT_FALSE(lost[0].empty());
  EXPECT_TRUE(std::is_sorted(lost[0].begin(), lost[0].end()));
  EXPECT_EQ(lost[0], lost[1]);
}

// ---------------------------------------------------------------------------
// The ledger's pair table.

TEST(Ledger, PairTableStaysExactAcrossRecordsAndReset) {
  Machine m(4);
  const auto exported_pairs = [&] {
    obs::MetricsRegistry reg;
    m.ledger().to_metrics(reg);
    return reg.counter("ledger.active_pairs");
  };
  CommLedger& L = m.ledger();
  EXPECT_EQ(L.active_pairs(), 0u);
  EXPECT_EQ(L.pair_words(3, 0), 0u);
  L.record(Channel::kOverhead, 0, 1, 9);  // only goodput feeds the table
  L.record(Channel::kGoodput, 2, 1, 0);   // nor does an empty message
  EXPECT_EQ(L.active_pairs(), 0u);
  EXPECT_EQ(L.pair_words(0, 1), 0u);
  L.record(Channel::kGoodput, 0, 1, 4);
  L.record(Channel::kGoodput, 0, 1, 6);
  L.record(Channel::kGoodput, 1, 0, 2);
  L.record(Channel::kGoodput, 3, 2, 5);
  EXPECT_EQ(L.pair_words(0, 1), 10u);
  EXPECT_EQ(L.pair_words(1, 0), 2u);
  EXPECT_EQ(L.pair_words(3, 2), 5u);
  EXPECT_EQ(L.pair_words(2, 3), 0u);
  EXPECT_EQ(L.active_pairs(), 3u);
  EXPECT_EQ(exported_pairs(), 3u);
  EXPECT_THROW(static_cast<void>(L.pair_words(4, 0)), PreconditionError);

  m.reset_ledger();
  EXPECT_EQ(m.ledger().active_pairs(), 0u);
  EXPECT_EQ(m.ledger().pair_words(0, 1), 0u);
  EXPECT_EQ(exported_pairs(), 0u);
  m.ledger().record(Channel::kGoodput, 0, 1, 1);
  EXPECT_EQ(m.ledger().pair_words(0, 1), 1u);
  EXPECT_EQ(m.ledger().active_pairs(), 1u);
  EXPECT_EQ(exported_pairs(), 1u);
}

TEST(Ledger, RanksOutOfRangeRejected) {
  CommLedger L(2);
  EXPECT_THROW(L.record(simt::Channel::kGoodput, 0, 2, 1), PreconditionError);
  EXPECT_THROW(static_cast<void>(L.words_sent(5)), PreconditionError);
}

}  // namespace
}  // namespace sttsv::simt
