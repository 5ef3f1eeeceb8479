#include "simt/machine.hpp"

#include <algorithm>

#include "simt/fault_injector.hpp"
#include "simt/parallel_for.hpp"
#include "support/check.hpp"

namespace sttsv::simt {

void order_by_destination(std::vector<Envelope>& outbox) {
  const auto by_destination = [](const Envelope& a, const Envelope& b) {
    return a.to < b.to;
  };
  if (!std::is_sorted(outbox.begin(), outbox.end(), by_destination)) {
    std::stable_sort(outbox.begin(), outbox.end(), by_destination);
  }
}

Machine::Machine(std::size_t num_ranks)
    : P_(num_ranks),
      ledger_(num_ranks),
      pool_(num_ranks == 0 ? 1 : num_ranks),
      dead_flags_(num_ranks, 0),
      num_alive_(num_ranks) {
  STTSV_REQUIRE(num_ranks >= 1, "machine needs at least one rank");
}

void Machine::mark_dead(std::size_t rank) {
  STTSV_REQUIRE(rank < P_, "rank out of range");
  if (dead_flags_[rank] != 0) return;
  STTSV_REQUIRE(num_alive_ > 1, "cannot kill the last live rank");
  dead_flags_[rank] = 1;
  --num_alive_;
  ++membership_epoch_;
}

std::vector<std::size_t> Machine::dead_ranks() const {
  std::vector<std::size_t> dead;
  for (std::size_t p = 0; p < P_; ++p) {
    if (dead_flags_[p] != 0) dead.push_back(p);
  }
  return dead;
}

void Machine::record_rank_loss(RankLossReport report) {
  rank_loss_reports_.push_back(std::move(report));
}

Machine::ExchangeSession::ExchangeSession(Machine& machine, Transport transport)
    : machine_(machine), transport_(transport) {
  for (auto& level : sends_per_rank_) level.assign(machine.P_, 0);
  for (auto& level : recvs_per_rank_) level.assign(machine.P_, 0);
  // The span's category is settled at finish(): an exchange moving no
  // goodput is pure protocol traffic and lands on the overhead channel
  // (kRetry) in any exported trace. Opened here, on the driver thread, so
  // begin/close both run where the trace buffers live.
  span_.emplace("machine.exchange", obs::Category::kExchange);
}

Machine::ExchangeSession::~ExchangeSession() { finish(); }

std::vector<std::vector<Delivery>> Machine::ExchangeSession::part(
    std::vector<std::vector<Envelope>> outboxes) {
  STTSV_CHECK(!finished_, "exchange session already finished");
  const std::size_t P = machine_.P_;
  STTSV_REQUIRE(outboxes.size() == P, "one outbox per rank required");

  // Validate every envelope before touching the ledger or moving any
  // payload: a malformed outbox must fail with the machine state intact.
  for (std::size_t from = 0; from < P; ++from) {
    for (const Envelope& env : outboxes[from]) {
      STTSV_REQUIRE(env.to < P, "envelope destination out of range");
      STTSV_REQUIRE(env.to != from,
                    "self-sends must be handled as local copies");
      STTSV_REQUIRE(env.overhead_words <= env.data.size(),
                    "envelope overhead exceeds payload size");
      STTSV_REQUIRE(!env.recovery || env.overhead_words == 0,
                    "recovery envelopes carry no protocol overhead");
    }
  }

  FaultInjector* injector = machine_.injector_;
  if (injector != nullptr && !injector_started_) {
    // One injector epoch per logical exchange, regardless of part count:
    // stall rolls and the injection-log window cover the whole session.
    injector->begin_exchange();
    injector_started_ = true;
  }
  if (injector != nullptr) {
    // Sync injector-rolled crashes into machine membership. Deaths rolled
    // mid-exchange by on_frame are picked up here at the next exchange:
    // death is detected at exchange granularity (interim frames are still
    // dropped by the injector's own is_dead check).
    for (const std::size_t r : injector->dead_ranks()) {
      machine_.mark_dead(r);
    }
  }

  // Deterministic delivery order: by destination, then insertion order.
  std::vector<std::size_t> inbound(P, 0);
  for (auto& outbox : outboxes) {
    order_by_destination(outbox);
    for (const Envelope& env : outbox) ++inbound[env.to];
  }

  CommLedger& ledger = machine_.ledger_;
  std::vector<std::vector<Delivery>> inboxes(P);
  for (std::size_t p = 0; p < P; ++p) inboxes[p].reserve(inbound[p]);

  // Round slots accumulate per level: the frame occupies a step of its
  // own network (node-local crossbar or inter-node fabric).
  const auto count_slot = [&](std::size_t from, std::size_t to) {
    const auto lvl = static_cast<std::size_t>(ledger.level_of(from, to));
    ++sends_per_rank_[lvl][from];
    ++recvs_per_rank_[lvl][to];
  };

  for (std::size_t from = 0; from < P; ++from) {
    for (auto& env : outboxes[from]) {
      // Dead endpoints: the frame silently vanishes, charging nothing and
      // holding no round slot. Skipping both the send and the receive
      // side together preserves ledger conservation (record_message
      // increments sender and receiver atomically). This sits below the
      // injector, so a degraded replay with the injector detached still
      // cannot reach a dead peer.
      if (machine_.dead_flags_[from] != 0 ||
          machine_.dead_flags_[env.to] != 0) {
        continue;
      }
      if (env.recovery) {
        ledger.record(Channel::kRecovery, from, env.to, env.data.size());
        total_recovery_ += env.data.size();
        max_pair_words_ = std::max(max_pair_words_, env.data.size());
        count_slot(from, env.to);
        if (injector != nullptr) {
          switch (injector->on_frame(from, env.to, env.data)) {
            case FaultInjector::Action::kDrop:
              continue;
            case FaultInjector::Action::kDuplicate:
              ledger.record(Channel::kRecovery, from, env.to, env.data.size());
              inboxes[env.to].push_back(Delivery{from, env.data.clone()});
              break;
            case FaultInjector::Action::kDeliver:
              break;
          }
        }
        inboxes[env.to].push_back(Delivery{from, std::move(env.data)});
        continue;
      }
      const std::size_t goodput = env.data.size() - env.overhead_words;
      if (goodput > 0) ledger.record(Channel::kGoodput, from, env.to, goodput);
      if (env.overhead_words > 0) {
        ledger.record(Channel::kOverhead, from, env.to, env.overhead_words);
      }
      total_goodput_ += goodput;
      total_overhead_ += env.overhead_words;
      max_pair_words_ = std::max(max_pair_words_, env.data.size());
      // Rounds reflect the intended schedule: a dropped frame still held
      // its slot, an injected duplicate rides along without one.
      count_slot(from, env.to);

      if (injector != nullptr) {
        switch (injector->on_frame(from, env.to, env.data)) {
          case FaultInjector::Action::kDrop:
            continue;  // charged, never delivered
          case FaultInjector::Action::kDuplicate:
            ledger.record(Channel::kOverhead, from, env.to, env.data.size());
            inboxes[env.to].push_back(Delivery{from, env.data.clone()});
            break;
          case FaultInjector::Action::kDeliver:
            break;
        }
      }
      inboxes[env.to].push_back(Delivery{from, std::move(env.data)});
    }
  }
  // Senders were walked ascending, so every inbox is already ordered by
  // sender, then by the sender's insertion order; only the injector's
  // reorder fault may permute it.
  if (injector != nullptr) {
    for (std::size_t p = 0; p < P; ++p) {
      injector->maybe_reorder(p, inboxes[p]);
    }
  }
  ++parts_;
  return inboxes;
}

void Machine::ExchangeSession::finish() {
  if (finished_) return;
  finished_ = true;
  if (parts_ == 0) {
    // Nothing ever flowed (the only part failed validation, or the
    // session was abandoned): the ledger must stay untouched so the
    // strong exception guarantee of exchange() holds.
    span_.reset();
    return;
  }

  CommLedger& ledger = machine_.ledger_;
  // Round classification follows the dominant channel: an exchange that
  // moves goodput is an algorithm step; one that moves only recovery
  // traffic is a redistribution step; one that moves only protocol
  // overhead (ACK rounds, retransmissions) is resilience overhead.
  const bool goodput_rounds = total_goodput_ > 0;
  const bool recovery_rounds = !goodput_rounds && total_recovery_ > 0;
  const bool overhead_only =
      !goodput_rounds && !recovery_rounds && total_overhead_ > 0;
  if (span_.has_value()) {
    span_->set_arg(total_goodput_ + total_overhead_ + total_recovery_);
    if (recovery_rounds) span_->set_category(obs::Category::kRecovery);
    if (overhead_only) span_->set_category(obs::Category::kRetry);
  }
  const Channel round_channel = recovery_rounds ? Channel::kRecovery
                                : overhead_only ? Channel::kOverhead
                                                : Channel::kGoodput;
  switch (transport_) {
    case Transport::kPointToPoint: {
      // König: a bipartite multigraph with max degree Δ is Δ-edge-
      // colorable, so the exchange completes in Δ steps where
      // Δ = max over ranks of max(#sends, #receives). The degrees are
      // summed over every part, so a pipelined session charges exactly
      // the rounds of the equivalent single exchange. Each level is
      // colored independently (DESIGN.md §17): node-local frames occupy
      // intra steps, cross-node frames inter steps. A flat machine puts
      // every frame on kIntra, reproducing the historical single charge.
      for (std::size_t lvl = 0; lvl < kNumLevels; ++lvl) {
        std::size_t delta = 0;
        for (std::size_t p = 0; p < machine_.P_; ++p) {
          delta = std::max(
              {delta, sends_per_rank_[lvl][p], recvs_per_rank_[lvl][p]});
        }
        if (delta > 0) {
          ledger.add_rounds(round_channel, static_cast<Level>(lvl), delta);
        }
      }
      break;
    }
    case Transport::kAllToAll: {
      // Bandwidth-optimal All-to-All: P-1 steps, every step charged the
      // largest per-pair buffer (empty slots still occupy the schedule).
      // The collective is one machine-wide operation, so its steps are
      // charged once, to the slowest level it touched (inter if any
      // frame crossed nodes, intra otherwise).
      if (machine_.P_ > 1) {
        bool any_inter = false;
        const std::size_t inter = static_cast<std::size_t>(Level::kInter);
        for (std::size_t p = 0; p < machine_.P_; ++p) {
          any_inter = any_inter || sends_per_rank_[inter][p] > 0;
        }
        ledger.add_rounds(round_channel,
                          any_inter ? Level::kInter : Level::kIntra,
                          machine_.P_ - 1);
        ledger.add_modeled_collective_words((machine_.P_ - 1) *
                                            max_pair_words_);
      }
      break;
    }
  }
  span_.reset();  // closes the span
}

Machine::ExchangeSession Machine::begin_session(Transport transport) {
  return ExchangeSession(*this, transport);
}

std::vector<std::vector<Delivery>> Machine::exchange(
    std::vector<std::vector<Envelope>> outboxes, Transport transport) {
  ExchangeSession session = begin_session(transport);
  auto inboxes = session.part(std::move(outboxes));
  session.finish();
  return inboxes;
}

void Machine::run_ranks(const std::function<void(std::size_t)>& body) const {
  obs::Span step("machine.run_ranks", obs::Category::kSuperstep, P_);
  parallel_for(P_, [&body](std::size_t p) {
    // Attribute everything the rank program records — including the
    // kernel spans below it — to rank p's track.
    obs::ScopedRank as_rank(p);
    obs::Span compute("rank.compute", obs::Category::kSuperstep, p);
    body(p);
  });
}

void Machine::run_ranks(const std::vector<std::size_t>& ranks,
                        const std::function<void(std::size_t)>& body) const {
  obs::Span step("machine.run_ranks", obs::Category::kSuperstep, ranks.size());
  parallel_for(ranks.size(), [&body, &ranks](std::size_t i) {
    const std::size_t p = ranks[i];
    obs::ScopedRank as_rank(p);
    obs::Span compute("rank.compute", obs::Category::kSuperstep, p);
    body(p);
  });
}

void Machine::first_touch() {
  run_ranks([this](std::size_t p) { pool_.touch(p); });
}

void Machine::reset_ledger() {
  std::vector<std::uint32_t> node_map = ledger_.node_map();
  ledger_ = CommLedger(P_);
  if (!node_map.empty()) ledger_.set_node_map(std::move(node_map));
}

}  // namespace sttsv::simt
