#include "simt/reliable_exchange.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simt/fault_injector.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace sttsv::simt {

namespace {

// Wire format. All header fields are uint64 values bit-cast into the
// double payload stream; no arithmetic ever touches them.
//
// Data frame:  [magic, seq, payload_len, payload_cksum, header_cksum,
//               payload...]
// ACK frame:   [magic, entry_count, cksum, entries...] where an entry is
//              (seq << 1) | ok_bit; ok = accepted, !ok = NACK (payload
//              checksum mismatch, retransmit immediately).
constexpr std::uint64_t kMagicData = 0x5354'5356'4441'5441ULL;  // STSVDATA
constexpr std::uint64_t kMagicAck = 0x5354'5356'4143'4b21ULL;   // STSVACK!
constexpr std::size_t kDataHeaderWords = 5;
constexpr std::size_t kAckHeaderWords = 3;

double enc(std::uint64_t v) { return std::bit_cast<double>(v); }
std::uint64_t dec(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t finalize(std::uint64_t h) { return splitmix64(h); }

std::uint64_t payload_checksum(const double* words, std::size_t n) {
  std::uint64_t h = 0x600DC0DEULL;
  for (std::size_t i = 0; i < n; ++i) h = mix(h, dec(words[i]));
  return finalize(h);
}

std::uint64_t pair_id(std::size_t from, std::size_t to) {
  return (static_cast<std::uint64_t>(from) << 32) |
         static_cast<std::uint64_t>(to);
}

std::uint64_t data_header_checksum(std::uint64_t seq, std::uint64_t len,
                                   std::uint64_t payload_sum,
                                   std::size_t from, std::size_t to) {
  std::uint64_t h = kMagicData;
  h = mix(h, seq);
  h = mix(h, len);
  h = mix(h, payload_sum);
  h = mix(h, from);
  h = mix(h, to);
  return finalize(h);
}

struct PendingFrame {
  std::size_t from = 0;
  std::size_t to = 0;
  std::uint64_t seq = 0;
  PooledBuffer payload;
  bool acked = false;
  std::size_t attempts = 0;
};

/// Wire buffers are leased from the sender's pool shard with the exact
/// frame size, so framing neither reallocates nor over-reserves.
PooledBuffer encode_data(BufferPool& pool, const PendingFrame& f) {
  const std::uint64_t psum =
      payload_checksum(f.payload.data(), f.payload.size());
  PooledBuffer wire = pool.acquire(f.from, kDataHeaderWords + f.payload.size());
  wire.push_back(enc(kMagicData));
  wire.push_back(enc(f.seq));
  wire.push_back(enc(f.payload.size()));
  wire.push_back(enc(psum));
  wire.push_back(
      enc(data_header_checksum(f.seq, f.payload.size(), psum, f.from, f.to)));
  wire.append(f.payload.data(), f.payload.size());
  return wire;
}

struct DecodedData {
  std::uint64_t seq = 0;
  bool payload_ok = false;
  PooledBuffer payload;
};

/// False => frame unparseable (header damaged): no ACK/NACK possible, the
/// sender recovers it via retry on the missing ACK. On a valid payload
/// the delivery's buffer is stolen and the header consumed in place — the
/// payload is never copied off the wire.
bool decode_data(Delivery& d, std::size_t to, DecodedData& out) {
  if (d.data.size() < kDataHeaderWords) return false;
  if (dec(d.data[0]) != kMagicData) return false;
  const std::uint64_t seq = dec(d.data[1]);
  const std::uint64_t len = dec(d.data[2]);
  const std::uint64_t psum = dec(d.data[3]);
  if (dec(d.data[4]) != data_header_checksum(seq, len, psum, d.from, to)) {
    return false;
  }
  if (len != d.data.size() - kDataHeaderWords) return false;
  out.seq = seq;
  out.payload_ok =
      payload_checksum(d.data.data() + kDataHeaderWords, len) == psum;
  if (out.payload_ok) {
    out.payload = std::move(d.data);
    out.payload.consume_front(kDataHeaderWords);
  }
  return true;
}

struct AckEntry {
  std::uint64_t seq = 0;
  bool ok = false;
};

PooledBuffer encode_ack(BufferPool& pool, std::size_t from, std::size_t to,
                        const std::vector<AckEntry>& entries) {
  std::uint64_t h = mix(mix(mix(kMagicAck, entries.size()), from), to);
  PooledBuffer wire = pool.acquire(from, kAckHeaderWords + entries.size());
  wire.resize(kAckHeaderWords);
  for (const AckEntry& e : entries) {
    const std::uint64_t w = (e.seq << 1) | (e.ok ? 1ULL : 0ULL);
    h = mix(h, w);
    wire.push_back(enc(w));
  }
  wire[0] = enc(kMagicAck);
  wire[1] = enc(entries.size());
  wire[2] = enc(finalize(h));
  return wire;
}

bool decode_ack(const Delivery& d, std::size_t to,
                std::vector<AckEntry>& out) {
  if (d.data.size() < kAckHeaderWords) return false;
  if (dec(d.data[0]) != kMagicAck) return false;
  const std::uint64_t count = dec(d.data[1]);
  if (count != d.data.size() - kAckHeaderWords) return false;
  std::uint64_t h = kMagicAck;
  h = mix(h, count);
  h = mix(h, d.from);
  h = mix(h, to);
  for (std::size_t i = 0; i < count; ++i) {
    h = mix(h, dec(d.data[kAckHeaderWords + i]));
  }
  if (finalize(h) != dec(d.data[2])) return false;
  out.clear();
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t w = dec(d.data[kAckHeaderWords + i]);
    out.push_back(AckEntry{w >> 1, (w & 1ULL) != 0});
  }
  return true;
}

std::string describe(const FaultReport& report) {
  std::ostringstream os;
  os << "resilient exchange failed: " << report.undelivered.size()
     << " frame(s) undelivered after " << report.attempts_used
     << " attempt(s) in phase '" << report.phase << "' (exchange #"
     << report.exchange_index << ")";
  return os.str();
}

}  // namespace

FaultError::FaultError(FaultReport report)
    : std::runtime_error(describe(report)), report_(std::move(report)) {}

RankLossError::RankLossError(FaultReport report, RankLossReport loss)
    : FaultError(std::move(report)), loss_(std::move(loss)) {}

namespace {

/// Default Parts: collect every part's envelopes and run one ordinary
/// exchange() at finish(). Envelopes are concatenated per sender in part
/// order; the exchanger's own stable sort by destination then produces
/// the same frame order — and for ReliableExchange the same sequence
/// numbers, checksums, injected-fault pattern and ledger — as if the
/// caller had packed one big outbox set.
class BufferedParts final : public Exchanger::Parts {
 public:
  BufferedParts(Exchanger& exchanger, Transport transport)
      : exchanger_(exchanger), transport_(transport) {}

  std::vector<std::vector<Delivery>> part(
      std::vector<std::vector<Envelope>> outboxes) override {
    STTSV_CHECK(!finished_, "exchange parts already finished");
    if (merged_.empty()) {
      merged_ = std::move(outboxes);
    } else {
      STTSV_REQUIRE(outboxes.size() == merged_.size(),
                    "every part needs one outbox per rank");
      for (std::size_t p = 0; p < merged_.size(); ++p) {
        for (Envelope& env : outboxes[p]) {
          merged_[p].push_back(std::move(env));
        }
      }
    }
    return {};
  }

  std::vector<std::vector<Delivery>> finish() override {
    STTSV_CHECK(!finished_, "exchange parts already finished");
    finished_ = true;
    if (merged_.empty()) return {};
    return exchanger_.exchange(std::move(merged_), transport_);
  }

 private:
  Exchanger& exchanger_;
  Transport transport_;
  std::vector<std::vector<Envelope>> merged_;
  bool finished_ = false;
};

/// DirectExchange Parts: a live Machine::ExchangeSession, so each part
/// hits the wire (and the ledger's word counters) as soon as it is
/// produced while rounds settle over the union at finish().
class DirectParts final : public Exchanger::Parts {
 public:
  DirectParts(Machine& machine, Transport transport)
      : session_(machine.begin_session(transport)) {}

  std::vector<std::vector<Delivery>> part(
      std::vector<std::vector<Envelope>> outboxes) override {
    return session_.part(std::move(outboxes));
  }

  std::vector<std::vector<Delivery>> finish() override {
    session_.finish();
    return {};
  }

 private:
  Machine::ExchangeSession session_;
};

}  // namespace

std::unique_ptr<Exchanger::Parts> Exchanger::begin_parts(Transport transport) {
  return std::make_unique<BufferedParts>(*this, transport);
}

std::unique_ptr<Exchanger::Parts> DirectExchange::begin_parts(
    Transport transport) {
  return std::make_unique<DirectParts>(machine_, transport);
}

ReliableExchange::ReliableExchange(Machine& machine, RetryPolicy retry,
                                   RecoveryPolicy recovery,
                                   LivenessPolicy liveness)
    : Exchanger(machine),
      retry_(retry),
      recovery_(recovery),
      liveness_(liveness) {
  STTSV_REQUIRE(retry_.max_attempts >= 1,
                "retry policy needs at least one attempt");
  STTSV_REQUIRE(!liveness_.enabled || liveness_.suspect_after_attempts >= 1,
                "liveness needs at least one silent attempt to suspect");
}

std::vector<std::vector<Delivery>> ReliableExchange::exchange(
    std::vector<std::vector<Envelope>> outboxes, Transport transport) {
  const std::size_t P = machine_.num_ranks();
  STTSV_REQUIRE(outboxes.size() == P, "one outbox per rank required");
  ++exchange_counter_;
  ++stats_.exchanges;

  obs::Span protocol_span("rex.exchange", obs::Category::kExchange);

  FaultInjector* injector = machine_.fault_injector();
  const std::size_t log_begin =
      injector != nullptr ? injector->log().size() : 0;

  // Frame the outboxes in the raw machine's deterministic order (stable
  // by destination) so per-pair sequence numbers reproduce the fault-free
  // delivery order exactly.
  std::vector<PendingFrame> frames;
  for (std::size_t from = 0; from < P; ++from) {
    for (const Envelope& env : outboxes[from]) {
      STTSV_REQUIRE(env.to < P, "envelope destination out of range");
      STTSV_REQUIRE(env.to != from,
                    "self-sends must be handled as local copies");
      STTSV_REQUIRE(env.overhead_words == 0,
                    "reliable exchange frames raw payloads only");
    }
    order_by_destination(outboxes[from]);
    for (Envelope& env : outboxes[from]) {
      PendingFrame f;
      f.from = from;
      f.to = env.to;
      f.seq = next_seq_[pair_id(from, env.to)]++;
      f.payload = std::move(env.data);
      frames.push_back(std::move(f));
    }
  }
  stats_.data_frames += frames.size();
  protocol_span.set_arg(frames.size());

  // (pair, seq) -> frame index, for settling ACKs.
  std::unordered_map<std::uint64_t,
                     std::unordered_map<std::uint64_t, std::size_t>>
      frame_index;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frame_index[pair_id(frames[i].from, frames[i].to)][frames[i].seq] = i;
  }

  struct Accepted {
    std::size_t from = 0;
    std::uint64_t seq = 0;
    PooledBuffer payload;
  };
  std::vector<std::vector<Accepted>> accepted(P);
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>>
      accepted_seqs;

  auto accept_frame = [&](std::size_t receiver, std::size_t sender,
                          std::uint64_t seq,
                          PooledBuffer&& payload) -> bool {
    auto& seen = accepted_seqs[pair_id(sender, receiver)];
    if (seen.contains(seq)) {
      ++stats_.duplicate_frames_ignored;
      return false;
    }
    seen.insert(seq);
    accepted[receiver].push_back(
        Accepted{sender, seq, std::move(payload)});
    return true;
  };

  // Liveness evidence: consecutive protocol attempts in which a probed
  // peer (endpoint of a pending frame) produced no delivery at all. Any
  // observed frame from a rank — data, ACK, even one too damaged to
  // decode — proves it alive, because wire metadata (Delivery::from) is
  // trustworthy in the simulator.
  std::vector<std::size_t> silent(P, 0);

  // One protocol attempt: transmit the given frames, then run an ACK/NACK
  // round. Both wire trips pass through the fault injector.
  auto run_attempt = [&](const std::vector<std::size_t>& send_idx,
                         bool first, Transport t) {
    std::vector<char> probed(P, 0);
    std::vector<char> heard(P, 0);
    for (const std::size_t idx : send_idx) {
      probed[frames[idx].from] = 1;
      probed[frames[idx].to] = 1;
    }
    const auto settle_silence = [&] {
      if (!liveness_.enabled) return;
      for (std::size_t r = 0; r < P; ++r) {
        if (probed[r] == 0) continue;
        if (heard[r] != 0) {
          silent[r] = 0;
        } else {
          ++silent[r];
        }
      }
    };

    std::vector<std::vector<Envelope>> wire_out(P);
    for (const std::size_t idx : send_idx) {
      PendingFrame& f = frames[idx];
      ++f.attempts;
      if (!first) ++stats_.retransmitted_frames;
      Envelope env;
      env.to = f.to;
      env.data = encode_data(machine_.pool(), f);
      // The payload is goodput exactly once, on its first transmission;
      // headers always — and whole retransmissions — are overhead.
      env.overhead_words = first ? kDataHeaderWords : env.data.size();
      wire_out[f.from].push_back(std::move(env));
    }
    auto wire_in = machine_.exchange(std::move(wire_out), t);

    std::vector<std::map<std::size_t, std::vector<AckEntry>>> acks(P);
    for (std::size_t r = 0; r < P; ++r) {
      for (Delivery& d : wire_in[r]) {
        heard[d.from] = 1;
        DecodedData dd;
        if (!decode_data(d, r, dd)) {
          ++stats_.corrupt_frames_detected;
          continue;  // header damaged: silence, the retry recovers it
        }
        if (!dd.payload_ok) {
          ++stats_.corrupt_frames_detected;
          ++stats_.nack_entries;
          acks[r][d.from].push_back(AckEntry{dd.seq, false});
          continue;
        }
        accept_frame(r, d.from, dd.seq, std::move(dd.payload));
        // Accept and duplicate alike are (re-)ACKed, so a lost ACK heals.
        acks[r][d.from].push_back(AckEntry{dd.seq, true});
      }
    }

    bool any_acks = false;
    for (const auto& per_rank : acks) any_acks |= !per_rank.empty();
    if (!any_acks) {
      settle_silence();
      return;
    }

    // ACK/NACK traffic is pure protocol: the round lands on the overhead
    // channel in any exported trace.
    obs::Span ack_span("rex.ack-round", obs::Category::kRetry);
    std::vector<std::vector<Envelope>> ack_out(P);
    for (std::size_t r = 0; r < P; ++r) {
      for (const auto& [sender, entries] : acks[r]) {
        Envelope env;
        env.to = sender;
        env.data = encode_ack(machine_.pool(), r, sender, entries);
        env.overhead_words = env.data.size();
        ack_out[r].push_back(std::move(env));
        ++stats_.ack_frames;
      }
    }
    auto ack_in = machine_.exchange(std::move(ack_out),
                                    Transport::kPointToPoint);
    for (std::size_t s = 0; s < P; ++s) {
      for (const Delivery& d : ack_in[s]) {
        heard[d.from] = 1;
        std::vector<AckEntry> entries;
        if (!decode_ack(d, s, entries)) {
          ++stats_.corrupt_frames_detected;
          continue;
        }
        const auto pit = frame_index.find(pair_id(s, d.from));
        if (pit == frame_index.end()) continue;
        for (const AckEntry& e : entries) {
          if (!e.ok) continue;  // NACK: stays pending, retried next loop
          const auto fit = pit->second.find(e.seq);
          if (fit != pit->second.end()) frames[fit->second].acked = true;
        }
      }
    }
    settle_silence();
  };

  std::size_t attempt = 0;
  while (attempt < retry_.max_attempts) {
    std::vector<std::size_t> unacked;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (!frames[i].acked) unacked.push_back(i);
    }
    if (unacked.empty()) break;
    if (attempt > 0) {
      // Exponential backoff: base << (attempt-1), saturating at the cap.
      std::size_t backoff = retry_.backoff_base_rounds;
      for (std::size_t k = 1; k < attempt && backoff < retry_.backoff_cap_rounds;
           ++k) {
        backoff *= 2;
      }
      backoff = std::min(backoff, retry_.backoff_cap_rounds);
      obs::Span backoff_span("rex.backoff", obs::Category::kRetry, backoff);
      machine_.ledger().add_rounds(Channel::kOverhead, backoff);
      stats_.backoff_rounds += backoff;
    }
    if (attempt == 0) {
      run_attempt(unacked, true, transport);
    } else {
      obs::Span retry_span("rex.retry", obs::Category::kRetry,
                           unacked.size());
      run_attempt(unacked, false, Transport::kPointToPoint);
    }
    ++attempt;
  }

  std::vector<std::size_t> undelivered;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (!frames[i].acked) undelivered.push_back(i);
  }
  if (!undelivered.empty()) {
    FaultReport report;
    report.phase = phase_;
    report.exchange_index = exchange_counter_;
    report.attempts_used = attempt;
    for (const std::size_t idx : undelivered) {
      const PendingFrame& f = frames[idx];
      report.undelivered.push_back(
          FrameFault{f.from, f.to, f.seq, f.payload.size(), f.attempts});
      report.affected_ranks.push_back(f.from);
      report.affected_ranks.push_back(f.to);
    }
    std::sort(report.affected_ranks.begin(), report.affected_ranks.end());
    report.affected_ranks.erase(std::unique(report.affected_ranks.begin(),
                                            report.affected_ranks.end()),
                                report.affected_ranks.end());
    report.injection_log_begin = log_begin;
    report.injection_log_end =
        injector != nullptr ? injector->log().size() : 0;

    if (liveness_.enabled) {
      // Verdict: an undelivered frame's peer that never produced a single
      // delivery for `suspect_after_attempts` consecutive attempts is
      // suspected dead. Silence alone cannot convict: once a peer dies,
      // its neighbours' remaining traffic all targets the corpse, so they
      // go quiet too (nothing deliverable to say) — the membership truth
      // arbitrates, standing in for the out-of-band failure detector a
      // real cluster manager provides. A live-but-quiet rank (fully
      // partitioned link) therefore stays a link fault. The verdict fires
      // under either recovery policy — a degraded replay cannot reach a
      // dead owner.
      std::vector<std::size_t> suspects;
      std::size_t max_silent = 0;
      for (const std::size_t r : report.affected_ranks) {
        if (silent[r] >= liveness_.suspect_after_attempts &&
            !machine_.alive(r)) {
          suspects.push_back(r);
          max_silent = std::max(max_silent, silent[r]);
        }
      }
      if (!suspects.empty()) {
        ++stats_.rank_loss_verdicts;
        for (const std::size_t r : suspects) machine_.mark_dead(r);
        RankLossReport loss;
        loss.dead_ranks = suspects;
        loss.phase = phase_;
        loss.exchange_index = exchange_counter_;
        loss.silent_attempts = max_silent;
        loss.undelivered_frames = report.undelivered.size();
        loss.membership_epoch = machine_.membership_epoch();
        loss.injection_log_begin = report.injection_log_begin;
        loss.injection_log_end = report.injection_log_end;
        machine_.record_rank_loss(loss);
        throw RankLossError(std::move(report), std::move(loss));
      }
    }

    if (recovery_ == RecoveryPolicy::kFailFast) {
      throw FaultError(std::move(report));
    }

    // kDegrade: the sender still owns every undelivered payload (the
    // owner-compute invariant — tensor blocks never travel, so each
    // contribution is deterministically replayable). Replay over a clean
    // channel with the injector bypassed, charged entirely as overhead.
    obs::Span replay_span("rex.degraded-replay", obs::Category::kRetry,
                          undelivered.size());
    machine_.set_fault_injector(nullptr);
    std::vector<std::vector<Envelope>> replay_out(P);
    for (const std::size_t idx : undelivered) {
      const PendingFrame& f = frames[idx];
      Envelope env;
      env.to = f.to;
      env.data = encode_data(machine_.pool(), f);
      env.overhead_words = env.data.size();
      replay_out[f.from].push_back(std::move(env));
    }
    auto replay_in =
        machine_.exchange(std::move(replay_out), Transport::kPointToPoint);
    machine_.set_fault_injector(injector);
    for (std::size_t r = 0; r < P; ++r) {
      for (Delivery& d : replay_in[r]) {
        DecodedData dd;
        STTSV_CHECK(decode_data(d, r, dd) && dd.payload_ok,
                    "degraded replay corrupted on a clean channel");
        // A frame whose ACK (not data) was lost is already accepted;
        // the idempotent accept path absorbs the replay copy.
        accept_frame(r, d.from, dd.seq, std::move(dd.payload));
      }
    }
    stats_.degraded_deliveries += undelivered.size();
    report.degraded = true;
    reports_.push_back(std::move(report));
  }

  // Assemble inboxes in the fault-free machine's order: by sender, then
  // by sequence number (== the sender's post-sort envelope order).
  std::vector<std::vector<Delivery>> inboxes(P);
  std::size_t delivered = 0;
  for (std::size_t r = 0; r < P; ++r) {
    std::sort(accepted[r].begin(), accepted[r].end(),
              [](const Accepted& a, const Accepted& b) {
                return a.from != b.from ? a.from < b.from : a.seq < b.seq;
              });
    inboxes[r].reserve(accepted[r].size());
    for (Accepted& a : accepted[r]) {
      inboxes[r].push_back(Delivery{a.from, std::move(a.payload)});
      ++delivered;
    }
  }
  if (delivered != frames.size()) {
    // Only reachable when a dead endpoint swallowed frames on the clean
    // degraded channel (the machine drops them below the protocol): a
    // replay cannot heal rank loss, so surface a structured failure
    // instead of an internal-invariant crash.
    FaultReport incomplete;
    incomplete.phase = phase_;
    incomplete.exchange_index = exchange_counter_;
    incomplete.attempts_used = retry_.max_attempts;
    incomplete.degraded = true;
    for (const PendingFrame& f : frames) {
      if (!accepted_seqs[pair_id(f.from, f.to)].contains(f.seq)) {
        incomplete.undelivered.push_back(
            FrameFault{f.from, f.to, f.seq, f.payload.size(), f.attempts});
        incomplete.affected_ranks.push_back(f.from);
        incomplete.affected_ranks.push_back(f.to);
      }
    }
    std::sort(incomplete.affected_ranks.begin(),
              incomplete.affected_ranks.end());
    incomplete.affected_ranks.erase(
        std::unique(incomplete.affected_ranks.begin(),
                    incomplete.affected_ranks.end()),
        incomplete.affected_ranks.end());
    incomplete.injection_log_begin = log_begin;
    incomplete.injection_log_end =
        injector != nullptr ? injector->log().size() : 0;
    throw FaultError(std::move(incomplete));
  }
  return inboxes;
}

void ReliableExchange::publish_metrics(obs::MetricsRegistry& out,
                                       const std::string& prefix) const {
  out.set_counter(prefix + ".exchanges", stats_.exchanges);
  out.set_counter(prefix + ".data_frames", stats_.data_frames);
  out.set_counter(prefix + ".retransmitted_frames",
                  stats_.retransmitted_frames);
  out.set_counter(prefix + ".ack_frames", stats_.ack_frames);
  out.set_counter(prefix + ".nack_entries", stats_.nack_entries);
  out.set_counter(prefix + ".corrupt_frames_detected",
                  stats_.corrupt_frames_detected);
  out.set_counter(prefix + ".duplicate_frames_ignored",
                  stats_.duplicate_frames_ignored);
  out.set_counter(prefix + ".degraded_deliveries",
                  stats_.degraded_deliveries);
  out.set_counter(prefix + ".backoff_rounds", stats_.backoff_rounds);
  out.set_counter(prefix + ".rank_loss_verdicts", stats_.rank_loss_verdicts);
  out.set_counter(prefix + ".degraded_reports", reports_.size());
}

}  // namespace sttsv::simt
