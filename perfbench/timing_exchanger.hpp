#pragma once
// A forwarding simt::Exchanger that records when the transport is busy.
//
// Every call the drivers make on the seam is passed to the wrapped
// exchanger unchanged; exchange(), Parts::part() and Parts::finish()
// additionally record their [begin, end) interval on whichever thread
// made the call (the pipelined drivers run parts on the SerialExecutor
// thread). The benchmark subtracts the union of these intervals from a
// driver call's wall time to get the driver's self time. The decorator
// moves no data and touches no ledger, which the benchmark's self-test
// checks bitwise.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "simt/reliable_exchange.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Interval {
  Clock::time_point begin;
  Clock::time_point end;
};

/// Length in seconds of the union of `intervals` clipped to [lo, hi].
inline double covered_seconds(std::vector<Interval> intervals,
                              Clock::time_point lo, Clock::time_point hi) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  Clock::duration total{0};
  Clock::time_point cursor = lo;
  for (const Interval& iv : intervals) {
    const Clock::time_point b = std::max(iv.begin, cursor);
    const Clock::time_point e = std::min(iv.end, hi);
    if (e > b) {
      total += e - b;
      cursor = e;
    }
  }
  return std::chrono::duration<double>(total).count();
}

class TimingExchanger final : public sttsv::simt::Exchanger {
 public:
  using Outboxes = std::vector<std::vector<sttsv::simt::Envelope>>;
  using Inboxes = std::vector<std::vector<sttsv::simt::Delivery>>;

  explicit TimingExchanger(sttsv::simt::Exchanger& inner)
      : Exchanger(inner.machine()), inner_(inner) {}

  Inboxes exchange(Outboxes outboxes,
                   sttsv::simt::Transport transport) override {
    const Clock::time_point t0 = Clock::now();
    Inboxes in = inner_.exchange(std::move(outboxes), transport);
    record(t0, Clock::now());
    return in;
  }

  [[nodiscard]] std::unique_ptr<Parts> begin_parts(
      sttsv::simt::Transport transport) override {
    return std::make_unique<TimedParts>(*this, inner_.begin_parts(transport));
  }

  void set_phase(const char* phase) override { inner_.set_phase(phase); }

  [[nodiscard]] bool supports_handler_delivery() const override {
    return inner_.supports_handler_delivery();
  }

  void set_delivery_handler(DeliveryHandler handler) override {
    inner_.set_delivery_handler(std::move(handler));
  }

  /// Returns and clears the intervals recorded since the last call.
  std::vector<Interval> take_intervals() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(intervals_, {});
  }

 private:
  class TimedParts final : public Parts {
   public:
    TimedParts(TimingExchanger& owner, std::unique_ptr<Parts> inner)
        : owner_(owner), inner_(std::move(inner)) {}

    Inboxes part(Outboxes outboxes) override {
      const Clock::time_point t0 = Clock::now();
      Inboxes in = inner_->part(std::move(outboxes));
      owner_.record(t0, Clock::now());
      return in;
    }

    Inboxes finish() override {
      const Clock::time_point t0 = Clock::now();
      Inboxes in = inner_->finish();
      owner_.record(t0, Clock::now());
      return in;
    }

   private:
    TimingExchanger& owner_;
    std::unique_ptr<Parts> inner_;
  };

  void record(Clock::time_point begin, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    intervals_.push_back(Interval{begin, end});
  }

  sttsv::simt::Exchanger& inner_;
  std::mutex mu_;
  std::vector<Interval> intervals_;  // guarded by mu_
};

}  // namespace perfbench
