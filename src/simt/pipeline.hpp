#pragma once
// Compute/communication overlap for the Algorithm-5 drivers
// (DESIGN.md §12). A phase's traffic is split into pair-block chunks and
// fed through an Exchanger::Parts session: while the wire carries chunk
// t, the driver packs (or runs kernels for) chunk t+1 — classic double
// buffering. The wire work runs on one persistent background thread
// (SerialExecutor), so parts execute strictly in submission order and
// every RNG/ledger/sequence-number consumer sees exactly the serialized
// order of events. That, plus Machine::ExchangeSession deferring rounds
// to the union of parts, is why y stays bitwise identical and the
// CommLedger reports the same words/messages/rounds with the pipeline on
// or off.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "simt/parallel_for.hpp"
#include "simt/reliable_exchange.hpp"
#include "support/check.hpp"

namespace sttsv::simt {

/// How a driver schedules each communication phase.
enum class PipelineMode {
  /// Pack everything, run one exchange, then consume — the historical
  /// schedule; kept as the A/B baseline for tests and bench_exchange.
  kSerialized,
  /// Overlap: chunk t+1 packs/computes while chunk t is on the wire.
  kDoubleBuffered,
};

/// One persistent FIFO worker thread shared by every pipelined exchange
/// in the process. Strict submission order makes the wire-side work a
/// deterministic serialization regardless of driver timing.
class SerialExecutor {
 public:
  static SerialExecutor& instance();

  SerialExecutor(const SerialExecutor&) = delete;
  SerialExecutor& operator=(const SerialExecutor&) = delete;

  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue([task]() { (*task)(); });
    return result;
  }

 private:
  SerialExecutor();
  ~SerialExecutor();
  void enqueue(std::function<void()> job);
  void loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_;
  bool stop_ = false;
  std::thread worker_;
};

/// Runs one logical exchange as `chunks` parts with double buffering.
///
///   pack(c)    -> outboxes for chunk c (may run kernels first); driver
///                 thread, overlapped with chunk c-1's wire time.
///   consume(in)-> handle one part's deliveries; driver thread. Called
///                 once per completed part and once for finish()'s
///                 deferred deliveries (protocol exchangers deliver
///                 everything there; the vector may be empty).
///
/// kSerialized (or a single chunk) collapses to pack-all + one
/// exchange() + consume — the historical schedule. So does a process with
/// one host thread (host_concurrency() == 1): with no second core to
/// overlap with, the wire thread would only add two handoffs per part.
/// y and the ledger are bitwise the same under either schedule.
template <class PackFn, class ConsumeFn>
void pipelined_exchange(Exchanger& exchanger, Transport transport,
                        std::size_t chunks, PipelineMode mode, PackFn&& pack,
                        ConsumeFn&& consume) {
  STTSV_REQUIRE(chunks >= 1, "pipelined exchange needs at least one chunk");
  if (mode == PipelineMode::kSerialized || chunks == 1 ||
      host_concurrency() == 1) {
    std::vector<std::vector<Envelope>> merged;
    for (std::size_t c = 0; c < chunks; ++c) {
      std::vector<std::vector<Envelope>> out = pack(c);
      if (merged.empty()) {
        merged = std::move(out);
      } else {
        STTSV_CHECK(out.size() == merged.size(),
                    "pack produced inconsistent outbox counts");
        for (std::size_t p = 0; p < merged.size(); ++p) {
          for (Envelope& env : out[p]) merged[p].push_back(std::move(env));
        }
      }
    }
    consume(exchanger.exchange(std::move(merged), transport));
    return;
  }

  auto parts = exchanger.begin_parts(transport);
  SerialExecutor& wire = SerialExecutor::instance();
  std::future<std::vector<std::vector<Delivery>>> inflight;
  std::vector<std::vector<Delivery>> ready;
  bool have_inflight = false;
  bool have_ready = false;
  try {
    for (std::size_t c = 0; c < chunks; ++c) {
      std::vector<std::vector<Envelope>> out;
      {
        obs::Span pack_span("pipeline.pack", obs::Category::kPipeline, c);
        out = pack(c);
      }
      if (have_inflight) {
        obs::Span wait_span("pipeline.wait", obs::Category::kPipeline, c - 1);
        ready = inflight.get();
        have_inflight = false;
        have_ready = true;
      }
      {
        obs::Span post_span("pipeline.post", obs::Category::kPipeline, c);
        inflight = wire.submit(
            [raw = parts.get(), boxed = std::move(out)]() mutable {
              return raw->part(std::move(boxed));
            });
        have_inflight = true;
      }
      if (have_ready) {
        obs::Span consume_span("pipeline.consume", obs::Category::kPipeline,
                               c - 1);
        consume(std::move(ready));
        have_ready = false;
      }
    }
    if (have_inflight) {
      obs::Span wait_span("pipeline.wait", obs::Category::kPipeline,
                          chunks - 1);
      ready = inflight.get();
      have_inflight = false;
      consume(std::move(ready));
    }
  } catch (...) {
    // Never let `parts` die while the wire thread may still touch it.
    if (have_inflight) inflight.wait();
    throw;
  }
  obs::Span finish_span("pipeline.finish", obs::Category::kPipeline, chunks);
  consume(parts->finish());
}

}  // namespace sttsv::simt
