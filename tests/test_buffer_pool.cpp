// Buffer pool and pipelined exchange tests (DESIGN.md §12): PooledBuffer
// semantics, slab recycling and exhaustion, zero-word messages through
// the pooled wire, the allocation guard's proof that warmed supersteps
// stay off the heap, and bitwise equality of the serialized vs
// double-buffered phase schedules (outputs and every ledger channel).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "batch/batched_run.hpp"
#include "batch/plan.hpp"
#include "core/parallel_sttsv.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/buffer_pool.hpp"
#include "simt/machine.hpp"
#include "simt/parallel_for.hpp"
#include "simt/pipeline.hpp"
#include "simt/reliable_exchange.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv {
namespace {

using simt::AllocationGuard;
using simt::BufferPool;
using simt::Delivery;
using simt::Envelope;
using simt::PipelineMode;
using simt::PooledBuffer;

TEST(PooledBuffer, UnpooledBasicsAndGrowth) {
  PooledBuffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  for (std::size_t i = 0; i < 100; ++i) {
    buf.push_back(static_cast<double>(i));
  }
  ASSERT_EQ(buf.size(), 100u);
  EXPECT_EQ(buf[0], 0.0);
  EXPECT_EQ(buf[99], 99.0);

  const PooledBuffer lit = {1.0, 2.0, 3.0};
  EXPECT_EQ(lit, (std::vector<double>{1.0, 2.0, 3.0}));

  const std::vector<double> v{4.0, 5.0};
  const PooledBuffer from_vec = v;  // implicit, the cold-site shim
  EXPECT_EQ(from_vec, v);

  const PooledBuffer filled(5, 7.5);
  EXPECT_EQ(filled, (std::vector<double>(5, 7.5)));
}

TEST(PooledBuffer, MoveTransfersStorage) {
  BufferPool pool(2);
  PooledBuffer a = pool.acquire(1, 10);
  a.append(std::vector<double>{1.0, 2.0, 3.0}.data(), 3);
  const double* storage = a.data();
  PooledBuffer b = std::move(a);
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(b, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): reset state

  PooledBuffer c;
  c = std::move(b);
  EXPECT_EQ(c.data(), storage);
  EXPECT_EQ(c.size(), 3u);
}

TEST(PooledBuffer, ConsumeFrontIsZeroCopy) {
  BufferPool pool(1);
  PooledBuffer buf = pool.acquire(0, 8);
  for (std::size_t i = 0; i < 8; ++i) buf.push_back(static_cast<double>(i));
  const double* before = buf.data();
  buf.consume_front(3);
  EXPECT_EQ(buf.data(), before + 3);  // view advanced, nothing copied
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf[0], 3.0);
  EXPECT_THROW(buf.consume_front(6), PreconditionError);
}

TEST(PooledBuffer, CloneAndReleaseRecycleSlabs) {
  BufferPool pool(1);
  PooledBuffer a = pool.acquire(0, 4);
  a.push_back(42.0);
  PooledBuffer b = a.clone();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.data(), b.data());

  const auto live_before = pool.stats().slabs_live;
  a.release();
  b.release();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(pool.stats().slabs_live, live_before);  // cached, not freed
  // Both slabs are back on the free list: two fresh acquires reuse them.
  const auto allocs = pool.stats().slab_allocations;
  PooledBuffer c = pool.acquire(0, 4);
  PooledBuffer d = pool.acquire(0, 4);
  EXPECT_EQ(pool.stats().slab_allocations, allocs);
  (void)c;
  (void)d;
}

TEST(BufferPool, BucketCapacityRoundsUpInPowersOfTwo) {
  EXPECT_EQ(BufferPool::bucket_capacity(0), BufferPool::kMinSlabWords);
  EXPECT_EQ(BufferPool::bucket_capacity(1), BufferPool::kMinSlabWords);
  EXPECT_EQ(BufferPool::bucket_capacity(BufferPool::kMinSlabWords),
            BufferPool::kMinSlabWords);
  EXPECT_EQ(BufferPool::bucket_capacity(BufferPool::kMinSlabWords + 1),
            2 * BufferPool::kMinSlabWords);
  EXPECT_EQ(BufferPool::bucket_capacity(1000), 1024u);
}

TEST(BufferPool, SteadyStateRecyclesInsteadOfAllocating) {
  BufferPool pool(3);
  { PooledBuffer warm = pool.acquire(2, 100); }
  const auto allocs = pool.stats().slab_allocations;
  for (int round = 0; round < 50; ++round) {
    PooledBuffer buf = pool.acquire(2, 100);
    buf.resize(100);
  }
  EXPECT_EQ(pool.stats().slab_allocations, allocs);
  EXPECT_GE(pool.stats().reuses, 50u);
}

TEST(BufferPool, ExhaustionGrowsAndThenServesFromCache) {
  BufferPool pool(1);
  pool.reserve(0, 64, 2);
  const auto after_reserve = pool.stats().slab_allocations;
  EXPECT_EQ(after_reserve, 2u);

  // Demanding more simultaneous buffers than reserved must grow the pool,
  // not fail; the grown slabs then serve the next wave allocation-free.
  {
    std::vector<PooledBuffer> wave;
    for (int i = 0; i < 5; ++i) wave.push_back(pool.acquire(0, 64));
    EXPECT_EQ(pool.stats().slab_allocations, 5u);
  }
  {
    AllocationGuard guard(pool);
    std::vector<PooledBuffer> wave;
    for (int i = 0; i < 5; ++i) wave.push_back(pool.acquire(0, 64));
    EXPECT_EQ(guard.new_slab_allocations(), 0u);
  }
  // A pooled buffer outgrowing its slab trades up within its shard.
  PooledBuffer growing = pool.acquire(0, BufferPool::kMinSlabWords);
  for (std::size_t i = 0; i < 4 * BufferPool::kMinSlabWords; ++i) {
    growing.push_back(static_cast<double>(i));
  }
  EXPECT_EQ(growing.size(), 4 * BufferPool::kMinSlabWords);
  EXPECT_EQ(growing[BufferPool::kMinSlabWords], BufferPool::kMinSlabWords);
}

TEST(BufferPool, StatsTallyExactlyAcrossShardsAndThreads) {
  // 16 tasks on 4 threads share 4 shards; each task holds at most one
  // slab per bucket at a time, so 4 reserved slabs per (shard, bucket)
  // serve every acquire from the free lists.
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kTasks = 16;
  constexpr std::size_t kCycles = 25;
  simt::ConcurrencyGuard threads(4);
  BufferPool pool(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    pool.reserve(s, 40, 4);
    pool.reserve(s, 200, 4);
  }
  const BufferPool::Stats reserved = pool.stats();
  EXPECT_EQ(reserved.acquires, 0u);
  EXPECT_EQ(reserved.reuses, 0u);
  simt::parallel_for(kTasks, [&](std::size_t task) {
    const std::size_t shard = task % kShards;
    for (std::size_t c = 0; c < kCycles; ++c) {
      PooledBuffer small = pool.acquire(shard, 40);
      PooledBuffer large = pool.acquire(shard, 200);
      small.push_back(static_cast<double>(c));
      large.push_back(static_cast<double>(task));
    }
  });
  const BufferPool::Stats after = pool.stats();
  EXPECT_EQ(after.acquires, kTasks * kCycles * 2);
  EXPECT_EQ(after.reuses, after.acquires);
  EXPECT_EQ(after.slab_allocations, reserved.slab_allocations);

  // Unreserved buckets: every acquire either reuses a slab or allocates
  // one, whatever the interleaving.
  simt::parallel_for(kTasks, [&](std::size_t task) {
    for (std::size_t c = 0; c < kCycles; ++c) {
      PooledBuffer buf = pool.acquire(task % kShards, 1000);
      buf.push_back(1.0);
    }
  });
  const BufferPool::Stats last = pool.stats();
  EXPECT_EQ(last.acquires, 2 * kTasks * kCycles + kTasks * kCycles);
  EXPECT_EQ(last.acquires - last.reuses,
            last.slab_allocations - reserved.slab_allocations);
  EXPECT_GE(last.slab_allocations - reserved.slab_allocations, kShards);
}

TEST(BufferPool, TrimFreesIdleSlabsOnly) {
  BufferPool pool(1);
  PooledBuffer held = pool.acquire(0, 32);
  { PooledBuffer idle = pool.acquire(0, 32); }
  EXPECT_EQ(pool.stats().slabs_live, 2u);
  pool.trim();
  EXPECT_EQ(pool.stats().slabs_live, 1u);  // the held slab survives
  held.push_back(1.0);
  EXPECT_EQ(held[0], 1.0);
}

TEST(Exchange, ZeroWordMessagesTravelThePooledPath) {
  // An empty message still occupies a round slot and produces an empty
  // delivery; it just carries no ledger words.
  simt::Machine machine(3);
  std::vector<std::vector<Envelope>> outboxes(3);
  outboxes[0].push_back(Envelope{1, machine.pool().acquire(0, 0)});
  outboxes[2].push_back(Envelope{1, machine.pool().acquire(2, 16)});
  auto in = machine.exchange(std::move(outboxes),
                             simt::Transport::kPointToPoint);
  ASSERT_EQ(in[1].size(), 2u);
  EXPECT_EQ(in[1][0].from, 0u);
  EXPECT_TRUE(in[1][0].data.empty());
  EXPECT_EQ(in[1][1].from, 2u);
  EXPECT_TRUE(in[1][1].data.empty());
  EXPECT_EQ(machine.ledger().total_words(), 0u);
  // König schedule: rank 1 receives twice, so the exchange takes 2 rounds.
  EXPECT_EQ(machine.ledger().rounds(), 2u);
  machine.ledger().verify_conservation();
}

TEST(Exchange, EmptyOutboxSessionLeavesLedgerUntouched) {
  simt::Machine machine(2);
  {
    auto session = machine.begin_session(simt::Transport::kAllToAll);
    auto in = session.part(std::vector<std::vector<Envelope>>(2));
    EXPECT_TRUE(in[0].empty() && in[1].empty());
    session.finish();
  }
  // A part did run (with nothing in it), so All-to-All still charges its
  // P-1 schedule slots; no words move on any channel.
  EXPECT_EQ(machine.ledger().total_words(), 0u);
  EXPECT_EQ(machine.ledger().total_words(simt::Channel::kOverhead), 0u);
  EXPECT_EQ(machine.ledger().modeled_collective_words(), 0u);
}

TEST(Exchange, AbandonedSessionChargesNothing) {
  simt::Machine machine(4);
  {
    auto session = machine.begin_session(simt::Transport::kPointToPoint);
    (void)session;  // destroyed without a single part
  }
  EXPECT_EQ(machine.ledger().rounds(), 0u);
  EXPECT_EQ(machine.ledger().total_words(), 0u);
}

// ---------------------------------------------------------------------------
// Pipeline equivalence and steady-state allocation behaviour on the real
// Algorithm-5 drivers.
// ---------------------------------------------------------------------------

struct RunSetup {
  std::unique_ptr<partition::TetraPartition> part;
  std::unique_ptr<partition::VectorDistribution> dist;
  tensor::SymTensor3 a;
  std::vector<double> x;
};

RunSetup make_setup(std::size_t n, std::uint64_t seed) {
  auto part = std::make_unique<partition::TetraPartition>(
      partition::TetraPartition::build(steiner::spherical_system(2)));
  auto dist = std::make_unique<partition::VectorDistribution>(*part, n);
  Rng rng(seed);
  auto a = tensor::random_symmetric(n, rng);
  auto x = rng.uniform_vector(n);
  return RunSetup{std::move(part), std::move(dist), std::move(a), std::move(x)};
}

void expect_ledgers_identical(const simt::CommLedger& lhs,
                              const simt::CommLedger& rhs) {
  constexpr simt::Channel kOverhead = simt::Channel::kOverhead;
  ASSERT_EQ(lhs.num_ranks(), rhs.num_ranks());
  for (std::size_t p = 0; p < lhs.num_ranks(); ++p) {
    EXPECT_EQ(lhs.words_sent(p), rhs.words_sent(p)) << "p=" << p;
    EXPECT_EQ(lhs.words_received(p), rhs.words_received(p)) << "p=" << p;
    EXPECT_EQ(lhs.messages_sent(p), rhs.messages_sent(p)) << "p=" << p;
    EXPECT_EQ(lhs.messages_received(p), rhs.messages_received(p)) << "p=" << p;
    EXPECT_EQ(lhs.words_sent(kOverhead, p), rhs.words_sent(kOverhead, p));
    EXPECT_EQ(lhs.words_received(kOverhead, p),
              rhs.words_received(kOverhead, p));
  }
  EXPECT_EQ(lhs.total_messages(), rhs.total_messages());
  EXPECT_EQ(lhs.total_messages(kOverhead), rhs.total_messages(kOverhead));
  EXPECT_EQ(lhs.rounds(), rhs.rounds());
  EXPECT_EQ(lhs.rounds(kOverhead), rhs.rounds(kOverhead));
  EXPECT_EQ(lhs.modeled_collective_words(), rhs.modeled_collective_words());
}

TEST(Pipeline, SingleVectorBitwiseEqualAndLedgerInvariant) {
  for (const auto transport :
       {simt::Transport::kPointToPoint, simt::Transport::kAllToAll}) {
    for (const std::size_t n : {60u, 37u}) {
      const RunSetup s = make_setup(n, 7 + n);
      simt::Machine serial(s.part->num_processors());
      simt::Machine piped(s.part->num_processors());
      const auto r0 =
          core::parallel_sttsv(serial, *s.part, *s.dist, s.a, s.x, transport,
                               PipelineMode::kSerialized);
      const auto r1 =
          core::parallel_sttsv(piped, *s.part, *s.dist, s.a, s.x, transport,
                               PipelineMode::kDoubleBuffered);
      EXPECT_EQ(r0.y, r1.y);  // bitwise, not approximate
      EXPECT_EQ(r0.ternary_mults, r1.ternary_mults);
      expect_ledgers_identical(serial.ledger(), piped.ledger());
    }
  }
}

TEST(Pipeline, ResilientRunBitwiseEqualAcrossModes) {
  const RunSetup s = make_setup(60, 11);
  const std::size_t P = s.part->num_processors();
  std::vector<double> y[2];
  for (int mode = 0; mode < 2; ++mode) {
    simt::Machine machine(P);
    simt::ReliableExchange rex(machine);
    const auto r = core::parallel_sttsv(
        rex, *s.part, *s.dist, s.a, s.x, simt::Transport::kPointToPoint,
        mode == 0 ? PipelineMode::kSerialized : PipelineMode::kDoubleBuffered);
    y[mode] = r.y;
    if (mode == 1) {
      // Protocol cost must not depend on the schedule either.
      simt::Machine serial(P);
      simt::ReliableExchange rex0(serial);
      (void)core::parallel_sttsv(rex0, *s.part, *s.dist, s.a, s.x,
                                 simt::Transport::kPointToPoint,
                                 PipelineMode::kSerialized);
      expect_ledgers_identical(serial.ledger(), machine.ledger());
    }
  }
  EXPECT_EQ(y[0], y[1]);
}

TEST(Pipeline, BatchedRunBitwiseEqualAcrossModes) {
  const std::size_t n = 60;
  const auto key =
      batch::plan_key(n, batch::Family::kSpherical, 2,
                      simt::Transport::kPointToPoint);
  const auto plan = batch::Plan::build(key);
  Rng rng(21);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<std::vector<double>> x(3);
  for (auto& xv : x) xv = rng.uniform_vector(n);

  simt::Machine serial = plan->make_machine();
  simt::Machine piped = plan->make_machine();
  const auto r0 = batch::parallel_sttsv_batch(serial, *plan, a, x,
                                              PipelineMode::kSerialized);
  const auto r1 = batch::parallel_sttsv_batch(piped, *plan, a, x,
                                              PipelineMode::kDoubleBuffered);
  EXPECT_EQ(r0.y, r1.y);
  EXPECT_EQ(r0.ternary_mults, r1.ternary_mults);
  expect_ledgers_identical(serial.ledger(), piped.ledger());
}

TEST(Pipeline, EmitsPipelineSpansWhenTraced) {
  if (!obs::kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  // At one host thread the exchange takes the serialized schedule, which
  // emits no pipeline spans; pin a threaded run on any host.
  simt::ConcurrencyGuard threaded(2);
  const RunSetup s = make_setup(60, 3);
  simt::Machine machine(s.part->num_processors());
  obs::tracer().configure({.tracing = true});
  obs::tracer().clear();
  (void)core::parallel_sttsv(machine, *s.part, *s.dist, s.a, s.x,
                             simt::Transport::kPointToPoint,
                             PipelineMode::kDoubleBuffered);
  std::size_t pipeline_spans = 0;
  for (const auto& span : obs::tracer().snapshot()) {
    if (span.category == obs::Category::kPipeline) ++pipeline_spans;
  }
  obs::tracer().configure({.tracing = false});
  obs::tracer().clear();
  // Two pipelined phases, each with pack/post/wait/consume per chunk plus
  // a finish span: the exact count is schedule detail, presence is not.
  EXPECT_GE(pipeline_spans, 8u);
}

/// Forwards every call to `inner` and records the thread each whole
/// exchange() and each Parts::part() runs on.
class WireThreadRecorder final : public simt::Exchanger {
 public:
  explicit WireThreadRecorder(simt::Exchanger& inner)
      : Exchanger(inner.machine()), inner_(inner) {}

  std::vector<std::vector<Delivery>> exchange(
      std::vector<std::vector<Envelope>> outboxes,
      simt::Transport transport) override {
    record(exchange_threads_);
    for (const std::vector<Envelope>& outbox : outboxes) {
      if (!std::is_sorted(outbox.begin(), outbox.end(),
                          [](const Envelope& a, const Envelope& b) {
                            return a.to < b.to;
                          })) {
        std::lock_guard<std::mutex> lock(mu_);
        ++unsorted_outboxes_;
      }
    }
    return inner_.exchange(std::move(outboxes), transport);
  }
  [[nodiscard]] std::unique_ptr<Parts> begin_parts(
      simt::Transport transport) override {
    return std::make_unique<Recorded>(*this, inner_.begin_parts(transport));
  }
  void set_phase(const char* phase) override { inner_.set_phase(phase); }

  [[nodiscard]] std::vector<std::thread::id> exchange_threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return exchange_threads_;
  }
  [[nodiscard]] std::vector<std::thread::id> part_threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return part_threads_;
  }
  /// Outboxes handed to exchange() not ordered by destination.
  [[nodiscard]] std::size_t unsorted_outboxes() {
    std::lock_guard<std::mutex> lock(mu_);
    return unsorted_outboxes_;
  }

 private:
  class Recorded final : public Parts {
   public:
    Recorded(WireThreadRecorder& owner, std::unique_ptr<Parts> inner)
        : owner_(owner), inner_(std::move(inner)) {}
    std::vector<std::vector<Delivery>> part(
        std::vector<std::vector<Envelope>> outboxes) override {
      owner_.record(owner_.part_threads_);
      return inner_->part(std::move(outboxes));
    }
    std::vector<std::vector<Delivery>> finish() override {
      return inner_->finish();
    }

   private:
    WireThreadRecorder& owner_;
    std::unique_ptr<Parts> inner_;
  };

  void record(std::vector<std::thread::id>& threads) {
    std::lock_guard<std::mutex> lock(mu_);
    threads.push_back(std::this_thread::get_id());
  }

  simt::Exchanger& inner_;
  std::mutex mu_;
  std::vector<std::thread::id> exchange_threads_;  // guarded by mu_
  std::vector<std::thread::id> part_threads_;      // guarded by mu_
  std::size_t unsorted_outboxes_ = 0;              // guarded by mu_
};

std::vector<std::pair<std::string, std::uint64_t>> ledger_counters(
    const simt::CommLedger& ledger) {
  obs::MetricsRegistry reg;
  ledger.to_metrics(reg);
  return reg.counters();
}

TEST(Pipeline, OneHostThreadRunsTheSerializedSchedule) {
  const RunSetup s = make_setup(60, 13);
  const std::size_t P = s.part->num_processors();
  struct Observed {
    std::vector<double> y;
    std::vector<std::pair<std::string, std::uint64_t>> ledger;
    std::vector<std::thread::id> exchange_threads;
    std::vector<std::thread::id> part_threads;
    std::size_t unsorted_outboxes = 0;
  };
  const auto run = [&](std::size_t host_threads) {
    simt::ConcurrencyGuard guard(host_threads);
    simt::Machine machine(P);
    simt::DirectExchange direct(machine);
    WireThreadRecorder recorder(direct);
    const auto r = core::parallel_sttsv(recorder, *s.part, *s.dist, s.a, s.x,
                                        simt::Transport::kPointToPoint,
                                        PipelineMode::kDoubleBuffered);
    return Observed{r.y, ledger_counters(machine.ledger()),
                    recorder.exchange_threads(), recorder.part_threads(),
                    recorder.unsorted_outboxes()};
  };
  const Observed one = run(1);
  const Observed four = run(4);

  // One host thread: each phase is one whole exchange() on the calling
  // thread, with no parts session and no wire thread.
  EXPECT_EQ(one.exchange_threads.size(), 2u);  // x shares, partial y
  for (const std::thread::id id : one.exchange_threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_TRUE(one.part_threads.empty());
  // The driver packs each phase as one chunk, so no outbox needs a sort.
  EXPECT_EQ(one.unsorted_outboxes, 0u);
  // Several: the double-buffered parts run on the SerialExecutor's thread.
  const std::thread::id wire =
      simt::SerialExecutor::instance()
          .submit([] { return std::this_thread::get_id(); })
          .get();
  ASSERT_NE(wire, std::this_thread::get_id());
  EXPECT_TRUE(four.exchange_threads.empty());
  ASSERT_FALSE(four.part_threads.empty());
  for (const std::thread::id id : four.part_threads) EXPECT_EQ(id, wire);

  ASSERT_EQ(one.y.size(), four.y.size());
  EXPECT_EQ(std::memcmp(one.y.data(), four.y.data(),
                        one.y.size() * sizeof(double)),
            0);
  EXPECT_EQ(one.ledger, four.ledger);
}

TEST(AllocationGuard, WarmedSingleVectorRunIsAllocationFree) {
  const RunSetup s = make_setup(60, 5);
  simt::Machine machine(s.part->num_processors());
  // Warm-up run sizes every pool bucket the schedule needs.
  (void)core::parallel_sttsv(machine, *s.part, *s.dist, s.a, s.x,
                             simt::Transport::kPointToPoint);
  const auto warm = core::parallel_sttsv(machine, *s.part, *s.dist, s.a, s.x,
                                         simt::Transport::kPointToPoint);
  AllocationGuard guard(machine.pool());
  const auto steady = core::parallel_sttsv(machine, *s.part, *s.dist, s.a,
                                           s.x, simt::Transport::kPointToPoint);
  EXPECT_EQ(guard.new_slab_allocations(), 0u);
  EXPECT_EQ(guard.new_unpooled_allocations(), 0u);
  guard.check();  // the Debug-build assertion path, explicitly
  EXPECT_EQ(steady.y, warm.y);
}

TEST(AllocationGuard, WarmedResilientRunIsAllocationFree) {
  const RunSetup s = make_setup(60, 6);
  simt::Machine machine(s.part->num_processors());
  simt::ReliableExchange rex(machine);
  (void)core::parallel_sttsv(rex, *s.part, *s.dist, s.a, s.x,
                             simt::Transport::kPointToPoint);
  AllocationGuard guard(machine.pool());
  (void)core::parallel_sttsv(rex, *s.part, *s.dist, s.a, s.x,
                             simt::Transport::kPointToPoint);
  EXPECT_EQ(guard.new_slab_allocations(), 0u);
  EXPECT_EQ(guard.new_unpooled_allocations(), 0u);
}

TEST(AllocationGuard, PrewarmedPlanMakesFirstBatchAllocationFree) {
  const std::size_t n = 60;
  const std::size_t B = 4;
  const auto plan = batch::Plan::build(batch::plan_key(
      n, batch::Family::kSpherical, 2, simt::Transport::kPointToPoint));
  Rng rng(9);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<std::vector<double>> x(B);
  for (auto& xv : x) xv = rng.uniform_vector(n);

  simt::Machine machine = plan->make_machine();
  plan->prewarm_pool(machine.pool(), B);
  AllocationGuard guard(machine.pool());
  (void)batch::parallel_sttsv_batch(machine, *plan, a, x);
  EXPECT_EQ(guard.new_slab_allocations(), 0u);
  EXPECT_EQ(guard.new_unpooled_allocations(), 0u);
}

TEST(AllocationGuard, ReportsNewSlabAllocations) {
  BufferPool pool(1);
  AllocationGuard guard(pool);
  guard.dismiss();  // this scope allocates on purpose
  { PooledBuffer buf = pool.acquire(0, 64); }
  EXPECT_EQ(guard.new_slab_allocations(), 1u);
#if defined(STTSV_DEBUG_CHECKS)
  EXPECT_THROW(guard.check(), InternalError);
#else
  guard.check();  // no-op outside Debug
#endif

  AllocationGuard unpooled_guard(pool);
  unpooled_guard.dismiss();
  PooledBuffer cold;
  cold.push_back(1.0);  // unpooled growth, tallied process-wide
  EXPECT_EQ(unpooled_guard.new_slab_allocations(), 0u);
  EXPECT_EQ(unpooled_guard.new_unpooled_allocations(), 1u);
#if defined(STTSV_DEBUG_CHECKS)
  EXPECT_THROW(unpooled_guard.check(), InternalError);
#endif
}

#if defined(STTSV_DEBUG_CHECKS)
// A PooledBuffer that outlives its pool would release its slab into freed
// memory later; Debug builds stop in the pool's destructor instead, naming
// how many slabs are still leased.
TEST(BufferPoolDeathTest, DestroyingAPoolWithALeasedSlabAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto pool = std::make_unique<BufferPool>(2);
        PooledBuffer idle = pool->acquire(0, 64);
        idle.release();  // back on the free list: trim() frees it
        PooledBuffer leased = pool->acquire(1, 64);
        pool.reset();
      },
      "with 1 slab\\(s\\) still leased");
}
#endif

}  // namespace
}  // namespace sttsv
