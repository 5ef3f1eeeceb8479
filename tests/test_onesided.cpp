// One-sided transport subsystem tests (DESIGN.md §16): segment-registry
// epoch semantics, PooledBuffer views, Put and active-message delivery
// bitwise-equivalence against DirectExchange, the four-way cross-transport
// property sweep, sync-op metering (the α-term the paper's message-count
// bound prices), per-channel ledger conservation, the make_exchanger
// factory and STTSV_TRANSPORT parsing, and the engine/serve plumbing.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <numeric>
#include <vector>

#include "batch/engine.hpp"
#include "batch/plan.hpp"
#include "core/parallel_sttsv.hpp"
#include "core/sttsv_seq.hpp"
#include "hier/make_exchanger.hpp"
#include "obs/metrics.hpp"
#include "onesided/onesided_exchange.hpp"
#include "onesided/segment_registry.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "serve/frontend.hpp"
#include "simt/buffer_pool.hpp"
#include "simt/machine.hpp"
#include "simt/transport_kind.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv {
namespace {

using onesided::Extent;
using onesided::Mode;
using onesided::OneSidedExchange;
using onesided::SegmentRegistry;
using simt::Channel;
using simt::Delivery;
using simt::Envelope;
using simt::Machine;
using simt::PooledBuffer;
using simt::TransportKind;

// --- Segment registry -------------------------------------------------------

TEST(SegmentRegistry, EpochGatingAndDisjointExtents) {
  Machine machine(4);
  SegmentRegistry reg(machine);
  EXPECT_EQ(reg.num_ranks(), 4u);
  EXPECT_FALSE(reg.epoch_open());

  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0};
  EXPECT_THROW(reg.put(0, 1, a.data(), a.size()), PreconditionError);

  reg.open_epoch();
  EXPECT_TRUE(reg.epoch_open());
  EXPECT_THROW(reg.open_epoch(), PreconditionError);  // no nesting
  // Reads are illegal while the epoch is open: no half-landed exposure.
  EXPECT_THROW((void)reg.extents(1), PreconditionError);
  EXPECT_THROW((void)reg.window_data(1), PreconditionError);

  const Extent e1 = reg.put(2, 1, a.data(), a.size());
  const Extent e2 = reg.put(0, 1, b.data(), b.size());
  // Bump allocation: extents are disjoint by construction.
  EXPECT_EQ(e1.offset, 0u);
  EXPECT_EQ(e1.words, 3u);
  EXPECT_EQ(e2.offset, 3u);
  EXPECT_EQ(e2.words, 1u);
  EXPECT_THROW(reg.put(1, 1, a.data(), a.size()), PreconditionError);  // self
  EXPECT_THROW(reg.put(0, 9, a.data(), a.size()), PreconditionError);

  reg.close_epoch();
  EXPECT_FALSE(reg.epoch_open());
  EXPECT_EQ(reg.epoch(), 1u);
  // The fence sorted extents by origin (0 before 2) but the data stayed
  // where it landed.
  const std::vector<Extent>& landed = reg.extents(1);
  ASSERT_EQ(landed.size(), 2u);
  EXPECT_EQ(landed[0].from, 0u);
  EXPECT_EQ(landed[1].from, 2u);
  const double* win = reg.window_data(1);
  EXPECT_EQ(win[landed[0].offset], 4.0);
  EXPECT_EQ(win[landed[1].offset], 1.0);
  EXPECT_EQ(win[landed[1].offset + 2], 3.0);
  EXPECT_TRUE(reg.extents(0).empty());
}

TEST(SegmentRegistry, WindowGrowthPreservesLandedContents) {
  Machine machine(2);
  SegmentRegistry reg(machine);
  reg.open_epoch();
  std::vector<double> chunk(100);
  std::iota(chunk.begin(), chunk.end(), 0.0);
  // Land enough traffic to force at least one mid-epoch growth.
  for (int k = 0; k < 40; ++k) reg.put(0, 1, chunk.data(), chunk.size());
  reg.close_epoch();
  EXPECT_GE(reg.stats().window_grows, 1u);
  EXPECT_GE(reg.window_words(1), 4000u);
  const double* win = reg.window_data(1);
  for (const Extent& e : reg.extents(1)) {
    for (std::size_t i = 0; i < e.words; ++i) {
      ASSERT_EQ(win[e.offset + i], static_cast<double>(i));
    }
  }
}

TEST(SegmentRegistry, EnsureWindowPreSizesBetweenEpochs) {
  Machine machine(2);
  SegmentRegistry reg(machine);
  reg.ensure_window(1, 512);
  EXPECT_GE(reg.window_words(1), 512u);
  reg.open_epoch();
  EXPECT_THROW(reg.ensure_window(1, 1024), PreconditionError);
  std::vector<double> payload(512, 7.0);
  reg.put(0, 1, payload.data(), payload.size());
  reg.close_epoch();
  // The pre-sized window absorbed the full epoch without growing.
  EXPECT_EQ(reg.stats().window_grows, 0u);
}

// --- PooledBuffer views -----------------------------------------------------

TEST(PooledBufferView, AliasesWithoutOwning) {
  std::vector<double> storage{1.0, 2.0, 3.0, 4.0};
  {
    PooledBuffer view = PooledBuffer::attach_view(storage.data(), 3);
    EXPECT_TRUE(view.is_view());
    EXPECT_EQ(view.size(), 3u);
    EXPECT_EQ(view.data(), storage.data());
    view[1] = 20.0;  // writes land in the caller's storage
    PooledBuffer moved = std::move(view);
    EXPECT_TRUE(moved.is_view());
    EXPECT_EQ(moved.data(), storage.data());
    moved.release();  // must not free the borrowed words
    EXPECT_FALSE(moved.is_view());
  }  // nor may the destructor
  EXPECT_EQ(storage[1], 20.0);
  EXPECT_EQ(storage[3], 4.0);
}

// --- Exchanger semantics ----------------------------------------------------

TEST(OneSidedExchange, PutModeDeliversViewsSenderSorted) {
  Machine machine(3);
  OneSidedExchange ex(machine, Mode::kPut);
  EXPECT_FALSE(ex.supports_handler_delivery());

  std::vector<std::vector<Envelope>> out(3);
  out[2].push_back(Envelope{0, PooledBuffer{5.0, 6.0}});
  out[1].push_back(Envelope{0, PooledBuffer{7.0}});
  auto in = ex.exchange(std::move(out), simt::Transport::kPointToPoint);
  ASSERT_EQ(in[0].size(), 2u);
  EXPECT_EQ(in[0][0].from, 1u);  // origin-ascending like the mailbox path
  EXPECT_EQ(in[0][1].from, 2u);
  EXPECT_TRUE(in[0][0].data.is_view());
  EXPECT_EQ(in[0][0].data[0], 7.0);
  EXPECT_EQ(in[0][1].data[1], 6.0);

  // Payload words hit the onesided channel, not goodput; conservation
  // holds per channel.
  const simt::CommLedger& led = machine.ledger();
  EXPECT_EQ(led.total_words(), 0u);
  EXPECT_EQ(led.total_words(simt::Channel::kOneSided), 3u);
  EXPECT_EQ(led.total_messages(simt::Channel::kOneSided), 2u);
  // α-term: two origins fenced, one target notified.
  EXPECT_EQ(led.sync_ops(), 3u);
  EXPECT_EQ(ex.stats().fences, 2u);
  EXPECT_EQ(ex.stats().notifications, 1u);
  led.verify_conservation();
}

TEST(OneSidedExchange, ActiveMessageRunsHandlerInsteadOfDelivering) {
  Machine machine(3);
  OneSidedExchange ex(machine, Mode::kActiveMessage);
  EXPECT_TRUE(ex.supports_handler_delivery());
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (target, from)
  double sum = 0.0;
  ex.set_delivery_handler([&](std::size_t target, std::size_t from,
                              const double* data, std::size_t words) {
    order.emplace_back(target, from);
    for (std::size_t i = 0; i < words; ++i) sum += data[i];
  });
  std::vector<std::vector<Envelope>> out(3);
  out[2].push_back(Envelope{0, PooledBuffer{1.0, 2.0}});
  out[0].push_back(Envelope{1, PooledBuffer{4.0}});
  out[1].push_back(Envelope{0, PooledBuffer{8.0}});
  auto in = ex.exchange(std::move(out), simt::Transport::kPointToPoint);
  for (const auto& inbox : in) EXPECT_TRUE(inbox.empty());
  // Targets ascending, then origins ascending within each target.
  const std::vector<std::pair<std::size_t, std::size_t>> want{
      {0, 1}, {0, 2}, {1, 0}};
  EXPECT_EQ(order, want);
  EXPECT_EQ(sum, 15.0);
  EXPECT_EQ(ex.stats().am_deliveries, 3u);
  EXPECT_EQ(ex.stats().view_deliveries, 0u);
}

TEST(OneSidedExchange, DeadEndpointsDropUncharged) {
  Machine machine(3);
  machine.mark_dead(2);
  OneSidedExchange ex(machine, Mode::kPut);
  std::vector<std::vector<Envelope>> out(3);
  out[0].push_back(Envelope{2, PooledBuffer{1.0}});  // to the dead rank
  out[2].push_back(Envelope{0, PooledBuffer{2.0}});  // from the dead rank
  out[0].push_back(Envelope{1, PooledBuffer{3.0}});  // alive pair
  auto in = ex.exchange(std::move(out), simt::Transport::kPointToPoint);
  EXPECT_TRUE(in[0].empty());
  ASSERT_EQ(in[1].size(), 1u);
  EXPECT_EQ(machine.ledger().total_words(simt::Channel::kOneSided), 1u);
  EXPECT_EQ(ex.stats().puts, 1u);
  machine.ledger().verify_conservation();
}

TEST(OneSidedExchange, RecoveryFlaggedPutsChargeRecoveryChannel) {
  Machine machine(2);
  OneSidedExchange ex(machine, Mode::kPut);
  std::vector<std::vector<Envelope>> out(2);
  out[0].push_back(Envelope{1, PooledBuffer{1.0, 2.0}, 0, /*recovery=*/true});
  (void)ex.exchange(std::move(out), simt::Transport::kPointToPoint);
  const simt::CommLedger& led = machine.ledger();
  EXPECT_EQ(led.total_words(simt::Channel::kOneSided), 0u);
  EXPECT_EQ(led.total_words(simt::Channel::kRecovery), 2u);
  // The pure-recovery epoch's rounds.
  EXPECT_EQ(led.rounds(simt::Channel::kRecovery), 1u);
  led.verify_conservation();
}

TEST(OneSidedExchange, RejectsFramedEnvelopesBeforeAnyPut) {
  Machine machine(2);
  OneSidedExchange ex(machine, Mode::kPut);
  std::vector<std::vector<Envelope>> out(2);
  out[0].push_back(Envelope{1, PooledBuffer{1.0, 2.0}, /*overhead_words=*/1});
  EXPECT_THROW(ex.exchange(std::move(out), simt::Transport::kPointToPoint),
               PreconditionError);
  // Strong guarantee: nothing landed, nothing charged, epoch settled.
  EXPECT_EQ(machine.ledger().total_words(simt::Channel::kOneSided), 0u);
  EXPECT_EQ(machine.ledger().sync_ops(), 0u);
  EXPECT_FALSE(ex.registry().epoch_open());
}

// --- Driver equivalence -----------------------------------------------------

struct DriverSetup {
  std::unique_ptr<partition::TetraPartition> part;
  std::unique_ptr<partition::VectorDistribution> dist;
  tensor::SymTensor3 a;
  std::vector<double> x;
};

DriverSetup make_setup(steiner::SteinerSystem sys, std::size_t n,
                 std::uint64_t seed) {
  auto part = std::make_unique<partition::TetraPartition>(
      partition::TetraPartition::build(std::move(sys)));
  auto dist = std::make_unique<partition::VectorDistribution>(*part, n);
  Rng rng(seed);
  auto a = tensor::random_symmetric(n, rng);
  auto x = rng.uniform_vector(n);
  return DriverSetup{std::move(part), std::move(dist), std::move(a), std::move(x)};
}

std::vector<double> run_with(const DriverSetup& s, TransportKind kind,
                             simt::Transport transport,
                             simt::PipelineMode pipeline) {
  Machine machine(s.part->num_processors());
  auto ex = simt::make_exchanger(machine, kind);
  return core::parallel_sttsv(*ex, *s.part, *s.dist, s.a, s.x, transport,
                              pipeline)
      .y;
}

TEST(DriverEquivalence, PutAndAmMatchDirectBitwise) {
  const DriverSetup s = make_setup(steiner::spherical_system(2), 61, 11);
  for (const simt::Transport transport :
       {simt::Transport::kPointToPoint, simt::Transport::kAllToAll}) {
    for (const simt::PipelineMode pipeline :
         {simt::PipelineMode::kSerialized,
          simt::PipelineMode::kDoubleBuffered}) {
      const auto want =
          run_with(s, TransportKind::kDirect, transport, pipeline);
      const auto put =
          run_with(s, TransportKind::kOneSidedPut, transport, pipeline);
      const auto am =
          run_with(s, TransportKind::kActiveMessage, transport, pipeline);
      ASSERT_EQ(want.size(), put.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(put[i], want[i]) << "put i=" << i;
        ASSERT_EQ(am[i], want[i]) << "am i=" << i;
      }
    }
  }
}

TEST(DriverEquivalence, ThirtyTwoSeedCrossTransportSweep) {
  // Satellite 3: 32 seeds, all four backends, y bitwise identical and
  // per-channel conservation after every run. Double-buffered throughout,
  // serialized re-checked on a subset (the pipeline must be unobservable).
  const struct {
    steiner::SteinerSystem sys;
    std::size_t n;
  } cases[] = {
      {steiner::spherical_system(2), 53},          // P = 10
      {steiner::boolean_quadruple_system(3), 43},  // P = 14
  };
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const auto& c = cases[seed % 2];
    const DriverSetup s = make_setup(c.sys, c.n, 1000 + seed);
    std::vector<double> want;
    for (const TransportKind kind :
         {TransportKind::kDirect, TransportKind::kReliable,
          TransportKind::kOneSidedPut, TransportKind::kActiveMessage}) {
      Machine machine(s.part->num_processors());
      auto ex = simt::make_exchanger(machine, kind);
      const auto result = core::parallel_sttsv(
          *ex, *s.part, *s.dist, s.a, s.x, simt::Transport::kPointToPoint,
          simt::PipelineMode::kDoubleBuffered);
      machine.ledger().verify_conservation();
      for (const Channel ch : {Channel::kGoodput, Channel::kOverhead,
                               Channel::kRecovery, Channel::kOneSided}) {
        std::uint64_t sent = 0;
        std::uint64_t received = 0;
        for (std::size_t p = 0; p < machine.num_ranks(); ++p) {
          sent += machine.ledger().words_sent(ch, p);
          received += machine.ledger().words_received(ch, p);
        }
        ASSERT_EQ(sent, received)
            << "seed=" << seed << " channel=" << simt::channel_name(ch);
      }
      if (want.empty()) {
        want = result.y;
      } else {
        ASSERT_EQ(result.y.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(result.y[i], want[i])
              << "seed=" << seed << " kind="
              << simt::transport_kind_name(kind) << " i=" << i;
        }
      }
      if (seed % 8 == 0) {  // serialized subset
        Machine machine2(s.part->num_processors());
        auto ex2 = simt::make_exchanger(machine2, kind);
        const auto serial = core::parallel_sttsv(
            *ex2, *s.part, *s.dist, s.a, s.x, simt::Transport::kPointToPoint,
            simt::PipelineMode::kSerialized);
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(serial.y[i], want[i]) << "serialized seed=" << seed;
        }
      }
    }
  }
}

TEST(DriverEquivalence, OneSidedSyncOpsBelowDirectMessages) {
  // The acceptance criterion: at equal payload words, the one-sided
  // α-term (sync ops) is strictly below Direct's envelope count whenever
  // ranks average more than one peer — here P = 10, every rank talks to
  // 6 peers per phase.
  const DriverSetup s = make_setup(steiner::spherical_system(2), 60, 21);

  Machine direct_machine(s.part->num_processors());
  simt::DirectExchange direct(direct_machine);
  (void)core::parallel_sttsv(direct, *s.part, *s.dist, s.a, s.x,
                             simt::Transport::kPointToPoint);

  Machine os_machine(s.part->num_processors());
  OneSidedExchange put(os_machine, Mode::kPut);
  (void)core::parallel_sttsv(put, *s.part, *s.dist, s.a, s.x,
                             simt::Transport::kPointToPoint);

  // Equal payload words, just accounted on different channels.
  EXPECT_EQ(os_machine.ledger().total_words(simt::Channel::kOneSided),
            direct_machine.ledger().total_words());
  EXPECT_LT(os_machine.ledger().sync_ops(),
            direct_machine.ledger().total_messages());
  // And the sync count scales with ranks, not pairs: two phases, at most
  // 2 sync ops per rank each (fence + notification).
  EXPECT_LE(os_machine.ledger().sync_ops(),
            2 * 2 * os_machine.num_ranks());
  // Rounds match the same König schedule on the onesided channel.
  EXPECT_EQ(os_machine.ledger().rounds(simt::Channel::kOneSided),
            direct_machine.ledger().rounds());
}

TEST(DriverEquivalence, WarmedOneSidedRunIsAllocationFree) {
  const DriverSetup s = make_setup(steiner::spherical_system(2), 60, 31);
  Machine machine(s.part->num_processors());
  OneSidedExchange ex(machine, Mode::kPut);
  (void)core::parallel_sttsv(ex, *s.part, *s.dist, s.a, s.x,
                             simt::Transport::kPointToPoint);
  const std::uint64_t grows_after_warmup = ex.registry().stats().window_grows;
  simt::AllocationGuard guard(machine.pool());
  (void)core::parallel_sttsv(ex, *s.part, *s.dist, s.a, s.x,
                             simt::Transport::kPointToPoint);
  EXPECT_EQ(guard.new_slab_allocations(), 0u);
  // Windows reached steady state during warm-up: no mid-epoch growth.
  EXPECT_EQ(ex.registry().stats().window_grows, grows_after_warmup);
}

// --- Ledger channels --------------------------------------------------------

TEST(LedgerChannels, ConservationFiresOnEveryChannel) {
  for (const Channel ch : {Channel::kGoodput, Channel::kOverhead,
                           Channel::kRecovery, Channel::kOneSided}) {
    Machine machine(3);
    machine.ledger().verify_conservation();
    machine.ledger().debug_skew_sent_for_test(ch, 1, 5);
    EXPECT_THROW(machine.ledger().verify_conservation(), InternalError)
        << simt::channel_name(ch);
  }
}

TEST(LedgerChannels, OneSidedMetricsExported) {
  Machine machine(2);
  machine.ledger().record(simt::Channel::kOneSided, 0, 1, 7);
  machine.ledger().add_rounds(simt::Channel::kOneSided, 2);
  machine.ledger().add_sync_ops(3);
  obs::MetricsRegistry reg;
  machine.ledger().to_metrics(reg);
  EXPECT_EQ(reg.counter("ledger.onesided.total_words"), 7u);
  EXPECT_EQ(reg.counter("ledger.onesided.rounds"), 2u);
  EXPECT_EQ(reg.counter("ledger.onesided.sync_ops"), 3u);
  // The goodput names tests and dashboards key on are unchanged.
  EXPECT_EQ(reg.counter("ledger.goodput.total_words"), 0u);
}

// --- Factory and environment selection --------------------------------------

TEST(TransportKindSelection, ParsesTheFiveSpellings) {
  EXPECT_EQ(simt::parse_transport_kind("direct"), TransportKind::kDirect);
  EXPECT_EQ(simt::parse_transport_kind("reliable"), TransportKind::kReliable);
  EXPECT_EQ(simt::parse_transport_kind("onesided"),
            TransportKind::kOneSidedPut);
  EXPECT_EQ(simt::parse_transport_kind("am"), TransportKind::kActiveMessage);
  EXPECT_EQ(simt::parse_transport_kind("hier"),
            TransportKind::kHierarchical);
  EXPECT_EQ(simt::parse_transport_kind("rdma"), std::nullopt);
  for (const TransportKind kind :
       {TransportKind::kDirect, TransportKind::kReliable,
        TransportKind::kOneSidedPut, TransportKind::kActiveMessage,
        TransportKind::kHierarchical}) {
    EXPECT_EQ(simt::parse_transport_kind(simt::transport_kind_name(kind)),
              kind);
  }
}

TEST(TransportKindSelection, EnvOverrideAndFallback) {
  ::unsetenv("STTSV_TRANSPORT");
  EXPECT_EQ(simt::transport_kind_from_env(TransportKind::kReliable),
            TransportKind::kReliable);
  ::setenv("STTSV_TRANSPORT", "am", 1);
  EXPECT_EQ(simt::transport_kind_from_env(), TransportKind::kActiveMessage);
  ::setenv("STTSV_TRANSPORT", "bogus", 1);
  EXPECT_THROW((void)simt::transport_kind_from_env(), PreconditionError);
  ::unsetenv("STTSV_TRANSPORT");
}

TEST(TransportKindSelection, FactoryBuildsEachBackend) {
  Machine machine(4);
  auto direct = simt::make_exchanger(machine, TransportKind::kDirect);
  auto reliable = simt::make_exchanger(machine, TransportKind::kReliable);
  auto put = simt::make_exchanger(machine, TransportKind::kOneSidedPut);
  auto am = simt::make_exchanger(machine, TransportKind::kActiveMessage);
  EXPECT_FALSE(direct->supports_handler_delivery());
  EXPECT_FALSE(reliable->supports_handler_delivery());
  EXPECT_FALSE(put->supports_handler_delivery());
  EXPECT_TRUE(am->supports_handler_delivery());
  EXPECT_EQ(&direct->machine(), &machine);
  EXPECT_EQ(&am->machine(), &machine);
}

TEST(TransportKindSelection, FactoryRejectsUnknownKindNamingTheTokens) {
  // An out-of-enum kind (casted int, stale config) must fail loudly with
  // the accepted spellings — never fall back to direct silently.
  Machine machine(4);
  bool threw = false;
  try {
    (void)simt::make_exchanger(machine, static_cast<TransportKind>(99));
  } catch (const PreconditionError& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("direct|reliable|onesided|am|hier"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(threw);
}

TEST(TransportKindSelection, HierarchicalNeedsATopology) {
  ::unsetenv("STTSV_TOPOLOGY");
  Machine machine(4);
  // No node_of and no STTSV_TOPOLOGY: the factory must say what to set.
  bool threw = false;
  try {
    (void)simt::make_exchanger(machine, TransportKind::kHierarchical);
  } catch (const PreconditionError& e) {
    threw = true;
    const std::string what = e.what();
    EXPECT_NE(what.find("node_of"), std::string::npos) << what;
    EXPECT_NE(what.find("STTSV_TOPOLOGY"), std::string::npos) << what;
  }
  EXPECT_TRUE(threw);

  // With the env override set, the same call builds the backend (and the
  // ledger now splits by level).
  ::setenv("STTSV_TOPOLOGY", "2x2", 1);
  Machine machine2(4);
  auto hier = simt::make_exchanger(machine2, TransportKind::kHierarchical);
  EXPECT_FALSE(hier->supports_handler_delivery());
  EXPECT_EQ(machine2.ledger().num_nodes(), 2u);
  ::unsetenv("STTSV_TOPOLOGY");

  // An active-message fabric under the hierarchy is rejected: its handler
  // order would interleave with shared deliveries.
  simt::ExchangerConfig config;
  config.kind = TransportKind::kHierarchical;
  config.node_of = {0, 0, 1, 1};
  config.hier_inter = TransportKind::kActiveMessage;
  Machine machine3(4);
  EXPECT_THROW((void)simt::make_exchanger(machine3, config),
               PreconditionError);
}

// --- Engine and serve plumbing ----------------------------------------------

TEST(EnginePlumbing, OneSidedTransportMatchesDirectBitwise) {
  const std::size_t n = 60;
  const auto plan = batch::Plan::build(batch::plan_key(
      n, batch::Family::kSpherical, 2, simt::Transport::kPointToPoint));
  Rng rng(41);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<std::vector<double>> xs;
  for (int k = 0; k < 5; ++k) xs.push_back(rng.uniform_vector(n));

  const auto run = [&](TransportKind kind) {
    Machine machine(plan->num_processors());
    batch::EngineOptions opts;
    opts.max_batch_size = 4;
    opts.transport = kind;
    batch::Engine engine(machine, plan, a, opts);
    std::vector<std::vector<double>> ys(xs.size());
    for (const auto& x : xs) {
      engine.submit(x, [&ys](std::size_t id, std::vector<double> y) {
        ys[id] = std::move(y);
      });
    }
    engine.flush();
    if (kind != TransportKind::kDirect) {
      EXPECT_GT(machine.ledger().total_words(simt::Channel::kOneSided), 0u)
          << "engine";
      EXPECT_EQ(machine.ledger().total_words(), 0u);
    }
    machine.ledger().verify_conservation();
    return ys;
  };

  const auto want = run(TransportKind::kDirect);
  const auto put = run(TransportKind::kOneSidedPut);
  const auto am = run(TransportKind::kActiveMessage);
  for (std::size_t v = 0; v < want.size(); ++v) {
    ASSERT_EQ(put[v], want[v]) << "put v=" << v;
    ASSERT_EQ(am[v], want[v]) << "am v=" << v;
  }
}

TEST(ServePlumbing, TenantOneSidedAttributionSumsToLedger) {
  const std::size_t n = 36;
  const auto plan = batch::Plan::build(batch::plan_key(
      n, batch::Family::kTrivial, 5, simt::Transport::kPointToPoint));
  Machine machine(plan->num_processors());
  Rng rng(2026);
  const auto a = tensor::random_symmetric(n, rng);
  serve::FrontendOptions opts;
  opts.batch_width = 4;
  opts.transport = TransportKind::kActiveMessage;
  serve::Frontend fe(machine, plan, a, opts);
  const serve::TenantId t0 = fe.add_tenant("alpha");
  const serve::TenantId t1 = fe.add_tenant("beta");
  for (std::size_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(fe.submit(k % 2 == 0 ? t0 : t1, rng.uniform_vector(n),
                          nullptr)
                    .admitted);
  }
  fe.drain();
  const std::uint64_t attributed = fe.tenant_stats(t0).onesided_words +
                                   fe.tenant_stats(t1).onesided_words;
  EXPECT_GT(attributed, 0u);
  EXPECT_EQ(attributed, machine.ledger().total_words(simt::Channel::kOneSided));
  EXPECT_EQ(machine.ledger().total_words(), 0u);  // no mailbox goodput
  obs::MetricsRegistry reg;
  fe.publish_metrics(reg);
  EXPECT_EQ(reg.counter("serve.tenant.alpha.onesided_words"),
            fe.tenant_stats(t0).onesided_words);
}

}  // namespace
}  // namespace sttsv
