#include "core/parallel_sttsv.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>
#include <utility>

#include "core/panel_kernels.hpp"
#include "obs/trace.hpp"
#include "simt/pipeline.hpp"
#include "support/check.hpp"

namespace sttsv::core {

namespace {

using partition::Share;
using partition::TetraPartition;
using partition::VectorDistribution;
using simt::Delivery;
using simt::Envelope;

/// dst[0, len) += src[0, len).
void add_into(double* dst, const double* src, std::size_t len) {
  for (std::size_t k = 0; k < len; ++k) dst[k] += src[k];
}

}  // namespace

// A *link* is an ordered role pair (s, r), s ≠ r, whose row-block sets meet
// in R_s ∩ R_r — by the Steiner property at most 2 blocks, which is why a
// pair exchanges at most 2 row-block shares (Section 7.2.2). A *route* is
// an ordered pair of distinct hosts; its one envelope per phase
// concatenates the slices of every link between their roles (receiving
// roles ascending, then sending roles, then common blocks), a layout both
// sides replay from the route's segment lists. Links between co-hosted
// roles have no route: they are local copies and never touch the wire or
// the ledger.
CommTable::CommTable(const TetraPartition& part,
                     const VectorDistribution& dist,
                     std::span<const std::size_t> host_of_role)
    : n_(dist.logical_n()),
      padded_n_(dist.padded_n()),
      b_(dist.block_length_b()) {
  const std::size_t P = part.num_processors();
  STTSV_REQUIRE(dist.num_processors() == P,
                "distribution must be built over the partition");
  STTSV_REQUIRE(host_of_role.empty() || host_of_role.size() == P,
                "placement must cover every partition role");
  host_.resize(P);
  for (std::size_t r = 0; r < P; ++r) {
    host_[r] = host_of_role.empty() ? r : host_of_role[r];
    STTSV_REQUIRE(host_[r] < P, "role placed on a rank outside the machine");
    identity_ = identity_ && host_[r] == r;
  }
  roles_.resize(P);
  std::iota(roles_.begin(), roles_.end(), std::size_t{0});
  std::ranges::stable_sort(roles_, {},
                           [&](std::size_t r) { return host_[r]; });
  roles_of_.assign(P, Range{});
  half_of_host_.assign(P, 0);
  for (std::size_t k = 0; k < P; ++k) {
    const std::size_t h = host_[roles_[k]];
    if (k == 0 || host_[roles_[k - 1]] != h) {
      roles_of_[h].begin = k;
      half_of_host_[h] = live_.size() % 2;
      live_half_[live_.size() % 2].push_back(h);
      live_.push_back(h);
    }
    roles_of_[h].end = k + 1;
  }

  // Role r's row block R_r[k] occupies flat words [base_[r] + k·b, +b).
  base_.assign(1, 0);
  for (std::size_t r = 0; r < P; ++r) {
    base_.push_back(base_.back() + part.R(r).size() * b_);
  }
  // Dense (row block, role) lookups for the walks below: role r's flat
  // slot of block i ∈ R_r, and its share of block i ∈ R_r.
  const std::size_t m = part.num_row_blocks();
  std::vector<std::size_t> slots(m * P);
  std::vector<Share> shares(m * P);
  for (std::size_t r = 0; r < P; ++r) {
    std::size_t at = base_[r];
    for (const std::size_t i : part.R(r)) {
      slots[i * P + r] = at;
      shares[i * P + r] = dist.share(i, r);
      at += b_;
    }
  }
  const auto slot = [&](std::size_t r, std::size_t i) {
    return slots[i * P + r];
  };
  const auto share = [&](std::size_t i, std::size_t r) {
    return shares[i * P + r];
  };
  const auto push = [](std::vector<Segment>& to, Segment seg) {
    if (seg.len > 0) to.push_back(seg);
  };
  // x share of `owner` in row block i: x_pad -> role r's flat slot.
  const auto x_copy = [&](std::size_t owner, std::size_t r, std::size_t i) {
    const Share s = share(i, owner);
    return Segment{i * b_ + s.offset, slot(r, i) + s.offset, s.length};
  };

  struct Link {
    std::size_t from = 0;
    std::size_t to = 0;
    Range blocks;  // common[]: R_from ∩ R_to, ascending
    std::size_t route = kNoRoute;
    std::size_t y_offset = 0;  // words into the route's y envelope
  };
  // Ordered by (to, from): a role's links are its senders ascending — the
  // reduction order. r's peers (every other member of Q_i for some
  // i ∈ R_r) are exactly its senders: the relation is symmetric.
  std::vector<Link> links;
  std::vector<std::size_t> common;
  std::vector<Range> links_into(P);
  std::vector<std::size_t> peers;
  for (std::size_t r = 0; r < P; ++r) {
    links_into[r].begin = links.size();
    peers.clear();
    for (const std::size_t i : part.R(r)) {
      for (const std::size_t s : part.Q(i)) {
        if (s != r) peers.push_back(s);
      }
    }
    std::ranges::sort(peers);
    peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
    for (const std::size_t s : peers) {
      const std::size_t begin = common.size();
      std::ranges::set_intersection(part.R(s), part.R(r),
                                    std::back_inserter(common));
      links.push_back(Link{s, r, {begin, common.size()}, kNoRoute, 0});
    }
    links_into[r].end = links.size();
  }
  const auto common_of = [&](const Link& link) {
    return slice(common, link.blocks);
  };

  // Per role: seeding (own shares, then co-hosted senders' shares), owned
  // blocks with their slots, and the own-partial reduction.
  seed_.reserve(base_[P] / b_ + common.size());
  own_.reserve(base_[P] / b_);
  for (std::size_t r = 0; r < P; ++r) {
    seed_of_.push_back({seed_.size(), 0});
    own_of_.push_back({own_.size(), 0});
    for (const std::size_t i : part.R(r)) {
      push(seed_, x_copy(r, r, i));
      const Share s = share(i, r);
      push(own_, Segment{slot(r, i) + s.offset, i * b_ + s.offset, s.length});
    }
    for (std::size_t l = links_into[r].begin; l < links_into[r].end; ++l) {
      if (host_[links[l].from] != host_[r]) continue;
      for (const std::size_t i : common_of(links[l])) {
        push(seed_, x_copy(links[l].from, r, i));
      }
    }
    seed_of_.back().end = seed_.size();
    own_of_.back().end = own_.size();

    blocks_of_.push_back({blocks_.size(), 0});
    for (const partition::BlockCoord& c : part.owned_blocks(r)) {
      blocks_.push_back(Block{c, {slot(r, c.i), slot(r, c.j), slot(r, c.k)}});
    }
    blocks_of_.back().end = blocks_.size();
  }

  // Group wire links by host pair; the stable sort keeps each route's
  // links in (receiving role, sending role) order.
  std::vector<std::size_t> wire;
  for (std::size_t l = 0; l < links.size(); ++l) {
    if (host_[links[l].from] != host_[links[l].to]) wire.push_back(l);
  }
  const auto key = [&](std::size_t l) {
    return std::pair(host_[links[l].from], host_[links[l].to]);
  };
  std::ranges::stable_sort(wire, {}, key);
  route_index_.assign(P * P, kNoRoute);
  routes_from_.assign(P, 0);
  x_route_.reserve(common.size());
  y_route_.reserve(common.size());
  for (const std::size_t l : wire) {
    const auto [hf, ht] = key(l);
    if (routes_.empty() || routes_.back().from != hf ||
        routes_.back().to != ht) {
      route_index_[hf * P + ht] = routes_.size();
      ++routes_from_[hf];
      routes_.push_back(Route{hf, ht, {x_route_.size(), 0},
                              {y_route_.size(), 0}, 0, 0});
    }
    Route& route = routes_.back();
    Link& link = links[l];
    link.route = routes_.size() - 1;
    link.y_offset = route.y_words;
    for (const std::size_t i : common_of(link)) {
      const Segment x = x_copy(link.from, link.to, i);
      push(x_route_, x);
      route.x_words += x.len;
      // Send the *receiving role's* share of each common row block.
      const Share s = share(i, link.to);
      push(y_route_,
           Segment{slot(link.from, i) + s.offset, i * b_ + s.offset, s.length});
      route.y_words += s.length;
    }
    route.x.end = x_route_.size();
    route.y.end = y_route_.size();
  }

  // Reduction of every sender into role r's share, senders ascending:
  // co-hosted partials straight from the flat y buffer, wire partials from
  // their offset in the delivered route envelope.
  senders_.reserve(links.size());
  reduce_.reserve(common.size());
  for (std::size_t r = 0; r < P; ++r) {
    senders_of_.push_back({senders_.size(), 0});
    for (std::size_t l = links_into[r].begin; l < links_into[r].end; ++l) {
      const Link& link = links[l];
      Sender sender{link.route, {reduce_.size(), 0}};
      std::size_t wire_offset = link.y_offset;
      for (const std::size_t i : common_of(link)) {
        const Share s = share(i, r);
        const std::size_t src = link.route == kNoRoute
                                    ? slot(link.from, i) + s.offset
                                    : wire_offset;
        push(reduce_, Segment{src, i * b_ + s.offset, s.length});
        wire_offset += s.length;
      }
      sender.segments.end = reduce_.size();
      senders_.push_back(sender);
    }
    senders_of_.back().end = senders_.size();
  }
}

std::vector<CommTable::RouteView> CommTable::routes() const {
  std::vector<RouteView> views;
  views.reserve(routes_.size());
  for (const Route& route : routes_) {
    views.push_back(RouteView{route.from, route.to, route.x_words,
                              route.y_words, slice(x_route_, route.x)});
  }
  return views;
}

std::size_t CommTable::route_between(std::size_t hf, std::size_t ht) const {
  const std::size_t P = num_roles();
  const std::size_t route =
      hf < P && ht < P ? route_index_[hf * P + ht] : kNoRoute;
  STTSV_CHECK(route != kNoRoute,
              "delivery between hosts whose roles share no row block");
  return route;
}

ParallelRunResult parallel_sttsv(simt::Machine& machine,
                                 const TetraPartition& part,
                                 const VectorDistribution& dist,
                                 const tensor::SymTensor3& a,
                                 const std::vector<double>& x,
                                 simt::Transport transport,
                                 simt::PipelineMode pipeline) {
  simt::DirectExchange direct(machine);
  return parallel_sttsv(direct, part, dist, a, x, transport, pipeline);
}

ParallelRunResult parallel_sttsv(simt::Exchanger& exchanger,
                                 const TetraPartition& part,
                                 const VectorDistribution& dist,
                                 const tensor::SymTensor3& a,
                                 const std::vector<double>& x,
                                 simt::Transport transport,
                                 simt::PipelineMode pipeline,
                                 std::span<const std::size_t> host_of_role) {
  return parallel_sttsv(exchanger, CommTable(part, dist, host_of_role), a, x,
                        transport, pipeline);
}

ParallelRunResult parallel_sttsv(simt::Exchanger& exchanger,
                                 const CommTable& table,
                                 const tensor::SymTensor3& a,
                                 const std::vector<double>& x,
                                 simt::Transport transport,
                                 simt::PipelineMode pipeline) {
  BatchRunResult run =
      parallel_sttsv(exchanger, table, a, std::span(&x, 1), transport,
                     pipeline);
  ParallelRunResult result;
  result.y = std::move(run.y.front());
  result.ternary_mults = std::move(run.ternary_mults);
  result.max_words_sent = run.maxima.words_sent;
  result.max_words_received = run.maxima.words_received;
  return result;
}

BatchRunResult parallel_sttsv(simt::Exchanger& exchanger,
                              const CommTable& table,
                              const tensor::SymTensor3& a,
                              std::span<const std::vector<double>> x,
                              simt::Transport transport,
                              simt::PipelineMode pipeline) {
  using Segment = CommTable::Segment;
  using Route = CommTable::Route;
  simt::Machine& machine = exchanger.machine();
  const std::size_t P = table.num_roles();
  const std::size_t b = table.b_;
  const std::size_t n = table.n_;
  const std::size_t B = x.size();
  const std::vector<std::size_t>& base = table.base_;
  STTSV_REQUIRE(machine.num_ranks() == P,
                "machine rank count must match partition");
  STTSV_REQUIRE(a.dim() == n, "tensor dimension must match distribution");
  STTSV_REQUIRE(B >= 1, "batch must contain at least one vector");
  for (const std::vector<double>& xv : x) {
    STTSV_REQUIRE(xv.size() == n, "input vector length mismatch");
  }

  // Each communication phase is one logical exchange split into pair-block
  // chunks: chunk t+1 packs (or computes) while chunk t is on the wire.
  // The ledger cannot tell the difference (DESIGN.md §12). With one host
  // thread there is nothing to overlap, so the phase is one chunk: one
  // kernel pass and one route walk, with each outbox destination-ordered.
  const std::size_t chunks =
      pipeline == simt::PipelineMode::kDoubleBuffered &&
              table.live_.size() > 1 && simt::host_concurrency() > 1
          ? 2
          : 1;
  // One outbox per rank, presized to the routes leaving it.
  const auto empty_outboxes = [&] {
    std::vector<std::vector<Envelope>> outboxes(P);
    for (std::size_t h = 0; h < P; ++h) {
      outboxes[h].reserve(table.routes_from_[h]);
    }
    return outboxes;
  };
  const auto chunk_hosts = [&](std::size_t c) -> const auto& {
    return chunks == 1 ? table.live_ : table.live_half_[c];
  };
  const auto chunk_of_host = [&](std::size_t h) {
    return chunks == 1 ? 0 : table.half_of_host_[h];
  };

  // Every buffer below holds B lanes, element g of lane v at g·B + v, so
  // each table segment (src, dst, len) applies as (src·B, dst·B, len·B).
  // Padded input panel: row block i occupies [i·b·B, (i+1)·b·B).
  std::vector<double> x_pad(table.padded_n_ * B, 0.0);
  for (std::size_t v = 0; v < B; ++v) {
    for (std::size_t g = 0; g < n; ++g) x_pad[g * B + v] = x[v][g];
  }

  // ---- Phase 1: exchange x shares (Algorithm 5 lines 10-21). ----------
  // Every role's row blocks (b·B words each) sit in one flat buffer. They
  // are seeded with the role's own share, and with co-hosted roles'
  // shares, up front, so each pipeline part's deliveries can be unpacked
  // the moment it completes: every delivery writes a disjoint (block,
  // sender-share) slice, making the landing order irrelevant. The buffer
  // is left uninitialised here and each role's slots are zeroed and
  // seeded on the worker threads (run_ranks), so they are first-touched
  // by the thread that will feed them to the kernels — the NUMA placement
  // half of DESIGN.md §17. Host programs stay disjoint (host h writes only
  // its roles' slots), so the parallel seed is bitwise identical to the
  // sequential one.
  obs::Span x_phase("sttsv.x-shares", obs::Category::kSuperstep, B);
  const auto x_loc = std::make_unique_for_overwrite<double[]>(base[P] * B);
  machine.run_ranks(table.live_, [&](std::size_t h) {
    for (const std::size_t r :
         CommTable::slice(table.roles_, table.roles_of_[h])) {
      std::fill(x_loc.get() + base[r] * B, x_loc.get() + base[r + 1] * B,
                0.0);
      for (const Segment& s : CommTable::slice(table.seed_,
                                               table.seed_of_[r])) {
        std::copy_n(x_pad.data() + s.src * B, s.len * B,
                    x_loc.get() + s.dst * B);
      }
    }
  });

  // Pack: one envelope per route, the senders' shares in the route's
  // layout — receivers unpack with the same segment list. Buffers are
  // leased exactly sized from the sending host's pool shard.
  const auto pack_x = [&](std::size_t c) {
    std::vector<std::vector<Envelope>> outboxes = empty_outboxes();
    for (const Route& route : table.routes_) {
      if ((route.from + route.to) % chunks != c || route.x_words == 0) {
        continue;
      }
      simt::PooledBuffer buf =
          machine.pool().acquire(route.from, route.x_words * B);
      for (const Segment& s : CommTable::slice(table.x_route_, route.x)) {
        buf.append(x_pad.data() + s.src * B, s.len * B);
      }
      outboxes[route.from].push_back(Envelope{route.to, std::move(buf)});
    }
    return outboxes;
  };
  const auto consume_x = [&](std::vector<std::vector<Delivery>> in) {
    for (std::size_t h = 0; h < in.size(); ++h) {
      for (const Delivery& d : in[h]) {
        const Route& route = table.routes_[table.route_between(d.from, h)];
        STTSV_CHECK(d.data.size() == route.x_words * B,
                    "x delivery length differs from the route's shares");
        const double* cursor = d.data.data();
        for (const Segment& s : CommTable::slice(table.x_route_, route.x)) {
          std::copy_n(cursor, s.len * B, x_loc.get() + s.dst * B);
          cursor += s.len * B;
        }
      }
    }
  };
  exchanger.set_phase("x-shares");
  simt::pipelined_exchange(exchanger, transport, chunks, pipeline, pack_x,
                           consume_x);
  x_phase.close();

  // ---- Phases 2+3: block kernels feeding the partial-y exchange. ------
  // Live hosts are split into `chunks` groups; each pack runs one group's
  // kernels (host programs stay independent — host h reads and writes
  // only its roles' flat slots) and posts that group's partial-y
  // messages, so the other group's kernels overlap the wire time. The
  // reduction below is deferred until every part has landed, which pins
  // the exact floating-point order of the serialized schedule.
  const auto y_loc = std::make_unique_for_overwrite<double[]>(base[P] * B);
  BatchRunResult result;
  result.ternary_mults.assign(P, 0);

  // Active-message transports run the reduction at the target instead of
  // returning deliveries (DESIGN.md §16): local partials are seeded into
  // y_pad as soon as each role's kernels finish (disjoint own-share
  // slices, so the host-threaded kernel groups never collide), and a
  // handler registered below replays the route's segments for every
  // landed payload. Both happen in the local-first, senders-ascending
  // order of the two-sided reduction, so y is bitwise identical. Handlers
  // run in host order, which is role order only when every role runs on
  // its own rank; any other placement reduces from returned deliveries.
  const bool am_reduce =
      table.identity_ && exchanger.supports_handler_delivery();
  std::vector<double> y_pad(table.padded_n_ * B, 0.0);
  const auto add_own_partials = [&](std::size_t r) {
    for (const Segment& s : CommTable::slice(table.own_, table.own_of_[r])) {
      add_into(y_pad.data() + s.dst * B, y_loc.get() + s.src * B, s.len * B);
    }
  };

  obs::Span y_phase("sttsv.y-partials", obs::Category::kSuperstep, B);
  const auto pack_y = [&](std::size_t c) {
    machine.run_ranks(chunk_hosts(c), [&](std::size_t h) {
      for (const std::size_t r :
         CommTable::slice(table.roles_, table.roles_of_[h])) {
        std::fill(y_loc.get() + base[r] * B, y_loc.get() + base[r + 1] * B,
                  0.0);
        for (const CommTable::Block& block :
             CommTable::slice(table.blocks_, table.blocks_of_[r])) {
          PanelBuffers buf;
          for (std::size_t t = 0; t < 3; ++t) {
            buf.x[t] = x_loc.get() + block.slot[t] * B;
            buf.y[t] = y_loc.get() + block.slot[t] * B;
          }
          result.ternary_mults[r] +=
              apply_block_panel(a, block.coord, b, B, buf);
        }
        if (am_reduce) add_own_partials(r);
      }
    });
    std::vector<std::vector<Envelope>> y_out = empty_outboxes();
    for (const Route& route : table.routes_) {
      if (chunk_of_host(route.from) != c || route.y_words == 0) continue;
      simt::PooledBuffer buf =
          machine.pool().acquire(route.from, route.y_words * B);
      for (const Segment& s : CommTable::slice(table.y_route_, route.y)) {
        buf.append(y_loc.get() + s.src * B, s.len * B);
      }
      y_out[route.from].push_back(Envelope{route.to, std::move(buf)});
    }
    return y_out;
  };
  // The first landed part is taken whole; later parts (pipelined chunks,
  // a protocol exchanger's finish()) append to it.
  std::vector<std::vector<Delivery>> y_in;
  const auto collect_y = [&](std::vector<std::vector<Delivery>> in) {
    if (y_in.empty()) {
      y_in = std::move(in);
      return;
    }
    for (std::size_t h = 0; h < in.size(); ++h) {
      for (Delivery& d : in[h]) y_in[h].push_back(std::move(d));
    }
  };
  // The handler refers to this frame, so it is uninstalled on every exit,
  // exceptions included; a stale one would run on the next x exchange.
  struct HandlerReset {
    simt::Exchanger* exchanger;
    ~HandlerReset() {
      if (exchanger != nullptr) exchanger->set_delivery_handler({});
    }
  } handler_reset{am_reduce ? &exchanger : nullptr};
  if (am_reduce) {
    // Remote-reduce handler: ran once per landed payload, targets then
    // origins ascending — the same order as the two-sided loop below.
    exchanger.set_delivery_handler([&](std::size_t target, std::size_t from,
                                       const double* data,
                                       std::size_t words) {
      const Route& route = table.routes_[table.route_between(from, target)];
      STTSV_CHECK(words == route.y_words * B,
                  "y delivery length differs from the route's shares");
      for (const Segment& s : CommTable::slice(table.y_route_, route.y)) {
        add_into(y_pad.data() + s.dst * B, data, s.len * B);
        data += s.len * B;
      }
    });
  }
  exchanger.set_phase("y-partials");
  simt::pipelined_exchange(exchanger, transport, chunks, pipeline, pack_y,
                           collect_y);

  // Own share = local partial + sum of every sender's partial, sending
  // roles ascending (co-hosted and wire-delivered alike) — the serialized
  // reduction order, bit for bit, at every placement. In AM mode the
  // handler above already did both halves and y_in stays empty.
  if (!am_reduce) {
    std::vector<const double*> route_y(table.routes_.size(), nullptr);
    for (std::size_t h = 0; h < y_in.size(); ++h) {
      for (const Delivery& d : y_in[h]) {
        const std::size_t route = table.route_between(d.from, h);
        STTSV_CHECK(d.data.size() == table.routes_[route].y_words * B,
                    "y delivery length differs from the route's shares");
        route_y[route] = d.data.data();
      }
    }
    for (std::size_t r = 0; r < P; ++r) {
      add_own_partials(r);
      for (const CommTable::Sender& sender :
           CommTable::slice(table.senders_, table.senders_of_[r])) {
        const double* src = sender.route == CommTable::kNoRoute
                                ? y_loc.get()
                                : route_y[sender.route];
        if (src == nullptr) continue;
        for (const Segment& s :
             CommTable::slice(table.reduce_, sender.segments)) {
          add_into(y_pad.data() + s.dst * B, src + s.src * B, s.len * B);
        }
      }
    }
  }

  machine.ledger().verify_conservation();
  result.y.assign(B, std::vector<double>(n));
  for (std::size_t v = 0; v < B; ++v) {
    for (std::size_t g = 0; g < n; ++g) result.y[v][g] = y_pad[g * B + v];
  }
  result.maxima = machine.ledger().maxima();
  return result;
}

}  // namespace sttsv::core
