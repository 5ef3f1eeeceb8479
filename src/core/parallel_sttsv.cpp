#include "core/parallel_sttsv.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <utility>

#include "core/block_kernels.hpp"
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

constexpr std::size_t kLocal = std::numeric_limits<std::size_t>::max();

/// One call's role→host placement and communication pattern, built once
/// and read by every pack, unpack and reduce walk below.
///
/// A *link* is an ordered role pair (s, r), s ≠ r, whose row-block sets
/// meet in R_s ∩ R_r — by the Steiner property at most 2 blocks, which is
/// why a pair exchanges at most 2 row-block shares (Section 7.2.2). A
/// *route* is an ordered pair of distinct hosts; its one envelope per
/// phase concatenates the slices of every link between their roles
/// (receiving roles ascending, then sending roles, then common blocks), a
/// layout both sides replay. Links between co-hosted roles have no route:
/// they are local copies and never touch the wire or the ledger.
struct CommTable {
  struct Link {
    std::size_t from = 0;  // sending role
    std::size_t to = 0;    // receiving role
    std::size_t blocks_begin = 0;
    std::size_t blocks_end = 0;  // common row blocks: blocks[begin, end)
    std::size_t route = kLocal;
    std::size_t y_offset = 0;  // words into the route's y envelope
  };
  struct Route {
    std::size_t from = 0;  // sending host
    std::size_t to = 0;    // receiving host
    std::size_t links_begin = 0;
    std::size_t links_end = 0;  // route_links[begin, end)
    std::size_t x_words = 0;
    std::size_t y_words = 0;
  };

  std::vector<std::size_t> host;                   // role -> rank
  std::vector<std::vector<std::size_t>> roles_of;  // rank -> roles, asc
  std::vector<std::size_t> live;  // ranks hosting a role, ascending
  bool identity = true;           // every role on its own rank
  std::vector<std::size_t> blocks;
  // Ordered by (to, from): links[into[r], into[r + 1]) are r's senders,
  // ascending — the reduction order.
  std::vector<Link> links;
  std::vector<std::size_t> into;
  std::vector<std::size_t> route_links;  // link ids, grouped by route
  std::vector<Route> routes;             // (from, to) ascending

  CommTable(const TetraPartition& part, const VectorDistribution& dist,
            std::span<const std::size_t> host_of_role) {
    const std::size_t P = part.num_processors();
    STTSV_REQUIRE(host_of_role.empty() || host_of_role.size() == P,
                  "placement must cover every partition role");
    host.resize(P);
    roles_of.resize(P);
    for (std::size_t r = 0; r < P; ++r) {
      host[r] = host_of_role.empty() ? r : host_of_role[r];
      STTSV_REQUIRE(host[r] < P, "role placed on a rank outside the machine");
      identity = identity && host[r] == r;
      roles_of[host[r]].push_back(r);
    }
    for (std::size_t h = 0; h < P; ++h) {
      if (!roles_of[h].empty()) live.push_back(h);
    }

    // r's peers — every other member of Q_i for some i ∈ R_r, ascending —
    // are exactly its senders: the relation is symmetric.
    std::vector<std::size_t> peers;
    for (std::size_t r = 0; r < P; ++r) {
      into.push_back(links.size());
      peers.clear();
      for (const std::size_t i : part.R(r)) {
        for (const std::size_t s : part.Q(i)) {
          if (s != r) peers.push_back(s);
        }
      }
      std::sort(peers.begin(), peers.end());
      peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
      for (const std::size_t s : peers) {
        Link link{s, r, blocks.size(), 0, kLocal, 0};
        std::set_intersection(part.R(s).begin(), part.R(s).end(),
                              part.R(r).begin(), part.R(r).end(),
                              std::back_inserter(blocks));
        link.blocks_end = blocks.size();
        links.push_back(link);
        if (host[s] != host[r]) route_links.push_back(links.size() - 1);
      }
    }
    into.push_back(links.size());

    // Group wire links by host pair; the stable sort keeps each route's
    // links in (receiving role, sending role) order.
    const auto key = [&](std::size_t l) {
      return std::pair(host[links[l].from], host[links[l].to]);
    };
    std::ranges::stable_sort(route_links, {}, key);
    for (std::size_t k = 0; k < route_links.size(); ++k) {
      const auto [hf, ht] = key(route_links[k]);
      if (routes.empty() || routes.back().from != hf ||
          routes.back().to != ht) {
        routes.push_back(Route{hf, ht, k, k, 0, 0});
      }
      Route& route = routes.back();
      Link& link = links[route_links[k]];
      link.route = routes.size() - 1;
      link.y_offset = route.y_words;
      for (const std::size_t i : blocks_of(link)) {
        route.x_words += dist.share(i, link.from).length;
        route.y_words += dist.share(i, link.to).length;
      }
      route.links_end = k + 1;
    }
  }

  [[nodiscard]] std::span<const std::size_t> blocks_of(const Link& l) const {
    return {blocks.data() + l.blocks_begin, l.blocks_end - l.blocks_begin};
  }

  /// fn(link, i) for every common block i of every link on `route`, in
  /// envelope order.
  template <class Fn>
  void walk(const Route& route, Fn&& fn) const {
    for (std::size_t k = route.links_begin; k < route.links_end; ++k) {
      const Link& link = links[route_links[k]];
      for (const std::size_t i : blocks_of(link)) fn(link, i);
    }
  }

  /// Index of the route carrying host hf's envelope to host ht.
  [[nodiscard]] std::size_t find(std::size_t hf, std::size_t ht) const {
    const auto it = std::ranges::lower_bound(
        routes, std::pair(hf, ht), {},
        [](const Route& r) { return std::pair(r.from, r.to); });
    STTSV_CHECK(it != routes.end() && it->from == hf && it->to == ht,
                "delivery between hosts whose roles share no row block");
    return static_cast<std::size_t>(it - routes.begin());
  }
};

}  // namespace

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
  simt::Machine& machine = exchanger.machine();
  const std::size_t P = part.num_processors();
  const std::size_t b = dist.block_length_b();
  const std::size_t n = dist.logical_n();
  STTSV_REQUIRE(machine.num_ranks() == P,
                "machine rank count must match partition");
  STTSV_REQUIRE(a.dim() == n, "tensor dimension must match distribution");
  STTSV_REQUIRE(x.size() == n, "input vector length mismatch");
  const CommTable table(part, dist, host_of_role);
  using Link = CommTable::Link;
  using Route = CommTable::Route;

  // Each communication phase is one logical exchange split into pair-block
  // chunks: chunk t+1 packs (or computes) while chunk t is on the wire.
  // The ledger cannot tell the difference (DESIGN.md §12).
  const std::size_t chunks =
      pipeline == simt::PipelineMode::kDoubleBuffered && table.live.size() > 1
          ? 2
          : 1;

  // Padded copy of x: row block i occupies [i*b, (i+1)*b).
  std::vector<double> x_pad(dist.padded_n(), 0.0);
  std::copy(x.begin(), x.end(), x_pad.begin());

  // ---- Phase 1: exchange x shares (Algorithm 5 lines 10-21). ----------
  // Local row blocks x_loc[r][i] (length b each) are seeded with the
  // role's own share, and with co-hosted roles' shares, up front, so each
  // pipeline part's deliveries can be unpacked the moment it completes:
  // every delivery writes a disjoint (block, sender-share) slice, making
  // the landing order irrelevant. Seeding runs on the worker threads
  // (run_ranks) so each role's block storage is first-touched by the
  // thread that will feed it to the kernels — the NUMA placement half of
  // DESIGN.md §17. Host programs stay disjoint (host h writes only its
  // roles' x_loc), so the parallel seed is bitwise identical to the
  // sequential one.
  obs::Span x_phase("sttsv.x-shares", obs::Category::kSuperstep);
  std::vector<std::map<std::size_t, std::vector<double>>> x_loc(P);
  const auto copy_x = [&](std::size_t sender, std::size_t r, std::size_t i) {
    const Share s = dist.share(i, sender);
    std::copy_n(x_pad.data() + i * b + s.offset, s.length,
                x_loc[r][i].data() + s.offset);
  };
  machine.run_ranks(table.live, [&](std::size_t h) {
    for (const std::size_t r : table.roles_of[h]) {
      for (const std::size_t i : part.R(r)) {
        x_loc[r][i].assign(b, 0.0);
        copy_x(r, r, i);
      }
      for (std::size_t l = table.into[r]; l < table.into[r + 1]; ++l) {
        const Link& link = table.links[l];
        if (link.route != kLocal) continue;
        for (const std::size_t i : table.blocks_of(link)) {
          copy_x(link.from, r, i);
        }
      }
    }
  });

  // Pack: one envelope per route, the senders' shares in the route's
  // layout — receivers unpack with the same walk. Buffers are leased
  // exactly sized from the sending host's pool shard.
  const auto pack_x = [&](std::size_t c) {
    std::vector<std::vector<Envelope>> outboxes(P);
    for (const Route& route : table.routes) {
      if ((route.from + route.to) % chunks != c || route.x_words == 0) {
        continue;
      }
      simt::PooledBuffer buf =
          machine.pool().acquire(route.from, route.x_words);
      table.walk(route, [&](const Link& link, std::size_t i) {
        const Share s = dist.share(i, link.from);
        buf.append(x_pad.data() + i * b + s.offset, s.length);
      });
      outboxes[route.from].push_back(Envelope{route.to, std::move(buf)});
    }
    return outboxes;
  };
  const auto consume_x = [&](std::vector<std::vector<Delivery>> in) {
    for (std::size_t h = 0; h < in.size(); ++h) {
      for (const Delivery& d : in[h]) {
        const Route& route = table.routes[table.find(d.from, h)];
        STTSV_CHECK(d.data.size() == route.x_words,
                    "x delivery length differs from the route's shares");
        const double* cursor = d.data.data();
        table.walk(route, [&](const Link& link, std::size_t i) {
          const Share s = dist.share(i, link.from);
          std::copy_n(cursor, s.length, x_loc[link.to][i].data() + s.offset);
          cursor += s.length;
        });
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
  // only its roles' x_loc and y_loc) and posts that group's partial-y
  // messages, so the other group's kernels overlap the wire time. The
  // reduction below is deferred until every part has landed, which pins
  // the exact floating-point order of the serialized schedule.
  std::vector<std::map<std::size_t, std::vector<double>>> y_loc(P);
  ParallelRunResult result;
  result.ternary_mults.assign(P, 0);

  std::vector<std::vector<std::size_t>> host_chunks(chunks);
  std::vector<std::size_t> chunk_of_host(P, 0);
  for (std::size_t k = 0; k < table.live.size(); ++k) {
    host_chunks[k % chunks].push_back(table.live[k]);
    chunk_of_host[table.live[k]] = k % chunks;
  }

  // Active-message transports run the reduction at the target instead of
  // returning deliveries (DESIGN.md §16): local partials are seeded into
  // y_pad as soon as each role's kernels finish (disjoint own-share
  // slices, so the host-threaded kernel groups never collide), and a
  // handler registered below replays the route walk for every landed
  // payload. Both happen in the local-first, senders-ascending order of
  // the two-sided reduction, so y is bitwise identical. Handlers run in
  // host order, which is role order only when every role runs on its own
  // rank; any other placement reduces from returned deliveries.
  const bool am_reduce =
      table.identity && exchanger.supports_handler_delivery();
  std::vector<double> y_pad(dist.padded_n(), 0.0);
  // y_pad's share(i, r) slice += src[0, length).
  const auto add_y = [&](std::size_t r, std::size_t i, const double* src) {
    const Share s = dist.share(i, r);
    for (std::size_t off = 0; off < s.length; ++off) {
      y_pad[i * b + s.offset + off] += src[off];
    }
    return s.length;
  };
  const auto add_own_partials = [&](std::size_t r) {
    for (const std::size_t i : part.R(r)) {
      add_y(r, i, y_loc[r].at(i).data() + dist.share(i, r).offset);
    }
  };

  obs::Span y_phase("sttsv.y-partials", obs::Category::kSuperstep);
  const auto pack_y = [&](std::size_t c) {
    machine.run_ranks(host_chunks[c], [&](std::size_t h) {
      for (const std::size_t r : table.roles_of[h]) {
        for (const std::size_t i : part.R(r)) {
          y_loc[r][i].assign(b, 0.0);
        }
        for (const partition::BlockCoord& coord : part.owned_blocks(r)) {
          BlockBuffers buf;
          buf.x[0] = x_loc[r].at(coord.i).data();
          buf.x[1] = x_loc[r].at(coord.j).data();
          buf.x[2] = x_loc[r].at(coord.k).data();
          buf.y[0] = y_loc[r].at(coord.i).data();
          buf.y[1] = y_loc[r].at(coord.j).data();
          buf.y[2] = y_loc[r].at(coord.k).data();
          result.ternary_mults[r] += apply_block(a, coord, b, buf);
        }
        x_loc[r].clear();  // frees the gathered inputs early
        if (am_reduce) add_own_partials(r);
      }
    });
    std::vector<std::vector<Envelope>> y_out(P);
    for (const Route& route : table.routes) {
      if (chunk_of_host[route.from] != c || route.y_words == 0) continue;
      // Send the *receiving role's* share of each common row block.
      simt::PooledBuffer buf =
          machine.pool().acquire(route.from, route.y_words);
      table.walk(route, [&](const Link& link, std::size_t i) {
        const Share s = dist.share(i, link.to);
        buf.append(y_loc[link.from].at(i).data() + s.offset, s.length);
      });
      y_out[route.from].push_back(Envelope{route.to, std::move(buf)});
    }
    return y_out;
  };
  std::vector<std::vector<Delivery>> y_in(P);
  const auto collect_y = [&](std::vector<std::vector<Delivery>> in) {
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
    // origins ascending — the same walk as the two-sided loop below.
    exchanger.set_delivery_handler([&](std::size_t target, std::size_t from,
                                       const double* data,
                                       std::size_t words) {
      const Route& route = table.routes[table.find(from, target)];
      STTSV_CHECK(words == route.y_words,
                  "y delivery length differs from the route's shares");
      table.walk(route, [&](const Link& link, std::size_t i) {
        data += add_y(link.to, i, data);
      });
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
    std::vector<const double*> route_y(table.routes.size(), nullptr);
    for (std::size_t h = 0; h < P; ++h) {
      for (const Delivery& d : y_in[h]) {
        const std::size_t route = table.find(d.from, h);
        STTSV_CHECK(d.data.size() == table.routes[route].y_words,
                    "y delivery length differs from the route's shares");
        route_y[route] = d.data.data();
      }
    }
    for (std::size_t r = 0; r < P; ++r) {
      add_own_partials(r);
      for (std::size_t l = table.into[r]; l < table.into[r + 1]; ++l) {
        const Link& link = table.links[l];
        if (link.route == kLocal) {
          for (const std::size_t i : table.blocks_of(link)) {
            const std::vector<double>& partial = y_loc[link.from].at(i);
            add_y(r, i, partial.data() + dist.share(i, r).offset);
          }
        } else if (const double* wire = route_y[link.route]) {
          wire += link.y_offset;
          for (const std::size_t i : table.blocks_of(link)) {
            wire += add_y(r, i, wire);
          }
        }
      }
    }
  }

  machine.ledger().verify_conservation();
  result.y.assign(y_pad.begin(), y_pad.begin() + static_cast<long>(n));
  const simt::LedgerMaxima maxima = machine.ledger().maxima();
  result.max_words_sent = maxima.words_sent;
  result.max_words_received = maxima.words_received;
  return result;
}

}  // namespace sttsv::core
