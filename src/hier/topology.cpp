#include "hier/topology.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>

#include "support/check.hpp"

namespace sttsv::hier {

Topology::Topology(std::vector<std::uint32_t> node_of)
    : node_of_(std::move(node_of)) {
  STTSV_REQUIRE(!node_of_.empty(), "topology needs at least one rank");
  std::size_t nodes = 0;
  for (const std::uint32_t node : node_of_) {
    nodes = std::max<std::size_t>(nodes, node + 1);
  }
  ranks_on_.assign(nodes, {});
  for (std::size_t p = 0; p < node_of_.size(); ++p) {
    ranks_on_[node_of_[p]].push_back(p);
  }
  for (std::size_t v = 0; v < nodes; ++v) {
    STTSV_REQUIRE(!ranks_on_[v].empty(),
                  "topology node labels must be dense in [0, N)");
  }
}

Topology Topology::uniform(std::size_t num_ranks, std::size_t num_nodes) {
  STTSV_REQUIRE(num_nodes >= 1, "topology needs at least one node");
  STTSV_REQUIRE(num_nodes <= num_ranks,
                "more nodes than ranks leaves empty nodes");
  // Contiguous runs, first (P mod N) nodes one rank larger: the map a
  // rank-ordered launcher (mpirun-style block placement) would produce.
  std::vector<std::uint32_t> node_of(num_ranks);
  const std::size_t base = num_ranks / num_nodes;
  const std::size_t extra = num_ranks % num_nodes;
  std::size_t p = 0;
  for (std::size_t v = 0; v < num_nodes; ++v) {
    const std::size_t count = base + (v < extra ? 1 : 0);
    for (std::size_t k = 0; k < count; ++k) {
      node_of[p++] = static_cast<std::uint32_t>(v);
    }
  }
  return Topology(std::move(node_of));
}

Topology Topology::from_map(std::vector<std::uint32_t> node_of) {
  return Topology(std::move(node_of));
}

Topology Topology::parse(std::string_view text, std::size_t num_ranks) {
  const auto fail = [&](const char* why) {
    STTSV_REQUIRE(false, std::string("STTSV_TOPOLOGY must be \"NxM\" with "
                                     "N*M == num_ranks (") +
                             why + ", got \"" + std::string(text) + "\" for " +
                             std::to_string(num_ranks) + " ranks)");
  };
  const std::size_t x = text.find('x');
  if (x == std::string_view::npos || x == 0 || x + 1 >= text.size()) {
    fail("expected two x-separated integers");
  }
  const auto parse_int = [&](std::string_view part) -> std::size_t {
    std::size_t value = 0;
    if (part.empty()) fail("empty integer");
    for (const char c : part) {
      if (c < '0' || c > '9') fail("non-digit character");
      const auto d = static_cast<std::size_t>(c - '0');
      if (value > (std::numeric_limits<std::size_t>::max() - d) / 10) {
        fail("integer overflows");
      }
      value = value * 10 + d;
    }
    return value;
  };
  const std::size_t nodes = parse_int(text.substr(0, x));
  const std::size_t per_node = parse_int(text.substr(x + 1));
  if (nodes == 0 || per_node == 0) fail("zero dimension");
  // N*M == num_ranks, phrased by division so the product cannot wrap.
  if (num_ranks % nodes != 0 || num_ranks / nodes != per_node) {
    fail("N*M != num_ranks");
  }
  return uniform(num_ranks, nodes);
}

std::optional<Topology> Topology::from_env(std::size_t num_ranks) {
  const char* raw = std::getenv("STTSV_TOPOLOGY");
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  return parse(raw, num_ranks);
}

std::uint32_t Topology::node_of(std::size_t rank) const {
  STTSV_REQUIRE(rank < node_of_.size(), "rank out of range");
  return node_of_[rank];
}

const std::vector<std::size_t>& Topology::ranks_on(std::size_t node) const {
  STTSV_REQUIRE(node < ranks_on_.size(), "node out of range");
  return ranks_on_[node];
}

}  // namespace sttsv::hier
