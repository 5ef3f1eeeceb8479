#include "partition/tetra_partition.hpp"

#include <algorithm>

#include "graph/bipartite.hpp"
#include "graph/max_flow.hpp"
#include "support/check.hpp"

namespace sttsv::partition {

TetraPartition TetraPartition::build(steiner::SteinerSystem system) {
  STTSV_REQUIRE(system.num_points() <= system.num_blocks(),
                "need m <= P so central diagonal blocks fit 1-per-processor");
  TetraPartition part(std::move(system));
  part.assign_non_central_diagonals();
  part.assign_central_diagonals();
  return part;
}

TetraPartition::TetraPartition(steiner::SteinerSystem system)
    : sys_(std::move(system)),
      N_(sys_.num_blocks()),
      D_(sys_.num_blocks()),
      aab_owner_(sys_.num_points() * sys_.num_points(), graph::kNone),
      abb_owner_(sys_.num_points() * sys_.num_points(), graph::kNone),
      central_owner_(sys_.num_points(), graph::kNone) {}

std::size_t TetraPartition::num_processors() const {
  return sys_.num_blocks();
}

std::size_t TetraPartition::num_row_blocks() const {
  return sys_.num_points();
}

std::size_t TetraPartition::steiner_block_size() const {
  return sys_.block_size();
}

const std::vector<std::size_t>& TetraPartition::R(std::size_t p) const {
  return sys_.block(p);
}

const std::vector<BlockCoord>& TetraPartition::N(std::size_t p) const {
  STTSV_REQUIRE(p < N_.size(), "processor out of range");
  return N_[p];
}

const std::vector<BlockCoord>& TetraPartition::D(std::size_t p) const {
  STTSV_REQUIRE(p < D_.size(), "processor out of range");
  return D_[p];
}

const std::vector<std::size_t>& TetraPartition::Q(std::size_t i) const {
  STTSV_REQUIRE(i < sys_.num_points(), "row block out of range");
  return sys_.point_blocks()[i];
}

std::vector<BlockCoord> TetraPartition::owned_blocks(std::size_t p) const {
  std::vector<BlockCoord> out = tetrahedral_block(R(p));
  out.insert(out.end(), N_[p].begin(), N_[p].end());
  out.insert(out.end(), D_[p].begin(), D_[p].end());
  std::sort(out.begin(), out.end());
  return out;
}

void TetraPartition::assign_non_central_diagonals() {
  const std::size_t m = sys_.num_points();
  const std::size_t P = sys_.num_blocks();

  // Items: all non-central diagonal blocks, enumerated deterministically:
  // item 2*(pair index) = (a,a,b), +1 = (a,b,b), over pairs a > b.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // (a, b), a > b
  pairs.reserve(m * (m - 1) / 2);
  for (std::size_t a = 1; a < m; ++a) {
    for (std::size_t b = 0; b < a; ++b) pairs.emplace_back(a, b);
  }
  const std::size_t items = 2 * pairs.size();

  // Edges: processor p is a candidate for any diagonal block over a pair
  // contained in R_p (Section 6.1.3's bipartite graph).
  graph::BipartiteGraph g(P, items);
  for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
    const auto [a, b] = pairs[idx];
    for (const std::size_t p : sys_.blocks_containing_pair(a, b)) {
      g.add_edge(p, 2 * idx);
      g.add_edge(p, 2 * idx + 1);
    }
  }

  // Quota: ceil(items / P). For the spherical family this is exactly q and
  // the flow saturates every processor at q (Corollary 6.7). Families with
  // less regular replication (e.g. the trivial S(m,3,3)) may need a
  // slightly larger cap for Hall's condition; feasibility is monotone in
  // the quota, so step it up until the flow saturates.
  std::vector<std::size_t> owners;
  for (std::size_t quota = (items + P - 1) / P; quota <= items; ++quota) {
    try {
      owners =
          graph::assign_with_quotas(g, std::vector<std::size_t>(P, quota));
      nc_quota_ = quota;
      break;
    } catch (const InternalError&) {
      STTSV_CHECK(quota < items, "diagonal assignment infeasible");
    }
  }

  const std::size_t mm = m;
  for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
    const auto [a, b] = pairs[idx];
    const std::size_t p_aab = owners[2 * idx];
    const std::size_t p_abb = owners[2 * idx + 1];
    N_[p_aab].push_back(BlockCoord{a, a, b});
    N_[p_abb].push_back(BlockCoord{a, b, b});
    aab_owner_[a * mm + b] = p_aab;
    abb_owner_[a * mm + b] = p_abb;
  }
  for (auto& blocks : N_) std::sort(blocks.begin(), blocks.end());
}

void TetraPartition::assign_central_diagonals() {
  const std::size_t m = sys_.num_points();
  const std::size_t P = sys_.num_blocks();

  graph::BipartiteGraph g(P, m);
  for (std::size_t a = 0; a < m; ++a) {
    for (const std::size_t p : sys_.point_blocks()[a]) {
      g.add_edge(p, a);
    }
  }
  const std::vector<std::size_t> owners =
      graph::assign_with_quotas(g, std::vector<std::size_t>(P, 1));

  for (std::size_t a = 0; a < m; ++a) {
    D_[owners[a]].push_back(BlockCoord{a, a, a});
    central_owner_[a] = owners[a];
  }
}

std::size_t TetraPartition::owner(const BlockCoord& c) const {
  const std::size_t m = sys_.num_points();
  STTSV_REQUIRE(c.i >= c.j && c.j >= c.k && c.i < m,
                "block coordinate must be sorted and in range");
  switch (classify(c)) {
    case BlockType::kCentralDiagonal:
      return central_owner_[c.i];
    case BlockType::kNonCentralDiagonal:
      return c.i == c.j ? aab_owner_[c.i * m + c.k]
                        : abb_owner_[c.i * m + c.j];
    case BlockType::kOffDiagonal: {
      // The unique Steiner block containing {i, j, k}: intersect the
      // λ₂ blocks of pair (i, j) with membership of k.
      for (const std::size_t p : sys_.blocks_containing_pair(c.i, c.j)) {
        const auto& blk = sys_.block(p);
        if (std::binary_search(blk.begin(), blk.end(), c.k)) return p;
      }
      STTSV_CHECK(false, "triple not covered by any Steiner block");
    }
  }
  STTSV_UNREACHABLE("unknown block type");
}

std::size_t TetraPartition::stored_entries(std::size_t p,
                                           std::size_t b) const {
  const std::size_t r = sys_.block_size();
  const std::size_t off_blocks = r * (r - 1) * (r - 2) / 6;
  std::size_t total =
      off_blocks * entries_in_block(BlockType::kOffDiagonal, b);
  total += N(p).size() * entries_in_block(BlockType::kNonCentralDiagonal, b);
  total += D(p).size() * entries_in_block(BlockType::kCentralDiagonal, b);
  return total;
}

std::size_t TetraPartition::ternary_mults(std::size_t p,
                                          std::size_t b) const {
  const std::size_t r = sys_.block_size();
  const std::size_t off_blocks = r * (r - 1) * (r - 2) / 6;
  std::size_t total =
      off_blocks * ternary_mults_in_block(BlockType::kOffDiagonal, b);
  total +=
      N(p).size() * ternary_mults_in_block(BlockType::kNonCentralDiagonal, b);
  total +=
      D(p).size() * ternary_mults_in_block(BlockType::kCentralDiagonal, b);
  return total;
}

void TetraPartition::validate() const {
  const std::size_t m = sys_.num_points();
  const std::size_t P = sys_.num_blocks();

  // Every lower-tetra block is owned exactly once by a compatible owner.
  std::size_t counted = 0;
  for (const auto& c : all_lower_blocks(m)) {
    const std::size_t p = owner(c);
    STTSV_CHECK(p < P, "owner out of range");
    const auto& Rp = R(p);
    auto contains = [&](std::size_t v) {
      return std::binary_search(Rp.begin(), Rp.end(), v);
    };
    STTSV_CHECK(contains(c.i) && contains(c.j) && contains(c.k),
                "owner's R_p does not cover the block's indices");
    ++counted;
  }
  STTSV_CHECK(counted == m * (m + 1) * (m + 2) / 6, "block count mismatch");

  // Per-processor ownership lists agree with the owner() map and quotas.
  const std::size_t nc_quota = nc_quota_;
  std::size_t total_nc = 0;
  std::size_t total_c = 0;
  for (std::size_t p = 0; p < P; ++p) {
    STTSV_CHECK(N(p).size() <= nc_quota,
                "non-central diagonal quota exceeded");
    STTSV_CHECK(D(p).size() <= 1, "more than one central diagonal block");
    for (const auto& c : N(p)) {
      STTSV_CHECK(classify(c) == BlockType::kNonCentralDiagonal,
                  "N_p holds a non-diagonal block");
      STTSV_CHECK(owner(c) == p, "N_p inconsistent with owner map");
    }
    for (const auto& c : D(p)) {
      STTSV_CHECK(classify(c) == BlockType::kCentralDiagonal,
                  "D_p holds a non-central block");
      STTSV_CHECK(owner(c) == p, "D_p inconsistent with owner map");
    }
    total_nc += N(p).size();
    total_c += D(p).size();
  }
  STTSV_CHECK(total_nc == num_non_central_diagonal_blocks(m),
              "non-central diagonal blocks not all assigned");
  STTSV_CHECK(total_c == num_central_diagonal_blocks(m),
              "central diagonal blocks not all assigned");

  // Q_i lists exactly the processors with i in R_p.
  for (std::size_t i = 0; i < m; ++i) {
    const auto& Qi = Q(i);
    STTSV_CHECK(std::is_sorted(Qi.begin(), Qi.end()), "Q_i not sorted");
    STTSV_CHECK(Qi.size() == sys_.point_replication(),
                "Q_i size violates Lemma 6.4");
    for (const std::size_t p : Qi) {
      const auto& Rp = R(p);
      STTSV_CHECK(std::binary_search(Rp.begin(), Rp.end(), i),
                  "Q_i lists a processor without i in R_p");
    }
  }
}

}  // namespace sttsv::partition
