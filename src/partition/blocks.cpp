#include "partition/blocks.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace sttsv::partition {

BlockType classify(const BlockCoord& c) {
  STTSV_REQUIRE(c.i >= c.j && c.j >= c.k, "block coordinate must be sorted");
  if (c.i == c.j && c.j == c.k) return BlockType::kCentralDiagonal;
  if (c.i == c.j || c.j == c.k) return BlockType::kNonCentralDiagonal;
  return BlockType::kOffDiagonal;
}

std::vector<BlockCoord> tetrahedral_block(
    const std::vector<std::size_t>& R) {
  STTSV_REQUIRE(std::is_sorted(R.begin(), R.end()) &&
                    std::adjacent_find(R.begin(), R.end()) == R.end(),
                "index set must be strictly increasing");
  std::vector<BlockCoord> out;
  out.reserve(R.size() * (R.size() - 1) * (R.size() - 2) / 6);
  for (std::size_t a = 0; a < R.size(); ++a) {
    for (std::size_t b = a + 1; b < R.size(); ++b) {
      for (std::size_t c = b + 1; c < R.size(); ++c) {
        // R is ascending, so (R[c], R[b], R[a]) is descending i > j > k.
        out.push_back(BlockCoord{R[c], R[b], R[a]});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<BlockCoord> all_lower_blocks(std::size_t m) {
  std::vector<BlockCoord> out;
  out.reserve(m * (m + 1) * (m + 2) / 6);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      for (std::size_t k = 0; k <= j; ++k) {
        out.push_back(BlockCoord{i, j, k});
      }
    }
  }
  return out;
}

std::size_t num_off_diagonal_blocks(std::size_t m) {
  if (m < 3) return 0;
  return m * (m - 1) * (m - 2) / 6;
}

std::size_t num_non_central_diagonal_blocks(std::size_t m) {
  if (m < 2) return 0;
  return m * (m - 1);
}

std::size_t num_central_diagonal_blocks(std::size_t m) { return m; }

std::size_t entries_in_block(BlockType type, std::size_t b) {
  switch (type) {
    case BlockType::kOffDiagonal:
      return b * b * b;
    case BlockType::kNonCentralDiagonal:
      return b * b * (b + 1) / 2;
    case BlockType::kCentralDiagonal:
      return b * (b + 1) * (b + 2) / 6;
  }
  STTSV_UNREACHABLE("unknown block type");
}

std::size_t ternary_mults_in_block(BlockType type, std::size_t b) {
  switch (type) {
    case BlockType::kOffDiagonal:
      // Every entry contributes updates to y[i], y[j], y[k]: 3 b³.
      return 3 * b * b * b;
    case BlockType::kNonCentralDiagonal:
      // b²(b-1)/2 strict entries at 3 each + b² two-equal entries at 2.
      return 3 * b * b * (b - 1) / 2 + 2 * b * b;
    case BlockType::kCentralDiagonal:
      // Strict entries 3 each, two-equal entries 2 each, center 1 each.
      return 3 * (b * (b - 1) * (b - 2) / 6) + 2 * (b * (b - 1)) + b;
  }
  STTSV_UNREACHABLE("unknown block type");
}

}  // namespace sttsv::partition
