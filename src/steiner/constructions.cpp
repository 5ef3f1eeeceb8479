#include "steiner/constructions.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <set>

#include "gf/primes.hpp"
#include "projective/projective_line.hpp"
#include "support/check.hpp"

namespace sttsv::steiner {

SteinerSystem spherical_system(std::uint64_t q) {
  STTSV_REQUIRE(q <= kMaxSphericalQ, "spherical family limited to q <= 4096");
  return spherical_system(q, 2);
}

SteinerSystem spherical_system(std::uint64_t q, unsigned alpha) {
  STTSV_REQUIRE(gf::is_prime_power(q), "spherical family needs prime power q");
  STTSV_REQUIRE(alpha >= 2, "spherical family needs alpha >= 2");

  std::uint64_t p = 0;
  unsigned e = 0;
  gf::is_prime_power(q, p, e);
  const auto big =
      std::make_shared<const gf::FieldTable>(gf::FieldTable::make(p, e * alpha));
  const proj::ProjectiveLine line(big);

  // Base block: the subline F_q ∪ {∞} inside PG(1, q^alpha).
  const std::vector<std::size_t> base = line.subline(q);

  // Orbit of the base block under PGL₂(q^alpha) by BFS over the standard
  // generators. Blocks are canonical (sorted), so a set dedupes the orbit.
  const auto gens = line.standard_generators();
  std::set<std::vector<std::size_t>> seen;
  std::deque<std::vector<std::size_t>> frontier;
  seen.insert(base);
  frontier.push_back(base);
  while (!frontier.empty()) {
    const auto blk = std::move(frontier.front());
    frontier.pop_front();
    for (const auto& g : gens) {
      auto image = line.apply_to_block(g, blk);
      if (seen.insert(image).second) frontier.push_back(std::move(image));
    }
  }

  const std::uint64_t qa = gf::checked_pow(q, alpha);
  const std::size_t expected =
      static_cast<std::size_t>(((qa + 1) * qa * (qa - 1)) /
                               ((q + 1) * q * (q - 1)));
  STTSV_CHECK(seen.size() == expected,
              "spherical orbit size mismatch (expected "
              "(q^a+1)q^a(q^a-1)/((q+1)q(q-1)) blocks)");

  std::vector<std::vector<std::size_t>> blocks(seen.begin(), seen.end());
  return SteinerSystem(static_cast<std::size_t>(qa) + 1,
                       static_cast<std::size_t>(q) + 1, std::move(blocks));
}

SteinerSystem boolean_quadruple_system(unsigned k) {
  STTSV_REQUIRE(k >= kMinBooleanK, "boolean quadruple system needs k >= 3");
  STTSV_REQUIRE(k <= kMaxBooleanK,
                "boolean quadruple system limited to 2^12 points");
  const std::size_t n = std::size_t{1} << k;

  // {a, b, c, d} with a<b<c, d = a^b^c and d > c guarantees each block is
  // produced exactly once. d != a, b, c automatically because XOR of two
  // equal elements of {a,b,c,d} would force the other two equal.
  std::vector<std::vector<std::size_t>> blocks;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      for (std::size_t c = b + 1; c < n; ++c) {
        const std::size_t d = a ^ b ^ c;
        if (d > c) blocks.push_back({a, b, c, d});
      }
    }
  }
  return SteinerSystem(n, 4, std::move(blocks));
}

SteinerSystem trivial_triple_system(std::size_t m) {
  STTSV_REQUIRE(m >= kMinTrivialM, "trivial triple system needs m >= 4");
  STTSV_REQUIRE(m <= kMaxTrivialM,
                "trivial triple system limited to 512 points");
  std::vector<std::vector<std::size_t>> blocks;
  blocks.reserve(m * (m - 1) * (m - 2) / 6);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = a + 1; b < m; ++b) {
      for (std::size_t c = b + 1; c < m; ++c) {
        blocks.push_back({a, b, c});
      }
    }
  }
  return SteinerSystem(m, 3, std::move(blocks));
}

std::optional<FamilyMatch> family_for_processor_count(std::size_t P) {
  for (const auto& match : admissible_processor_counts(P)) {
    if (match.P == P) return match;
  }
  return std::nullopt;
}

std::vector<FamilyMatch> admissible_processor_counts(std::size_t max_p) {
  std::vector<FamilyMatch> out;
  // Spherical: P = q(q²+1).
  for (std::uint64_t q = 2; q <= kMaxSphericalQ && q * (q * q + 1) <= max_p;
       ++q) {
    if (!gf::is_prime_power(q)) continue;
    FamilyMatch m;
    m.family = "spherical";
    m.q = q;
    m.m = static_cast<std::size_t>(q * q + 1);
    m.r = static_cast<std::size_t>(q + 1);
    m.P = static_cast<std::size_t>(q * (q * q + 1));
    out.push_back(m);
  }
  // Boolean: P = 2^k (2^k - 1)(2^k - 2) / 24.
  for (unsigned k = kMinBooleanK; k <= kMaxBooleanK; ++k) {
    const std::size_t n = std::size_t{1} << k;
    const std::size_t P = n * (n - 1) * (n - 2) / 24;
    if (P > max_p) break;
    FamilyMatch m;
    m.family = "boolean";
    m.k = k;
    m.m = n;
    m.r = 4;
    m.P = P;
    out.push_back(m);
  }
  std::sort(out.begin(), out.end(),
            [](const FamilyMatch& a, const FamilyMatch& b) {
              return a.P < b.P;
            });
  return out;
}

}  // namespace sttsv::steiner
