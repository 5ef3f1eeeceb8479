#pragma once
// Concrete Steiner (m, r, 3) system families.
//
//  * spherical_system(q): the paper's main family (Theorem 6.5),
//    S(q²+1, q+1, 3) as the PGL₂(q²) orbit of the subline F_q ∪ {∞}.
//    Drives P = q(q²+1) processors.
//  * boolean_quadruple_system(k): S(2^k, 4, 3) — quadruples of
//    {0..2^k-1} with XOR zero (planes of AG(k, 2)). k = 3 is the unique
//    S(8, 4, 3) used in the paper's Table 3 / Figure 1 appendix example.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "steiner/steiner.hpp"

namespace sttsv::steiner {

/// The parameter ranges the built-in families can build; the
/// constructions, the enumeration below and batch::plan_key all check
/// against these.
/// Spherical at alpha = 2: gf::FieldTable caps the field order q² at 2^24.
inline constexpr std::uint64_t kMaxSphericalQ = 4096;
inline constexpr unsigned kMinBooleanK = 3;
inline constexpr unsigned kMaxBooleanK = 12;
inline constexpr std::size_t kMinTrivialM = 4;
inline constexpr std::size_t kMaxTrivialM = 512;

/// S(q²+1, q+1, 3) for a prime power q <= kMaxSphericalQ (paper
/// Theorem 6.5). Deterministic: the block list is sorted lexicographically.
SteinerSystem spherical_system(std::uint64_t q);

/// Generalization used by tests: S(q^α + 1, q + 1, 3) for α >= 2.
SteinerSystem spherical_system(std::uint64_t q, unsigned alpha);

/// S(2^k, 4, 3) for kMinBooleanK <= k <= kMaxBooleanK: blocks are the 4-subsets {a,b,c,d} of
/// {0..2^k-1} with a ^ b ^ c ^ d == 0. Deterministic order.
SteinerSystem boolean_quadruple_system(unsigned k);

/// The trivial S(m, 3, 3) for kMinTrivialM <= m <= kMaxTrivialM: every 3-subset is its own
/// block. Gives the finest partition (P = C(m,3), one off-diagonal block
/// per processor) — a processor count available for EVERY m, at the cost
/// of higher vector replication (λ₁ = (m-1)(m-2)/2).
SteinerSystem trivial_triple_system(std::size_t m);

/// Identifies which family (if any) provides a Steiner system whose block
/// count equals the requested processor count P, for partition planning.
struct FamilyMatch {
  std::string family;     // "spherical" or "boolean"
  std::uint64_t q = 0;    // spherical parameter (0 for boolean)
  unsigned k = 0;         // boolean parameter (0 for spherical)
  std::size_t m = 0;      // number of points (row blocks)
  std::size_t r = 0;      // block size
  std::size_t P = 0;      // number of blocks == processors
};

/// Exact match for P, if one of the built-in families provides it.
std::optional<FamilyMatch> family_for_processor_count(std::size_t P);

/// All admissible processor counts <= max_p from the built-in families,
/// ascending; used to suggest nearby valid P to users.
std::vector<FamilyMatch> admissible_processor_counts(std::size_t max_p);

}  // namespace sttsv::steiner
