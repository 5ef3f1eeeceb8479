#include "gf/prime_field.hpp"

#include <algorithm>
#include <utility>

#include "gf/primes.hpp"
#include "support/check.hpp"

namespace sttsv::gf {

PrimeField::PrimeField(std::uint64_t p) : p_(p) {
  STTSV_REQUIRE(is_prime(p), "PrimeField modulus must be prime");
  // Keep p small enough that products fit in 64 bits without __int128.
  STTSV_REQUIRE(p < (1ULL << 31), "PrimeField modulus too large");
}

std::uint64_t PrimeField::add(std::uint64_t a, std::uint64_t b) const {
  STTSV_DCHECK(a < p_ && b < p_, "operands out of range");
  const std::uint64_t s = a + b;
  return s >= p_ ? s - p_ : s;
}

std::uint64_t PrimeField::sub(std::uint64_t a, std::uint64_t b) const {
  STTSV_DCHECK(a < p_ && b < p_, "operands out of range");
  return a >= b ? a - b : a + p_ - b;
}

std::uint64_t PrimeField::neg(std::uint64_t a) const {
  STTSV_DCHECK(a < p_, "operand out of range");
  return a == 0 ? 0 : p_ - a;
}

std::uint64_t PrimeField::mul(std::uint64_t a, std::uint64_t b) const {
  STTSV_DCHECK(a < p_ && b < p_, "operands out of range");
  return (a * b) % p_;
}

std::uint64_t PrimeField::pow(std::uint64_t a, std::uint64_t e) const {
  std::uint64_t base = a % p_;
  std::uint64_t result = 1;
  while (e > 0) {
    if (e & 1) result = mul(result, base);
    base = mul(base, base);
    e >>= 1;
  }
  return result;
}

std::uint64_t PrimeField::inv(std::uint64_t a) const {
  STTSV_REQUIRE(a % p_ != 0, "inverse of zero");
  // Extended Euclid on (a, p); signed intermediate values.
  std::int64_t t = 0, new_t = 1;
  std::int64_t r = static_cast<std::int64_t>(p_);
  std::int64_t new_r = static_cast<std::int64_t>(a % p_);
  while (new_r != 0) {
    const std::int64_t quotient = r / new_r;
    t = std::exchange(new_t, t - quotient * new_t);
    r = std::exchange(new_r, r - quotient * new_r);
  }
  STTSV_CHECK(r == 1, "gcd(a, p) != 1 in prime field");
  if (t < 0) t += static_cast<std::int64_t>(p_);
  return static_cast<std::uint64_t>(t);
}

Poly poly_trim(Poly f) {
  while (!f.empty() && f.back() == 0) f.pop_back();
  return f;
}

int poly_degree(const Poly& f) { return static_cast<int>(f.size()) - 1; }

Poly poly_add(const PrimeField& F, const Poly& a, const Poly& b) {
  Poly out(std::max(a.size(), b.size()), 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t x = i < a.size() ? a[i] : 0;
    const std::uint64_t y = i < b.size() ? b[i] : 0;
    out[i] = F.add(x, y);
  }
  return poly_trim(std::move(out));
}

Poly poly_mul(const PrimeField& F, const Poly& a, const Poly& b) {
  if (a.empty() || b.empty()) return {};
  Poly out(a.size() + b.size() - 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] = F.add(out[i + j], F.mul(a[i], b[j]));
    }
  }
  return poly_trim(std::move(out));
}

Poly poly_mod(const PrimeField& F, Poly a, const Poly& m) {
  STTSV_REQUIRE(!m.empty(), "polynomial modulus must be nonzero");
  a = poly_trim(std::move(a));
  const std::uint64_t lead_inv = F.inv(m.back());
  while (a.size() >= m.size()) {
    const std::uint64_t factor = F.mul(a.back(), lead_inv);
    const std::size_t shift = a.size() - m.size();
    for (std::size_t i = 0; i < m.size(); ++i) {
      a[shift + i] = F.sub(a[shift + i], F.mul(factor, m[i]));
    }
    a = poly_trim(std::move(a));
    if (a.empty()) break;
  }
  return a;
}

Poly poly_powmod(const PrimeField& F, Poly base, std::uint64_t e,
                 const Poly& m) {
  Poly result{1};
  base = poly_mod(F, std::move(base), m);
  while (e > 0) {
    if (e & 1) result = poly_mod(F, poly_mul(F, result, base), m);
    base = poly_mod(F, poly_mul(F, base, base), m);
    e >>= 1;
  }
  return result;
}

Poly poly_gcd(const PrimeField& F, Poly a, Poly b) {
  a = poly_trim(std::move(a));
  b = poly_trim(std::move(b));
  while (!b.empty()) {
    Poly r = poly_mod(F, a, b);
    a = std::move(b);
    b = std::move(r);
  }
  // Normalize monic for stable comparisons.
  if (!a.empty()) {
    const std::uint64_t lead_inv = F.inv(a.back());
    for (auto& c : a) c = F.mul(c, lead_inv);
  }
  return a;
}

bool poly_is_irreducible(const PrimeField& F, const Poly& f) {
  const int deg = poly_degree(f);
  STTSV_REQUIRE(deg >= 1, "irreducibility test needs degree >= 1");
  const auto d = static_cast<unsigned>(deg);
  const std::uint64_t p = F.modulus();

  // Rabin: f irreducible over GF(p) iff
  //   x^(p^d) == x (mod f), and
  //   gcd(x^(p^(d/r)) - x, f) == 1 for each prime r | d.
  const Poly x{0, 1};
  Poly xp = poly_powmod(F, x, checked_pow(p, d), f);
  // x^(p^d) - x must be 0 mod f (reduce: for d == 1, x itself reduces).
  Poly diff = poly_mod(F, poly_add(F, xp, Poly{0, F.neg(1)}), f);
  if (!diff.empty()) return false;

  if (d > 1) {
    for (const std::uint64_t r : prime_factors(d)) {
      const auto sub_deg = d / static_cast<unsigned>(r);
      Poly xq = poly_powmod(F, x, checked_pow(p, sub_deg), f);
      Poly g = poly_gcd(F, poly_add(F, xq, Poly{0, F.neg(1)}), f);
      if (poly_degree(g) != 0) return false;
    }
  }
  return true;
}

bool poly_is_primitive(const PrimeField& F, const Poly& f) {
  if (!poly_is_irreducible(F, f)) return false;
  const auto d = static_cast<unsigned>(poly_degree(f));
  const std::uint64_t group_order = checked_pow(F.modulus(), d) - 1;
  if (group_order == 1) return true;  // GF(2): trivial unit group
  const Poly x{0, 1};
  // x is primitive iff x^(order/r) != 1 for each prime r | order.
  for (const std::uint64_t r : prime_factors(group_order)) {
    const Poly probe = poly_powmod(F, x, group_order / r, f);
    if (probe == Poly{1}) return false;
  }
  return true;
}

Poly find_primitive_poly(const PrimeField& F, unsigned degree) {
  STTSV_REQUIRE(degree >= 1, "primitive polynomial needs degree >= 1");
  const std::uint64_t p = F.modulus();
  if (degree == 1) {
    // x - g for a generator g of GF(p)^*; then "x" == g is primitive.
    for (std::uint64_t g = 1; g < p; ++g) {
      const Poly f{F.neg(g), 1};
      if (poly_is_primitive(F, f)) return f;
    }
    STTSV_CHECK(false, "no degree-1 primitive polynomial found");
  }
  // Enumerate monic f = x^degree + c_{d-1} x^{d-1} + ... + c_0 by counting
  // in base p over the low coefficients.
  const std::uint64_t combos = checked_pow(p, degree);
  for (std::uint64_t code = 1; code < combos; ++code) {
    Poly f(degree + 1, 0);
    std::uint64_t rest = code;
    for (unsigned i = 0; i < degree; ++i) {
      f[i] = rest % p;
      rest /= p;
    }
    f[degree] = 1;
    if (f[0] == 0) continue;  // reducible: divisible by x
    if (poly_is_primitive(F, f)) return f;
  }
  STTSV_UNREACHABLE("no primitive polynomial found");
}

}  // namespace sttsv::gf
