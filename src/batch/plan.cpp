#include "batch/plan.hpp"

#include <algorithm>
#include <cmath>

#include "core/costs.hpp"
#include "gf/primes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"

namespace sttsv::batch {

namespace {

std::size_t family_processor_count(Family family, std::uint64_t param) {
  switch (family) {
    case Family::kSpherical:
      // Checked before the product, which wraps for large q.
      STTSV_REQUIRE(param <= steiner::kMaxSphericalQ &&
                        gf::is_prime_power(param),
                    "spherical family needs a prime power q <= 4096");
      return static_cast<std::size_t>(param * (param * param + 1));
    case Family::kBoolean: {
      // Checked before the shift (1 << k is undefined for k >= 64).
      STTSV_REQUIRE(
          param >= steiner::kMinBooleanK && param <= steiner::kMaxBooleanK,
          "boolean quadruple system needs 3 <= k <= 12");
      const std::uint64_t m = 1ULL << param;
      return static_cast<std::size_t>(m * (m - 1) * (m - 2) / 24);
    }
    case Family::kTrivial:
      STTSV_REQUIRE(
          param >= steiner::kMinTrivialM && param <= steiner::kMaxTrivialM,
          "trivial triple system needs 4 <= m <= 512");
      return static_cast<std::size_t>(param * (param - 1) * (param - 2) / 6);
  }
  STTSV_CHECK(false, "unknown Steiner family");
  return 0;
}

steiner::SteinerSystem build_system(const PlanKey& key) {
  switch (key.family) {
    case Family::kSpherical:
      return steiner::spherical_system(key.param);
    case Family::kBoolean:
      return steiner::boolean_quadruple_system(
          static_cast<unsigned>(key.param));
    case Family::kTrivial:
      return steiner::trivial_triple_system(
          static_cast<std::size_t>(key.param));
  }
  STTSV_UNREACHABLE("unknown Steiner family");
}

/// Predicted per-rank words of a plan over m row blocks of length b,
/// Steiner block size r: each rank holds shares of r row blocks and
/// receives the rest of each from the other λ₁ - 1 owners, twice (x and y).
double predicted_words(std::size_t m, std::size_t r, double b) {
  const double lambda1 =
      static_cast<double>((m - 1) * (m - 2) / ((r - 1) * (r - 2)));
  return 2.0 * static_cast<double>(r) * b * (lambda1 - 1.0) / lambda1;
}

}  // namespace

PlanKey plan_key(std::size_t n, Family family, std::uint64_t param,
                 simt::Transport transport) {
  PlanKey key;
  key.n = n;
  key.family = family;
  key.param = param;
  key.transport = transport;
  key.processors = family_processor_count(family, param);
  return key;
}

std::size_t PlanKeyHash::operator()(const PlanKey& k) const noexcept {
  std::size_t h = k.n;
  const auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(k.processors);
  mix(static_cast<std::size_t>(k.family));
  mix(static_cast<std::size_t>(k.param));
  mix(static_cast<std::size_t>(k.transport));
  mix(static_cast<std::size_t>(k.epoch));
  return h;
}

Plan::Plan(PlanKey key, std::unique_ptr<partition::TetraPartition> part,
           std::unique_ptr<partition::VectorDistribution> dist)
    : key_(key),
      part_(std::move(part)),
      dist_(std::move(dist)),
      table_(*part_, *dist_) {
  const std::size_t P = part_->num_processors();
  const std::size_t m = part_->num_row_blocks();
  owned_.resize(P);
  local_index_.assign(P, std::vector<std::size_t>(m, SIZE_MAX));
  for (std::size_t p = 0; p < P; ++p) {
    owned_[p] = part_->owned_blocks(p);
    const auto& rp = part_->R(p);
    for (std::size_t pos = 0; pos < rp.size(); ++pos) {
      local_index_[p][rp[pos]] = pos;
    }
  }
}

void Plan::prewarm_pool(simt::BufferPool& pool, std::size_t lanes) const {
  STTSV_REQUIRE(lanes >= 1, "prewarm needs at least one lane");
  constexpr std::size_t kRexHeaderWords = 8;  // >= data-frame header
  // Per rank, bucket -> simultaneous buffers it needs in the worst phase.
  // x and y phases never overlap, so the requirement is the per-phase
  // max, not the sum. Each message may exist twice at once under
  // ReliableExchange (retained payload + framed wire copy), and the
  // frame rides in the header bucket of payload + header words.
  const std::size_t P = num_processors();
  std::vector<std::unordered_map<std::size_t, std::size_t>> x_need(P);
  std::vector<std::unordered_map<std::size_t, std::size_t>> y_need(P);
  const auto need = [&](auto& per_bucket, std::size_t words) {
    if (words == 0) return;
    ++per_bucket[simt::BufferPool::bucket_capacity(words * lanes)];
    ++per_bucket[simt::BufferPool::bucket_capacity(words * lanes +
                                                   kRexHeaderWords)];
  };
  for (const core::CommTable::RouteView& route : table_.routes()) {
    need(x_need[route.from], route.x_words);
    need(y_need[route.from], route.y_words);
  }
  for (std::size_t p = 0; p < P; ++p) {
    for (auto& [capacity, count] : x_need[p]) {
      const auto yit = y_need[p].find(capacity);
      pool.reserve(p, capacity,
                   yit == y_need[p].end() ? count
                                          : std::max(count, yit->second));
    }
    for (const auto& [capacity, count] : y_need[p]) {
      if (!x_need[p].contains(capacity)) pool.reserve(p, capacity, count);
    }
  }
}

std::size_t Plan::local_index(std::size_t p, std::size_t i) const {
  STTSV_REQUIRE(p < local_index_.size(), "rank out of range");
  STTSV_REQUIRE(i < local_index_[p].size(), "row block out of range");
  const std::size_t pos = local_index_[p][i];
  STTSV_REQUIRE(pos != SIZE_MAX, "row block not in R_p");
  return pos;
}

std::shared_ptr<const Plan> Plan::build(const PlanKey& key) {
  STTSV_REQUIRE(key.n >= 1, "plan needs a positive dimension");
  // Also range-checks a hand-built key's param before build_system
  // narrows it.
  STTSV_REQUIRE(
      key.processors == family_processor_count(key.family, key.param),
      "plan key processor count does not match the family");
  auto part = std::make_unique<partition::TetraPartition>(
      partition::TetraPartition::build(build_system(key)));
  auto dist =
      std::make_unique<partition::VectorDistribution>(*part, key.n);
  return std::shared_ptr<const Plan>(
      new Plan(key, std::move(part), std::move(dist)));
}

PlanKey plan_key_for_budget(std::size_t budget, std::size_t n) {
  STTSV_REQUIRE(n >= 1, "problem size must be >= 1");
  STTSV_REQUIRE(budget >= steiner::kMinTrivialM,
                "need a budget of at least 4 processors (trivial m=4)");
  struct Candidate {
    Family family = Family::kTrivial;
    std::uint64_t param = 0;
    std::size_t P = 0;
    double words = 0.0;
  };
  const auto words = [n](std::size_t m, std::size_t r) {
    return predicted_words(
        m, r, std::ceil(static_cast<double>(n) / static_cast<double>(m)));
  };
  std::vector<Candidate> candidates;
  for (const auto& f : steiner::admissible_processor_counts(budget)) {
    const bool spherical = f.family == "spherical";
    candidates.push_back({spherical ? Family::kSpherical : Family::kBoolean,
                          spherical ? f.q : f.k, f.P, words(f.m, f.r)});
  }
  for (std::size_t m = steiner::kMinTrivialM;
       m <= steiner::kMaxTrivialM && m * (m - 1) * (m - 2) / 6 <= budget;
       ++m) {
    candidates.push_back(
        {Family::kTrivial, m, m * (m - 1) * (m - 2) / 6, words(m, 3)});
  }
  const Candidate best = *std::min_element(
      candidates.begin(), candidates.end(),
      [](const Candidate& a, const Candidate& b) {
        if (a.words != b.words) return a.words < b.words;
        if ((a.family == Family::kSpherical) !=
            (b.family == Family::kSpherical)) {
          return a.family == Family::kSpherical;
        }
        return a.P > b.P;
      });
  return plan_key(n, best.family, best.param,
                  simt::Transport::kPointToPoint);
}

PlanSummary summarize(const Plan& plan) {
  const PlanKey& key = plan.key();
  const partition::TetraPartition& part = plan.partition();
  const partition::VectorDistribution& dist = plan.distribution();
  PlanSummary s;
  switch (key.family) {
    case Family::kSpherical:
      s.family = "spherical";
      s.q = static_cast<std::size_t>(key.param);
      break;
    case Family::kBoolean:
      s.family = "boolean";
      break;
    case Family::kTrivial:
      s.family = "triples";
      break;
  }
  s.processors = part.num_processors();
  s.row_blocks = part.num_row_blocks();
  s.block_length = dist.block_length_b();
  s.lower_bound_words = core::lower_bound_words(key.n, s.processors);
  s.predicted_words =
      key.family == Family::kSpherical
          ? core::optimal_algorithm_words(key.n, s.q)
          : predicted_words(s.row_blocks, part.steiner_block_size(),
                            static_cast<double>(s.block_length));
  for (std::size_t p = 0; p < s.processors; ++p) {
    s.tensor_words_per_rank = std::max(
        s.tensor_words_per_rank, part.stored_entries(p, s.block_length));
    s.vector_words_per_rank =
        std::max(s.vector_words_per_rank, dist.local_elements(p));
  }
  return s;
}

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {
  STTSV_REQUIRE(capacity >= 1, "plan cache needs capacity >= 1");
}

std::shared_ptr<const Plan> PlanCache::get(const PlanKey& key) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    ++hits_;
    obs::Span span("plan.cache-hit", obs::Category::kPlanCache,
                   key.processors);
    entries_.splice(entries_.begin(), entries_, it->second);
    return it->second->second;
  }
  ++misses_;
  obs::Span span("plan.build", obs::Category::kPlanCache, key.processors);
  auto plan = Plan::build(key);
  entries_.emplace_front(key, plan);
  index_[key] = entries_.begin();
  if (entries_.size() > capacity_) {
    index_.erase(entries_.back().first);
    entries_.pop_back();
  }
  return plan;
}

void PlanCache::clear() {
  entries_.clear();
  index_.clear();
}

void PlanCache::publish_metrics(obs::MetricsRegistry& out,
                                const std::string& prefix) const {
  out.set_counter(prefix + ".hits", hits_);
  out.set_counter(prefix + ".misses", misses_);
  out.set_counter(prefix + ".size", entries_.size());
  out.set_counter(prefix + ".capacity", capacity_);
}

}  // namespace sttsv::batch
