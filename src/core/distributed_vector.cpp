#include "core/distributed_vector.hpp"

#include <algorithm>

#include "simt/collective.hpp"
#include "support/check.hpp"

namespace sttsv::core {

using partition::Share;
using partition::VectorDistribution;

DistributedVector::DistributedVector(const VectorDistribution& dist)
    : dist_(&dist) {
  const std::size_t P = dist.num_processors();
  first_.reserve(P + 1);
  start_.push_back(0);
  for (std::size_t p = 0; p < P; ++p) {
    first_.push_back(start_.size() - 1);
    for (const std::size_t i : dist.required_blocks(p)) {
      start_.push_back(start_.back() + dist.share(i, p).length);
    }
  }
  first_.push_back(start_.size() - 1);
  data_.assign(start_.back(), 0.0);
}

DistributedVector DistributedVector::scatter(
    const VectorDistribution& dist, const std::vector<double>& global) {
  STTSV_REQUIRE(global.size() == dist.logical_n(),
                "global vector length mismatch");
  DistributedVector dv(dist);
  const std::size_t b = dist.block_length_b();
  std::vector<double> padded(dist.padded_n(), 0.0);
  std::copy(global.begin(), global.end(), padded.begin());
  double* out = dv.data_.data();
  for (std::size_t p = 0; p < dist.num_processors(); ++p) {
    for (const std::size_t i : dist.required_blocks(p)) {
      const Share s = dist.share(i, p);
      out = std::copy_n(padded.data() + i * b + s.offset, s.length, out);
    }
  }
  return dv;
}

std::vector<double> DistributedVector::gather() const {
  const auto& dist = *dist_;
  const std::size_t b = dist.block_length_b();
  std::vector<double> padded(dist.padded_n(), 0.0);
  const double* in = data_.data();
  for (std::size_t p = 0; p < dist.num_processors(); ++p) {
    for (const std::size_t i : dist.required_blocks(p)) {
      const Share s = dist.share(i, p);
      std::copy_n(in, s.length, padded.data() + i * b + s.offset);
      in += s.length;
    }
  }
  padded.resize(dist.logical_n());
  return padded;
}

std::size_t DistributedVector::slot(std::size_t rank,
                                    std::size_t row_block) const {
  STTSV_REQUIRE(rank + 1 < first_.size(), "rank out of range");
  const auto& rp = dist_->required_blocks(rank);
  const auto it = std::lower_bound(rp.begin(), rp.end(), row_block);
  STTSV_REQUIRE(it != rp.end() && *it == row_block,
                "rank does not own this row block");
  return first_[rank] + static_cast<std::size_t>(it - rp.begin());
}

std::span<const double> DistributedVector::share(
    std::size_t rank, std::size_t row_block) const {
  const std::size_t t = slot(rank, row_block);
  return {data_.data() + start_[t], start_[t + 1] - start_[t]};
}

std::span<double> DistributedVector::share(std::size_t rank,
                                           std::size_t row_block) {
  const std::size_t t = slot(rank, row_block);
  return {data_.data() + start_[t], start_[t + 1] - start_[t]};
}

std::span<const double> DistributedVector::local(std::size_t rank) const {
  const std::size_t begin = start_[first_[rank]];
  return {data_.data() + begin, start_[first_[rank + 1]] - begin};
}

double DistributedVector::dot(simt::Machine& machine,
                              const DistributedVector& a,
                              const DistributedVector& b) {
  STTSV_REQUIRE(a.dist_ == b.dist_, "distribution mismatch");
  const std::size_t P = a.first_.size() - 1;
  STTSV_REQUIRE(machine.num_ranks() == P, "machine rank count mismatch");
  std::vector<std::vector<double>> partials(P, std::vector<double>(1, 0.0));
  for (std::size_t p = 0; p < P; ++p) {
    const auto av = a.local(p);
    const auto bv = b.local(p);
    double local = 0.0;
    for (std::size_t i = 0; i < av.size(); ++i) local += av[i] * bv[i];
    partials[p][0] = local;
  }
  return simt::allreduce_sum(machine, partials)[0];
}

std::pair<double, double> DistributedVector::diff_norms2(
    simt::Machine& machine, const DistributedVector& a,
    const DistributedVector& b) {
  STTSV_REQUIRE(a.dist_ == b.dist_, "distribution mismatch");
  const std::size_t P = a.first_.size() - 1;
  std::vector<std::vector<double>> partials(P, std::vector<double>(2, 0.0));
  for (std::size_t p = 0; p < P; ++p) {
    const auto av = a.local(p);
    const auto bv = b.local(p);
    double dm = 0.0;
    double dp = 0.0;
    for (std::size_t i = 0; i < av.size(); ++i) {
      dm += (av[i] - bv[i]) * (av[i] - bv[i]);
      dp += (av[i] + bv[i]) * (av[i] + bv[i]);
    }
    partials[p] = {dm, dp};
  }
  const auto sums = simt::allreduce_sum(machine, partials);
  return {sums[0], sums[1]};
}

void DistributedVector::scale(double s) {
  for (double& v : data_) v *= s;
}

void DistributedVector::axpy(double alpha, const DistributedVector& other) {
  STTSV_REQUIRE(dist_ == other.dist_, "distribution mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

}  // namespace sttsv::core
