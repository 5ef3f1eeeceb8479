#pragma once
// Host-speed calibration for the benchmark's timings.
//
// The benchmark runs on one core of a shared, virtualised host. Other
// tenants slow that core for seconds at a time, by 50% and more, and the
// slowdown is invisible to the guest (no steal time is charged). A fixed
// piece of the benchmark's own code, timed between the workload's
// operations, slows by nearly the same factor: on the small workload,
// 2-second stretches of one run gave solve times from 19 to 28 ms while
// the solve time over the reference time stayed within 20.2 to 24.1.
//
// HostSpeed::sample() times that reference work once. A timing taken
// between two samples is rescaled to the nominal speed by
// kNominalSeconds / (mean of the two samples), so it reads in seconds of
// a core running at the speed the nominal was measured at. The reference
// shares no code with the library, so a change to the library moves the
// rescaled figures exactly as it moves the raw ones.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// The reference work's time on an idle core of the host the benchmark
  /// was tuned on (Xeon, Sapphire Rapids, 2.0 GHz, KVM guest), run between
  /// solves of the workloads as the benchmark runs it.
  static constexpr double kNominalSeconds = 0.8e-3;

  HostSpeed() : stream_(kStreamDoubles, 1.0), chain_(kChainEntries) {
    samples_.reserve(std::size_t{1} << 15);  // so peak RSS does not grow with the run
    // Sattolo's shuffle: one cycle through every entry, so the chase never
    // settles into a short loop.
    for (std::size_t i = 0; i < chain_.size(); ++i) {
      chain_[i] = static_cast<std::uint32_t>(i);
    }
    std::mt19937_64 rng(0x5eedULL);
    for (std::size_t i = chain_.size() - 1; i > 0; --i) {
      std::swap(chain_[i], chain_[std::uniform_int_distribution<std::size_t>(0, i - 1)(rng)]);
    }
  }

  /// Runs the reference work once and returns its wall time in seconds:
  /// streaming multiply-adds over 1 MiB, which stays in a core's private
  /// cache, then a chain of dependent loads over 256 KiB.
  double sample() {
    const auto t0 = std::chrono::steady_clock::now();
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (int rep = 0; rep < kStreamPasses; ++rep) {
      for (std::size_t i = 0; i < stream_.size(); i += 4) {
        s0 += stream_[i] * 1.0000001;
        s1 += stream_[i + 1];
        s2 += stream_[i + 2];
        s3 += stream_[i + 3];
      }
    }
    std::uint32_t j = 0;
    for (int step = 0; step < kChainSteps; ++step) j = chain_[j];
    sink_ = s0 + s1 + s2 + s3 + static_cast<double>(j);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    samples_.push_back(s);
    return s;
  }

  /// Factor that rescales a timing taken between the samples `before` and
  /// `after` to the nominal speed.
  [[nodiscard]] static double scale(double before, double after) {
    return kNominalSeconds / (0.5 * (before + after));
  }

  /// Factor for timings spread over the whole run: nominal over the median
  /// of every sample taken so far (1 when there is none).
  [[nodiscard]] double run_scale() const {
    if (samples_.empty()) return 1.0;
    std::vector<double> v = samples_;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return kNominalSeconds / v[v.size() / 2];
  }

  [[nodiscard]] std::size_t samples() const { return samples_.size(); }

 private:
  static constexpr std::size_t kStreamDoubles = std::size_t{1} << 17;  // 1 MiB
  static constexpr int kStreamPasses = 8;
  static constexpr std::size_t kChainEntries = std::size_t{1} << 16;  // 256 KiB
  static constexpr int kChainSteps = 20000;

  std::vector<double> stream_;
  std::vector<std::uint32_t> chain_;
  std::vector<double> samples_;
  volatile double sink_ = 0.0;
};

}  // namespace perfbench
