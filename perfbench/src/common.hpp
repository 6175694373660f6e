/// \file common.hpp
/// \brief Shared plumbing of the perfbench driver: the run report that
/// becomes the last-line JSON, order statistics, clocks and the OpenMP
/// team-size pin.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linearly interpolated quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Print a sample's size, minimum, 10th percentile, median and maximum.
inline void print_sample(const char* what, const std::vector<double>& v) {
  std::printf("samples %s: n %zu, min %.6g, p10 %.6g, median %.6g, max %.6g\n", what, v.size(),
              quantile(v, 0.0), quantile(v, 0.1), median(v), quantile(v, 1.0));
}

/// Smallest value of a sample: what solve_s and setup_s report.
[[nodiscard]] inline double fastest(const std::vector<double>& v) { return quantile(v, 0.0); }

/// Set the OpenMP team size of the *calling* thread (the ICV is per thread,
/// so every thread that runs kernels must call this itself) and return the
/// team size a parallel region then actually gets.
int pin_omp_threads(int n);

/// What one invocation reports: operation counts, failures with the seed
/// that reproduces them, and named metrics with units.
class Report {
 public:
  explicit Report(std::uint64_t seed) : seed_(seed) {}

  void attempt(std::uint64_t n = 1) { attempted_ += n; }

  /// Count one failed operation and print why, with the reproducing seed.
  void fail(const std::string& what) {
    ++failed_;
    std::printf("FAILED (seed %llu): %s\n", static_cast<unsigned long long>(seed_),
                what.c_str());
  }

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }

  /// The contract's result line.
  [[nodiscard]] std::string json() const;

 private:
  std::uint64_t seed_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Per-invocation settings from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< self-check sizes: seconds-long runs of toy problems
  std::string out_dir = ".bench_build/perfbench-out";
};

/// Runs of `fn()` until \p seconds have passed (at least \p min_reps).
template <class Fn>
void repeat_for(double seconds, std::size_t min_reps, Fn&& fn) {
  const auto start = Clock::now();
  for (std::size_t rep = 0;; ++rep) {
    if (rep >= min_reps && seconds_between(start, Clock::now()) >= seconds) break;
    fn(rep);
  }
}

}  // namespace perfbench
