/// \file error_capture.hpp
/// \brief Deferred error reporting for OpenMP-parallel kernels.
///
/// C++ exceptions must not escape an OpenMP worksharing region, so the
/// protected kernels record integrity-check outcomes into an ErrorCapture
/// while the region runs and convert them into FaultLog entries plus (under
/// DuePolicy::throw_exception) an UncorrectableError afterwards.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/fault_log.hpp"

namespace abft {

/// Lock-free accumulator of check outcomes raised inside a parallel kernel.
class ErrorCapture {
 public:
  /// Record a decode outcome for codeword \p index of \p region.
  void record(Region region, CheckOutcome outcome, std::size_t index) noexcept {
    if (outcome == CheckOutcome::ok) return;
    if (outcome == CheckOutcome::corrected) {
      corrected_.fetch_add(1, std::memory_order_relaxed);
      note_first(first_corrected_, region, index);
    } else {
      uncorrectable_.fetch_add(1, std::memory_order_relaxed);
      note_first(first_uncorrectable_, region, index);
    }
  }

  /// Record a bounds-guard hit (check-interval skip iterations).
  void record_bounds(Region region, std::size_t index) noexcept {
    bounds_.fetch_add(1, std::memory_order_relaxed);
    note_first(first_bounds_, region, index);
  }

  void add_checks(std::uint64_t n) noexcept {
    checks_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Fold \p other into this capture: counters add, first-fault exemplars
  /// take the minimum packed (region, index) key. Both operations are
  /// commutative and associative, so merging per-thread captures in any
  /// order yields the same result — the basis for the cross-thread-count
  /// determinism guarantee of the parallel kernels.
  void merge_from(const ErrorCapture& other) noexcept {
    checks_.fetch_add(other.checks_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    corrected_.fetch_add(other.corrected_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    uncorrectable_.fetch_add(other.uncorrectable_.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    bounds_.fetch_add(other.bounds_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    note_min(first_corrected_, other.first_corrected_.load(std::memory_order_relaxed));
    note_min(first_uncorrectable_,
             other.first_uncorrectable_.load(std::memory_order_relaxed));
    note_min(first_bounds_, other.first_bounds_.load(std::memory_order_relaxed));
  }

  [[nodiscard]] bool clean() const noexcept {
    return corrected_.load(std::memory_order_relaxed) == 0 &&
           uncorrectable_.load(std::memory_order_relaxed) == 0 &&
           bounds_.load(std::memory_order_relaxed) == 0;
  }

  /// Flush counters into \p log (may be null) and raise the appropriate
  /// exception per \p policy. Call once, after the parallel region.
  void commit(FaultLog* log, DuePolicy policy) const {
    if (log != nullptr) {
      log->add_checks(checks_.load(std::memory_order_relaxed));
      const auto ncorr = corrected_.load(std::memory_order_relaxed);
      const auto nunc = uncorrectable_.load(std::memory_order_relaxed);
      const auto nbound = bounds_.load(std::memory_order_relaxed);
      if (ncorr > 0) {
        log->record(unpack_region(first_corrected_), CheckOutcome::corrected,
                    unpack_index(first_corrected_));
        for (std::uint64_t i = 1; i < ncorr; ++i) {
          log->record(Region::other, CheckOutcome::corrected, 0);
        }
      }
      if (nunc > 0) {
        log->record(unpack_region(first_uncorrectable_), CheckOutcome::uncorrectable,
                    unpack_index(first_uncorrectable_));
        for (std::uint64_t i = 1; i < nunc; ++i) {
          log->record(Region::other, CheckOutcome::uncorrectable, 0);
        }
      }
      if (nbound > 0) {
        log->record_bounds_violation(unpack_region(first_bounds_),
                                     unpack_index(first_bounds_));
        for (std::uint64_t i = 1; i < nbound; ++i) {
          log->record_bounds_violation(Region::other, 0);
        }
      }
    }
    if (policy == DuePolicy::throw_exception) {
      if (bounds_.load(std::memory_order_relaxed) > 0) {
        throw BoundsViolation(unpack_region(first_bounds_), unpack_index(first_bounds_));
      }
      if (uncorrectable_.load(std::memory_order_relaxed) > 0) {
        throw UncorrectableError(unpack_region(first_uncorrectable_),
                                 unpack_index(first_uncorrectable_));
      }
    }
  }

 private:
  static constexpr std::uint64_t kUnset = ~std::uint64_t{0};

  /// Keep the lowest packed (region, index) key in \p slot. A plain
  /// first-writer-wins CAS would make the exemplar depend on thread timing;
  /// the minimum is the same no matter how work is split across threads
  /// (kUnset is all-ones, so an empty slot loses to any real key).
  static void note_min(std::atomic<std::uint64_t>& slot, std::uint64_t packed) noexcept {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (packed < cur &&
           !slot.compare_exchange_weak(cur, packed, std::memory_order_relaxed)) {
    }
  }

  static void note_first(std::atomic<std::uint64_t>& slot, Region region,
                         std::size_t index) noexcept {
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(region) << 56) |
        (static_cast<std::uint64_t>(index) & ((std::uint64_t{1} << 56) - 1));
    note_min(slot, packed);
  }

  [[nodiscard]] static Region unpack_region(const std::atomic<std::uint64_t>& slot) noexcept {
    const std::uint64_t v = slot.load(std::memory_order_relaxed);
    return v == kUnset ? Region::other : static_cast<Region>(v >> 56);
  }

  [[nodiscard]] static std::size_t unpack_index(
      const std::atomic<std::uint64_t>& slot) noexcept {
    const std::uint64_t v = slot.load(std::memory_order_relaxed);
    return v == kUnset ? 0 : static_cast<std::size_t>(v & ((std::uint64_t{1} << 56) - 1));
  }

  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> corrected_{0};
  std::atomic<std::uint64_t> uncorrectable_{0};
  std::atomic<std::uint64_t> bounds_{0};
  std::atomic<std::uint64_t> first_corrected_{kUnset};
  std::atomic<std::uint64_t> first_uncorrectable_{kUnset};
  std::atomic<std::uint64_t> first_bounds_{kUnset};
};

}  // namespace abft
