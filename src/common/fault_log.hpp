/// \file fault_log.hpp
/// \brief Error taxonomy and accounting shared by all protected structures.
///
/// The paper classifies memory faults into DCEs (detected & corrected),
/// DUEs (detected, uncorrectable) and SDCs (silent). Protected containers
/// report every integrity-check result into a FaultLog; SDC classification
/// happens one level up, in the fault-injection campaign, by comparing the
/// final solution against a fault-free reference.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace abft {

/// Result of one codeword integrity check.
enum class CheckOutcome : std::uint8_t {
  ok = 0,             ///< codeword consistent
  corrected,          ///< error detected and repaired in place (DCE)
  uncorrectable,      ///< error detected, beyond the code's correction power (DUE)
};

/// Which protected data structure a fault event refers to.
enum class Region : std::uint8_t {
  csr_values = 0,   ///< CSR non-zero value vector (v)
  csr_cols,         ///< CSR column-index vector (y)
  csr_row_ptr,      ///< CSR row-pointer vector (x)
  sell_values,      ///< slab values (SELL and ELL; padded, per-slice column-major)
  sell_cols,        ///< slab column indices (SELL and ELL)
  sell_structure,   ///< slab structural array (slice widths + row lengths [+ permutation])
  dense_vector,     ///< dense double-precision solver vector
  other,
};

[[nodiscard]] constexpr const char* to_string(Region r) noexcept {
  switch (r) {
    case Region::csr_values: return "csr_values";
    case Region::csr_cols: return "csr_cols";
    case Region::csr_row_ptr: return "csr_row_ptr";
    case Region::sell_values: return "sell_values";
    case Region::sell_cols: return "sell_cols";
    case Region::sell_structure: return "sell_structure";
    case Region::dense_vector: return "dense_vector";
    case Region::other: return "other";
  }
  return "?";
}

/// One recorded detection/correction event.
struct FaultEvent {
  Region region = Region::other;
  CheckOutcome outcome = CheckOutcome::ok;
  std::size_t index = 0;  ///< element / codeword index within the region
};

/// Thrown (by default) when a code detects an error it cannot repair.
/// The solver driver may catch this and fall back to checkpoint-restart,
/// which is exactly the recovery path the paper describes for DUEs.
class UncorrectableError : public std::runtime_error {
 public:
  UncorrectableError(Region region, std::size_t index)
      : std::runtime_error(std::string("uncorrectable memory error in ") +
                           to_string(region) + " at index " + std::to_string(index)),
        region_(region),
        index_(index) {}

  [[nodiscard]] Region region() const noexcept { return region_; }
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

 private:
  Region region_;
  std::size_t index_;
};

/// Thrown when a bounds-only guard (check-interval mode) catches an index
/// that would have caused an out-of-range access.
class BoundsViolation : public std::runtime_error {
 public:
  BoundsViolation(Region region, std::size_t index)
      : std::runtime_error(std::string("index bounds violation in ") + to_string(region) +
                           " at index " + std::to_string(index)),
        region_(region),
        index_(index) {}

  [[nodiscard]] Region region() const noexcept { return region_; }
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

 private:
  Region region_;
  std::size_t index_;
};

/// What a protected container should do when it hits a DUE.
enum class DuePolicy : std::uint8_t {
  throw_exception,  ///< raise UncorrectableError (lets the app checkpoint-restart)
  record_only,      ///< count it and carry on (used by the fault campaigns)
};

/// Thread-safe accounting of integrity checks and their outcomes.
///
/// Counter updates are lock-free; the (optional, bounded) event trace takes a
/// mutex and is meant for tests and post-mortem analysis, not hot loops.
class FaultLog {
 public:
  static constexpr std::size_t kMaxTracedEvents = 4096;

  // Every record/add_checks below also bumps the process-wide observability
  // counters (obs/metrics.hpp). FaultLog is the deterministic funnel all
  // protection layers already commit through — kernels defer parallel-region
  // outcomes into ErrorCaptures and commit here serially — so publishing
  // metrics at this point adds one shard increment per event and can never
  // perturb check accounting or event order. append_from() deliberately does
  // NOT republish: a per-batch log merged into the shared matrix log was
  // already counted when its events were first recorded.
  void record(Region region, CheckOutcome outcome, std::size_t index) {
    switch (outcome) {
      case CheckOutcome::ok: break;
      case CheckOutcome::corrected:
        corrected_.fetch_add(1, std::memory_order_relaxed);
        obs::count_corrected();
        trace({region, outcome, index});
        break;
      case CheckOutcome::uncorrectable:
        uncorrectable_.fetch_add(1, std::memory_order_relaxed);
        obs::count_uncorrectable();
        trace({region, outcome, index});
        break;
    }
  }

  void record_bounds_violation(Region region, std::size_t index) {
    bounds_violations_.fetch_add(1, std::memory_order_relaxed);
    obs::count_bounds();
    trace({region, CheckOutcome::uncorrectable, index});
  }

  void add_checks(std::uint64_t n = 1) noexcept {
    checks_.fetch_add(n, std::memory_order_relaxed);
    obs::count_checks(n);
  }

  [[nodiscard]] std::uint64_t checks() const noexcept {
    return checks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t corrected() const noexcept {
    return corrected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t uncorrectable() const noexcept {
    return uncorrectable_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bounds_violations() const noexcept {
    return bounds_violations_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::vector<FaultEvent> events() const {
    std::lock_guard lock(mutex_);
    return events_;
  }

  void clear() {
    checks_ = corrected_ = uncorrectable_ = bounds_violations_ = 0;
    std::lock_guard lock(mutex_);
    events_.clear();
  }

  /// Fold another log into this one: counters add, traced events append in
  /// \p other's order (up to the trace cap). This is the fleet's ordered
  /// commit primitive — each worker accumulates matrix-region events into a
  /// private per-batch log, then merges into the shared log keyed by batch
  /// sequence number, so the shared trace is identical at any worker count.
  /// \p other must not be mutated concurrently with this call.
  void append_from(const FaultLog& other) {
    checks_.fetch_add(other.checks(), std::memory_order_relaxed);
    corrected_.fetch_add(other.corrected(), std::memory_order_relaxed);
    uncorrectable_.fetch_add(other.uncorrectable(), std::memory_order_relaxed);
    bounds_violations_.fetch_add(other.bounds_violations(),
                                 std::memory_order_relaxed);
    const auto theirs = other.events();
    std::lock_guard lock(mutex_);
    for (const FaultEvent& e : theirs) {
      if (events_.size() >= kMaxTracedEvents) break;
      events_.push_back(e);
    }
  }

 private:
  void trace(FaultEvent e) {
    std::lock_guard lock(mutex_);
    if (events_.size() < kMaxTracedEvents) events_.push_back(e);
  }

  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> corrected_{0};
  std::atomic<std::uint64_t> uncorrectable_{0};
  std::atomic<std::uint64_t> bounds_violations_{0};
  mutable std::mutex mutex_;
  std::vector<FaultEvent> events_;
};

/// Account one serial codeword check: count it and record its outcome in
/// \p log (when there is one), then raise an uncorrectable outcome under
/// DuePolicy::throw_exception. Returns 1 for an uncorrectable outcome, 0
/// otherwise; full sweeps pass record_only and raise once at the end (see
/// SweepTally).
inline std::size_t account_check(FaultLog* log, DuePolicy policy, Region region,
                                 CheckOutcome outcome, std::size_t index) {
  if (log != nullptr) {
    log->add_checks();
    log->record(region, outcome, index);
  }
  if (outcome != CheckOutcome::uncorrectable) return 0;
  if (policy == DuePolicy::throw_exception) throw UncorrectableError(region, index);
  return 1;
}

/// The failures a container's full integrity sweep finds: every check is
/// logged as it happens, and finish() raises once, naming the first failure.
class SweepTally {
 public:
  /// Account one codeword check to \p log; an uncorrectable one is a failure.
  void check(FaultLog* log, Region region, CheckOutcome outcome, std::size_t index) {
    note(region, index, account_check(log, DuePolicy::record_only, region, outcome, index));
  }

  /// Account \p n clean codeword checks in bulk.
  void clean(FaultLog* log, std::size_t n) noexcept {
    if (log != nullptr && n > 0) log->add_checks(n);
  }

  /// Log a semantic-guard hit (a decoded value outside its bound) as a
  /// bounds violation; it is a failure too.
  void bounds_hit(FaultLog* log, Region region, std::size_t index) {
    if (log != nullptr) log->record_bounds_violation(region, index);
    note(region, index, 1);
  }

  /// The number of failures; under throw_exception any failure raises
  /// UncorrectableError with the first one's region and index.
  std::size_t finish(DuePolicy policy) const {
    if (failures_ > 0 && policy == DuePolicy::throw_exception) {
      throw UncorrectableError(first_region_, first_index_);
    }
    return failures_;
  }

 private:
  void note(Region region, std::size_t index, std::size_t count) noexcept {
    if (failures_ == 0 && count > 0) {
      first_region_ = region;
      first_index_ = index;
    }
    failures_ += count;
  }

  std::size_t failures_ = 0;
  Region first_region_ = Region::other;
  std::size_t first_index_ = 0;
};

}  // namespace abft
