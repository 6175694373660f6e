/// \file protected_vector.hpp
/// \brief Dense double vector whose codewords carry their own redundancy in
/// the mantissa LSBs (paper §VI-B), plus the group read/write buffering the
/// paper uses to avoid read-modify-write storms (§VI-C).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "abft/vector_schemes.hpp"
#include "common/aligned.hpp"
#include "common/fault_log.hpp"

namespace abft {

/// Dense vector of logical length n, protected with scheme \p S.
///
/// Storage is rounded up to a whole number of codeword groups; padding
/// elements hold 0.0 and participate in their group's codeword. All loads
/// return *masked* values (redundancy bits zeroed) so computation never sees
/// the embedded ECC bits.
///
/// Element-wise load()/store() are convenience (slow) paths that decode and
/// re-encode a whole group per call; use GroupReader / GroupWriter or the
/// group-aware kernels in protected_kernels.hpp, which is exactly the
/// adaptation the paper describes for removing RMWs.
template <class S>
class ProtectedVector {
 public:
  using scheme_type = S;
  static constexpr std::size_t kGroup = S::kGroup;
  /// Below this many groups the encode loops stay serial: the vectors in the
  /// unit tests (and CG's short recurrences on tiny grids) are not worth a
  /// fork-join, and first-touch placement only matters for page-sized data.
  static constexpr std::size_t kParallelGroups = std::size_t{1} << 14;

  ProtectedVector() = default;

  explicit ProtectedVector(std::size_t n, FaultLog* log = nullptr,
                           DuePolicy policy = DuePolicy::throw_exception)
      : log_(log), policy_(policy) {
    resize(n);
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t groups() const noexcept { return storage_.size() / kGroup; }
  [[nodiscard]] FaultLog* fault_log() const noexcept { return log_; }
  [[nodiscard]] DuePolicy due_policy() const noexcept { return policy_; }

  /// Raw storage (padded), exposed for fault injection and for the kernels.
  [[nodiscard]] std::span<double> raw() noexcept { return storage_; }
  [[nodiscard]] std::span<const double> raw() const noexcept { return storage_; }
  [[nodiscard]] double* data() noexcept { return storage_.data(); }
  [[nodiscard]] const double* data() const noexcept { return storage_.data(); }

  /// Checked element load; decodes (and possibly repairs) the whole group.
  [[nodiscard]] double load(std::size_t i) {
    double logical[kGroup];
    const std::size_t g = i / kGroup;
    const auto outcome = S::decode_group(storage_.data() + g * kGroup, logical);
    handle(outcome, g);
    return logical[i % kGroup];
  }

  /// Checked element store; read-modify-write of the whole group.
  void store(std::size_t i, double v) {
    double logical[kGroup];
    const std::size_t g = i / kGroup;
    const auto outcome = S::decode_group(storage_.data() + g * kGroup, logical);
    handle(outcome, g);
    logical[i % kGroup] = S::mask(v);
    S::encode_group(logical, storage_.data() + g * kGroup);
  }

  /// Bulk initialise from raw values (encodes every group once).
  void assign(std::span<const double> values) {
    n_ = values.size();
    storage_.resize(padded_size(n_));
    const std::size_t ng = groups();
    const double* const src = values.data();
    const std::size_t n = n_;
    // First-touch/NUMA: the encode writes every byte of the storage, in the
    // same static group partition the parallel kernels later read with, so
    // each page lands on the node of the thread that will use it.
#pragma omp parallel for schedule(static) if (ng >= kParallelGroups)
    for (std::int64_t gi = 0; gi < static_cast<std::int64_t>(ng); ++gi) {
      const std::size_t g = static_cast<std::size_t>(gi);
      double logical[kGroup];
      for (std::size_t e = 0; e < kGroup; ++e) {
        const std::size_t i = g * kGroup + e;
        logical[e] = i < n ? S::mask(src[i]) : 0.0;
      }
      S::encode_group(logical, storage_.data() + g * kGroup);
    }
  }

  void resize(std::size_t n) {
    n_ = n;
    // resize (not assign) leaves new doubles default-initialised — no page is
    // touched until the encode below writes it (first-touch placement).
    storage_.resize(padded_size(n));
    const std::size_t ng = groups();
#pragma omp parallel for schedule(static) if (ng >= kParallelGroups)
    for (std::int64_t gi = 0; gi < static_cast<std::int64_t>(ng); ++gi) {
      double zeros[kGroup] = {};
      S::encode_group(zeros, storage_.data() + static_cast<std::size_t>(gi) * kGroup);
    }
  }

  /// Decode every group into \p out (size() values, masked). Used by tests
  /// and by the campaign's SDC comparison.
  void extract(std::span<double> out) {
    double logical[kGroup];
    for (std::size_t g = 0; g < groups(); ++g) {
      const auto outcome = S::decode_group(storage_.data() + g * kGroup, logical);
      handle(outcome, g);
      for (std::size_t e = 0; e < kGroup; ++e) {
        const std::size_t i = g * kGroup + e;
        if (i < n_) out[i] = logical[e];
      }
    }
  }

  /// Full integrity sweep; returns the number of groups that failed
  /// unrecoverably (corrections are applied in place and logged).
  std::size_t verify_all() {
    std::size_t failures = 0;
    double logical[kGroup];
    for (std::size_t g = 0; g < groups(); ++g) {
      failures += account_check(log_, policy_, Region::dense_vector,
                                S::decode_group(storage_.data() + g * kGroup, logical), g);
    }
    return failures;
  }

  /// Record a decode outcome (used by the group readers/writers below and by
  /// the kernels, which handle outcomes themselves for hot-loop control).
  void handle(CheckOutcome outcome, std::size_t group_index) {
    account_check(log_, policy_, Region::dense_vector, outcome, group_index);
  }

 private:
  [[nodiscard]] static std::size_t padded_size(std::size_t n) noexcept {
    return (n + kGroup - 1) / kGroup * kGroup;
  }

  std::size_t n_ = 0;
  aligned_uninit_vector<double> storage_;
  FaultLog* log_ = nullptr;
  DuePolicy policy_ = DuePolicy::throw_exception;
};

/// Small direct-mapped cache of decoded groups (paper §VI-C: buffering reads
/// so neighbouring accesses — unit-stride scans and the three row-streams of
/// the five-point stencil — do not re-run the integrity check per element).
///
/// Serial helper: \p Slots groups are kept decoded, direct-mapped by group
/// index, and every miss routes its outcome through ProtectedVector::handle
/// (which counts the check and may throw). The parallel kernels do not use
/// it — they verify x once per pass and then read masked storage.
template <class S, std::size_t Slots = 8>
class GroupReader {
 public:
  static constexpr std::size_t kGroup = S::kGroup;

  explicit GroupReader(ProtectedVector<S>& v) noexcept : v_(&v) { tags_.fill(kEmpty); }

  /// Masked value at index \p i, decoding the containing group on miss.
  [[nodiscard]] double get(std::size_t i) {
    const std::size_t g = i / kGroup;
    const std::size_t slot = g % Slots;
    if (tags_[slot] != g) {
      v_->handle(S::decode_group(v_->data() + g * kGroup, decoded_[slot].data()), g);
      tags_[slot] = g;
    }
    return decoded_[slot][i % kGroup];
  }

  /// Drop all cached groups (call when the underlying vector changes).
  void invalidate() noexcept { tags_.fill(kEmpty); }

 private:
  static constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);
  ProtectedVector<S>* v_;
  std::array<std::size_t, Slots> tags_{};
  std::array<std::array<double, kGroup>, Slots> decoded_{};
};

/// Write buffer that commits one whole codeword group per encode (paper
/// §VI-C: the algorithm is adapted to produce a full ECC element at a time,
/// removing the read-modify-write and the integrity check on the read).
///
/// Values must be appended in index order starting at a group boundary; the
/// final partial group (vector padding) is completed with zeros by flush().
template <class S>
class GroupWriter {
 public:
  static constexpr std::size_t kGroup = S::kGroup;

  explicit GroupWriter(ProtectedVector<S>& v) noexcept : v_(&v) {}

  /// Append the next value (index order).
  void push(double value) {
    pending_[fill_++] = S::mask(value);
    if (fill_ == kGroup) commit();
  }

  /// Complete the trailing group with zero padding and commit it.
  void flush() {
    if (fill_ == 0) return;
    while (fill_ < kGroup) pending_[fill_++] = 0.0;
    commit();
  }

  ~GroupWriter() { flush(); }

  GroupWriter(const GroupWriter&) = delete;
  GroupWriter& operator=(const GroupWriter&) = delete;

 private:
  void commit() {
    S::encode_group(pending_.data(), v_->data() + group_ * kGroup);
    ++group_;
    fill_ = 0;
  }

  ProtectedVector<S>* v_;
  std::array<double, kGroup> pending_{};
  std::size_t group_ = 0;
  std::size_t fill_ = 0;
};

}  // namespace abft
