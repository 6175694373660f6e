/// \file protected_index_array.hpp
/// \brief A structural index array whose entries carry a Struct* scheme's
/// redundancy in their spare top bits (paper §VI-A1, Fig. 2): CSR's row
/// pointers and the slab formats' [slice widths | row lengths | permutation]
/// array alike.
///
/// The array owns the group-padded storage and the codec protocol around it:
/// the one encode, the checked slow-path read, the masked bounds-only read,
/// the full codeword sweep and the cached reader the SpMV cursors decode
/// with. The containers keep only what differs per format: which values go
/// in, and the semantic guards on what comes out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "abft/error_capture.hpp"
#include "abft/structure_schemes.hpp"
#include "common/aligned.hpp"
#include "common/fault_log.hpp"

namespace abft {

/// \tparam Index index width (std::uint32_t or std::uint64_t)
/// \tparam SS structure scheme at the same width (schemes::StructNone /
///            StructSed / StructSecded / StructSecded128 / StructCrc32c)
template <class Index, class SS>
class ProtectedIndexArray {
  static_assert(std::is_same_v<Index, typename SS::index_type>,
                "ProtectedIndexArray: structure scheme instantiated at a different index width");

 public:
  static constexpr std::size_t kGroup = SS::kGroup;

  class Reader;

  ProtectedIndexArray() = default;

  /// Encode \p len entries, entry i holding value(i), into storage padded to
  /// whole codeword groups with \p pad — a value inside the caller's bound,
  /// so every group encodes cleanly. Fault events name \p region. Every slot
  /// is written exactly once, straight into uninitialised storage and, for
  /// large arrays, in parallel in the static group order the readers use, so
  /// on a first-touch NUMA policy each page lands where it is read. The
  /// length is fixed from here on: the owning container's offsets index it.
  template <class Value>
  ProtectedIndexArray(Region region, std::size_t len, Index pad, const Value& value)
      : region_(region), storage_((len + kGroup - 1) / kGroup * kGroup) {
    const std::size_t ngroups = groups();
#pragma omp parallel for schedule(static) if (ngroups >= kParallelGroups)
    for (std::int64_t gi = 0; gi < static_cast<std::int64_t>(ngroups); ++gi) {
      const std::size_t i0 = static_cast<std::size_t>(gi) * kGroup;
      Index group[kGroup];
      for (std::size_t e = 0; e < kGroup; ++e) {
        group[e] = i0 + e < len ? static_cast<Index>(value(i0 + e)) : pad;
      }
      SS::encode_group(group, storage_.data() + i0);
    }
  }

  [[nodiscard]] std::size_t groups() const noexcept { return storage_.size() / kGroup; }
  /// Raw storage, exposed for the kernels and for fault injection.
  [[nodiscard]] std::span<Index> raw() noexcept { return storage_; }

  /// Checked read of entry \p i (slow path): decode its group, writing any
  /// correction back, account the check to \p log / \p policy (the owning
  /// container's) and return the masked value.
  [[nodiscard]] Index at(std::size_t i, FaultLog* log, DuePolicy policy) {
    Index group[kGroup];
    const std::size_t g = i / kGroup;
    account_check(log, policy, region_, SS::decode_group(storage_.data() + g * kGroup, group),
                  g);
    return group[i % kGroup];
  }

  /// Unchecked masked read for check-interval skip iterations; the caller
  /// must range-guard the result (paper §VI-A2).
  [[nodiscard]] Index masked(std::size_t i) const noexcept {
    return storage_[i] & SS::kValueMask;
  }

  /// Decode every codeword group, writing corrections back, accounting each
  /// check to \p log and each uncorrectable group to \p tally — the
  /// structure pass every container's verify_all opens with.
  void sweep(FaultLog* log, SweepTally& tally) {
    for (std::size_t g = 0; g < groups(); ++g) {
      Index group[kGroup];
      tally.check(log, region_, SS::decode_group(storage_.data() + g * kGroup, group), g);
    }
  }

  /// Cached reader of the section starting at entry \p offset (a multiple of
  /// kGroup), recording into \p capture.
  [[nodiscard]] Reader reader(std::size_t offset, ErrorCapture* capture) noexcept {
    return Reader(storage_.data() + offset, offset / kGroup, region_, capture);
  }

 private:
  /// Serial-encode threshold: arrays below it (every unit-test case) are not
  /// worth a fork-join, and first touch only matters at page scale.
  static constexpr std::size_t kParallelGroups = std::size_t{1} << 14;

  Region region_ = Region::other;
  aligned_uninit_vector<Index> storage_;
};

/// Cached decoder for one section of a protected index array (one group
/// cached — SpMV visits entries in order, so consecutive reads usually share
/// a group). Thread-private; outcomes are deferred through an ErrorCapture
/// with group indices offset into the whole array, and checks are counted
/// locally and flushed on destruction.
template <class Index, class SS>
class ProtectedIndexArray<Index, SS>::Reader {
 public:
  Reader(Index* base, std::size_t group_base, Region region, ErrorCapture* capture) noexcept
      : base_(base), group_base_(group_base), region_(region), capture_(capture) {}

  ~Reader() { flush_checks(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Checked, masked value of section entry \p i. StructNone has no
  /// redundancy to decode, so its "check" collapses to the bare load (still
  /// counted, matching the grouped path's accounting).
  [[nodiscard]] Index get(std::size_t i) {
    if constexpr (SS::kScheme == ecc::Scheme::none) {
      ++local_checks_;
      return base_[i];
    } else {
      const std::size_t g = i / kGroup;
      if (g != cached_group_) {
        const auto outcome = SS::decode_group(base_ + g * kGroup, decoded_);
        ++local_checks_;
        capture_->record(region_, outcome, group_base_ + g);
        cached_group_ = g;
      }
      return decoded_[i % kGroup];
    }
  }

  /// Masked-only value for check-interval skip iterations.
  [[nodiscard]] Index get_bounds_only(std::size_t i) const noexcept {
    return base_[i] & SS::kValueMask;
  }

  /// Drop the cached group. Called at every chunk boundary so the decode
  /// (and check-count) pattern is a pure function of the chunk, not of which
  /// chunks happen to share a thread: groups straddle chunk boundaries (CSR
  /// reads row r + 1 of a chunk's last row; the slab sections' bases are not
  /// chunk-aligned), so without this a 1-thread pass would count fewer
  /// decodes than an n-thread pass.
  void invalidate() noexcept { cached_group_ = static_cast<std::size_t>(-1); }

  void flush_checks() noexcept {
    if (local_checks_ > 0) {
      capture_->add_checks(local_checks_);
      local_checks_ = 0;
    }
  }

 private:
  Index* base_;
  std::size_t group_base_;
  Region region_;
  ErrorCapture* capture_;
  std::size_t cached_group_ = static_cast<std::size_t>(-1);
  std::uint64_t local_checks_ = 0;
  Index decoded_[kGroup] = {};
};

}  // namespace abft
