/// \file protected_sell.hpp
/// \brief SELL-C-sigma matrix whose storage carries embedded redundancy —
/// the paper's zero-overhead protection (§VI) applied to the slab formats.
///
/// This is the one slab container: ELLPACK is its single-slice case (C =
/// nrows, sigma = 1; see abft::EllFormat), so ELL and SELL share the encode,
/// the tile walk, verify_all, the row accessors and the SpMV cursor.
///
/// The protected regions mirror CSR's, reshaped by the format:
///   - elements: every (value, column) slot of every slice slab — padding
///     included — protected by the same element schemes as CSR (Fig. 1).
///     The row-granular CRC scheme covers one whole padded stored row
///     (slice_width slots, strided by the slice height C through the slab)
///     and keeps its checksum in the first four slots' top bytes, so every
///     slice needs width >= 4 (Sell::from_csr's min_width hook): a 5-point
///     stencil needs no fill-in at all, where CSR must pad boundary rows.
///     The tile-granular CRC (schemes::ElemCrc32cTile) instead checksums
///     fixed-size unit-stride tiles of the concatenated slabs — same
///     coverage and spare-bit accounting, contiguous checksum walks (the
///     slab formats' fast CRC layout).
///   - structure: the per-slice widths, the per-stored-row lengths and, when
///     sigma > 1, the row permutation, concatenated into one Struct*-protected
///     array (each section padded to whole codeword groups). All of them are
///     bounded by tiny values (slice width / nrows), so every spare top bit is
///     available — a far smaller and cheaper structural region than CSR's
///     row pointers. With sigma = 1 the permutation is the identity and is
///     not stored, so the array is [slice widths | row lengths].
///
/// Derived metadata (the per-slice slot offsets and the inverse
/// permutation) is kept unprotected alongside the container's scalar fields:
/// it is recomputable from the protected widths/permutation, every use is
/// range-guarded, and the slow-path accessors cross-check it against the
/// protected data — a fault there surfaces as a bounds violation, never an
/// out-of-range access (§VI-A2).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "abft/check_policy.hpp"
#include "abft/element_schemes.hpp"
#include "abft/error_capture.hpp"
#include "abft/protected_index_array.hpp"
#include "abft/spmv_chunk.hpp"
#include "abft/tile_check.hpp"
#include "common/aligned.hpp"
#include "common/fault_log.hpp"
#include "ecc/simd.hpp"
#include "sparse/sell.hpp"

namespace abft {

namespace detail {

/// Cut stored rows [i0, i1) at slice boundaries and call
/// `body(s, i, rows, base)` for each piece: rows [i, i + rows) of slice s,
/// whose slot (i + k, j) is base + j*C + k. The encode and the SpMV cursor
/// both walk the slabs in these pieces, so a 64-row segment of a tall slice
/// (ELL) and several short slices inside one segment (SELL) are one loop.
template <class Body>
void for_each_slice_piece(const std::size_t* slice_ptr, std::size_t c, std::size_t i0,
                          std::size_t i1, Body&& body) {
  for (std::size_t i = i0; i < i1;) {
    const std::size_t s = i < c ? 0 : i / c;  // one tall slice (ELL): no division
    const std::size_t end = std::min((s + 1) * c, i1);
    body(s, i, end - i, slice_ptr[s] + (i - s * c));
    i = end;
  }
}

}  // namespace detail

/// Sparse matrix in SELL-C-sigma format, fully protected with no storage
/// overhead.
///
/// \tparam Index index width (std::uint32_t or std::uint64_t)
/// \tparam ES element scheme (schemes::ElemNone / ElemSed / ElemSecded /
///            ElemCrc32c / ElemCrc32cTile at the same width)
/// \tparam SS structure scheme protecting the slice-width / row-length /
///            permutation array (schemes::StructNone / StructSed /
///            StructSecded / StructSecded128 / StructCrc32c at the same
///            width)
///
/// Like ProtectedCsr the matrix is immutable after construction (paper §V-A),
/// so encoding happens once in from_sell(). Reads go through the decoding
/// accessors; corrections are written back in place.
///
/// The permutation must stay within aligned 64-row blocks (the SpMV chunk
/// granularity, detail::kSpmvChunkRows): each chunk then scatters only into
/// its own y codeword groups, keeping the no-shared-writes property of the
/// group-encoded kernels. Sell::from_csr's default sort window satisfies
/// this; from_sell() verifies it and rejects foreign permutations loudly.
template <class Index, class ES, class SS>
class ProtectedSell {
  static_assert(std::is_same_v<Index, typename ES::index_type>,
                "ProtectedSell: element scheme instantiated at a different index width");
  static_assert(std::is_same_v<Index, typename SS::index_type>,
                "ProtectedSell: structure scheme instantiated at a different index width");

 public:
  using elem_scheme = ES;
  using struct_scheme = SS;
  using index_type = Index;
  using sell_type = sparse::Sell<Index>;
  using plain_type = sell_type;

  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

  ProtectedSell() = default;

  /// Encode \p a. Throws std::invalid_argument when the matrix violates the
  /// scheme's range constraints: the column bound is the element scheme's,
  /// the structure bound requires every slice width (and, when a
  /// permutation is stored, every row index) to fit SS::kValueMask, the
  /// per-row CRC needs every slice width >= 4 (build with
  /// Sell::from_csr(a, ES::kMinRowNnz)), and the permutation must be local
  /// to aligned 64-row blocks (any sort window dividing 64 — the default —
  /// qualifies; under sort window 1 Sell::validate requires the identity).
  ///
  /// \p tile_slots selects the crc32c-tile geometry (power of two in
  /// [16, 256]; 0 = the default 64). It is validated whenever non-zero and
  /// ignored by non-tile element schemes, so format/scheme-blind dispatch
  /// can pass a user's --tile-slots through unconditionally.
  static ProtectedSell from_sell(const sell_type& a, FaultLog* log = nullptr,
                                 DuePolicy policy = DuePolicy::throw_exception,
                                 std::size_t tile_slots = 0) {
    a.validate();
    const bool permuted = a.sort_window() > 1;
    if (a.ncols() > 0 && a.ncols() - 1 > ES::kColMask) {
      throw std::invalid_argument(
          "ProtectedSell: matrix has too many columns for the element scheme (max " +
          std::to_string(static_cast<std::uint64_t>(ES::kColMask) + 1) + ")");
    }
    for (std::size_t s = 0; s < a.nslices(); ++s) {
      if (a.slice_width(s) > SS::kValueMask) {
        throw std::invalid_argument(
            "ProtectedSell: slice width exceeds the structure scheme's value range "
            "(max " +
            std::to_string(static_cast<std::uint64_t>(SS::kValueMask)) + ")");
      }
    }
    if (permuted && a.nrows() > 0 && a.nrows() - 1 > SS::kValueMask) {
      throw std::invalid_argument(
          "ProtectedSell: row count exceeds the structure scheme's value range (max " +
          std::to_string(static_cast<std::uint64_t>(SS::kValueMask) + 1) + " rows)");
    }
    if constexpr (ES::kMinRowNnz > 0) {
      for (std::size_t s = 0; s < a.nslices(); ++s) {
        if (a.slice_width(s) < ES::kMinRowNnz) {
          throw std::invalid_argument(
              "ProtectedSell: slice " + std::to_string(s) + " has width " +
              std::to_string(a.slice_width(s)) + ", below the " +
              std::to_string(ES::kMinRowNnz) +
              " slots the per-row CRC scheme stores its checksum in; build with "
              "sparse::Sell::from_csr(a, min_width)");
        }
      }
    }
    // Sell::validate() has proved a sort window of 1 holds the identity.
    for (std::size_t i = 0; permuted && i < a.nrows(); ++i) {
      const std::size_t p = a.perm()[i];
      if (i / detail::kSpmvChunkRows != p / detail::kSpmvChunkRows) {
        throw std::invalid_argument(
            "ProtectedSell: the row permutation crosses an aligned " +
            std::to_string(detail::kSpmvChunkRows) +
            "-row block at stored row " + std::to_string(i) +
            "; build the SELL matrix with a sort window that divides " +
            std::to_string(detail::kSpmvChunkRows) +
            " (sparse::Sell::from_csr's default does)");
      }
    }

    ProtectedSell p;
    p.nrows_ = a.nrows();
    p.ncols_ = a.ncols();
    p.slice_ = a.slice_height();
    p.window_ = a.sort_window();
    p.nslices_ = a.nslices();
    p.nnz_ = a.nnz();
    p.log_ = log;
    p.policy_ = policy;
    if (tile_slots != 0) p.tile_geom_ = TileGeometry(tile_slots);
    p.slice_ptr_.assign(a.slice_ptr().begin(), a.slice_ptr().end());
    p.widths_.assign(a.slice_widths().begin(), a.slice_widths().end());
    if (permuted) {
      p.seen_epoch_.assign(p.nrows_, 0);
      p.inv_perm_.assign(p.nrows_, 0);
      for (std::size_t i = 0; i < p.nrows_; ++i) p.inv_perm_[a.perm()[i]] = i;
    }

    // Structure array: [slice widths | row lengths | permutation], each
    // section padded to whole groups (padding holds 0 — a valid width,
    // length and row index — so every group encodes cleanly). Under sigma = 1
    // the permutation section is empty.
    const auto padded = [](std::size_t n) {
      return (n + SS::kGroup - 1) / SS::kGroup * SS::kGroup;
    };
    p.rl_off_ = padded(p.nslices_);
    p.perm_off_ = p.rl_off_ + padded(p.nrows_);
    p.structure_ = ProtectedIndexArray<Index, SS>(
        Region::sell_structure, (permuted ? p.perm_off_ : p.rl_off_) + p.nrows_, 0,
        [&](std::size_t i) -> std::size_t {
          if (i < p.rl_off_) return i < p.nslices_ ? a.slice_width(i) : 0;
          if (i >= p.perm_off_) return a.perm()[i - p.perm_off_];
          return i - p.rl_off_ < p.nrows_ ? a.row_nnz()[i - p.rl_off_] : 0;
        });

    // Elements: every slot of every slice (padding and virtual rows
    // included) becomes a valid codeword, so integrity sweeps need no
    // knowledge of which slots are real. The copy + encode runs over the
    // same aligned 64-row segments the SpMV cursor reads with (one
    // unit-stride run per slab column of each slice piece), so on a
    // first-touch NUMA policy each thread places the pages it will stream —
    // for a tall single slice (ELL) as much as for many short ones.
    p.values_.resize(a.values().size());
    p.cols_.resize(a.cols().size());
    constexpr std::size_t kChunk = detail::kSpmvChunkRows;
    const std::size_t stored = p.nslices_ * p.slice_;  // virtual rows included
    const std::size_t nchunks = (stored + kChunk - 1) / kChunk;
#pragma omp parallel for schedule(static) if (p.nrows_ >= kParallelRows)
    for (std::int64_t ci = 0; ci < static_cast<std::int64_t>(nchunks); ++ci) {
      const std::size_t i0 = static_cast<std::size_t>(ci) * kChunk;
      detail::for_each_slice_piece(
          p.slice_ptr_.data(), p.slice_, i0, std::min(i0 + kChunk, stored),
          [&](std::size_t s, std::size_t, std::size_t rows, std::size_t base) {
            const std::size_t width = a.slice_width(s);
            for (std::size_t j = 0; j < width; ++j) {
              const std::size_t k0 = base + j * p.slice_;
              std::copy(a.values().begin() + k0, a.values().begin() + k0 + rows,
                        p.values_.begin() + k0);
              std::copy(a.cols().begin() + k0, a.cols().begin() + k0 + rows,
                        p.cols_.begin() + k0);
              if constexpr (!ES::kRowGranular && !ES::kTileGranular &&
                            ES::kScheme != ecc::Scheme::none) {
                for (std::size_t k = k0; k < k0 + rows; ++k) ES::encode(p.values_[k], p.cols_[k]);
              }
            }
            if constexpr (ES::kRowGranular) {
              // A row codeword only touches slots of its own stored row.
              ES::encode_rows(p.values_.data() + base, p.cols_.data() + base, rows, width,
                              p.slice_);
            }
          });
    }
    if constexpr (ES::kTileGranular) {
      // Unit-stride tiles over the concatenated slice slabs; the per-slice
      // width >= 4 gate above guarantees >= 4 slots whenever any exist.
      // Tiles may straddle the segments above, so they are encoded in a
      // second pass after every slot value has landed.
      const TileGeometry geom = p.tile_geom_;
      const std::size_t ntiles = geom.num_tiles(p.values_.size());
#pragma omp parallel for schedule(static) if (p.nrows_ >= kParallelRows)
      for (std::int64_t t = 0; t < static_cast<std::int64_t>(ntiles); ++t) {
        ES::encode_tile(
            p.values_.data() + geom.tile_begin(static_cast<std::size_t>(t)),
            p.cols_.data() + geom.tile_begin(static_cast<std::size_t>(t)),
            geom.tile_slots(static_cast<std::size_t>(t), p.values_.size()));
      }
    }
    return p;
  }

  /// Format-uniform spelling of from_sell (see plain_type).
  static ProtectedSell from_plain(const plain_type& a, FaultLog* log = nullptr,
                                  DuePolicy policy = DuePolicy::throw_exception,
                                  std::size_t tile_slots = 0) {
    return from_sell(a, log, policy, tile_slots);
  }

  [[nodiscard]] std::size_t nrows() const noexcept { return nrows_; }
  [[nodiscard]] std::size_t ncols() const noexcept { return ncols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return nnz_; }
  [[nodiscard]] std::size_t slice_height() const noexcept { return slice_; }
  /// False under sort window 1: the permutation is the identity, not stored.
  [[nodiscard]] bool permuted() const noexcept { return window_ > 1; }
  [[nodiscard]] std::size_t nslices() const noexcept { return nslices_; }
  [[nodiscard]] std::size_t slots() const noexcept { return values_.size(); }
  /// Geometry the crc32c-tile slab was encoded with (default for other
  /// schemes). tile_slots() is the format-uniform scalar spelling: the
  /// configured slots per tile for tile-granular schemes, 0 otherwise.
  [[nodiscard]] TileGeometry tile_geometry() const noexcept { return tile_geom_; }
  [[nodiscard]] std::size_t tile_slots() const noexcept {
    return ES::kTileGranular ? tile_geom_.slots() : 0;
  }
  [[nodiscard]] FaultLog* fault_log() const noexcept { return log_; }
  [[nodiscard]] DuePolicy due_policy() const noexcept { return policy_; }

  /// Raw storage, exposed for the kernels and for fault injection.
  [[nodiscard]] double* values_data() noexcept { return values_.data(); }
  [[nodiscard]] index_type* cols_data() noexcept { return cols_.data(); }
  [[nodiscard]] std::span<double> raw_values() noexcept { return values_; }
  [[nodiscard]] std::span<index_type> raw_cols() noexcept { return cols_; }
  /// Format-uniform name for the structural index array: slice widths, row
  /// lengths and (sigma > 1 only) the permutation, in that order, each
  /// section group-padded; and its protected reads (checked, masked, cached).
  [[nodiscard]] std::span<index_type> raw_structure() noexcept { return structure_.raw(); }
  [[nodiscard]] ProtectedIndexArray<Index, SS>& structure() noexcept { return structure_; }
  /// Where the row-length and permutation sections start in the structure
  /// array (the slice widths start at 0).
  [[nodiscard]] std::size_t row_len_offset() const noexcept { return rl_off_; }
  [[nodiscard]] std::size_t perm_offset() const noexcept { return perm_off_; }
  /// Derived (unprotected, range-guarded) slice offsets in slots.
  [[nodiscard]] const std::size_t* slice_ptr() const noexcept { return slice_ptr_.data(); }
  [[nodiscard]] const std::size_t* derived_widths() const noexcept { return widths_.data(); }
  /// Construction-time width of slice \p s, derived from the slot offsets —
  /// element sweeps use this so a structural DUE cannot blind them.
  [[nodiscard]] std::size_t derived_width(std::size_t s) const noexcept {
    return widths_[s];
  }

  /// Checked row-length read for *original* row \p r (slow path). The stored
  /// position comes from the derived inverse permutation and is cross-checked
  /// against the protected permutation; any mismatch or out-of-range length
  /// yields an empty row and a logged bounds violation — the §VI-A2
  /// guarantee that no structural fault turns into an out-of-range access.
  [[nodiscard]] index_type row_nnz_at(std::size_t r) {
    const std::size_t pos = stored_pos(r);
    if (pos == kNoPos) return 0;
    const index_type rl = structure_.at(rl_off_ + pos, log_, policy_);
    const index_type w = structure_.at(pos / slice_, log_, policy_);
    if (rl > w || rl > derived_width(pos / slice_)) {
      if (log_ != nullptr) log_->record_bounds_violation(Region::sell_structure, r);
      return 0;
    }
    return rl;
  }

  struct Element {
    double value;
    index_type col;
  };

  /// Checked \p j-th element of *original* row \p r (slow path) — the
  /// format-uniform accessor solver setup code iterates with j in
  /// [0, row_nnz_at(r)). For the row-granular CRC scheme this verifies the
  /// whole containing stored row. A slot beyond the slice's slab raises
  /// BoundsViolation so recovery wrappers can checkpoint-restart.
  [[nodiscard]] Element element_in_row(std::size_t r, std::size_t j) {
    const std::size_t pos = stored_pos(r);
    const std::size_t s = pos == kNoPos ? 0 : pos / slice_;
    if (pos == kNoPos || j >= derived_width(s)) {
      if (log_ != nullptr) log_->record_bounds_violation(Region::sell_structure, r);
      throw BoundsViolation(Region::sell_structure, r);
    }
    const std::size_t off = pos - s * slice_;
    const std::size_t k = slice_ptr_[s] + j * slice_ + off;
    if constexpr (ES::kTileGranular) {
      const std::size_t t = tile_geom_.tile_of(k, values_.size());
      account_check(log_, policy_, Region::sell_values,
                    ES::decode_tile(values_.data() + tile_geom_.tile_begin(t),
                                    cols_.data() + tile_geom_.tile_begin(t),
                                    tile_geom_.tile_slots(t, values_.size())),
                    t);
      return {values_[k], static_cast<index_type>(cols_[k] & ES::kColMask)};
    } else if constexpr (ES::kRowGranular) {
      account_check(log_, policy_, Region::sell_values,
                    ES::decode_row(values_.data() + slice_ptr_[s] + off,
                                   cols_.data() + slice_ptr_[s] + off, derived_width(s), slice_),
                    pos);
      return {values_[k], static_cast<index_type>(cols_[k] & ES::kColMask)};
    } else {
      double v;
      index_type c;
      account_check(log_, policy_, Region::sell_values, ES::decode(values_[k], cols_[k], v, c),
                    k);
      return {v, c};
    }
  }

  /// Full-matrix integrity sweep (paper §VI-A2). Returns the number of
  /// uncorrectable codewords; corrections are applied in place. The element
  /// sweep walks the slabs by the construction-time slice widths, so a
  /// structural DUE cannot blind it; the structural pass additionally
  /// cross-checks the decoded widths against the derived offsets and the
  /// decoded permutation for bijectivity, so silent structure corruption
  /// under weak schemes still surfaces as a bounds violation.
  std::size_t verify_all() { return verify_all(log_, policy_); }

  /// Same sweep with the accounting target supplied by the caller (the
  /// worker fleet's per-batch log; see service::MatrixLogView). Note the
  /// permutation bijectivity check stamps the epoch scratch, so concurrent
  /// verify_all calls on one container must be serialized by the caller —
  /// the fleet runs them inside its ordered commit section.
  std::size_t verify_all(FaultLog* log, DuePolicy policy) {
    SweepTally tally;
    const auto note = [&](std::size_t index, CheckOutcome outcome) {
      tally.check(log, Region::sell_values, outcome, index);
    };
    const auto bounds_hit = [&](std::size_t index) {
      tally.bounds_hit(log, Region::sell_structure, index);
    };

    structure_.sweep(log, tally);
    // Semantic guards over the (now possibly repaired) masked values,
    // slice-major so the hot loop carries no divisions.
    for (std::size_t s = 0; s < nslices_; ++s) {
      const index_type w = structure_.masked(s);
      const std::size_t dw = derived_width(s);
      if (w != dw) bounds_hit(s);
      const std::size_t r0 = s * slice_;
      const std::size_t rend = std::min(r0 + slice_, nrows_);
      for (std::size_t i = r0; i < rend; ++i) {
        const index_type rl = structure_.masked(rl_off_ + i);
        if (rl > w || rl > dw) bounds_hit(rl_off_ + i);
      }
    }
    if (permuted()) {
      ++sweep_epoch_;
      for (std::size_t i = 0; i < nrows_; ++i) {
        const index_type p = structure_.masked(perm_off_ + i);
        if (p >= nrows_ || seen_epoch_[p] == sweep_epoch_) {
          bounds_hit(perm_off_ + i);
        } else {
          seen_epoch_[p] = sweep_epoch_;
        }
      }
    }

    // Elements: every slot is encoded and the sweep strides by the derived
    // widths, never the decoded ones (the tile sweep walks the physical
    // slab and needs no structural input at all).
    if constexpr (ES::kTileGranular) {
      for (std::size_t t = 0; t < tile_geom_.num_tiles(values_.size()); ++t) {
        note(t, ES::decode_tile(values_.data() + tile_geom_.tile_begin(t),
                                cols_.data() + tile_geom_.tile_begin(t),
                                tile_geom_.tile_slots(t, values_.size())));
      }
    } else if constexpr (ES::kRowGranular) {
      // Runs of up to 64 stored rows: clean rows are counted in bulk, and
      // only failed ones go through the repairing decode and the log.
      for_each_row_run([&](std::size_t s, std::size_t e0, std::size_t rows, std::size_t width,
                           std::uint64_t bad) {
        tally.clean(log, rows - static_cast<std::size_t>(std::popcount(bad)));
        for (; bad != 0; bad &= bad - 1) {
          const std::size_t e = e0 + static_cast<std::size_t>(std::countr_zero(bad));
          note(s * slice_ + e, ES::decode_row(values_.data() + slice_ptr_[s] + e,
                                              cols_.data() + slice_ptr_[s] + e, width, slice_));
        }
      });
    } else {
      for (std::size_t k = 0; k < values_.size(); ++k) {
        double v;
        index_type c;
        note(k, ES::decode(values_[k], cols_[k], v, c));
      }
    }
    return tally.finish(policy);
  }

  /// Decode back into an unprotected SELL matrix (checks everything). The
  /// output is always structurally valid: decoded lengths are clamped into
  /// the slab, and a decoded permutation that lost bijectivity to silent
  /// corruption is repaired deterministically (unassigned rows fill the
  /// conflicting slots in ascending order), each repair logged as a bounds
  /// violation.
  [[nodiscard]] sell_type to_sell() {
    aligned_vector<index_type> widths(nslices_);
    for (std::size_t s = 0; s < nslices_; ++s) {
      (void)structure_.at(s, log_, policy_);  // log/correct the stored width
      widths[s] = static_cast<index_type>(derived_width(s));
    }
    sell_type out(nrows_, ncols_, slice_,
                  std::span<const index_type>(widths.data(), widths.size()), window_);

    std::vector<bool> used(nrows_, false);
    std::vector<std::size_t> conflicting;
    for (std::size_t i = 0; i < nrows_; ++i) {
      const index_type rl = structure_.at(rl_off_ + i, log_, policy_);
      if (rl > widths[i / slice_]) {
        if (log_ != nullptr) log_->record_bounds_violation(Region::sell_structure, i);
        out.row_nnz()[i] = 0;
      } else {
        out.row_nnz()[i] = rl;
      }
      if (!permuted()) continue;  // the constructor's identity stands
      const index_type p = structure_.at(perm_off_ + i, log_, policy_);
      if (p >= nrows_ || used[p]) {
        if (log_ != nullptr) log_->record_bounds_violation(Region::sell_structure, i);
        conflicting.push_back(i);
      } else {
        used[p] = true;
        out.perm()[i] = p;
      }
    }
    std::size_t next_free = 0;
    for (const std::size_t i : conflicting) {
      while (used[next_free]) ++next_free;
      used[next_free] = true;
      out.perm()[i] = static_cast<index_type>(next_free);
    }

    if constexpr (ES::kTileGranular) {
      // Verify (and repair) every tile up front; the slab loop below then
      // copies masked slots.
      for (std::size_t t = 0; t < tile_geom_.num_tiles(values_.size()); ++t) {
        account_check(log_, policy_, Region::sell_values,
                      ES::decode_tile(values_.data() + tile_geom_.tile_begin(t),
                                      cols_.data() + tile_geom_.tile_begin(t),
                                      tile_geom_.tile_slots(t, values_.size())),
                      t);
      }
    }
    if constexpr (ES::kRowGranular) {
      // Check in runs; a failed row is repaired before the copy below.
      for_each_row_run([&](std::size_t s, std::size_t e0, std::size_t rows, std::size_t width,
                           std::uint64_t bad) {
        for (std::size_t e = e0; e < e0 + rows; ++e) {
          account_check(log_, policy_, Region::sell_values,
                        (bad >> (e - e0)) & 1
                            ? ES::decode_row(values_.data() + slice_ptr_[s] + e,
                                             cols_.data() + slice_ptr_[s] + e, width, slice_)
                            : CheckOutcome::ok,
                        s * slice_ + e);
        }
      });
    }
    for (std::size_t s = 0; s < nslices_; ++s) {
      const std::size_t base = slice_ptr_[s];
      const std::size_t width = derived_width(s);
      for (std::size_t e = 0; e < slice_; ++e) {
        for (std::size_t j = 0; j < width; ++j) {
          const std::size_t k = base + j * slice_ + e;
          if constexpr (ES::kRowGranular || ES::kTileGranular) {
            out.values()[k] = values_[k];
            out.cols()[k] = cols_[k] & ES::kColMask;
          } else {
            double v;
            index_type c;
            account_check(log_, policy_, Region::sell_values,
                          ES::decode(values_[k], cols_[k], v, c), k);
            out.values()[k] = v;
            out.cols()[k] = c;
          }
        }
      }
    }
    return out;
  }

  /// Format-uniform spelling of to_sell (see plain_type).
  [[nodiscard]] plain_type to_plain() { return to_sell(); }

 private:
  /// Check every stored row codeword in runs of up to 64 rows of one slice
  /// (derived widths) and call `body(s, e0, rows, width, bad)` per run:
  /// rows [e0, e0 + rows) of slice s, bad the failed-row mask.
  template <class Body>
  void for_each_row_run(Body&& body) {
    constexpr std::size_t kRun = ES::kMaxRunRows;
    for (std::size_t s = 0; s < nslices_; ++s) {
      const std::size_t base = slice_ptr_[s];
      const std::size_t width = derived_width(s);
      for (std::size_t e0 = 0; e0 < slice_; e0 += kRun) {
        const std::size_t rows = std::min(kRun, slice_ - e0);
        body(s, e0, rows, width,
             ES::check_rows(values_.data() + base + e0, cols_.data() + base + e0, rows, width,
                            slice_));
      }
    }
  }

  /// Stored position of original row \p r (r itself under sigma = 1), or
  /// kNoPos (with a logged bounds violation) when the derived inverse
  /// permutation and the protected permutation disagree.
  [[nodiscard]] std::size_t stored_pos(std::size_t r) {
    if (!permuted() && r < nrows_) return r;
    const std::size_t pos = r < nrows_ ? inv_perm_[r] : kNoPos;
    if (pos < nrows_ && structure_.at(perm_off_ + pos, log_, policy_) == r) return pos;
    if (log_ != nullptr) log_->record_bounds_violation(Region::sell_structure, r);
    return kNoPos;
  }

  std::size_t nrows_ = 0;
  std::size_t ncols_ = 0;
  std::size_t slice_ = sell_type::kDefaultSliceHeight;
  std::size_t window_ = sell_type::kDefaultSortWindow;
  std::size_t nslices_ = 0;
  std::size_t nnz_ = 0;
  /// Serial-encode threshold: matrices below it (every unit-test case) are
  /// not worth a fork-join, and first touch only matters at page scale.
  static constexpr std::size_t kParallelRows = std::size_t{1} << 14;

  std::size_t rl_off_ = 0;    ///< row-length section offset within structure_
  std::size_t perm_off_ = 0;  ///< permutation section offset within structure_
  aligned_uninit_vector<double> values_;
  aligned_uninit_vector<index_type> cols_;
  ProtectedIndexArray<Index, SS> structure_;
  std::vector<std::size_t> slice_ptr_;  ///< derived slot offsets (guarded)
  std::vector<std::size_t> widths_;     ///< derived slab widths, slice_ptr_'s steps / C
  /// Derived inverse permutation (cross-checked) and the bijectivity sweep's
  /// scratch; both empty under sigma = 1.
  std::vector<std::size_t> inv_perm_;
  std::vector<std::uint64_t> seen_epoch_;
  std::uint64_t sweep_epoch_ = 0;
  TileGeometry tile_geom_{};
  FaultLog* log_ = nullptr;
  DuePolicy policy_ = DuePolicy::throw_exception;
};

/// Per-thread row accessor driving SpMV over one protected slab matrix — the
/// slab counterpart of CsrRowCursor behind the same accumulate() surface
/// (see abft/format_traits.hpp), serving ELL (one slice of C = nrows rows)
/// and SELL (many short slices) alike.
///
/// A 64-row segment is cut at slice boundaries into blocks (a block is the
/// rows one slice shares with the segment). Each block's structure and
/// element codewords are verified first; the sums then read masked storage,
/// slab column by slab column for a tall slice (unit-stride loads across the
/// block) or row by row for a short one. Either way each row's partial sum
/// accumulates in ascending-slot order — bit-identical to the CSR traversal
/// of the same matrix. Finished sums land in the segment buffer directly
/// (sigma = 1) or through the protected, range-guarded permutation
/// (sigma > 1); the block-local permutation contract (see ProtectedSell)
/// keeps every target inside the segment, and a corrupt permutation entry
/// degrades to a zeroed row, never a missing or out-of-range store. The
/// row-granular CRC scheme checks the block's rows first as one interleaved
/// run, slot by slot across the rows, so its reads are unit-stride too.
template <class Index, class ES, class SS>
class SellRowCursor {
 public:
  using matrix_type = ProtectedSell<Index, ES, SS>;

  /// Shared per-pass state: the tile-decode claim table that arbitrates
  /// chunk-straddling tiles between threads (see TileClaimTable). Construct
  /// one before the parallel region and pass it to every thread's cursor;
  /// empty (and free) for non-tile element schemes.
  struct pass_state {
    explicit pass_state(matrix_type& m) {
      if constexpr (ES::kTileGranular) {
        claims.reset(m.tile_geometry().num_tiles(m.slots()));
      } else {
        (void)m;
      }
    }
    TileClaimTable claims;
  };

  SellRowCursor(matrix_type& m, ErrorCapture* capture,
                pass_state* pass = nullptr) noexcept
      : capture_(capture),
        sw_(m.structure().reader(0, capture)),
        rl_(m.structure().reader(m.row_len_offset(), capture)),
        pr_(m.structure().reader(m.perm_offset(), capture)),
        tiles_(m.values_data(), m.cols_data(), m.slots(), m.tile_geometry(),
               Region::sell_values, capture,
               pass != nullptr ? &pass->claims : nullptr),
        values_(m.values_data()),
        cols_(m.cols_data()),
        slice_ptr_(m.slice_ptr()),
        widths_(m.derived_widths()),
        nrows_(m.nrows()),
        ncols_(m.ncols()),
        slice_(m.slice_height()),
        permuted_(m.permuted()) {}

  ~SellRowCursor() { flush_checks(); }
  SellRowCursor(const SellRowCursor&) = delete;
  SellRowCursor& operator=(const SellRowCursor&) = delete;

  /// Compute (A x)[first_row + i] for i in [0, n) and hand each finished row
  /// sum to `store(i, sum)`; see CsrRowCursor::accumulate for the contract.
  /// Rows whose decoded structure fails a guard produce 0. first_row must be
  /// a multiple of detail::kSpmvChunkRows (the SpMV pass driver chunks that
  /// way), so the permutation scatter stays inside [0, n).
  template <class XLoad, class Store>
  void accumulate(std::size_t first_row, std::size_t n, CheckMode mode, XLoad&& xload,
                  Store&& store) {
    // One accumulate call is one chunk: start the structure readers
    // cache-clean so their decode pattern is chunk-pure (cross-thread-count
    // determinism).
    sw_.invalidate();
    rl_.invalidate();
    pr_.invalidate();
    for (std::size_t done = 0; done < n; done += kSeg) {
      const std::size_t seg0 = first_row + done;
      const std::size_t count = std::min(kSeg, n - done);
      // Finished sums in stored-row order land here; under sigma > 1 they
      // arrive through the permutation and rows dropped by the scatter guard
      // stay zero. One sequential store pass per segment keeps the sink
      // writing in index order.
      double out[kSeg];
      if (permuted_) std::fill(out, out + count, 0.0);
      detail::for_each_slice_piece(
          slice_ptr_, slice_, seg0, seg0 + count,
          [&](std::size_t s, std::size_t i, std::size_t rows, std::size_t base) {
            if (!permuted_) {
              accumulate_block(s, i, rows, base, mode, xload, out + (i - seg0));
              return;
            }
            double sums[kSeg];
            accumulate_block(s, i, rows, base, mode, xload, sums);
            for (std::size_t k = 0; k < rows; ++k) {
              const Index p =
                  mode == CheckMode::full ? pr_.get(i + k) : pr_.get_bounds_only(i + k);
              const std::size_t idx = static_cast<std::size_t>(p) - seg0;
              if (p >= nrows_ || idx >= count) [[unlikely]] {
                capture_->record_bounds(Region::sell_structure, i + k);
              } else {
                out[idx] = sums[k];
              }
            }
          });
      for (std::size_t k = 0; k < count; ++k) store(done + k, out[k]);
    }
  }

  void flush_checks() noexcept {
    sw_.flush_checks();
    rl_.flush_checks();
    pr_.flush_checks();
    tiles_.flush_checks();
    if (checks_ > 0) {
      capture_->add_checks(checks_);
      checks_ = 0;
    }
  }

 private:
  static constexpr std::size_t kSeg = detail::kSpmvChunkRows;

  /// Row sums of stored rows [i, i + rows) of slice \p s into out[0, rows);
  /// slot (i + k, j) is base + j*C + k.
  template <class XLoad>
  void accumulate_block(std::size_t s, std::size_t i, std::size_t rows, std::size_t base,
                        CheckMode mode, XLoad&& xload, double* out) {
    const std::size_t c = slice_;
    // Decoded slice width, guarded against the slab extent so a corrupt
    // width can never walk a row out of its slice; row lengths, guarded
    // against that width. Blocks of equal-length rows (stencil interiors,
    // sigma-sorted slices) have min == max, letting the main loop below run
    // branch-free over whole slab columns.
    const std::size_t true_width = widths_[s];
    std::size_t w = mode == CheckMode::full ? sw_.get(s) : sw_.get_bounds_only(s);
    if (w > true_width) [[unlikely]] {
      capture_->record_bounds(Region::sell_structure, s);
      w = true_width;
    }
    Index rl[kSeg];
    std::size_t max_rl = 0;
    std::size_t min_rl = w;
    for (std::size_t k = 0; k < rows; ++k) {
      rl[k] = mode == CheckMode::full ? rl_.get(i + k) : rl_.get_bounds_only(i + k);
      if (rl[k] > w) [[unlikely]] {
        capture_->record_bounds(Region::sell_structure, i + k);
        rl[k] = 0;
      }
      max_rl = std::max<std::size_t>(max_rl, rl[k]);
      min_rl = std::min<std::size_t>(min_rl, rl[k]);
    }
    // Row-granular element scheme: check the block's row codewords as one
    // run (slot j of its rows is contiguous), then repair and record only
    // the failed rows; reads below then mask, exactly as in the CSR row loop.
    if constexpr (ES::kRowGranular) {
      if (mode == CheckMode::full) {
        std::uint64_t bad = ES::check_rows(values_ + base, cols_ + base, rows, true_width, c);
        checks_ += rows;
        for (; bad != 0; bad &= bad - 1) {
          const std::size_t k = static_cast<std::size_t>(std::countr_zero(bad));
          capture_->record(Region::sell_values,
                           ES::decode_row(values_ + base + k, cols_ + base + k, true_width, c),
                           i + k);
        }
      }
    }
    // Tile-codeword scheme: prove every tile this block's slab columns touch
    // before the masked loop below reads them. Each touched range is a
    // contiguous run of at most 64 slots intersecting 1-2 tiles, so the
    // whole check pass is unit-stride; adjacent blocks share boundary tiles
    // and the verifier's cache keeps those checked once.
    if constexpr (ES::kTileGranular) {
      if (mode == CheckMode::full) {
        for (std::size_t j = 0; j < max_rl; ++j) {
          tiles_.ensure_range(base + j * c, base + j * c + rows);
        }
      }
    }
    // Per-element schemes: verify every real slot of the block, one slab
    // column at a time. Whole columns (every row reaches slot j) are
    // contiguous runs of element codewords: ask the batch predicate — SIMD
    // when the CPU has it — whether the whole run is clean, and count the
    // checks it stands in for in bulk. A dirty run falls back to the
    // per-element decoder for the identical corrections, records and counts
    // the serial path makes. A decode leaves the storage holding exactly the
    // value and (masked) column it returns — corrections are written back,
    // and an uncorrectable codeword is left as it was read — so the masked
    // loops below sum the same bits an inline decode would.
    if constexpr (!ES::kRowGranular && !ES::kTileGranular &&
                  ES::kScheme != ecc::Scheme::none) {
      if (mode == CheckMode::full) {
        for (std::size_t j = 0; j < max_rl; ++j) {
          const std::size_t col = base + j * c;
          if (j < min_rl) {
            bool clean;
            if constexpr (ES::kScheme == ecc::Scheme::sed) {
              clean = ecc::sed_elements_clean(values_ + col, cols_ + col, rows);
            } else {
              clean = ecc::secded_elements_clean(values_ + col, cols_ + col, rows);
            }
            if (clean) {
              checks_ += rows;
              continue;
            }
          }
          for (std::size_t k = 0; k < rows; ++k) {
            if (j >= rl[k]) continue;
            double v;
            Index cc;
            ++checks_;
            capture_->record(Region::sell_values,
                             ES::decode(values_[col + k], cols_[col + k], v, cc), col + k);
          }
        }
      }
    }
    // ElemNone decodes to the identity: its full mode is the masked loop,
    // with the checks it replaces counted in bulk so the FaultLog accounting
    // matches the CSR cursor.
    if constexpr (ES::kScheme == ecc::Scheme::none) {
      if (mode == CheckMode::full) {
        for (std::size_t k = 0; k < rows; ++k) checks_ += rl[k];
      }
    }

    // The masked sums. A short slice's slab is L1-resident, so each row
    // accumulates in a register at stride C, which suits ragged sigma-sorted
    // rows; a tall slice (ELL) is walked slab column by slab column.
    if (c <= kSeg) {
      sum_rows(base, rows, rl, out, xload);
    } else {
      sum_columns(base, rows, rl, min_rl, max_rl, out, xload);
    }
  }

  // The sum loops keep the hot state in locals: member loads would otherwise
  // be re-issued after every store to out (a measured 4-7% on these loops).

  template <class XLoad>
  void sum_rows(std::size_t base, std::size_t rows, const Index* rl, double* out,
                XLoad&& xload) {
    const double* const values = values_;
    const Index* const cols = cols_;
    const std::size_t ncols = ncols_;
    const std::size_t c = slice_;
    for (std::size_t k = 0; k < rows; ++k) {
      double sum = 0.0;
      for (std::size_t j = 0; j < rl[k]; ++j) {
        const std::size_t slot = base + k + j * c;
        const Index col = cols[slot] & ES::kColMask;
        if (col >= ncols) [[unlikely]] {
          capture_->record_bounds(Region::sell_cols, slot);
          continue;
        }
        sum += values[slot] * xload(col);
      }
      out[k] = sum;
    }
  }

  /// Unit-stride loads across the block, branch-free over the slab columns
  /// every row reaches.
  template <class XLoad>
  void sum_columns(std::size_t base, std::size_t rows, const Index* rl, std::size_t min_rl,
                   std::size_t max_rl, double* out, XLoad&& xload) {
    const double* const values = values_;
    const Index* const cols = cols_;
    const std::size_t ncols = ncols_;
    std::fill(out, out + rows, 0.0);
    for (std::size_t j = 0; j < max_rl; ++j) {
      const std::size_t col0 = base + j * slice_;
      const bool whole = j < min_rl;
      for (std::size_t k = 0; k < rows; ++k) {
        if (!whole && j >= rl[k]) continue;
        const Index col = cols[col0 + k] & ES::kColMask;
        if (col >= ncols) [[unlikely]] {
          capture_->record_bounds(Region::sell_cols, col0 + k);
          continue;
        }
        out[k] += values[col0 + k] * xload(col);
      }
    }
  }

  ErrorCapture* capture_;
  typename ProtectedIndexArray<Index, SS>::Reader sw_;
  typename ProtectedIndexArray<Index, SS>::Reader rl_;
  typename ProtectedIndexArray<Index, SS>::Reader pr_;
  TileVerifier<Index, ES> tiles_;
  double* values_;
  Index* cols_;
  const std::size_t* slice_ptr_;
  const std::size_t* widths_;
  std::size_t nrows_;
  std::size_t ncols_;
  std::size_t slice_;
  bool permuted_;
  std::uint64_t checks_ = 0;
};

}  // namespace abft
