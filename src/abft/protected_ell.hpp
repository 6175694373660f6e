/// \file protected_ell.hpp
/// \brief ELLPACK matrix whose storage carries embedded redundancy — the
/// paper's zero-overhead protection (§VI) applied to the second sparse
/// format.
///
/// The protected regions mirror CSR's three (paper §VI-A), reshaped by the
/// format:
///   - elements: every (value, column) slot — padding included — protected by
///     the same element schemes as CSR (Fig. 1). The row-granular CRC scheme
///     covers a whole padded row (width slots, strided through the
///     column-major slabs) and keeps its checksum in the first four slots'
///     top bytes, so it needs width >= 4 rather than per-row NNZ >= 4: a
///     5-point stencil needs no fill-in at all, where CSR must pad boundary
///     rows (sparse::pad_rows_to_min_nnz). The tile-granular CRC
///     (schemes::ElemCrc32cTile) instead checksums fixed-size unit-stride
///     tiles of the physical slab — same coverage and spare-bit accounting,
///     but every checksum walk is a contiguous scan instead of a
///     stride-nrows gather (this is the slab formats' fast CRC layout).
///   - structure: the CSR row-pointer vector (m+1 offsets bounded by NNZ)
///     collapses into m row widths bounded by the slab width — a far smaller
///     array of far smaller values, protected by the same structure schemes
///     (structure_schemes.hpp) with every spare bit available. This is the
///     cheaper second region layout the selective-reliability line of work
///     motivates.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "abft/check_policy.hpp"
#include "abft/element_schemes.hpp"
#include "abft/error_capture.hpp"
#include "abft/spmv_chunk.hpp"
#include "abft/structure_schemes.hpp"
#include "abft/tile_check.hpp"
#include "common/aligned.hpp"
#include "common/fault_log.hpp"
#include "ecc/simd.hpp"
#include "sparse/ell.hpp"

namespace abft {

/// Sparse matrix in ELLPACK format, fully protected with no storage overhead.
///
/// \tparam Index index width (std::uint32_t or std::uint64_t)
/// \tparam ES element scheme (schemes::ElemNone / ElemSed / ElemSecded /
///            ElemCrc32c / ElemCrc32cTile at the same width)
/// \tparam SS structure scheme protecting the row-width array
///            (schemes::StructNone / StructSed / StructSecded /
///            StructSecded128 / StructCrc32c at the same width)
///
/// Like ProtectedCsr the matrix is immutable after construction (paper §V-A),
/// so encoding happens once in from_ell(). Reads go through the decoding
/// accessors; corrections are written back in place.
template <class Index, class ES, class SS>
class ProtectedEll {
  static_assert(std::is_same_v<Index, typename ES::index_type>,
                "ProtectedEll: element scheme instantiated at a different index width");
  static_assert(std::is_same_v<Index, typename SS::index_type>,
                "ProtectedEll: structure scheme instantiated at a different index width");

 public:
  using elem_scheme = ES;
  using struct_scheme = SS;
  using index_type = Index;
  using ell_type = sparse::Ell<Index>;
  using plain_type = ell_type;

  ProtectedEll() = default;

  /// Encode \p a. Throws std::invalid_argument when the matrix violates the
  /// scheme's range constraints: the column bound is the element scheme's
  /// (as for CSR), the structure bound is width <= SS::kValueMask (trivially
  /// satisfied — widths are tiny), and the per-row CRC needs width >= 4
  /// (build the ELL with Ell::from_csr(a, ES::kMinRowNnz) when the stencil is
  /// narrower).
  ///
  /// \p tile_slots selects the crc32c-tile geometry (power of two in
  /// [16, 256]; 0 = the default 64). It is validated whenever non-zero and
  /// ignored by non-tile element schemes, so format/scheme-blind dispatch
  /// can pass a user's --tile-slots through unconditionally.
  static ProtectedEll from_ell(const ell_type& a, FaultLog* log = nullptr,
                               DuePolicy policy = DuePolicy::throw_exception,
                               std::size_t tile_slots = 0) {
    a.validate();
    if (a.ncols() > 0 && a.ncols() - 1 > ES::kColMask) {
      throw std::invalid_argument(
          "ProtectedEll: matrix has too many columns for the element scheme (max " +
          std::to_string(static_cast<std::uint64_t>(ES::kColMask) + 1) + ")");
    }
    if (a.width() > SS::kValueMask) {
      throw std::invalid_argument(
          "ProtectedEll: slab width exceeds the structure scheme's value range (max " +
          std::to_string(static_cast<std::uint64_t>(SS::kValueMask)) + ")");
    }
    if constexpr (ES::kMinRowNnz > 0) {
      if (a.nrows() > 0 && a.width() < ES::kMinRowNnz) {
        throw std::invalid_argument(
            "ProtectedEll: slab width " + std::to_string(a.width()) +
            " is below the " + std::to_string(ES::kMinRowNnz) +
            " slots the per-row CRC scheme stores its checksum in; build with "
            "sparse::Ell::from_csr(a, min_width)");
      }
    }

    ProtectedEll p;
    p.nrows_ = a.nrows();
    p.ncols_ = a.ncols();
    p.width_ = a.width();
    p.nnz_ = a.nnz();
    p.log_ = log;
    p.policy_ = policy;
    if (tile_slots != 0) p.tile_geom_ = TileGeometry(tile_slots);

    // Elements: every slot (padding included) becomes a valid codeword, so
    // integrity sweeps need no knowledge of which slots are real. The copy +
    // encode runs over the same aligned 64-row chunks the SpMV cursor reads
    // with (one unit-stride segment per slab column), so on a first-touch
    // NUMA policy each thread places the pages it will later stream.
    const std::size_t nrows = p.nrows_;
    const std::size_t width = p.width_;
    p.values_.resize(a.values().size());
    p.cols_.resize(a.cols().size());
    constexpr std::size_t kChunk = detail::kSpmvChunkRows;
    const std::size_t nchunks = (nrows + kChunk - 1) / kChunk;
#pragma omp parallel for schedule(static) if (nrows >= kParallelRows)
    for (std::int64_t ci = 0; ci < static_cast<std::int64_t>(nchunks); ++ci) {
      const std::size_t r0 = static_cast<std::size_t>(ci) * kChunk;
      const std::size_t cnt = std::min(kChunk, nrows - r0);
      for (std::size_t j = 0; j < width; ++j) {
        const std::size_t base = j * nrows + r0;
        std::copy(a.values().begin() + base, a.values().begin() + base + cnt,
                  p.values_.begin() + base);
        std::copy(a.cols().begin() + base, a.cols().begin() + base + cnt,
                  p.cols_.begin() + base);
      }
      if constexpr (ES::kRowGranular) {
        // A row codeword only touches slots of its own row — inside the chunk.
        for (std::size_t r = r0; r < r0 + cnt; ++r) {
          ES::encode_row(p.values_.data() + r, p.cols_.data() + r, width, nrows);
        }
      } else if constexpr (!ES::kTileGranular && ES::kScheme != ecc::Scheme::none) {
        for (std::size_t j = 0; j < width; ++j) {
          const std::size_t base = j * nrows + r0;
          for (std::size_t k = base; k < base + cnt; ++k) {
            ES::encode(p.values_[k], p.cols_[k]);
          }
        }
      }
    }
    if constexpr (ES::kTileGranular) {
      // Unit-stride tiles over the physical slab; the width >= 4 gate above
      // guarantees every non-empty slab has the 4 slots a checksum needs.
      // Tiles may straddle the row chunks above, so they are encoded in a
      // second pass after every slot value has landed.
      const TileGeometry geom = p.tile_geom_;
      const std::size_t ntiles = geom.num_tiles(p.values_.size());
#pragma omp parallel for schedule(static) if (nrows >= kParallelRows)
      for (std::int64_t t = 0; t < static_cast<std::int64_t>(ntiles); ++t) {
        ES::encode_tile(
            p.values_.data() + geom.tile_begin(static_cast<std::size_t>(t)),
            p.cols_.data() + geom.tile_begin(static_cast<std::size_t>(t)),
            geom.tile_slots(static_cast<std::size_t>(t), p.values_.size()));
      }
    }

    // Row widths: pad the storage to a whole number of groups; padding
    // entries hold 0 (a valid row length) so every group encodes cleanly.
    const std::size_t padded =
        (p.nrows_ + SS::kGroup - 1) / SS::kGroup * SS::kGroup;
    p.row_nnz_.resize(padded);
    const std::size_t ngroups = padded / SS::kGroup;
#pragma omp parallel for schedule(static) if (ngroups >= kParallelRows)
    for (std::int64_t gi = 0; gi < static_cast<std::int64_t>(ngroups); ++gi) {
      index_type group[SS::kGroup];
      for (std::size_t e = 0; e < SS::kGroup; ++e) {
        const std::size_t i = static_cast<std::size_t>(gi) * SS::kGroup + e;
        group[e] = i < nrows ? a.row_nnz()[i] : index_type{0};
      }
      SS::encode_group(group,
                       p.row_nnz_.data() + static_cast<std::size_t>(gi) * SS::kGroup);
    }
    return p;
  }

  /// Format-uniform spelling of from_ell (see plain_type).
  static ProtectedEll from_plain(const plain_type& a, FaultLog* log = nullptr,
                                 DuePolicy policy = DuePolicy::throw_exception,
                                 std::size_t tile_slots = 0) {
    return from_ell(a, log, policy, tile_slots);
  }

  [[nodiscard]] std::size_t nrows() const noexcept { return nrows_; }
  [[nodiscard]] std::size_t ncols() const noexcept { return ncols_; }
  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return nnz_; }
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
  [[nodiscard]] std::span<index_type> raw_row_nnz() noexcept { return row_nnz_; }
  [[nodiscard]] std::span<const index_type> raw_row_nnz() const noexcept {
    return row_nnz_;
  }
  /// Format-uniform name for the structural index array (ELL: row widths).
  [[nodiscard]] std::span<index_type> raw_structure() noexcept { return row_nnz_; }

  /// Checked row-width read (slow path; kernels use RowWidthReader). A width
  /// that survives the scheme corrupted beyond the slab width yields an
  /// empty row and a logged bounds violation — the §VI-A2 guarantee that no
  /// structural fault turns into an out-of-range access.
  [[nodiscard]] index_type row_nnz_at(std::size_t i) {
    index_type group[SS::kGroup];
    const std::size_t g = i / SS::kGroup;
    const auto outcome = SS::decode_group(row_nnz_.data() + g * SS::kGroup, group);
    handle(Region::ell_row_width, outcome, g);
    const index_type rl = group[i % SS::kGroup];
    if (rl > width_) {
      if (log_ != nullptr) log_->record_bounds_violation(Region::ell_row_width, i);
      return 0;
    }
    return rl;
  }

  /// Unchecked masked row-width read for check-interval skip iterations; the
  /// caller must range-guard the result against width() (paper §VI-A2).
  [[nodiscard]] index_type row_nnz_bounds_only(std::size_t i) const noexcept {
    return row_nnz_[i] & SS::kValueMask;
  }

  struct Element {
    double value;
    index_type col;
  };

  /// Checked \p j-th element of row \p r (slow path) — the format-uniform
  /// accessor solver setup code iterates with j in [0, row_nnz_at(r)). For
  /// the row-granular CRC scheme this verifies the whole containing row. A
  /// slot beyond the slab width raises BoundsViolation so recovery wrappers
  /// can checkpoint-restart.
  [[nodiscard]] Element element_in_row(std::size_t r, std::size_t j) {
    if (j >= width_) {
      if (log_ != nullptr) log_->record_bounds_violation(Region::ell_row_width, r);
      throw BoundsViolation(Region::ell_row_width, r);
    }
    const std::size_t k = j * nrows_ + r;
    if constexpr (ES::kTileGranular) {
      const std::size_t t = tile_geom_.tile_of(k, values_.size());
      const auto outcome =
          ES::decode_tile(values_.data() + tile_geom_.tile_begin(t),
                          cols_.data() + tile_geom_.tile_begin(t),
                          tile_geom_.tile_slots(t, values_.size()));
      handle(Region::ell_values, outcome, t);
      return {values_[k], static_cast<index_type>(cols_[k] & ES::kColMask)};
    } else if constexpr (ES::kRowGranular) {
      const auto outcome =
          ES::decode_row(values_.data() + r, cols_.data() + r, width_, nrows_);
      handle(Region::ell_values, outcome, r);
      return {values_[k], static_cast<index_type>(cols_[k] & ES::kColMask)};
    } else {
      double v;
      index_type c;
      const auto outcome = ES::decode(values_[k], cols_[k], v, c);
      handle(Region::ell_values, outcome, k);
      return {v, c};
    }
  }

  /// Full-matrix integrity sweep (paper §VI-A2). Returns the number of
  /// uncorrectable codewords; corrections are applied in place. Under
  /// DuePolicy::throw_exception the raised error names the first failing
  /// region/codeword so recovery tooling looks in the right array.
  std::size_t verify_all() { return verify_all(log_, policy_); }

  /// Same sweep with the accounting target supplied by the caller (the
  /// worker fleet's per-batch log; see service::MatrixLogView).
  std::size_t verify_all(FaultLog* log, DuePolicy policy) {
    std::size_t failures = 0;
    Region first_region = Region::ell_values;
    std::size_t first_index = 0;
    const auto note = [&](Region region, std::size_t index, std::size_t count) {
      if (failures == 0 && count > 0) {
        first_region = region;
        first_index = index;
      }
      failures += count;
    };
    // Row widths.
    for (std::size_t g = 0; g < row_nnz_.size() / SS::kGroup; ++g) {
      index_type group[SS::kGroup];
      const auto outcome = SS::decode_group(row_nnz_.data() + g * SS::kGroup, group);
      note(Region::ell_row_width, g,
           count_and_log(log, Region::ell_row_width, outcome, g));
      for (std::size_t e = 0; e < SS::kGroup; ++e) {
        const std::size_t r = g * SS::kGroup + e;
        if (r < nrows_ && group[e] > width_) {
          if (log != nullptr) log->record_bounds_violation(Region::ell_row_width, r);
          note(Region::ell_row_width, r, 1);
        }
      }
    }
    // Elements: every slot is encoded, so the sweep never consults the row
    // widths — a structural DUE cannot blind the element sweep.
    if constexpr (ES::kTileGranular) {
      for (std::size_t t = 0; t < tile_geom_.num_tiles(values_.size()); ++t) {
        const auto outcome =
            ES::decode_tile(values_.data() + tile_geom_.tile_begin(t),
                            cols_.data() + tile_geom_.tile_begin(t),
                            tile_geom_.tile_slots(t, values_.size()));
        note(Region::ell_values, t, count_and_log(log, Region::ell_values, outcome, t));
      }
    } else if constexpr (ES::kRowGranular) {
      for (std::size_t r = 0; r < nrows_; ++r) {
        const auto outcome =
            ES::decode_row(values_.data() + r, cols_.data() + r, width_, nrows_);
        note(Region::ell_values, r, count_and_log(log, Region::ell_values, outcome, r));
      }
    } else {
      for (std::size_t k = 0; k < values_.size(); ++k) {
        double v;
        index_type c;
        const auto outcome = ES::decode(values_[k], cols_[k], v, c);
        note(Region::ell_values, k, count_and_log(log, Region::ell_values, outcome, k));
      }
    }
    if (failures > 0 && policy == DuePolicy::throw_exception) {
      throw UncorrectableError(first_region, first_index);
    }
    return failures;
  }

  /// Decode back into an unprotected ELL matrix (checks everything).
  [[nodiscard]] ell_type to_ell() {
    ell_type out(nrows_, ncols_, width_);
    if constexpr (ES::kTileGranular) {
      // Verify (and repair) every tile up front; the row loop below then
      // copies masked slots.
      for (std::size_t t = 0; t < tile_geom_.num_tiles(values_.size()); ++t) {
        const auto outcome =
            ES::decode_tile(values_.data() + tile_geom_.tile_begin(t),
                            cols_.data() + tile_geom_.tile_begin(t),
                            tile_geom_.tile_slots(t, values_.size()));
        handle(Region::ell_values, outcome, t);
      }
    }
    for (std::size_t r = 0; r < nrows_; ++r) {
      out.row_nnz()[r] = row_nnz_at(r);
      if constexpr (ES::kRowGranular) {
        const auto outcome =
            ES::decode_row(values_.data() + r, cols_.data() + r, width_, nrows_);
        handle(Region::ell_values, outcome, r);
      }
      for (std::size_t j = 0; j < width_; ++j) {
        const std::size_t k = j * nrows_ + r;
        if constexpr (ES::kRowGranular || ES::kTileGranular) {
          out.values()[k] = values_[k];
          out.cols()[k] = cols_[k] & ES::kColMask;
        } else {
          double v;
          index_type c;
          const auto outcome = ES::decode(values_[k], cols_[k], v, c);
          handle(Region::ell_values, outcome, k);
          out.values()[k] = v;
          out.cols()[k] = c;
        }
      }
    }
    return out;
  }

  /// Format-uniform spelling of to_ell (see plain_type).
  [[nodiscard]] plain_type to_plain() { return to_ell(); }

  /// Route a check outcome to the log / policy (slow paths only).
  void handle(Region region, CheckOutcome outcome, std::size_t index) {
    if (log_ != nullptr) {
      log_->add_checks();
      log_->record(region, outcome, index);
    }
    if (outcome == CheckOutcome::uncorrectable && policy_ == DuePolicy::throw_exception) {
      throw UncorrectableError(region, index);
    }
  }

 private:
  [[nodiscard]] static std::size_t count_and_log(FaultLog* log, Region region,
                                                 CheckOutcome outcome,
                                                 std::size_t index) {
    if (log != nullptr) {
      log->add_checks();
      log->record(region, outcome, index);
    }
    return outcome == CheckOutcome::uncorrectable ? 1 : 0;
  }

  /// Serial-encode threshold: matrices below it (every unit-test case) are
  /// not worth a fork-join, and first touch only matters at page scale.
  static constexpr std::size_t kParallelRows = std::size_t{1} << 14;

  std::size_t nrows_ = 0;
  std::size_t ncols_ = 0;
  std::size_t width_ = 0;
  std::size_t nnz_ = 0;
  aligned_uninit_vector<double> values_;
  aligned_uninit_vector<index_type> cols_;
  aligned_uninit_vector<index_type> row_nnz_;
  TileGeometry tile_geom_{};
  FaultLog* log_ = nullptr;
  DuePolicy policy_ = DuePolicy::throw_exception;
};

/// Cached decoder for the protected row-width vector (one group cached —
/// SpMV visits rows in order, so consecutive rows usually share a group).
/// Thread-private; errors are deferred through an ErrorCapture.
template <class Index, class ES, class SS>
class RowWidthReader {
 public:
  explicit RowWidthReader(ProtectedEll<Index, ES, SS>& m, ErrorCapture* capture) noexcept
      : m_(&m), capture_(capture) {}

  ~RowWidthReader() { flush_checks(); }
  RowWidthReader(const RowWidthReader&) = delete;
  RowWidthReader& operator=(const RowWidthReader&) = delete;

  /// Checked, masked row-width value. StructNone has no redundancy to
  /// decode, so its "check" collapses to the bare load (still counted,
  /// matching the grouped path's accounting — ported from the SELL
  /// structure reader).
  [[nodiscard]] Index get(std::size_t i) {
    if constexpr (SS::kScheme == ecc::Scheme::none) {
      ++local_checks_;
      return m_->raw_row_nnz()[i];
    } else {
      const std::size_t g = i / SS::kGroup;
      if (g != cached_group_) {
        const auto outcome =
            SS::decode_group(m_->raw_row_nnz().data() + g * SS::kGroup, decoded_);
        ++local_checks_;
        capture_->record(Region::ell_row_width, outcome, g);
        cached_group_ = g;
      }
      return decoded_[i % SS::kGroup];
    }
  }

  /// Masked-only value for check-interval skip iterations.
  [[nodiscard]] Index get_bounds_only(std::size_t i) const noexcept {
    return m_->row_nnz_bounds_only(i);
  }

  /// Drop the cached group. Called at every chunk boundary so the decode
  /// (and check-count) pattern is a pure function of the chunk, not of which
  /// chunks happen to share a thread (cross-thread-count determinism).
  void invalidate() noexcept { cached_group_ = static_cast<std::size_t>(-1); }

  void flush_checks() noexcept {
    if (local_checks_ > 0) {
      capture_->add_checks(local_checks_);
      local_checks_ = 0;
    }
  }

 private:
  ProtectedEll<Index, ES, SS>* m_;
  ErrorCapture* capture_;
  std::size_t cached_group_ = static_cast<std::size_t>(-1);
  std::uint64_t local_checks_ = 0;
  Index decoded_[SS::kGroup] = {};
};

/// Per-thread row accessor driving SpMV over one protected ELL matrix — the
/// ELL counterpart of CsrRowCursor behind the same accumulate() surface (see
/// abft/format_traits.hpp).
///
/// Iteration order exploits the column-major slabs: rows are processed in
/// blocks, slot-column by slot-column, so the value/column loads are
/// unit-stride across the block while each row's partial sums still
/// accumulate in ascending-slot order — bit-identical to the CSR traversal
/// of the same matrix. The row-granular CRC scheme forces a strided per-row
/// decode pass first; that is the price of a row codeword in a column-major
/// layout and shows up honestly in the benches.
template <class Index, class ES, class SS>
class EllRowCursor {
 public:
  using matrix_type = ProtectedEll<Index, ES, SS>;

  /// Shared per-pass state: the tile-decode claim table that arbitrates
  /// chunk-straddling tiles between threads (see TileClaimTable). Construct
  /// one before the parallel region and pass it to every thread's cursor;
  /// empty (and free) for non-tile element schemes.
  struct pass_state {
    explicit pass_state(matrix_type& m) {
      if constexpr (ES::kTileGranular) {
        claims.reset(m.tile_geometry().num_tiles(m.raw_values().size()));
      } else {
        (void)m;
      }
    }
    TileClaimTable claims;
  };

  EllRowCursor(matrix_type& m, ErrorCapture* capture,
               pass_state* pass = nullptr) noexcept
      : capture_(capture),
        rw_(m, capture),
        tiles_(m.values_data(), m.cols_data(), m.raw_values().size(),
               m.tile_geometry(), Region::ell_values, capture,
               pass != nullptr ? &pass->claims : nullptr),
        values_(m.values_data()),
        cols_(m.cols_data()),
        nrows_(m.nrows()),
        ncols_(m.ncols()),
        width_(m.width()) {}

  ~EllRowCursor() { flush_checks(); }
  EllRowCursor(const EllRowCursor&) = delete;
  EllRowCursor& operator=(const EllRowCursor&) = delete;

  /// Compute (A x)[first_row + i] for i in [0, n) and hand each finished row
  /// sum to `store(i, sum)`; see CsrRowCursor::accumulate for the contract.
  /// Rows whose decoded width fails the guard against the slab width produce
  /// 0. Internally the rows are processed in blocks so the slab traversal
  /// stays unit-stride; sums leave the block buffer through the sink.
  template <class XLoad, class Store>
  void accumulate(std::size_t first_row, std::size_t n, CheckMode mode, XLoad&& xload,
                  Store&& store) {
    // One accumulate call is one chunk: start it cache-clean so the
    // row-width decode pattern is chunk-pure (cross-thread-count
    // determinism — the group is chunk-aligned today, but only because
    // every kGroup divides the chunk size; don't let that be load-bearing).
    rw_.invalidate();
    double block[kBlock];
    for (std::size_t done = 0; done < n; done += kBlock) {
      const std::size_t count = std::min(kBlock, n - done);
      accumulate_block(first_row + done, count, block, mode, xload);
      for (std::size_t i = 0; i < count; ++i) store(done + i, block[i]);
    }
  }

  void flush_checks() noexcept {
    rw_.flush_checks();
    tiles_.flush_checks();
    if (checks_ > 0) {
      capture_->add_checks(checks_);
      checks_ = 0;
    }
  }

 private:
  static constexpr std::size_t kBlock = 64;

  template <class XLoad>
  void accumulate_block(std::size_t row0, std::size_t n, double* out, CheckMode mode,
                        XLoad&& xload) {
    // Row widths for the block, guarded against the slab width. Interior
    // stencil blocks have a constant width (min == max), letting the main
    // loop below run branch-free over whole slab columns.
    Index rl[kBlock];
    Index max_rl = 0;
    Index min_rl = n > 0 ? static_cast<Index>(width_) : Index{0};
    for (std::size_t i = 0; i < n; ++i) {
      rl[i] = mode == CheckMode::full ? rw_.get(row0 + i) : rw_.get_bounds_only(row0 + i);
      if (rl[i] > width_) {
        capture_->record_bounds(Region::ell_row_width, row0 + i);
        rl[i] = 0;
      }
      max_rl = std::max(max_rl, rl[i]);
      min_rl = std::min(min_rl, rl[i]);
    }
    // Row-granular element scheme: verify each row codeword once up front;
    // reads below then mask, exactly as in the CSR row loop.
    if constexpr (ES::kRowGranular) {
      if (mode == CheckMode::full) {
        for (std::size_t i = 0; i < n; ++i) {
          const auto outcome =
              ES::decode_row(values_ + row0 + i, cols_ + row0 + i, width_, nrows_);
          ++checks_;
          capture_->record(Region::ell_values, outcome, row0 + i);
        }
      }
    }
    // Tile-codeword scheme: prove every tile this block's slab columns touch
    // before the masked loop below reads them. Each touched range is a
    // contiguous 64-slot slab column intersecting 1-2 tiles, so the whole
    // check pass is unit-stride — no strided per-row decode exists.
    if constexpr (ES::kTileGranular) {
      if (mode == CheckMode::full) {
        for (std::size_t j = 0; j < max_rl; ++j) {
          const std::size_t base = j * nrows_ + row0;
          tiles_.ensure_range(base, base + n);
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) out[i] = 0.0;

    // ElemNone decodes to the identity: skip the per-slot decode pass and
    // run the masked slab loop below even in full mode, counting the checks
    // it replaces in bulk so the FaultLog accounting matches the other
    // cursors (ported from the SELL cursor's fast path).
    if constexpr (ES::kScheme == ecc::Scheme::none) {
      if (mode == CheckMode::full) {
        for (std::size_t i = 0; i < n; ++i) checks_ += rl[i];
      }
    }
    if constexpr (!ES::kRowGranular && !ES::kTileGranular &&
                  ES::kScheme != ecc::Scheme::none) {
      if (mode == CheckMode::full) {
        for (std::size_t j = 0; j < max_rl; ++j) {
          const std::size_t base = j * nrows_ + row0;
          // Whole slab columns (every row in the block reaches slot j) are
          // contiguous runs of element codewords: ask the batch predicate —
          // SIMD when the CPU has it — whether the whole run is clean. On
          // the fault-free fast path that replaces n per-element decodes
          // with one sweep; values are already plain and columns only need
          // masking, so the accumulate matches the decode loop bit-for-bit,
          // and the n checks it stands in for are counted in bulk. A dirty
          // run falls through to the per-element decoder below for the
          // identical corrections, records and counts the serial path makes.
          if (j < min_rl) {
            bool clean;
            if constexpr (ES::kScheme == ecc::Scheme::sed) {
              clean = ecc::sed_elements_clean(values_ + base, cols_ + base, n);
            } else {
              clean = ecc::secded_elements_clean(values_ + base, cols_ + base, n);
            }
            if (clean) {
              checks_ += n;
              accumulate_whole_column(out, base, n, xload);
              continue;
            }
          }
          for (std::size_t i = 0; i < n; ++i) {
            if (j >= rl[i]) continue;
            double v;
            Index c;
            const auto outcome = ES::decode(values_[base + i], cols_[base + i], v, c);
            ++checks_;
            capture_->record(Region::ell_values, outcome, base + i);
            if (c >= ncols_) {
              capture_->record_bounds(Region::ell_cols, base + i);
              continue;
            }
            out[i] += v * xload(c);
          }
        }
        return;
      }
    }
    for (std::size_t j = 0; j < max_rl; ++j) {
      const std::size_t base = j * nrows_ + row0;
      if (j < min_rl) {
        accumulate_whole_column(out, base, n, xload);
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (j >= rl[i]) continue;
        const Index c = cols_[base + i] & ES::kColMask;
        if (c >= ncols_) [[unlikely]] {
          capture_->record_bounds(Region::ell_cols, base + i);
          continue;
        }
        out[i] += values_[base + i] * xload(c);
      }
    }
  }

  /// One whole slab column over a row block: every row reaches slot j, so
  /// the run is a dense masked gather. With a raw (schemeless) x the AVX2
  /// gather kernel applies the run four lanes at a time — lanes are
  /// independent accumulators, so it is bit-identical to the loop below —
  /// and declines (returning false, out untouched) when any masked column
  /// fails the range guard or the scalar implementation is selected.
  template <class XLoad>
  void accumulate_whole_column(double* out, std::size_t base, std::size_t n,
                               XLoad&& xload) {
    if constexpr (detail::kIsRawXLoad<XLoad>) {
      if (ecc::gather_mul_add(out, values_ + base, cols_ + base, n, xload.x,
                              static_cast<Index>(ES::kColMask), ncols_)) {
        return;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Index c = cols_[base + i] & ES::kColMask;
      if (c >= ncols_) [[unlikely]] {
        capture_->record_bounds(Region::ell_cols, base + i);
        continue;
      }
      out[i] += values_[base + i] * xload(c);
    }
  }

  ErrorCapture* capture_;
  RowWidthReader<Index, ES, SS> rw_;
  TileVerifier<Index, ES> tiles_;
  double* values_;
  Index* cols_;
  std::size_t nrows_;
  std::size_t ncols_;
  std::size_t width_;
  std::uint64_t checks_ = 0;
};

}  // namespace abft
