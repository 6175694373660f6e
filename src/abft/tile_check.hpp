/// \file tile_check.hpp
/// \brief Cursor-side verifier for the tile-codeword element scheme
/// (schemes::ElemCrc32cTile): checks whole unit-stride tiles of the physical
/// slab on first touch, with bulk check accounting.
///
/// The slab cursor (SellRowCursor, which serves ELL too) touches contiguous
/// slot ranges — one slab column of a block of at most 64 rows — and each
/// range intersects one or two tiles. The verifier remembers what it has
/// proved (a last-tile fast path backed by a verified-tile bitmap, one byte
/// per tile of the slab), so a traversal that re-enters a boundary tile —
/// a tall slice's per-column chunk ranges straddle one whenever its height
/// is not a multiple of the tile size — never re-checksums it. Errors are deferred through the kernel's
/// ErrorCapture like every other cursor check.
///
/// Under the thread-parallel SpMV a tile straddling two 64-row chunks is
/// reachable from two threads in the same pass. A shared TileClaimTable
/// (constructed once per pass, outside the parallel region) arbitrates:
/// exactly one thread claims the tile, decodes it, records the outcome and
/// counts the check; every other thread waits for the published result and
/// observes any correction through the release/acquire pair. This keeps the
/// per-pass check count and the fault log bit-identical at any thread count
/// — with a first-writer-wins race, a boundary tile would be decoded (and
/// counted, and on a fault logged) once per touching thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "abft/error_capture.hpp"
#include "abft/tile_geometry.hpp"
#include "common/fault_log.hpp"

namespace abft {

/// Shared per-pass arbitration of tile decodes. One slot per tile of a slab,
/// three states: 0 = unclaimed, 1 = decode in progress, 2 = published.
/// Constructed (or reset) once per SpMV pass before the parallel region.
class TileClaimTable {
 public:
  TileClaimTable() = default;

  explicit TileClaimTable(std::size_t ntiles) { reset(ntiles); }

  /// Size for \p ntiles tiles and mark every tile unclaimed.
  void reset(std::size_t ntiles) {
    if (ntiles != size_) {
      state_ = ntiles > 0 ? std::make_unique<std::atomic<std::uint8_t>[]>(ntiles)
                          : nullptr;
      size_ = ntiles;
    }
    for (std::size_t t = 0; t < size_; ++t) {
      state_[t].store(0, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Try to claim tile \p t for decoding. True: the caller owns the decode
  /// and must call publish() when the tile bytes are final. False: another
  /// thread owns (or owned) it — call wait_done() before reading the tile.
  [[nodiscard]] bool claim(std::size_t t) noexcept {
    std::uint8_t expected = 0;
    return state_[t].compare_exchange_strong(expected, 1, std::memory_order_acq_rel,
                                             std::memory_order_acquire);
  }

  /// Publish tile \p t: any correction written by the claiming thread is
  /// visible to threads returning from wait_done().
  void publish(std::size_t t) noexcept {
    state_[t].store(2, std::memory_order_release);
  }

  /// Wait until tile \p t has been published by its claiming thread.
  void wait_done(std::size_t t) const noexcept {
    std::size_t spins = 0;
    while (state_[t].load(std::memory_order_acquire) != 2) {
      if (++spins > 1024) std::this_thread::yield();
    }
  }

 private:
  std::unique_ptr<std::atomic<std::uint8_t>[]> state_;
  std::size_t size_ = 0;
};

/// Thread-private tile verifier over one container's (values, cols) slab.
/// Only meaningful for tile-granular element schemes; cursors instantiate it
/// behind `if constexpr (ES::kTileGranular)`. When \p claims is non-null the
/// verifier participates in the shared per-pass claim protocol above; a null
/// table gives the plain single-thread behaviour (every tile decoded at most
/// once per cursor).
template <class Index, class ES>
class TileVerifier {
 public:
  TileVerifier(double* values, Index* cols, std::size_t total_slots,
               TileGeometry geom, Region region, ErrorCapture* capture,
               TileClaimTable* claims = nullptr) noexcept
      : values_(values),
        cols_(cols),
        total_(total_slots),
        geom_(geom),
        region_(region),
        capture_(capture),
        claims_(claims) {}

  ~TileVerifier() { flush_checks(); }
  TileVerifier(const TileVerifier&) = delete;
  TileVerifier& operator=(const TileVerifier&) = delete;

  /// Verify every tile intersecting the slot range [lo, hi); one check is
  /// counted per tile decode (a tile is one codeword, like a CRC row).
  void ensure_range(std::size_t lo, std::size_t hi) {
    if (hi <= lo || total_ == 0) return;
    const std::size_t t0 = geom_.tile_of(lo, total_);
    const std::size_t t1 = geom_.tile_of(hi - 1, total_);
    if (t0 == last_verified_ && t1 == last_verified_) return;
    if (seen_.empty()) seen_.assign(geom_.num_tiles(total_), 0);
    for (std::size_t t = t0; t <= t1; ++t) {
      if (seen_[t] != 0) continue;
      if (claims_ != nullptr) {
        if (claims_->claim(t)) {
          decode_and_record(t);
          claims_->publish(t);
        } else {
          claims_->wait_done(t);
        }
      } else {
        decode_and_record(t);
      }
      seen_[t] = 1;
    }
    last_verified_ = t1;
  }

  void flush_checks() noexcept {
    if (local_checks_ > 0) {
      capture_->add_checks(local_checks_);
      local_checks_ = 0;
    }
  }

 private:
  void decode_and_record(std::size_t t) {
    const auto outcome = ES::decode_tile(values_ + geom_.tile_begin(t),
                                         cols_ + geom_.tile_begin(t),
                                         geom_.tile_slots(t, total_));
    ++local_checks_;
    capture_->record(region_, outcome, t);
  }

  double* values_;
  Index* cols_;
  std::size_t total_;
  TileGeometry geom_;
  Region region_;
  ErrorCapture* capture_;
  TileClaimTable* claims_;
  std::size_t last_verified_ = static_cast<std::size_t>(-1);
  std::uint64_t local_checks_ = 0;
  /// Lazily sized on first use, so the (always-constructed) verifier costs
  /// non-tile schemes nothing.
  std::vector<std::uint8_t> seen_;
};

}  // namespace abft
