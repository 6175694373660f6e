#include "ecc/crc32c.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <cstring>

// The hardware kernel carries a per-function target attribute, so this
// translation unit builds at the base ISA on any x86 GNU-compatible compiler
// and the CRC32 instruction path is chosen by CPUID at runtime.
#if !defined(ABFT_HAVE_SSE42_CRC) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define ABFT_HAVE_SSE42_CRC 1
#endif

#if defined(ABFT_HAVE_SSE42_CRC)
#include <nmmintrin.h>
#if defined(__GNUC__) || defined(__clang__)
#include <cpuid.h>
#endif
#endif

namespace abft::ecc {
namespace {

/// Reflected CRC-32C polynomial (Castagnoli, 0x1EDC6F41 bit-reversed).
constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

/// Slicing-by-8 lookup tables, built at compile time (8 x 256 x 4 bytes).
struct Tables {
  std::uint32_t t[8][256];
};

constexpr Tables make_tables() {
  Tables tab{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolyReflected : 0u);
    }
    tab.t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tab.t[0][i];
    for (int s = 1; s < 8; ++s) {
      crc = tab.t[0][crc & 0xffu] ^ (crc >> 8);
      tab.t[s][i] = crc;
    }
  }
  return tab;
}

constexpr Tables kTables = make_tables();

/// One slicing-by-8 step: fold the little-endian 8-byte \p word into \p crc.
inline std::uint32_t sw_step(std::uint32_t crc, std::uint64_t word) noexcept {
  word ^= crc;  // little-endian: CRC folds into the low 4 bytes
  return kTables.t[7][word & 0xffu] ^ kTables.t[6][(word >> 8) & 0xffu] ^
         kTables.t[5][(word >> 16) & 0xffu] ^ kTables.t[4][(word >> 24) & 0xffu] ^
         kTables.t[3][(word >> 32) & 0xffu] ^ kTables.t[2][(word >> 40) & 0xffu] ^
         kTables.t[1][(word >> 48) & 0xffu] ^ kTables.t[0][(word >> 56) & 0xffu];
}

std::uint32_t sw_kernel(const std::uint8_t* p, std::size_t len, std::uint32_t crc) noexcept {
  // Byte-at-a-time until 8-byte alignment.
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = kTables.t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
    --len;
  }
  // Slicing-by-8 main loop.
  while (len >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc = sw_step(crc, word);
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = kTables.t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

/// Word \p e of the 4-word CRC group at \p p (crc32c_check_groups' layout).
inline std::uint64_t group_word(const double* p, unsigned e) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p + e, sizeof w);
  return w;
}

constexpr std::uint64_t kGroupDataMask = ~std::uint64_t{0xFF};

/// Finish the group at \p in whose masked words checksum to \p crc: encode
/// writes the masked words with the checksum bytes to \p out; check writes
/// the masked words (when \p out is not null) and returns 1 when the
/// checksum stored in the low bytes differs.
inline std::uint64_t finish_group(const double* in, std::uint32_t crc, double* out,
                                  bool encode) noexcept {
  std::uint32_t stored = 0;
  for (unsigned e = 0; e < 4; ++e) {
    std::uint64_t w = group_word(in, e);
    stored |= static_cast<std::uint32_t>(w & 0xFFu) << (8 * e);
    w &= kGroupDataMask;
    if (encode) w |= (crc >> (8 * e)) & 0xFFu;
    // Word by word: a wider reload of narrower stores would stall store
    // forwarding.
    if (out != nullptr) std::memcpy(out + e, &w, sizeof w);
  }
  return !encode && crc != stored ? 1 : 0;
}

std::uint64_t sw_groups(const double* in, std::size_t n, double* out, bool encode) noexcept {
  std::uint64_t dirty = 0;
  for (std::size_t g = 0; g < n; ++g) {
    const double* const p = in + 4 * g;
    std::uint32_t c = ~0u;
    for (unsigned e = 0; e < 4; ++e) c = sw_step(c, group_word(p, e) & kGroupDataMask);
    dirty |= finish_group(p, ~c, out != nullptr ? out + 4 * g : nullptr, encode) << g;
  }
  return dirty;
}

/// One slicing-by-4 step: fold the little-endian 4-byte \p word into \p crc.
inline std::uint32_t sw_step4(std::uint32_t crc, std::uint32_t word) noexcept {
  word ^= crc;
  return kTables.t[3][word & 0xffu] ^ kTables.t[2][(word >> 8) & 0xffu] ^
         kTables.t[1][(word >> 16) & 0xffu] ^ kTables.t[0][word >> 24];
}

inline std::uint32_t sw_col(std::uint32_t crc, std::uint32_t col) noexcept {
  return sw_step4(crc, col);
}
inline std::uint32_t sw_col(std::uint32_t crc, std::uint64_t col) noexcept {
  return sw_step(crc, col);
}

inline std::uint64_t value_bits(const double* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

template <class Col>
void sw_rows(const CrcRowRun<Col>& run, std::uint32_t* crcs) noexcept {
  for (std::size_t k = 0; k < run.nrows; ++k) {
    std::uint32_t c = ~0u;
    for (std::size_t e = 0, at = k; e < run.width; ++e, at += run.stride) {
      c = sw_step(c, value_bits(run.values + at));
      c = sw_col(c, run.cols[at] & run.col_mask);
    }
    crcs[k] = ~c;
  }
}

#if defined(ABFT_HAVE_SSE42_CRC)
bool detect_sse42() noexcept {
#if defined(__GNUC__) || defined(__clang__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  return (ecx & (1u << 20)) != 0;  // SSE4.2 feature bit
#else
  return false;
#endif
}

__attribute__((target("sse4.2"))) std::uint32_t hw_kernel(const std::uint8_t* p,
                                                          std::size_t len,
                                                          std::uint32_t crc) noexcept {
  std::uint64_t c = crc;
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
    --len;
  }
  while (len >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
  }
  return static_cast<std::uint32_t>(c);
}

template <bool Encode, bool Out>
__attribute__((target("sse4.2"))) std::uint64_t hw_groups_t(const double* in, std::size_t n,
                                                            double* out) noexcept {
  std::uint64_t dirty = 0;
  std::size_t g = 0;
  // Four groups per step: their four independent crc32 chains hide the
  // instruction's 3-cycle latency.
  for (; g + 4 <= n; g += 4) {
    const double* const p = in + 4 * g;
    std::uint64_t c[4] = {0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu};
    for (unsigned e = 0; e < 4; ++e) {
      for (unsigned k = 0; k < 4; ++k) {
        c[k] = _mm_crc32_u64(c[k], group_word(p + 4 * k, e) & kGroupDataMask);
      }
    }
    for (unsigned k = 0; k < 4; ++k) {
      dirty |= finish_group(p + 4 * k, ~static_cast<std::uint32_t>(c[k]),
                            Out ? out + 4 * (g + k) : nullptr, Encode)
               << (g + k);
    }
  }
  for (; g < n; ++g) {
    const double* const p = in + 4 * g;
    std::uint64_t c = 0xFFFFFFFFu;
    for (unsigned e = 0; e < 4; ++e) c = _mm_crc32_u64(c, group_word(p, e) & kGroupDataMask);
    dirty |= finish_group(p, ~static_cast<std::uint32_t>(c),
                          Out ? out + 4 * g : nullptr, Encode)
             << g;
  }
  return dirty;
}

/// hw_groups_t per mode, so finish_group's per-word mode branches fold away.
std::uint64_t hw_groups(const double* in, std::size_t n, double* out, bool encode) noexcept {
  if (encode) return hw_groups_t<true, true>(in, n, out);
  return out != nullptr ? hw_groups_t<false, true>(in, n, out)
                        : hw_groups_t<false, false>(in, n, out);
}

/// One row element into a crc32 chain: the value bits, then the masked column.
__attribute__((target("sse4.2"))) inline std::uint64_t hw_element(std::uint64_t c,
                                                                  const double* v,
                                                                  std::uint32_t col) noexcept {
  return _mm_crc32_u32(static_cast<std::uint32_t>(_mm_crc32_u64(c, value_bits(v))), col);
}
__attribute__((target("sse4.2"))) inline std::uint64_t hw_element(std::uint64_t c,
                                                                  const double* v,
                                                                  std::uint64_t col) noexcept {
  return _mm_crc32_u64(_mm_crc32_u64(c, value_bits(v)), col);
}

/// Rows [k0, k0 + N) of \p run as N crc32 chains side by side, slot by slot:
/// slot e of the N rows is contiguous.
template <std::size_t N, class Col>
__attribute__((target("sse4.2"))) void hw_row_group(const CrcRowRun<Col>& run, std::size_t k0,
                                                    std::uint32_t* crcs) noexcept {
  std::uint64_t c[N];
  for (std::size_t k = 0; k < N; ++k) c[k] = 0xFFFFFFFFu;
  const Col mask = run.col_mask;
  for (std::size_t e = 0; e < run.width; ++e) {
    const double* const v = run.values + k0 + e * run.stride;
    const Col* const col = run.cols + k0 + e * run.stride;
    for (std::size_t k = 0; k < N; ++k) c[k] = hw_element(c[k], v + k, col[k] & mask);
  }
  for (std::size_t k = 0; k < N; ++k) crcs[k0 + k] = ~static_cast<std::uint32_t>(c[k]);
}

template <class Col>
void hw_rows(const CrcRowRun<Col>& run, std::uint32_t* crcs) noexcept {
  // Eight chains keep the crc32 unit busy past the instruction's 3-cycle
  // latency; the rows left over run in groups of 4, 2 and 1.
  std::size_t k = 0;
  for (; k + 8 <= run.nrows; k += 8) hw_row_group<8>(run, k, crcs);
  if (k + 4 <= run.nrows) {
    hw_row_group<4>(run, k, crcs);
    k += 4;
  }
  if (k + 2 <= run.nrows) {
    hw_row_group<2>(run, k, crcs);
    k += 2;
  }
  if (k < run.nrows) hw_row_group<1>(run, k, crcs);
}
#endif  // ABFT_HAVE_SSE42_CRC

/// The kernels one CrcImpl selects: the byte-stream CRC, the group run and
/// the row runs at both column widths.
struct Kernels {
  std::uint32_t (*bytes)(const std::uint8_t*, std::size_t, std::uint32_t) noexcept;
  std::uint64_t (*groups)(const double*, std::size_t, double*, bool) noexcept;
  void (*rows32)(const CrcRowRun<std::uint32_t>&, std::uint32_t*) noexcept;
  void (*rows64)(const CrcRowRun<std::uint64_t>&, std::uint32_t*) noexcept;
};

constexpr Kernels kSoftware{sw_kernel, sw_groups, sw_rows<std::uint32_t>,
                            sw_rows<std::uint64_t>};
#if defined(ABFT_HAVE_SSE42_CRC)
constexpr Kernels kHardware{hw_kernel, hw_groups, hw_rows<std::uint32_t>,
                            hw_rows<std::uint64_t>};
#endif

std::atomic<const Kernels*> g_kernels{nullptr};
std::atomic<CrcImpl> g_impl{CrcImpl::auto_detect};

const Kernels* resolve(CrcImpl impl) noexcept {
#if defined(ABFT_HAVE_SSE42_CRC)
  static const bool hw_ok = detect_sse42();
  if (impl == CrcImpl::hardware || impl == CrcImpl::auto_detect) {
    if (hw_ok) return &kHardware;
  }
#else
  (void)impl;
#endif
  return &kSoftware;
}

const Kernels& kernels() noexcept {
  const Kernels* k = g_kernels.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = resolve(g_impl.load(std::memory_order_acquire));
    g_kernels.store(k, std::memory_order_release);
  }
  return *k;
}

}  // namespace

bool crc32c_hw_available() noexcept {
#if defined(ABFT_HAVE_SSE42_CRC)
  static const bool hw_ok = detect_sse42();
  return hw_ok;
#else
  return false;
#endif
}

std::uint32_t crc32c_sw(const void* data, std::size_t len, std::uint32_t seed) noexcept {
  return ~sw_kernel(static_cast<const std::uint8_t*>(data), len, ~seed);
}

std::uint32_t crc32c_hw(const void* data, std::size_t len, std::uint32_t seed) noexcept {
#if defined(ABFT_HAVE_SSE42_CRC)
  if (crc32c_hw_available()) {
    return ~hw_kernel(static_cast<const std::uint8_t*>(data), len, ~seed);
  }
#endif
  return crc32c_sw(data, len, seed);
}

std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t seed) noexcept {
  return ~kernels().bytes(static_cast<const std::uint8_t*>(data), len, ~seed);
}

std::uint64_t crc32c_check_groups(const double* storage, std::size_t ngroups,
                                  double* masked) noexcept {
  return kernels().groups(storage, ngroups, masked, false);
}

void crc32c_encode_groups(const double* logical, std::size_t ngroups,
                          double* storage) noexcept {
  (void)kernels().groups(logical, ngroups, storage, true);
}

void crc32c_rows(const CrcRowRun<std::uint32_t>& run, std::uint32_t* crcs) noexcept {
  kernels().rows32(run, crcs);
}

void crc32c_rows(const CrcRowRun<std::uint64_t>& run, std::uint32_t* crcs) noexcept {
  kernels().rows64(run, crcs);
}

void set_crc32c_impl(CrcImpl impl) noexcept {
  g_impl.store(impl, std::memory_order_release);
  g_kernels.store(resolve(impl), std::memory_order_release);
}

CrcImpl current_crc32c_impl() noexcept {
#if defined(ABFT_HAVE_SSE42_CRC)
  if (g_kernels.load(std::memory_order_acquire) == &kHardware ||
      (g_kernels.load(std::memory_order_acquire) == nullptr && crc32c_hw_available() &&
       g_impl.load(std::memory_order_acquire) != CrcImpl::software)) {
    return CrcImpl::hardware;
  }
#endif
  return CrcImpl::software;
}

CrcCorrection crc32c_correct_single_bit(std::span<std::uint8_t> buffer,
                                        std::uint32_t stored_crc) noexcept {
  const std::uint32_t actual = crc32c(buffer.data(), buffer.size());
  if (actual == stored_crc) return {false, -1};

  // Case 1: the flip hit the stored checksum (a single-bit difference
  // between the recomputed and stored CRC values).
  if (std::popcount(actual ^ stored_crc) == 1) {
    return {true, -1};
  }

  // Case 2: locate the flipped data bit through CRC linearity. The CRC is
  // affine in the message over GF(2), so flipping bit b of byte i changes the
  // final CRC by a fixed syndrome that depends only on (b, bytes after i).
  // Seed eight syndromes with a flip in the LAST byte (one table step each)
  // and advance them with the zero-byte CRC update while walking i backwards:
  // one O(len) sweep instead of len recomputations of an O(len) checksum.
  const std::uint32_t delta = actual ^ stored_crc;
  std::uint32_t syn[8];
  for (unsigned b = 0; b < 8; ++b) syn[b] = kTables.t[0][1u << b];
  for (std::size_t i = buffer.size(); i-- > 0;) {
    for (unsigned b = 0; b < 8; ++b) {
      if (syn[b] == delta) {
        buffer[i] ^= static_cast<std::uint8_t>(1u << b);
        // One full recompute guards the repair (and the return contract:
        // the buffer is only modified on success).
        if (crc32c(buffer.data(), buffer.size()) == stored_crc) {
          return {true, static_cast<std::ptrdiff_t>(i * 8 + b)};
        }
        buffer[i] ^= static_cast<std::uint8_t>(1u << b);
      }
      syn[b] = kTables.t[0][syn[b] & 0xffu] ^ (syn[b] >> 8);
    }
  }
  return {false, -1};
}

}  // namespace abft::ecc
