#include "ecc/simd.hpp"

#include <atomic>
#include <cstring>

#include "abft/element_schemes.hpp"
#include "common/bits.hpp"
#include "ecc/hamming.hpp"

// The AVX2 kernels are compiled with a per-function target attribute, so the
// translation unit builds at the base ISA and the vector path is selected by
// CPUID at runtime — the same arrangement as the SSE4.2 CRC kernel.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define ABFT_HAVE_AVX2_KERNELS 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace abft::ecc {
namespace {

/// Per-check-bit coverage masks over the two packed data words of an element
/// codeword (word 0: the 64 value bits; word 1: the masked column), rebuilt
/// from the code's public data-bit positions. `m0[j] & value ^ m1[j] & col`
/// XOR-reduces to check bit j — the same fold HammingSecded::encode runs.
template <class Code>
struct ElementMasks {
  std::uint64_t m0[Code::kCheckBits] = {};
  std::uint64_t m1[Code::kCheckBits] = {};
};

template <class Code>
constexpr ElementMasks<Code> make_element_masks() noexcept {
  ElementMasks<Code> m;
  for (unsigned d = 0; d < Code::kDataBits; ++d) {
    const unsigned pos = Code::position_of_data_bit(d);
    for (unsigned j = 0; j < Code::kCheckBits; ++j) {
      if ((pos >> j) & 1u) {
        if (d < 64) {
          m.m0[j] |= std::uint64_t{1} << d;
        } else {
          m.m1[j] |= std::uint64_t{1} << (d - 64);
        }
      }
    }
  }
  return m;
}

template <class Index>
using SecdedScheme = abft::schemes::ElemSecded<Index>;

template <class Index>
constexpr ElementMasks<typename SecdedScheme<Index>::Code> kElementMasks =
    make_element_masks<typename SecdedScheme<Index>::Code>();

// ---------------------------------------------------------------------------
// Scalar kernels: the same codeword math the schemes run per element, folded
// into one accumulated mismatch word per run.
// ---------------------------------------------------------------------------

template <class Index>
bool sed_clean_scalar(const double* values, const Index* cols, std::size_t n) noexcept {
  std::uint32_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bad |= parity64(double_to_bits(values[i]) ^ static_cast<std::uint64_t>(cols[i]));
  }
  return bad == 0;
}

template <class Index>
bool secded_clean_scalar(const double* values, const Index* cols,
                         std::size_t n) noexcept {
  using ES = SecdedScheme<Index>;
  std::uint32_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    typename ES::Code::data_t data{
        double_to_bits(values[i]),
        static_cast<std::uint64_t>(cols[i] & ES::kColMask)};
    bad |= ES::Code::encode(data) ^
           static_cast<std::uint32_t>(cols[i] >> ES::kColBits);
  }
  return bad == 0;
}

#if defined(ABFT_HAVE_AVX2_KERNELS)

// ---------------------------------------------------------------------------
// AVX2 kernels: four element codewords per iteration. Parity of each 64-bit
// lane is computed by a shift-XOR fold (six steps to bit 0) — there is no
// lane-wise POPCNT in AVX2, and the fold keeps all four codewords in flight.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i parity_fold(__m256i v) noexcept {
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 32));
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 16));
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 8));
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 4));
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 2));
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 1));
  return _mm256_and_si256(v, _mm256_set1_epi64x(1));
}

/// Load 4 column words into zero-extended 64-bit lanes.
__attribute__((target("avx2"))) inline __m256i load_cols(
    const std::uint32_t* cols) noexcept {
  return _mm256_cvtepu32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(cols)));
}

__attribute__((target("avx2"))) inline __m256i load_cols(
    const std::uint64_t* cols) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols));
}

template <class Index>
__attribute__((target("avx2"))) bool sed_clean_avx2(const double* values,
                                                    const Index* cols,
                                                    std::size_t n) noexcept {
  __m256i bad = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256i c = load_cols(cols + i);
    bad = _mm256_or_si256(bad, parity_fold(_mm256_xor_si256(v, c)));
  }
  if (!_mm256_testz_si256(bad, bad)) return false;
  return sed_clean_scalar(values + i, cols + i, n - i);
}

template <class Index>
__attribute__((target("avx2"))) bool secded_clean_avx2(const double* values,
                                                       const Index* cols,
                                                       std::size_t n) noexcept {
  using ES = SecdedScheme<Index>;
  using Code = typename ES::Code;
  constexpr auto& masks = kElementMasks<Index>;
  const __m256i col_mask =
      _mm256_set1_epi64x(static_cast<long long>(ES::kColMask));
  __m256i bad = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256i c = load_cols(cols + i);
    const __m256i cm = _mm256_and_si256(c, col_mask);
    const __m256i stored = _mm256_srli_epi64(c, ES::kColBits);
    __m256i check = _mm256_setzero_si256();
    for (unsigned j = 0; j < Code::kCheckBits; ++j) {
      const __m256i acc = _mm256_xor_si256(
          _mm256_and_si256(v, _mm256_set1_epi64x(static_cast<long long>(masks.m0[j]))),
          _mm256_and_si256(cm,
                           _mm256_set1_epi64x(static_cast<long long>(masks.m1[j]))));
      check = _mm256_or_si256(check,
                              _mm256_slli_epi64(parity_fold(acc), static_cast<int>(j)));
    }
    // Overall parity bit: parity of the check bits XOR parity of both data
    // words (HammingSecded::encode's extended-parity term).
    const __m256i overall = _mm256_xor_si256(
        parity_fold(check), _mm256_xor_si256(parity_fold(v), parity_fold(cm)));
    const __m256i red = _mm256_or_si256(
        check, _mm256_slli_epi64(overall, static_cast<int>(Code::kCheckBits)));
    bad = _mm256_or_si256(bad, _mm256_xor_si256(red, stored));
  }
  if (!_mm256_testz_si256(bad, bad)) return false;
  return secded_clean_scalar(values + i, cols + i, n - i);
}

bool detect_avx2() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 5)) != 0;  // AVX2 feature bit
}

#endif  // ABFT_HAVE_AVX2_KERNELS

std::atomic<SimdImpl> g_impl{SimdImpl::auto_detect};

bool use_vector() noexcept {
#if defined(ABFT_HAVE_AVX2_KERNELS)
  static const bool avx2_ok = detect_avx2();
  if (!avx2_ok) return false;
  return g_impl.load(std::memory_order_acquire) != SimdImpl::scalar;
#else
  return false;
#endif
}

}  // namespace

bool simd_avx2_available() noexcept {
#if defined(ABFT_HAVE_AVX2_KERNELS)
  static const bool avx2_ok = detect_avx2();
  return avx2_ok;
#else
  return false;
#endif
}

void set_simd_impl(SimdImpl impl) noexcept {
  g_impl.store(impl, std::memory_order_release);
}

SimdImpl current_simd_impl() noexcept {
  return g_impl.load(std::memory_order_acquire);
}

bool sed_elements_clean(const double* values, const std::uint32_t* cols,
                        std::size_t n) noexcept {
#if defined(ABFT_HAVE_AVX2_KERNELS)
  if (use_vector()) return sed_clean_avx2(values, cols, n);
#endif
  return sed_clean_scalar(values, cols, n);
}

bool sed_elements_clean(const double* values, const std::uint64_t* cols,
                        std::size_t n) noexcept {
#if defined(ABFT_HAVE_AVX2_KERNELS)
  if (use_vector()) return sed_clean_avx2(values, cols, n);
#endif
  return sed_clean_scalar(values, cols, n);
}

bool secded_elements_clean(const double* values, const std::uint32_t* cols,
                           std::size_t n) noexcept {
#if defined(ABFT_HAVE_AVX2_KERNELS)
  if (use_vector()) return secded_clean_avx2(values, cols, n);
#endif
  return secded_clean_scalar(values, cols, n);
}

bool secded_elements_clean(const double* values, const std::uint64_t* cols,
                           std::size_t n) noexcept {
#if defined(ABFT_HAVE_AVX2_KERNELS)
  if (use_vector()) return secded_clean_avx2(values, cols, n);
#endif
  return secded_clean_scalar(values, cols, n);
}

}  // namespace abft::ecc
