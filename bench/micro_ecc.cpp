/// \file micro_ecc.cpp
/// \brief Micro-benchmarks of the ECC codecs, including the software vs
/// hardware CRC32C comparison the paper highlights (§IV, §VII: "hardware
/// accelerated CRC32C calculations were an improvement over software-only
/// solutions").
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "abft/element_schemes.hpp"
#include "abft/vector_schemes.hpp"
#include "common/rng.hpp"
#include "ecc/ecc.hpp"

namespace {

using namespace abft;
using namespace abft::ecc;

void BM_Parity64(benchmark::State& state) {
  Xoshiro256 rng(1);
  std::vector<std::uint64_t> data(4096);
  for (auto& w : data) w = rng();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(parity64(data[i++ & 4095]));
  }
}
BENCHMARK(BM_Parity64);

template <class Code>
void BM_SecdedEncode(benchmark::State& state) {
  Xoshiro256 rng(2);
  typename Code::data_t data{};
  for (auto& w : data) w = rng();
  if constexpr (Code::kDataBits % 64 != 0) {
    data[Code::kWords - 1] &= low_mask64(Code::kDataBits % 64);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Code::encode(data));
    data[0] ^= 1;  // defeat value caching
  }
}
BENCHMARK(BM_SecdedEncode<Secded64>)->Name("BM_SecdedEncode/64");
BENCHMARK(BM_SecdedEncode<Secded128>)->Name("BM_SecdedEncode/128");
BENCHMARK(BM_SecdedEncode<Secded96>)->Name("BM_SecdedEncode/96");

template <class Code>
void BM_SecdedCheckClean(benchmark::State& state) {
  Xoshiro256 rng(3);
  typename Code::data_t data{};
  for (auto& w : data) w = rng();
  if constexpr (Code::kDataBits % 64 != 0) {
    data[Code::kWords - 1] &= low_mask64(Code::kDataBits % 64);
  }
  const auto red = Code::encode(data);
  for (auto _ : state) {
    auto copy = data;
    benchmark::DoNotOptimize(Code::check_and_correct(copy, red));
  }
}
BENCHMARK(BM_SecdedCheckClean<Secded64>)->Name("BM_SecdedCheckClean/64");
BENCHMARK(BM_SecdedCheckClean<Secded128>)->Name("BM_SecdedCheckClean/128");
BENCHMARK(BM_SecdedCheckClean<Secded96>)->Name("BM_SecdedCheckClean/96");

void BM_Crc32cSoftware(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(4);
  std::vector<std::uint8_t> buf(len);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c_sw(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * len));
}
BENCHMARK(BM_Crc32cSoftware)->Arg(12)->Arg(60)->Arg(256)->Arg(4096)->Arg(65536);

void BM_Crc32cHardware(benchmark::State& state) {
  if (!crc32c_hw_available()) {
    state.SkipWithError("SSE4.2 unavailable");
    return;
  }
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(5);
  std::vector<std::uint8_t> buf(len);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c_hw(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * len));
}
BENCHMARK(BM_Crc32cHardware)->Arg(12)->Arg(60)->Arg(256)->Arg(4096)->Arg(65536);

void BM_Crc32cCorrectSingleBit(benchmark::State& state) {
  // Cold recovery path: syndrome-sweep correction. 60 bytes is one CSR row
  // codeword (5 elements, TeaLeaf's stencil width); 768 bytes is one
  // 64-slot slab tile at 32-bit indices, the crc32c-tile codeword.
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(6);
  std::vector<std::uint8_t> buf(len);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  const auto stored = crc32c(buf.data(), buf.size());
  for (auto _ : state) {
    state.PauseTiming();
    auto corrupted = buf;
    corrupted[len / 3] ^= 0x10;
    state.ResumeTiming();
    benchmark::DoNotOptimize(crc32c_correct_single_bit(corrupted, stored));
  }
}
BENCHMARK(BM_Crc32cCorrectSingleBit)->Arg(60)->Arg(768);

/// VecCrc32c's dense-vector codec over one 64-group block of clean groups,
/// in ns per group: `group` decodes group by group (one dispatched CRC32C
/// call each), `run` checks the block with one decode_run call. Both at the
/// software and at the hardware CRC32C kernel.
void vec_crc_decode_bench(benchmark::State& state, bool run, CrcImpl impl) {
  if (impl == CrcImpl::hardware && !crc32c_hw_available()) {
    state.SkipWithError("SSE4.2 unavailable");
    return;
  }
  constexpr std::size_t kGroups = kVecRunGroups;
  constexpr std::size_t G = VecCrc32c::kGroup;
  Xoshiro256 rng(8);
  std::vector<double> logical(kGroups * G), storage(kGroups * G), out(kGroups * G);
  for (auto& v : logical) v = rng.uniform(-1, 1);
  const CrcImpl prev = current_crc32c_impl();
  set_crc32c_impl(impl);
  VecCrc32c::encode_run(logical.data(), storage.data(), kGroups);
  for (auto _ : state) {
    if (run) {
      benchmark::DoNotOptimize(VecCrc32c::decode_run(storage.data(), out.data(), kGroups));
    } else {
      for (std::size_t g = 0; g < kGroups; ++g) {
        benchmark::DoNotOptimize(
            VecCrc32c::decode_group(storage.data() + g * G, out.data() + g * G));
      }
    }
    benchmark::ClobberMemory();
  }
  set_crc32c_impl(prev);
  state.counters["ns_per_group"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kGroups) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK_CAPTURE(vec_crc_decode_bench, group_sw, false, CrcImpl::software)
    ->Name("BM_VecCrc32cDecode/group/sw");
BENCHMARK_CAPTURE(vec_crc_decode_bench, run_sw, true, CrcImpl::software)
    ->Name("BM_VecCrc32cDecode/run/sw");
BENCHMARK_CAPTURE(vec_crc_decode_bench, group_hw, false, CrcImpl::hardware)
    ->Name("BM_VecCrc32cDecode/group/hw");
BENCHMARK_CAPTURE(vec_crc_decode_bench, run_hw, true, CrcImpl::hardware)
    ->Name("BM_VecCrc32cDecode/run/hw");

/// ElemCrc32c's row codewords over one C = 16 slab block of clean rows, each
/// `width` slots wide, in ns per slot at the process's auto-detected CRC32C
/// kernel: `per_row` decodes the rows one decode_row call each (the one-row
/// form), `run` checks the block with one check_rows call (the SELL cursor's
/// and verify_all's form).
void row_crc_check_bench(benchmark::State& state, bool run) {
  using ES = schemes::ElemCrc32c<std::uint32_t>;
  constexpr std::size_t kC = 16;
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(9);
  std::vector<double> values(kC * width);
  std::vector<std::uint32_t> cols(kC * width);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = rng.uniform(-1, 1);
    cols[i] = static_cast<std::uint32_t>(rng()) & ES::kColMask;
  }
  ES::encode_rows(values.data(), cols.data(), kC, width, kC);
  for (auto _ : state) {
    if (run) {
      benchmark::DoNotOptimize(ES::check_rows(values.data(), cols.data(), kC, width, kC));
    } else {
      for (std::size_t k = 0; k < kC; ++k) {
        benchmark::DoNotOptimize(ES::decode_row(values.data() + k, cols.data() + k, width, kC));
      }
    }
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_slot"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kC * width) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK_CAPTURE(row_crc_check_bench, per_row, false)
    ->Name("BM_RowCrcCheck/per_row")
    ->Arg(8)
    ->Arg(64)
    ->Arg(256);
BENCHMARK_CAPTURE(row_crc_check_bench, run, true)
    ->Name("BM_RowCrcCheck/run")
    ->Arg(8)
    ->Arg(64)
    ->Arg(256);

/// Batch clean-codeword predicates (the slab SpMV fast path) at a forced
/// implementation: `scalar` is the plain loop, `vector` the AVX2 kernel
/// (skipped with a notice when the CPU lacks AVX2). Both return the same
/// predicate bit-for-bit; the interesting number is bytes/second over the
/// value + column arrays.
template <class ES>
void batch_clean_bench(benchmark::State& state, SimdImpl impl) {
  using Index = typename ES::index_type;
  if (impl == SimdImpl::vector && !simd_avx2_available()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(7);
  std::vector<double> vals(n);
  std::vector<Index> cols(n);
  for (std::size_t i = 0; i < n; ++i) {
    vals[i] = static_cast<double>(rng() >> 11) * 0x1p-53;
    cols[i] = static_cast<Index>(rng()) & ES::kColMask;
    ES::encode(vals[i], cols[i]);
  }
  const SimdImpl prev = current_simd_impl();
  set_simd_impl(impl);
  for (auto _ : state) {
    bool clean;
    if constexpr (ES::kScheme == Scheme::sed) {
      clean = sed_elements_clean(vals.data(), cols.data(), n);
    } else {
      clean = secded_elements_clean(vals.data(), cols.data(), n);
    }
    benchmark::DoNotOptimize(clean);
  }
  set_simd_impl(prev);
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * n * (sizeof(double) + sizeof(Index))));
}

void BM_SedBatchCleanScalar(benchmark::State& state) {
  batch_clean_bench<schemes::ElemSed<std::uint32_t>>(state, SimdImpl::scalar);
}
void BM_SedBatchCleanVector(benchmark::State& state) {
  batch_clean_bench<schemes::ElemSed<std::uint32_t>>(state, SimdImpl::vector);
}
void BM_SecdedBatchCleanScalar(benchmark::State& state) {
  batch_clean_bench<schemes::ElemSecded<std::uint32_t>>(state, SimdImpl::scalar);
}
void BM_SecdedBatchCleanVector(benchmark::State& state) {
  batch_clean_bench<schemes::ElemSecded<std::uint32_t>>(state, SimdImpl::vector);
}
void BM_SecdedBatchCleanScalar64(benchmark::State& state) {
  batch_clean_bench<schemes::ElemSecded<std::uint64_t>>(state, SimdImpl::scalar);
}
void BM_SecdedBatchCleanVector64(benchmark::State& state) {
  batch_clean_bench<schemes::ElemSecded<std::uint64_t>>(state, SimdImpl::vector);
}
BENCHMARK(BM_SedBatchCleanScalar)->Arg(64)->Arg(4096);
BENCHMARK(BM_SedBatchCleanVector)->Arg(64)->Arg(4096);
BENCHMARK(BM_SecdedBatchCleanScalar)->Arg(64)->Arg(4096);
BENCHMARK(BM_SecdedBatchCleanVector)->Arg(64)->Arg(4096);
BENCHMARK(BM_SecdedBatchCleanScalar64)->Arg(64)->Arg(4096);
BENCHMARK(BM_SecdedBatchCleanVector64)->Arg(64)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
