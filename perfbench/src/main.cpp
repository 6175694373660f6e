/// \file main.cpp
/// \brief perfbench driver: one workload per process.
///
///   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
///                    [--tiny] [--out-dir DIR] [--source-id ID]
///
/// Prints a host and run fingerprint, the workload's own progress lines, and
/// as its last line the result object
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
/// with the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1; spans are then written to DIR/spans-<workload>-<seed>.jsonl).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "ecc/crc32c.hpp"
#include "ecc/simd.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

void print_footprint(std::size_t operator_bytes, std::size_t vector_bytes, std::size_t rows,
                     std::size_t nnz) {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf("footprint: %zu rows, %zu nnz; operator %.2f MiB, one protected vector %.2f "
              "MiB; L2 %.2f MiB per core, L3 %.2f MiB shared (sysconf)\n",
              rows, nnz, static_cast<double>(operator_bytes) / 1048576.0,
              static_cast<double>(vector_bytes) / 1048576.0, static_cast<double>(l2) / 1048576.0,
              static_cast<double>(l3) / 1048576.0);
  std::printf("footprint: no bandwidth claim - the working set is not 4x the last-level "
              "cache, so reads partly hit L3\n");
}

namespace {

/// Peak resident set of this process image in MB: VmHWM, which execve
/// resets. getrusage's ru_maxrss is not used because Linux carries the
/// launching process's peak across execve into it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

const char* crc_impl_name() {
  switch (abft::ecc::current_crc32c_impl()) {
    case abft::ecc::CrcImpl::hardware: return "hardware-sse4.2";
    case abft::ecc::CrcImpl::software: return "software-slicing-by-8";
    case abft::ecc::CrcImpl::auto_detect: return "auto";
  }
  return "?";
}

const char* simd_impl_name() {
  switch (abft::ecc::current_simd_impl()) {
    case abft::ecc::SimdImpl::vector: return "avx2";
    case abft::ecc::SimdImpl::scalar: return "scalar";
    case abft::ecc::SimdImpl::auto_detect: return "auto";
  }
  return "?";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload tealeaf-csr-secded|tealeaf-ell-crctile|service-sell-crc\n"
               "          --seed N --seconds S --trace 0|1 [--tiny] [--out-dir DIR]\n"
               "          [--source-id ID]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig rc;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      rc.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      rc.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      rc.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      rc.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--tiny") {
      rc.tiny = true;
    } else if (arg == "--out-dir" && has_value) {
      rc.out_dir = argv[++i];
    } else if (arg == "--source-id" && has_value) {
      source_id = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  void (*run)(const RunConfig&, Report&) = nullptr;
  if (rc.workload == "tealeaf-csr-secded") run = run_tealeaf_csr_secded;
  if (rc.workload == "tealeaf-ell-crctile") run = run_tealeaf_ell_crctile;
  if (rc.workload == "service-sell-crc") run = run_service_sell_crc;
  if (run == nullptr || !(rc.seconds > 0.0)) return usage(argv[0]);

  std::printf("host: nproc %ld, sse4.2 %s, avx2 %s, crc32c impl %s, simd impl %s\n",
              sysconf(_SC_NPROCESSORS_ONLN), abft::ecc::crc32c_hw_available() ? "yes" : "no",
              abft::ecc::simd_avx2_available() ? "yes" : "no", crc_impl_name(),
              simd_impl_name());
  std::printf("run: workload %s, seed %llu, seconds %g, trace %d, tiny %d, source %s\n",
              rc.workload.c_str(), static_cast<unsigned long long>(rc.seed), rc.seconds,
              rc.trace ? 1 : 0, rc.tiny ? 1 : 0, source_id.c_str());

  std::filesystem::create_directories(rc.out_dir);
  Report rep(rc.seed);
  SpanRecorder::global().set_enabled(rc.trace);
  try {
    Span root("perfbench.run");
    run(rc, rep);
  } catch (const std::exception& e) {
    rep.fail(std::string("exception: ") + e.what());
  }
  if (rc.trace) {
    const auto spans = SpanRecorder::global().spans();
    const std::string path =
        rc.out_dir + "/spans-" + rc.workload + "-" + std::to_string(rc.seed) + ".jsonl";
    SpanRecorder::write_jsonl(path, spans);
    std::printf("%zu spans written to %s\n", spans.size(), path.c_str());
    std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
    for (const auto& [name, t] : SpanRecorder::totals(spans)) {
      std::printf("%-28s %8llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
    }
  } else {
    rep.metric("rss_mb", peak_rss_mb(), "MB");
  }
  // A run that failed before its first operation still attempted one.
  const std::uint64_t floor = std::max<std::uint64_t>(rep.failed(), 1);
  if (rep.attempted() < floor) rep.attempt(floor - rep.attempted());
  std::printf("%s\n", rep.json().c_str());
  return 0;
}
