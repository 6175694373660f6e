/// \file workloads.hpp
/// \brief The benchmark's workloads and the report helpers they share.
#pragma once

#include <cstddef>

#include "common.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

struct ServeStats;

void run_tealeaf_csr_secded(const RunConfig& rc, Report& rep);
void run_tealeaf_ell_crctile(const RunConfig& rc, Report& rep);
void run_service_sell_crc(const RunConfig& rc, Report& rep);

/// Print operator and vector bytes next to the cache sizes.
void print_footprint(std::size_t operator_bytes, std::size_t vector_bytes, std::size_t rows,
                     std::size_t nnz);

/// The service.* per-layer metrics of one serve() call, plus the program's
/// own obs registry scraped across it (worker busy/wait ns, batch sizes).
void report_service_layer(const ServeStats& st, const abft::obs::Snapshot& before,
                          const abft::obs::Snapshot& after, Report& rep);

}  // namespace perfbench
