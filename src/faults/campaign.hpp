/// \file campaign.hpp
/// \brief Fault-injection campaigns: inject flips into protected solver
/// state, run the solve, and classify the outcome into the paper's taxonomy
/// (DCE / DUE / benign / SDC, §I).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "abft/dispatch.hpp"
#include "common/fault_log.hpp"
#include "ecc/scheme.hpp"
#include "sparse/csr.hpp"

namespace abft::faults {

/// Which structure the flips target. The csr_* targets are valid with
/// MatrixFormat::csr, the ell_* targets with MatrixFormat::ell, the sell_*
/// targets with MatrixFormat::sell; rhs_vector and any work with every
/// format (any draws uniformly over the format's matrix regions plus the
/// rhs, weighted by size).
enum class Target : std::uint8_t {
  csr_values,      ///< CSR non-zero values (v)
  csr_cols,        ///< CSR column indices (y)
  csr_row_ptr,     ///< CSR row pointers (x)
  rhs_vector,      ///< dense right-hand-side vector
  any,             ///< uniformly over the format's regions, weighted by size
  ell_values,      ///< ELL value slab (padding slots included)
  ell_cols,        ///< ELL column-index slab
  ell_row_width,   ///< ELL structure array (slab width + per-row widths)
  sell_values,     ///< SELL value slabs (padding slots included)
  sell_cols,       ///< SELL column-index slabs
  sell_structure,  ///< SELL slice-width / row-length / permutation array
};

[[nodiscard]] const char* to_string(Target t) noexcept;

/// Fault model for one trial.
enum class FaultModel : std::uint8_t {
  single_flip,  ///< one random bit
  multi_flip,   ///< k independent random bits
  burst,        ///< contiguous run of flipped bits
};

[[nodiscard]] const char* to_string(FaultModel m) noexcept;

/// Campaign configuration.
struct CampaignConfig {
  ecc::Scheme scheme = ecc::Scheme::secded64;  ///< uniform protection scheme
  IndexWidth width = IndexWidth::i32;          ///< index width under test
  MatrixFormat format = MatrixFormat::csr;     ///< storage format under test
  Target target = Target::any;
  FaultModel model = FaultModel::single_flip;
  unsigned flips_per_trial = 1;   ///< k for multi_flip / burst length for burst
  unsigned trials = 100;
  std::size_t nx = 64;            ///< grid for the test problem (5-point Laplacian)
  std::size_t ny = 64;
  double tolerance = 1e-10;
  unsigned max_iterations = 2000;
  std::uint64_t seed = 1234;
  /// Bombard an externally loaded operator (io/ ingestion path) instead of
  /// the built-in Laplacian; nx/ny are ignored when set. Non-owning — the
  /// matrix must outlive the campaign. The reference solution stays all-ones
  /// (rhs = A * 1), so any matrix works, but non-SPD operators classify
  /// undetected flips as not-converged rather than SDC.
  const sparse::CsrMatrix* matrix = nullptr;
};

/// Outcome counts over all trials.
struct CampaignResult {
  unsigned trials = 0;
  unsigned detected_corrected = 0;   ///< DCE: repaired in place, solve correct
  unsigned detected_uncorrectable = 0;  ///< DUE: flagged; recovery would run
  unsigned bounds_caught = 0;        ///< crash prevented by a range guard only
  unsigned benign = 0;               ///< undetected but the answer is still right
  unsigned sdc = 0;                  ///< undetected AND the answer is wrong
  unsigned not_converged = 0;        ///< undetected; solver failed to converge

  [[nodiscard]] unsigned detected() const noexcept {
    return detected_corrected + detected_uncorrectable + bounds_caught;
  }
};

/// Run the campaign: for each trial, build a fresh protected system
/// (5-point Laplacian, known solution of all-ones), inject per the fault
/// model, CG-solve with DuePolicy::record_only, and classify against the
/// fault-free reference.
[[nodiscard]] CampaignResult run_injection_campaign(const CampaignConfig& config);

/// Human-readable one-line summary.
void print_summary(std::ostream& os, const CampaignConfig& config,
                   const CampaignResult& result);

}  // namespace abft::faults
