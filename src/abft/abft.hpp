/// \file abft.hpp
/// \brief Umbrella header for the ABFT layer — the paper's core contribution:
/// protecting a CSR sparse matrix and dense floating-point solver vectors
/// against bit flips with zero additional storage (paper §VI).
#pragma once

#include "abft/check_policy.hpp"        // IWYU pragma: export
#include "abft/dispatch.hpp"            // IWYU pragma: export
#include "abft/element_schemes.hpp"     // IWYU pragma: export
#include "abft/format_traits.hpp"       // IWYU pragma: export
#include "abft/error_capture.hpp"       // IWYU pragma: export
#include "abft/protected_csr.hpp"       // IWYU pragma: export
#include "abft/protected_sell.hpp"      // IWYU pragma: export
#include "abft/protected_kernels.hpp"   // IWYU pragma: export
#include "abft/protected_multivector.hpp"  // IWYU pragma: export
#include "abft/protected_vector.hpp"    // IWYU pragma: export
#include "abft/scheme_errors.hpp"       // IWYU pragma: export
#include "abft/structure_schemes.hpp"   // IWYU pragma: export
#include "abft/tile_check.hpp"          // IWYU pragma: export
#include "abft/vector_schemes.hpp"      // IWYU pragma: export
