/// \file ecc_playground.cpp
/// \brief Visual walkthrough of the codeword layouts from the paper's
/// Figures 1-3: where the redundancy bits live inside a CSR element, a
/// row-pointer group and a dense double, and what happens when bits flip.
#include <cstdio>
#include <cstdint>
#include <string>

#include "abft/element_schemes.hpp"
#include "abft/structure_schemes.hpp"
#include "abft/vector_schemes.hpp"
#include "common/bits.hpp"
#include "ecc/ecc.hpp"

namespace {

using namespace abft;

std::string binary32(std::uint32_t x, unsigned data_bits) {
  std::string s;
  for (int b = 31; b >= 0; --b) {
    s += ((x >> b) & 1u) ? '1' : '0';
    if (b == static_cast<int>(data_bits)) s += '|';  // redundancy/data split
    else if (b % 8 == 0 && b != 0) s += ' ';
  }
  return s;
}

void show_element_schemes() {
  std::printf("--- Fig. 1: CSR element (64-bit value + 32-bit column index) ---\n");
  double v = 3.141592653589793;
  std::uint32_t c = 0x00BEEF;

  {
    double ev = v;
    std::uint32_t ec = c;
    ElemSed::encode(ev, ec);
    std::printf("SED     column = %s  (1 parity bit | 31 index bits)\n",
                binary32(ec, 31).c_str());
  }
  {
    double ev = v;
    std::uint32_t ec = c;
    ElemSecded::encode(ev, ec);
    std::printf("SECDED  column = %s  (8 check bits | 24 index bits)\n",
                binary32(ec, 24).c_str());

    std::printf("  flip value bit 37...\n");
    ev = bits_to_double(flip_bit(double_to_bits(ev), 37));
    double vd;
    std::uint32_t cd;
    const auto outcome = ElemSecded::decode(ev, ec, vd, cd);
    std::printf("  decode: %s, value restored to %.15f\n",
                outcome == CheckOutcome::corrected ? "CORRECTED" : "?", vd);
  }
  {
    // Per-row CRC: 5-element row, checksum split over 4 top bytes.
    double values[5] = {4.0, -1.0, -1.0, -1.0, -1.0};
    std::uint32_t cols[5] = {10, 9, 11, 5, 15};
    ElemCrc32c::encode_row(values, cols, 5);
    std::printf("CRC32C  row columns:\n");
    for (int e = 0; e < 5; ++e) {
      std::printf("  elem %d: %s  (crc byte %d | 24 index bits)\n", e,
                  binary32(cols[e], 24).c_str(), e < 4 ? e : -1);
    }
  }
}

void show_row_schemes() {
  std::printf("\n--- Fig. 2: row-pointer vector (values bounded by NNZ) ---\n");
  {
    std::uint32_t vals[1] = {123456};
    std::uint32_t storage[1];
    RowSed::encode_group(vals, storage);
    std::printf("SED       %s  (1 parity | 31 value bits)\n",
                binary32(storage[0], 31).c_str());
  }
  {
    std::uint32_t vals[2] = {123456, 123461};
    std::uint32_t storage[2];
    RowSecded64::encode_group(vals, storage);
    std::printf("SECDED64 over 2 entries (4 redundancy bits in each top nibble):\n");
    for (int e = 0; e < 2; ++e) {
      std::printf("  entry %d: %s\n", e, binary32(storage[e], 28).c_str());
    }
    storage[1] ^= (1u << 13);
    std::uint32_t decoded[2];
    const auto outcome = RowSecded64::decode_group(storage, decoded);
    std::printf("  flip entry 1 bit 13 -> decode: %s (%u, %u)\n",
                outcome == CheckOutcome::corrected ? "CORRECTED" : "?", decoded[0],
                decoded[1]);
  }
}

void show_vector_schemes() {
  std::printf("\n--- Fig. 3: dense double (redundancy in mantissa LSBs) ---\n");
  const double x = 1.0 / 3.0;
  {
    double storage[1];
    double vals[1] = {x};
    VecSed::encode_group(vals, storage);
    std::printf("SED       bits = %016llx  (parity in mantissa bit 0)\n",
                static_cast<unsigned long long>(double_to_bits(storage[0])));
    std::printf("          masked read = %.17f (vs %.17f)\n", VecSed::mask(storage[0]), x);
  }
  {
    double storage[1];
    double vals[1] = {x};
    VecSecded64::encode_group(vals, storage);
    std::printf("SECDED64  bits = %016llx  (7 check bits in the low byte)\n",
                static_cast<unsigned long long>(double_to_bits(storage[0])));
    storage[0] = bits_to_double(flip_bit(double_to_bits(storage[0]), 51));
    double decoded[1];
    const auto outcome = VecSecded64::decode_group(storage, decoded);
    std::printf("          flip mantissa bit 51 -> %s, value %.17f\n",
                outcome == CheckOutcome::corrected ? "CORRECTED" : "?", decoded[0]);
  }
  {
    double storage[4];
    double vals[4] = {x, 2 * x, 3 * x, 4 * x};
    VecCrc32c::encode_group(vals, storage);
    std::printf("CRC32C over 4 doubles, one checksum byte each:");
    for (int e = 0; e < 4; ++e) {
      std::printf(" %02llx", static_cast<unsigned long long>(double_to_bits(storage[e]) & 0xFF));
    }
    std::printf("\n");
  }
  std::printf("\nmasking noise: SED loses 1 mantissa bit (rel. 2^-52), SECDED64 8\n"
              "bits (rel. 2^-44); the paper bounds the solver impact at <1%% extra\n"
              "iterations and ~2e-11%% norm deviation (SVI-B).\n");
}

void show_crc_facts() {
  std::printf("\n--- CRC32C capability (paper SIV) ---\n");
  std::printf("hardware crc32 instruction available: %s\n",
              ecc::crc32c_hw_available() ? "yes (SSE4.2)" : "no");
  const char* msg = "123456789";
  std::printf("crc32c(\"123456789\") = %08x (expect e3069283)\n",
              ecc::crc32c(msg, 9));
}

}  // namespace

int main() {
  std::printf("== abftsolve ECC playground: codeword layouts (paper Figs. 1-3) ==\n\n");
  show_element_schemes();
  show_row_schemes();
  show_vector_schemes();
  show_crc_facts();
  return 0;
}
