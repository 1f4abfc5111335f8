// Batch Gaussian elimination over GF(2) on word-packed rows.
// The incremental decoder (decoder.hpp) is what every coder uses online;
// these helpers are reference oracles for tests and the GF kernel bench.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/bitvec.hpp"

namespace ncdn {

/// Rank of the row space (rows consumed by value).
std::size_t gf2_rank(std::vector<bitvec> rows);

/// In-place reduced row echelon form; zero rows are dropped.
/// Returns pivot column of each remaining row, in increasing order.
/// When `xor_words` is non-null it is incremented by the 64-bit XOR
/// word-operations the elimination performed (the same count
/// bit_decoder::insert charges for the same rows in the same order).
std::vector<std::size_t> gf2_rref(std::vector<bitvec>& rows,
                                  std::uint64_t* xor_words = nullptr);

/// True iff `v` lies in the span of `basis` (basis need not be reduced).
bool gf2_in_span(const std::vector<bitvec>& basis, const bitvec& v);

}  // namespace ncdn
