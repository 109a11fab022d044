#pragma once
// Matrix Market (coordinate, real) reader/writer so real SuiteSparse matrices
// can be plugged into every bench in place of the synthetic analogs.

#include <string>

#include "sparse/csc.hpp"

namespace lra {

/// Largest row or column count a Matrix Market header may declare (2^26):
/// the solvers keep dense per-row and per-column arrays, and at this size
/// each stays below 512 MiB.
inline constexpr long long kMaxMatrixMarketDim = 1LL << 26;

/// Read a MatrixMarket coordinate file (real/integer/pattern, general or
/// symmetric/skew-symmetric). Pattern entries get value 1.0. Malformed input
/// throws std::runtime_error naming the file (and the entry, for entry
/// errors): a bad size line, indices outside the declared shape, nz above
/// m * n, a value that is not a complete finite number (nan, inf and
/// overflowing literals are rejected), truncation, and dimensions above
/// kMaxMatrixMarketDim.
CscMatrix read_matrix_market(const std::string& path);

/// Write in "matrix coordinate real general" format.
void write_matrix_market(const CscMatrix& a, const std::string& path);

}  // namespace lra
