#pragma once
// Sparse x sparse products and sums (Gustavson's algorithm, column-wise for
// CSC), and the fused Schur-complement update of LU_CRTP.

#include "sparse/csc.hpp"

namespace lra {

/// C = A * B (both sparse).
CscMatrix spgemm(const CscMatrix& a, const CscMatrix& b);

/// C = alpha * A + beta * B (shapes must match).
CscMatrix spadd(const CscMatrix& a, const CscMatrix& b, double alpha = 1.0,
                double beta = 1.0);

/// C = A - L * U where L (m x k) and U (k x n) are sparse — the fused
/// Schur-complement kernel of LU_CRTP, with entries that cancel to exactly
/// zero dropped. Each entry is the chain a + l1 * (-u1) + l2 * (-u2) + ...
/// over the stored U(k, j) in ascending k, two roundings per term. A column
/// whose scatter work w = nnz(A(:, j)) + sum of nnz(L(:, k)) over its stored
/// U(k, j) reaches m / 8 is accumulated densely (SIMD axpys over a dense
/// copy of L, gathered in row order); the others go through a sparse
/// accumulator. For finite values the result is bitwise that of a sparse
/// accumulator followed by prune(0.0), at any thread count (ARCHITECTURE.md,
/// "The Schur kernel").
CscMatrix schur_update(const CscMatrix& a, const CscMatrix& l,
                       const CscMatrix& u);

}  // namespace lra
