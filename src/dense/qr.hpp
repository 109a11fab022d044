#pragma once
// Householder QR factorization (unpivoted) of a dense matrix, plus the
// orthonormalization helper `orth` used throughout RandQB_EI.

#include "dense/matrix.hpp"

namespace lra {

/// In-place Householder QR: A = Q R with Q stored as reflectors.
class HouseholderQR {
 public:
  explicit HouseholderQR(Matrix a);

  Index rows() const { return qr_.rows(); }
  Index cols() const { return qr_.cols(); }

  /// Thin orthonormal factor Q (m x min(m,n)).
  Matrix thin_q() const;
  /// Upper-triangular/trapezoidal factor R (min(m,n) x n).
  Matrix r() const;

  /// b := Q^T b (applies all reflectors; b has m rows).
  void apply_qt(Matrix& b) const;
  /// b := Q b.
  void apply_q(Matrix& b) const;

  /// Least-squares solve min ||A x - b||_2 (requires m >= n, full rank).
  Matrix solve(const Matrix& b) const;

  const Matrix& packed() const { return qr_; }

 private:
  Matrix qr_;                 // reflectors below diagonal, R on/above
  std::vector<double> tau_;   // reflector scaling factors
};

/// Orthonormal basis of range(A) via Householder QR: returns thin Q with
/// exactly min(m, n) columns (matches `orth` in Algorithm 1 of the paper;
/// rank deficiency yields an orthonormal completion, which is harmless for
/// the QB iteration because the corresponding B rows carry no weight).
Matrix orth(const Matrix& a);

/// Row-block height orth() factors a rows x cols panel with through the
/// pool-parallel tsqr(), or 0 when it takes the one-shot Householder path.
Index orth_tsqr_block_rows(Index rows, Index cols);

}  // namespace lra
