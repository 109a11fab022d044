#pragma once
// BLAS-like dense kernels on column-major Matrix. Hand-written (no external
// BLAS in this environment). support/kernel_variant.hpp picks the GEMM at
// runtime:
//
//   * naive       — the seed kernels: cache-blocked j-k-i rank-1 updates
//                   whose inner loop is a contiguous axpy.
//   * simd        — packed, register-tiled vector kernels with autotuned
//                   geometry and hardware FMA where the ISA has it.
//   * simd-strict — the same kernels on the two-rounding mul+add chain
//                   (nn/nt), and whole-k scalar dots for A^T*B.
//
// Every variant tiles only over output rows/columns and never splits a k
// reduction, so results are bitwise identical at any thread count, and
// simd-strict is bitwise identical to naive for inputs free of exact zeros
// and non-finite values (see ARCHITECTURE.md, "The kernel layer").

#include "dense/matrix.hpp"

namespace lra {

enum class Trans { kNo, kYes };

/// C = alpha * op(A) * op(B) + beta * C. Shapes must conform; C must already
/// have the result shape.
void gemm(Matrix& c, const Matrix& a, const Matrix& b, double alpha = 1.0,
          double beta = 0.0, Trans ta = Trans::kNo, Trans tb = Trans::kNo);

/// Convenience wrappers returning a fresh matrix.
Matrix matmul(const Matrix& a, const Matrix& b);      // A * B
Matrix matmul_tn(const Matrix& a, const Matrix& b);   // A^T * B
Matrix matmul_nt(const Matrix& a, const Matrix& b);   // A * B^T

/// In-place product wrappers: reshape `c` to the result shape (reusing its
/// allocation when it is already large enough) and overwrite it with the
/// product. The solver hot loops call these with loop-carried buffers so
/// steady-state iterations do not touch the heap.
void matmul_into(Matrix& c, const Matrix& a, const Matrix& b);     // C = A*B
void matmul_tn_into(Matrix& c, const Matrix& a, const Matrix& b);  // C = A^T*B
void matmul_nt_into(Matrix& c, const Matrix& a, const Matrix& b);  // C = A*B^T

/// y = alpha * op(A) * x + beta * y (x, y are n x 1 / m x 1 matrices stored
/// as raw vectors).
void gemv(double* y, const Matrix& a, const double* x, double alpha = 1.0,
          double beta = 0.0, Trans ta = Trans::kNo);

/// axpy on raw ranges: y += alpha * x.
void axpy(Index n, double alpha, const double* x, double* y) noexcept;

/// Euclidean norm / dot product of raw ranges.
double nrm2(Index n, const double* x) noexcept;
double dot(Index n, const double* x, const double* y) noexcept;

/// Householder reflector for x (length n), LAPACK dlarfg style: overwrites
/// x(1:) with v(1:) and returns beta such that
/// (I - tau v v^T) x = (beta, 0, ..., 0)^T, where v(0) = 1 is implied.
/// tau = 0 (the identity) when n <= 1 or x(1:) = 0.
double make_reflector(Index n, double* x, double& tau);

/// C := (I - tau v v^T) C for the len x ncols block C with column stride
/// ld >= len (LAPACK dlarf); v(0) = 1 is implied and v[0] is never read. A
/// no-op when tau == 0. Every Householder factorization in dense/ (QR, its
/// Q accumulation and application, QRCP, bidiagonalization) goes through
/// this one kernel. Bit contract: each column's result equals the scalar
///   s = c[0]; for i = 1 .. len-1: s += v[i] * c[i];
///   s *= tau; c[0] -= s; for i = 1 .. len-1: c[i] -= s * v[i];
/// with no contraction, on every input and in every build. Columns are
/// interleaved so their dot chains overlap (each still sums in ascending
/// i), and the element-wise rank-1 update is vectorized over rows.
void apply_reflector(Index len, const double* v, double tau, double* c,
                     Index ld, Index ncols);

}  // namespace lra
