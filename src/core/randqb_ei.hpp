#pragma once
// Randomized QB factorization with efficient error indicator (RandQB_EI,
// Yu/Gu/Li 2018; Algorithm 1 of the paper). Fixed-precision: iterates
// k-column blocks until the exact Frobenius indicator (4) drops below
// tau * ||A||_F. The iteration lives in core/randqb_ei_dist.cpp.

#include <cstdint>

#include "core/termination.hpp"
#include "obs/telemetry.hpp"
#include "sparse/csc.hpp"

namespace lra {

struct RandQbOptions {
  Index block_size = 32;  // k
  double tau = 1e-3;
  int power = 1;          // p in the power scheme (0..3)
  Index max_rank = -1;    // -1: min(m, n)
  std::uint64_t seed = 0x5eed;
};

struct RandQbResult {
  Status status = Status::kMaxIterations;
  Index rank = 0;
  Index iterations = 0;
  double anorm_f = 0.0;
  double indicator = 0.0;  // E_rand at exit (absolute)

  Matrix q;  // m x K, orthonormal columns
  Matrix b;  // K x n

  /// ||Q^T Q - I||_inf at exit — the orthogonality-loss diagnostic the paper
  /// reports in Section VI-B.
  double orth_loss = 0.0;

  /// Per-iteration convergence telemetry (time_seconds is rank 0's
  /// cumulative virtual time: for randqb_ei(), CPU seconds of the calling
  /// thread plus the pool workers' slices).
  obs::TelemetrySeries telemetry;
};

/// Sequential RandQB_EI: the SPMD body of randqb_ei_dist() run as one rank
/// (its kernels use the thread pool), plus the orth_loss diagnostic.
/// @throws std::invalid_argument when opts.block_size < 1.
RandQbResult randqb_ei(const CscMatrix& a, const RandQbOptions& opts);

/// Exact ||A - Q B||_F (dense verification for tests/small problems).
double randqb_exact_error(const CscMatrix& a, const RandQbResult& r);

}  // namespace lra
