#pragma once
// Fixed-precision truncated LU with column/row tournament pivoting
// (LU_CRTP, Algorithm 2 of the paper) and its incomplete thresholded
// variant (ILUT_CRTP, Algorithm 3). Both are driven by the same SPMD body
// (core/lu_crtp_dist.cpp); ILUT_CRTP adds the dropping step and perturbation
// accounting.

#include <vector>

#include "core/termination.hpp"
#include "obs/telemetry.hpp"
#include "sparse/csc.hpp"
#include "sparse/permute.hpp"

namespace lra {

/// Fill-reducing column preordering: none, COLAMD once before the first
/// iteration, or COLAMD of every Schur complement (one rank only).
enum class ColamdMode { kOff, kFirst, kEvery };
enum class ThresholdMode { kNone, kIlut, kAggressive };

struct LuCrtpOptions {
  Index block_size = 32;        // k
  double tau = 1e-3;            // fixed-precision tolerance
  Index max_rank = -1;          // stop once K reaches this (-1: min(m, n))
  ColamdMode colamd = ColamdMode::kFirst;
  ThresholdMode threshold = ThresholdMode::kNone;
  /// Estimated iteration count u in the mu heuristic (24); <= 0 means
  /// "derive from max_rank / k" as a coarse default.
  Index estimated_iterations = 0;
  /// Threshold control phi (22); <= 0 selects phi = tau * |R^(1)(1,1)| as in
  /// the paper's experiments.
  double phi = 0.0;
};

struct LuCrtpResult {
  Status status = Status::kMaxIterations;
  Index rank = 0;        // K
  Index iterations = 0;  // i
  double anorm_f = 0.0;
  double indicator = 0.0;      // E_det = ||A^(i+1)||_F at exit
  double r11_first = 0.0;      // |R^(1)(1,1)|, the ||A||_2 proxy (23)

  CscMatrix l;    // m x K, unit diagonal block on top
  CscMatrix u;    // K x n
  Perm row_perm;  // P_r: row_perm[new] = old, so (P_r A P_c)(i,j) =
  Perm col_perm;  // A(row_perm[i], col_perm[j]) ~= (L U)(i, j)

  // Fill-in diagnostics (Fig. 1): density of A^(i) after each iteration.
  std::vector<double> fill_density;
  std::vector<Index> schur_nnz;
  /// Cumulative nnz(L) + nnz(U) after each iteration (Table II nnz ratios).
  std::vector<Index> factor_nnz;

  // ILUT bookkeeping.
  double mu = 0.0;                    // threshold actually used
  double t_norm_sq = 0.0;             // sum of ||T~^(j)||_F^2 (22)
  Index dropped_entries = 0;
  bool threshold_control_hit = false;  // line 10 of Algorithm 3 fired

  /// Per-iteration convergence telemetry incl. the Schur-complement fill
  /// diagnostics (rank 0's virtual clock).
  obs::TelemetrySeries telemetry;
};

/// Run LU_CRTP (or ILUT_CRTP when opts.threshold != kNone) on `a`: the SPMD
/// body of lu_crtp_dist() run as one rank (its kernels use the thread pool).
/// @throws std::invalid_argument when opts.block_size < 1.
LuCrtpResult lu_crtp(const CscMatrix& a, const LuCrtpOptions& opts);

/// Exact approximation error ||P_r A P_c - L U||_F (dense verification;
/// intended for tests and small matrices).
double lu_crtp_exact_error(const CscMatrix& a, const LuCrtpResult& r);

}  // namespace lra
