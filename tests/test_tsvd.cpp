#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/termination.hpp"
#include "dense/jacobi_svd.hpp"
#include "dense/svd.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "sparse/csc.hpp"
#include "sparse/ops.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

// Truncated SVD baseline (the Eckart-Young optimum the paper compares
// against for the "minimum rank required" curves in Figs. 2-3). Densifies,
// so it is practical only for small matrices.

/// Rank-k truncated SVD factors (via one-sided Jacobi on the densified
/// matrix): returns U_k, sigma_k, V_k.
SvdResult tsvd(const CscMatrix& a, Index k) {
  SvdResult full = jacobi_svd(a.to_dense());
  const Index kk = std::min<Index>(k, static_cast<Index>(full.sigma.size()));
  SvdResult out;
  out.u = full.u.block(0, 0, full.u.rows(), kk);
  out.v = full.v.block(0, 0, full.v.rows(), kk);
  out.sigma.assign(full.sigma.begin(), full.sigma.begin() + kk);
  return out;
}

/// ||A - U_k diag(s_k) V_k^T||_F for a truncation of the given SVD.
double tsvd_error(const CscMatrix& a, const SvdResult& svd, Index k) {
  const Index kk = std::min<Index>(k, static_cast<Index>(svd.sigma.size()));
  Matrix h = svd.u.block(0, 0, svd.u.rows(), kk);
  for (Index j = 0; j < kk; ++j) {
    double* c = h.col(j);
    for (Index i = 0; i < h.rows(); ++i) c[i] *= svd.sigma[j];
  }
  const Matrix w = svd.v.block(0, 0, svd.v.rows(), kk).transposed();
  return residual_fro(a, h, w);
}

TEST(Tsvd, SparseSingularValuesMatchPrescribedSpectrum) {
  const auto sigma = geometric_spectrum(80, 3.0, 0.9);
  const CscMatrix a = givens_spray(
      sigma, {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 41});
  const auto sv = singular_values(a.to_dense());
  ASSERT_EQ(sv.size(), sigma.size());
  for (std::size_t i = 0; i < sv.size(); ++i)
    EXPECT_NEAR(sv[i], sigma[i], 1e-9 * sigma[0]);
}

TEST(Tsvd, MinRankMatchesSpectrumFormula) {
  const auto sigma = geometric_spectrum(100, 1.0, 0.85);
  const CscMatrix a = givens_spray(
      sigma, {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 42});
  EXPECT_EQ(min_rank_for_tolerance(singular_values(a.to_dense()), 1e-2),
            min_rank_for_tolerance(sigma, 1e-2));
}

TEST(Tsvd, TruncationErrorEqualsTailNorm) {
  // Eckart-Young: ||A - A_k||_F = sqrt(sum_{i>k} sigma_i^2).
  const auto sigma = geometric_spectrum(40, 2.0, 0.8);
  const CscMatrix a = givens_spray(
      sigma, {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 43});
  const SvdResult svd = tsvd(a, 40);
  for (Index k : {5, 10, 20}) {
    double tail = 0.0;
    for (std::size_t i = k; i < sigma.size(); ++i) tail += sigma[i] * sigma[i];
    EXPECT_NEAR(tsvd_error(a, svd, k), std::sqrt(tail), 1e-7 * sigma[0]);
  }
}

TEST(Tsvd, FactorsAreOrthonormal) {
  const CscMatrix a = CscMatrix::from_dense(testing::random_matrix(20, 12, 44));
  const SvdResult svd = tsvd(a, 5);
  EXPECT_EQ(svd.u.cols(), 5);
  EXPECT_EQ(svd.v.cols(), 5);
  EXPECT_LT(testing::orthogonality_defect(svd.u), 1e-10);
  EXPECT_LT(testing::orthogonality_defect(svd.v), 1e-10);
}

TEST(Tsvd, TsvdIsOptimalAmongTestedFactorizations) {
  // Any rank-k factorization (e.g. from QR on the leading columns) cannot
  // beat the TSVD error.
  const CscMatrix a = CscMatrix::from_dense(testing::random_matrix(25, 25, 45));
  const SvdResult svd = tsvd(a, 25);
  const double e_tsvd = tsvd_error(a, svd, 6);
  // Crude competitor: first 6 columns exactly, rest zero.
  double competitor_sq = 0.0;
  for (Index j = 6; j < 25; ++j)
    for (double v : a.col_values(j)) competitor_sq += v * v;
  EXPECT_LE(e_tsvd, std::sqrt(competitor_sq) + 1e-12);
}

}  // namespace
}  // namespace lra
