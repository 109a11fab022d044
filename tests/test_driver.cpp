#include "core/driver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "sparse/ops.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

CscMatrix test_matrix(Index n = 150, std::uint64_t seed = 3) {
  return givens_spray(geometric_spectrum(n, 5.0, 0.9),
                      {.left_passes = 2, .right_passes = 2, .bandwidth = 0,
                       .seed = seed});
}

class AllMethods : public ::testing::TestWithParam<Method> {};

TEST_P(AllMethods, ConvergesAndReconstructs) {
  const CscMatrix a = test_matrix();
  ApproxOptions o;
  o.method = GetParam();
  o.tau = 1e-2;
  o.block_size = 10;
  const LowRankApprox r = approximate(a, o);
  EXPECT_EQ(r.method(), GetParam());
  EXPECT_EQ(r.status(), Status::kConverged);
  const double err = residual_fro(a, r.h_dense(), r.w_dense());
  EXPECT_LT(err, 1.05 * o.tau * a.frobenius_norm());
}

TEST_P(AllMethods, ApplyMatchesDenseFactors) {
  const CscMatrix a = test_matrix(80);
  ApproxOptions o;
  o.method = GetParam();
  o.tau = 1e-2;
  o.block_size = 8;
  const LowRankApprox r = approximate(a, o);

  const Matrix x = testing::random_matrix(80, 1, 21);
  std::vector<double> y(80, 0.0);
  r.apply(x.col(0), y.data());
  // Reference: H (W x).
  const Matrix hw_x = matmul(r.h_dense(), matmul(r.w_dense(), x));
  for (Index i = 0; i < 80; ++i) EXPECT_NEAR(y[i], hw_x(i, 0), 1e-10);

  std::vector<double> yt(80, 0.0);
  r.apply_transpose(x.col(0), yt.data());
  const Matrix wt_ht_x =
      matmul(r.w_dense().transposed(), matmul(r.h_dense().transposed(), x));
  for (Index i = 0; i < 80; ++i) EXPECT_NEAR(yt[i], wt_ht_x(i, 0), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Methods, AllMethods,
                         ::testing::Values(Method::kRandQbEi, Method::kLuCrtp,
                                           Method::kIlutCrtp,
                                           Method::kRandUbv));

TEST(Driver, AutoPicksDeterministicForCoarseSparse) {
  const CscMatrix a = test_matrix(500);  // density ~3% < 5%
  ApproxOptions o;
  o.tau = 1e-1;
  const LowRankApprox r = approximate(a, o);
  EXPECT_EQ(r.method(), Method::kLuCrtp);
}

TEST(Driver, AutoPicksIlutForTightSparse) {
  const CscMatrix a = test_matrix(500);
  ApproxOptions o;
  o.tau = 1e-3;
  EXPECT_EQ(approximate(a, o).method(), Method::kIlutCrtp);
}

TEST(Driver, AutoPicksRandQbForDense) {
  const CscMatrix a =
      CscMatrix::from_dense(testing::random_matrix(60, 60, 17), 0.1);
  ApproxOptions o;
  o.tau = 1e-2;
  EXPECT_EQ(approximate(a, o).method(), Method::kRandQbEi);
}

TEST(Driver, MethodStringsRoundTrip) {
  for (Method m : {Method::kRandQbEi, Method::kLuCrtp, Method::kIlutCrtp,
                   Method::kRandUbv, Method::kAuto}) {
    EXPECT_EQ(method_from_string(to_string(m)), m);
  }
  EXPECT_THROW(method_from_string("nope"), std::invalid_argument);
}

TEST(Driver, FactorValuesReflectSparsity) {
  const CscMatrix a = test_matrix();
  ApproxOptions dense_o;
  dense_o.method = Method::kRandQbEi;
  dense_o.tau = 1e-2;
  ApproxOptions sparse_o;
  sparse_o.method = Method::kIlutCrtp;
  sparse_o.tau = 1e-2;
  const LowRankApprox qb = approximate(a, dense_o);
  const LowRankApprox il = approximate(a, sparse_o);
  EXPECT_LT(il.factor_values(), qb.factor_values());
}

// validate(): one regression test per option that used to run anyway.

TEST(Driver, ValidateRejectsNanTau) {
  // `--tau=nan` ran to full rank and exited 0.
  ApproxOptions o;
  o.tau = std::nan("");
  EXPECT_EQ(validate(o), "tau must be >= 0, got nan");
}

TEST(Driver, ValidateRejectsNegativeTau) {
  ApproxOptions o;
  o.tau = -1e-3;
  EXPECT_EQ(validate(o), "tau must be >= 0, got -0.001");
}

TEST(Driver, ValidateRejectsNegativePower) {
  // `--p=-1` was accepted.
  ApproxOptions o;
  o.power = -1;
  EXPECT_EQ(validate(o), "power must be >= 0, got -1");
}

TEST(Driver, ValidateRejectsNonPositiveBlockSize) {
  ApproxOptions o;
  o.block_size = 0;
  EXPECT_EQ(validate(o), "block size must be >= 1, got 0");
}

TEST(Driver, ValidateRejectsNegativeRanks) {
  // `--np=-3` silently ran sequentially.
  EXPECT_EQ(validate(ApproxOptions{}, -3),
            "nranks must be in [0, " + std::to_string(kMaxRanks) +
                "], got -3");
}

TEST(Driver, ValidateRejectsRanksAboveCeiling) {
  // `--np=100000` ended in std::bad_alloc. Checked without starting a world.
  EXPECT_EQ(validate(ApproxOptions{}, kMaxRanks), "");
  EXPECT_NE(validate(ApproxOptions{}, kMaxRanks + 1), "");
  EXPECT_NE(validate(ApproxOptions{}, 100000), "");
}

TEST(Driver, ValidateKeepsZeroTauAndWideWorlds) {
  // tau = 0 means "run to the rank budget" (fixed_rank, bench_orthogonality);
  // more ranks than rows runs with empty slices.
  ApproxOptions o;
  o.tau = 0.0;
  o.power = 0;
  EXPECT_EQ(validate(o), "");
  EXPECT_EQ(validate(o, 1), "");
  EXPECT_EQ(validate(o, 64), "");  // more ranks than the matrix has rows
}

TEST(Driver, ApproximateThrowsOnInvalidOptions) {
  const CscMatrix a = test_matrix(24);
  ApproxOptions o;
  o.tau = std::nan("");
  EXPECT_THROW(approximate(a, o), std::invalid_argument);
  o.tau = 1e-2;
  o.power = -1;
  EXPECT_THROW(approximate(a, o), std::invalid_argument);
}

}  // namespace
}  // namespace lra
