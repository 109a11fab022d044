#include "dense/qr.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "dense/blas.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

class QrShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrShapes, ReconstructsInput) {
  const auto [m, n] = GetParam();
  const Matrix a = testing::random_matrix(m, n, 21);
  HouseholderQR f(a);
  const Matrix qr = matmul(f.thin_q(), f.r());
  testing::expect_near_matrix(qr, a, 1e-11 * (m + n));
}

TEST_P(QrShapes, ThinQIsOrthonormal) {
  const auto [m, n] = GetParam();
  const Matrix a = testing::random_matrix(m, n, 22);
  HouseholderQR f(a);
  EXPECT_LT(testing::orthogonality_defect(f.thin_q()), 1e-12 * (m + n));
}

TEST_P(QrShapes, RIsUpperTriangular) {
  const auto [m, n] = GetParam();
  const Matrix a = testing::random_matrix(m, n, 23);
  const Matrix r = HouseholderQR(a).r();
  for (Index j = 0; j < r.cols(); ++j)
    for (Index i = j + 1; i < r.rows(); ++i) EXPECT_EQ(r(i, j), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrShapes,
                         ::testing::Values(std::pair{1, 1}, std::pair{10, 3},
                                           std::pair{3, 10}, std::pair{50, 50},
                                           std::pair{200, 17},
                                           std::pair{33, 32}));

TEST(HouseholderQR, ApplyQtThenQIsIdentity) {
  const Matrix a = testing::random_matrix(20, 8, 24);
  HouseholderQR f(a);
  Matrix b = testing::random_matrix(20, 4, 25);
  const Matrix b0 = b;
  f.apply_qt(b);
  f.apply_q(b);
  testing::expect_near_matrix(b, b0, 1e-12 * 20);
}

TEST(HouseholderQR, LeastSquaresSolve) {
  const Matrix a = testing::random_matrix(30, 6, 26);
  const Matrix xtrue = testing::random_matrix(6, 2, 27);
  const Matrix b = matmul(a, xtrue);
  const Matrix x = HouseholderQR(a).solve(b);
  testing::expect_near_matrix(x, xtrue, 1e-9);
}

TEST(HouseholderQR, RankDeficientInputStillOrthonormal) {
  // Two identical columns.
  Matrix a = testing::random_matrix(12, 1, 28);
  Matrix dup = a;
  a.append_cols(dup);
  a.append_cols(testing::random_matrix(12, 2, 29));
  const Matrix q = orth(a);
  EXPECT_EQ(q.cols(), 4);
  EXPECT_LT(testing::orthogonality_defect(q), 1e-11);
}

TEST(Orth, SpansInputRange) {
  const Matrix a = testing::random_matrix(15, 5, 30);
  const Matrix q = orth(a);
  // a - q (q^T a) == 0.
  Matrix res = a;
  gemm(res, q, matmul_tn(q, a), -1.0, 1.0);
  EXPECT_LT(res.max_abs(), 1e-11);
}

TEST(Orth, EmptyInput) {
  const Matrix q = orth(Matrix(7, 0));
  EXPECT_EQ(q.rows(), 7);
  EXPECT_EQ(q.cols(), 0);
}

TEST(Orth, ZeroMatrixProducesOrthonormalCompletion) {
  const Matrix q = orth(Matrix(6, 2));
  EXPECT_EQ(q.cols(), 2);
  EXPECT_LT(testing::orthogonality_defect(q), 1e-14);
}

// The scalar reflector loop every dense factorization used before the
// column-interleaved kernel: the bit-level reference for apply_reflector().
void scalar_apply_reflector(Index len, const double* v, double tau, double* c,
                            Index ld, Index ncols) {
  if (tau == 0.0) return;
  for (Index j = 0; j < ncols; ++j) {
    double* cj = c + j * ld;
    double s = cj[0];
    for (Index i = 1; i < len; ++i) s += v[i] * cj[i];
    s *= tau;
    cj[0] -= s;
    for (Index i = 1; i < len; ++i) cj[i] -= s * v[i];
  }
}

TEST(Householder, ApplyMatchesScalarLoop) {
  std::uint64_t seed = 40;
  for (Index len : {1, 2, 3, 7, 64, 133}) {
    for (Index pad : {0, 3}) {  // ld = len + pad; padding rows stay untouched
      const Index ld = len + pad;
      for (Index ncols = 0; ncols <= 9; ++ncols) {  // ncols mod 4 = 0..3
        Matrix x = testing::random_matrix(len, 1, ++seed);
        double tau = 0.0;
        make_reflector(len, x.data(), tau);
        for (double t : {tau, 0.0, 1.25}) {
          SCOPED_TRACE(::testing::Message() << "len=" << len << " ld=" << ld
                                            << " ncols=" << ncols
                                            << " tau=" << t);
          const Matrix c0 = testing::random_matrix(ld, ncols, ++seed);
          Matrix ref = c0, got = c0;
          scalar_apply_reflector(len, x.data(), t, ref.data(), ld, ncols);
          apply_reflector(len, x.data(), t, got.data(), ld, ncols);
          if (c0.size() > 0) {
            EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                                     sizeof(double) * c0.size()));
          }
          if (t == 0.0) {
            EXPECT_EQ(got, c0);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace lra
