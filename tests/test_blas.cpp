#include "dense/blas.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "support/rng.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

using testing::naive_matmul;
using testing::random_matrix;

// Parameterized over (m, k, n) shapes including degenerate and
// panel-crossing sizes (the GEMMs use 256-sized panels, so cross the
// boundary).
class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatmulMatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 1);
  const Matrix b = random_matrix(k, n, 2);
  testing::expect_near_matrix(matmul(a, b), naive_matmul(a, b), 1e-10 * (k + 1));
}

TEST_P(GemmShapes, TransposeAMatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(k, m, 3);  // A^T is m x k
  const Matrix b = random_matrix(k, n, 4);
  testing::expect_near_matrix(matmul_tn(a, b), naive_matmul(a.transposed(), b),
                              1e-10 * (k + 1));
}

TEST_P(GemmShapes, TransposeBMatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 5);
  const Matrix b = random_matrix(n, k, 6);  // B^T is k x n
  testing::expect_near_matrix(matmul_nt(a, b), naive_matmul(a, b.transposed()),
                              1e-10 * (k + 1));
}

TEST_P(GemmShapes, TransposeBothMatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(k, m, 7);
  const Matrix b = random_matrix(n, k, 8);
  Matrix c(m, n);
  gemm(c, a, b, 1.0, 0.0, Trans::kYes, Trans::kYes);
  testing::expect_near_matrix(
      c, naive_matmul(a.transposed(), b.transposed()), 1e-10 * (k + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 2},
                      std::tuple{17, 9, 23}, std::tuple{64, 64, 64},
                      std::tuple{100, 300, 7}, std::tuple{257, 260, 3},
                      std::tuple{5, 0, 4}, std::tuple{40, 1, 40}));

TEST(Gemm, AlphaBetaAccumulation) {
  const Matrix a = random_matrix(6, 4, 9);
  const Matrix b = random_matrix(4, 5, 10);
  Matrix c = random_matrix(6, 5, 11);
  const Matrix c0 = c;
  gemm(c, a, b, 2.0, 3.0);
  const Matrix ref = naive_matmul(a, b);
  for (Index j = 0; j < 5; ++j)
    for (Index i = 0; i < 6; ++i)
      EXPECT_NEAR(c(i, j), 2.0 * ref(i, j) + 3.0 * c0(i, j), 1e-12);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  const Matrix a = random_matrix(3, 3, 12);
  const Matrix b = random_matrix(3, 3, 13);
  Matrix c = random_matrix(3, 3, 14);
  gemm(c, a, b, 1.0, 0.0);
  testing::expect_near_matrix(c, naive_matmul(a, b), 1e-12);
}

TEST(Gemv, MatchesMatmul) {
  const Matrix a = random_matrix(7, 5, 15);
  const Matrix x = random_matrix(5, 1, 16);
  std::vector<double> y(7, 0.0);
  gemv(y.data(), a, x.col(0));
  const Matrix ref = naive_matmul(a, x);
  for (Index i = 0; i < 7; ++i) EXPECT_NEAR(y[i], ref(i, 0), 1e-12);
}

TEST(Gemv, TransposedMatchesMatmul) {
  const Matrix a = random_matrix(7, 5, 17);
  const Matrix x = random_matrix(7, 1, 18);
  std::vector<double> y(5, 0.0);
  gemv(y.data(), a, x.col(0), 1.0, 0.0, Trans::kYes);
  const Matrix ref = naive_matmul(a.transposed(), x);
  for (Index i = 0; i < 5; ++i) EXPECT_NEAR(y[i], ref(i, 0), 1e-12);
}

TEST(Nrm2, RobustToExtremeScales) {
  std::vector<double> big = {1e200, 1e200};
  EXPECT_NEAR(nrm2(2, big.data()) / 1e200, std::sqrt(2.0), 1e-12);
  std::vector<double> small = {1e-200, 1e-200};
  EXPECT_NEAR(nrm2(2, small.data()) / 1e-200, std::sqrt(2.0), 1e-12);
  std::vector<double> zero = {0.0, 0.0};
  EXPECT_EQ(nrm2(2, zero.data()), 0.0);
}

TEST(AxpyDot, Basics) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y = {1.0, 1.0, 1.0};
  axpy(3, 2.0, x.data(), y.data());
  EXPECT_EQ(y[2], 7.0);
  EXPECT_DOUBLE_EQ(dot(3, x.data(), x.data()), 14.0);
}

// axpy is vectorized; its bits must be the scalar loop's, two roundings per
// element, at every length (full vectors plus every tail), for alpha = +-0,
// and at unaligned offsets. The element past the end must stay untouched.
TEST(Blas, AxpyMatchesScalarLoop) {
  CounterRng rng(77);
  for (const Index n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 33})
    for (const double alpha : {0.0, -0.0, 0.7390851332151607, -3.25e7})
      for (const Index off : {0, 1}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " alpha=" << alpha
                                          << " off=" << off);
        std::vector<double> x(static_cast<std::size_t>(n + off)),
            y(static_cast<std::size_t>(n + off + 1));
        for (double& v : x) v = rng.gaussian();
        for (double& v : y) v = rng.gaussian() * 1e-3;
        if (n > 2) {
          y[off + 1] = -alpha * x[off + 1];  // cancels (to a signed zero)
          y[off + 2] = -0.0;
        }
        std::vector<double> ref = y;
        for (Index i = 0; i < n; ++i) ref[off + i] += alpha * x[off + i];
        axpy(n, alpha, x.data() + off, y.data() + off);
        EXPECT_EQ(0, std::memcmp(y.data(), ref.data(), y.size() * sizeof(double)));
      }
}

}  // namespace
}  // namespace lra
