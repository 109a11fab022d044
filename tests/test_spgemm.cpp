#include "sparse/spgemm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "dense/blas.hpp"
#include "par/pool.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

CscMatrix random_csc(Index m, Index n, double drop, std::uint64_t seed) {
  return CscMatrix::from_dense(testing::random_matrix(m, n, seed), drop);
}

class SpgemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(SpgemmShapes, MatchesDenseProduct) {
  const auto [m, k, n, drop] = GetParam();
  const CscMatrix a = random_csc(m, k, drop, 111);
  const CscMatrix b = random_csc(k, n, drop, 112);
  const CscMatrix c = spgemm(a, b);
  EXPECT_TRUE(c.structurally_valid());
  testing::expect_near_matrix(c.to_dense(),
                              matmul(a.to_dense(), b.to_dense()), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpgemmShapes,
    ::testing::Values(std::tuple{5, 5, 5, 0.0}, std::tuple{12, 7, 9, 0.8},
                      std::tuple{30, 30, 30, 1.5}, std::tuple{1, 8, 1, 0.5},
                      std::tuple{20, 1, 20, 0.0}));

TEST(Spadd, LinearCombination) {
  const CscMatrix a = random_csc(8, 8, 0.7, 113);
  const CscMatrix b = random_csc(8, 8, 0.7, 114);
  const CscMatrix c = spadd(a, b, 2.0, -0.5);
  Matrix ref = a.to_dense();
  ref.scale(2.0);
  Matrix bd = b.to_dense();
  bd.scale(-0.5);
  gemm(ref, bd, Matrix::identity(8), 1.0, 1.0);
  testing::expect_near_matrix(c.to_dense(), ref, 1e-12);
  EXPECT_TRUE(c.structurally_valid());
}

TEST(Spadd, DisjointPatternsUnion) {
  Matrix da(3, 3), db(3, 3);
  da(0, 0) = 1.0;
  db(2, 2) = 2.0;
  const CscMatrix c =
      spadd(CscMatrix::from_dense(da), CscMatrix::from_dense(db));
  EXPECT_EQ(c.nnz(), 2);
}

TEST(SchurUpdate, MatchesComposedOps) {
  const CscMatrix a = random_csc(15, 12, 0.9, 115);
  const CscMatrix l = random_csc(15, 4, 0.6, 116);
  const CscMatrix u = random_csc(4, 12, 0.6, 117);
  const CscMatrix s1 = schur_update(a, l, u);
  const CscMatrix s2 = spadd(a, spgemm(l, u), 1.0, -1.0);
  testing::expect_near_matrix(s1.to_dense(), s2.to_dense(), 1e-12);
}

TEST(SchurUpdate, EmptyFactorsReturnA) {
  const CscMatrix a = random_csc(6, 6, 0.5, 118);
  const CscMatrix l(6, 0);
  const CscMatrix u(0, 6);
  testing::expect_near_matrix(schur_update(a, l, u).to_dense(), a.to_dense(),
                              0.0);
}

// The sparse-accumulator Schur update that the two-path kernel replaced,
// followed by the prune(0.0) its caller applied: per column, scatter A(:, j),
// then L(:, k) * (-U(k, j)) in ascending k, sort the touched rows, emit.
CscMatrix schur_spa_reference(const CscMatrix& a, const CscMatrix& l,
                              const CscMatrix& u) {
  const Index m = a.rows(), n = a.cols();
  std::vector<double> val(static_cast<std::size_t>(m), 0.0);
  std::vector<char> mark(static_cast<std::size_t>(m), 0);
  std::vector<Index> nz;
  auto scatter = [&](Index i, double v) {
    if (!mark[i]) {
      mark[i] = 1;
      nz.push_back(i);
      val[i] = v;
    } else {
      val[i] += v;
    }
  };
  std::vector<Index> colptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Index> rowind;
  std::vector<double> values;
  for (Index j = 0; j < n; ++j) {
    const auto ar = a.col_rows(j);
    const auto av = a.col_values(j);
    for (std::size_t p = 0; p < ar.size(); ++p) scatter(ar[p], av[p]);
    const auto ur = u.col_rows(j);
    const auto uv = u.col_values(j);
    for (std::size_t p = 0; p < ur.size(); ++p) {
      const double w = -uv[p];
      const auto lr = l.col_rows(ur[p]);
      const auto lv = l.col_values(ur[p]);
      for (std::size_t q = 0; q < lr.size(); ++q) scatter(lr[q], lv[q] * w);
    }
    std::sort(nz.begin(), nz.end());
    for (const Index i : nz) {
      rowind.push_back(i);
      values.push_back(val[i]);
      val[i] = 0.0;
      mark[i] = 0;
    }
    nz.clear();
    colptr[j + 1] = static_cast<Index>(rowind.size());
  }
  CscMatrix s(m, n, std::move(colptr), std::move(rowind), std::move(values));
  s.prune(0.0);
  return s;
}

// Column j of the result is present with probability col_density(j) per
// entry. Integer values keep every product and partial sum exact, so the
// entries copied from L * U below cancel to exactly zero.
Matrix random_pattern(Index m, Index n, bool integer, CounterRng& rng,
                      const std::function<double(Index)>& col_density) {
  Matrix d(m, n);
  for (Index j = 0; j < n; ++j)
    for (Index i = 0; i < m; ++i)
      if (rng.uniform() < col_density(j))
        d(i, j) = integer ? static_cast<double>(
                                static_cast<int>(rng.uniform_int(7)) - 3)
                          : rng.gaussian();
  return d;
}

TEST(SchurUpdate, MatchesSpaReference) {
  struct PoolGuard {
    int saved = ThreadPool::global().num_threads();
    ~PoolGuard() { ThreadPool::global().set_num_threads(saved); }
  } guard;
  const Index n = 41;
  int dense_cols = 0, spa_cols = 0, mixed_calls = 0;
  std::uint64_t seed = 900;
  for (const Index m : {1, 2, 3, 5, 7, 33, 130})
    for (const Index kk : {0, 1, 4, 32})
      for (const double density : {0.0, 0.05, 0.3, 1.0})
        for (const bool integer : {true, false}) {
          CounterRng rng(++seed);
          // Column densities cycle so one call mixes empty, light and full
          // columns of A and U: both accumulators run side by side.
          const Matrix ld = random_pattern(m, kk, integer, rng,
                                           [&](Index) { return density; });
          const Matrix ud = random_pattern(kk, n, integer, rng, [&](Index j) {
            const double c[4] = {0.0, density / 4, density, 1.0};
            return c[j % 4];
          });
          Matrix ad = random_pattern(m, n, integer, rng, [&](Index j) {
            const double c[3] = {density, 0.0, 1.0};
            return c[j % 3];
          });
          // Copy L * U into a share of A's entries (exact for integers).
          const Matrix lu = kk > 0 ? testing::naive_matmul(ld, ud) : Matrix(m, n);
          for (Index j = 0; j < n; ++j)
            for (Index i = 0; i < m; ++i)
              if (rng.uniform() < 0.3) ad(i, j) = lu(i, j);
          const CscMatrix a = CscMatrix::from_dense(ad);
          const CscMatrix l = CscMatrix::from_dense(ld);
          const CscMatrix u = CscMatrix::from_dense(ud);

          int dense_here = 0;
          for (Index j = 0; j < n; ++j) {
            Index w = a.col_nnz(j);
            for (const Index k : u.col_rows(j)) w += l.col_nnz(k);
            dense_here += (8 * w >= m && w > 0) ? 1 : 0;
          }
          dense_cols += dense_here;
          spa_cols += static_cast<int>(n) - dense_here;
          mixed_calls += dense_here > 0 && dense_here < n ? 1 : 0;

          const CscMatrix ref = schur_spa_reference(a, l, u);
          for (const int width : {1, 2, 8}) {
            SCOPED_TRACE(::testing::Message()
                         << "m=" << m << " kk=" << kk << " density=" << density
                         << " integer=" << integer << " width=" << width);
            ThreadPool::global().set_num_threads(width);
            const CscMatrix s = schur_update(a, l, u);
            ASSERT_TRUE(s.structurally_valid());
            ASSERT_EQ(s.colptr(), ref.colptr());
            ASSERT_EQ(0, std::memcmp(s.rowind().data(), ref.rowind().data(),
                                     ref.rowind().size() * sizeof(Index)));
            ASSERT_EQ(0, std::memcmp(s.values().data(), ref.values().data(),
                                     ref.values().size() * sizeof(double)));
          }
        }
  EXPECT_GT(dense_cols, 0);
  EXPECT_GT(spa_cols, 0);
  EXPECT_GT(mixed_calls, 0);
}

// A non-finite U(k, j) times a structural zero of L would be NaN on the
// dense path: such columns take the sparse accumulator, so nothing appears
// off the pattern of A(:, j) and the L(:, k) that U(:, j) touches.
TEST(SchurUpdate, NonFiniteUStaysOnPattern) {
  const Index m = 16;
  Matrix ad(m, 2), ld(m, 2), ud(2, 2);
  for (Index i = 0; i < m; ++i) ad(i, 0) = 1.0 + static_cast<double>(i);
  ad(3, 1) = 4.0;
  ld(3, 0) = 2.0;  // L(:, 1) is empty
  ud(0, 0) = ud(0, 1) = 1.0;
  ud(1, 1) = std::numeric_limits<double>::infinity();
  const CscMatrix a = CscMatrix::from_dense(ad);
  const CscMatrix s =
      schur_update(a, CscMatrix::from_dense(ld), CscMatrix::from_dense(ud));
  ASSERT_EQ(s.col_nnz(1), 1);
  EXPECT_EQ(s.col_rows(1)[0], 3);
  EXPECT_EQ(s.coeff(3, 1), 4.0 - 2.0);
  EXPECT_EQ(s.coeff(3, 0), 4.0 - 2.0);
}

TEST(Spgemm, FillInAppearsWhereExpected) {
  // Arrow pattern: dense first row/col -> product with itself fills in.
  Matrix d(5, 5);
  for (Index i = 0; i < 5; ++i) {
    d(i, 0) = 1.0;
    d(0, i) = 1.0;
    d(i, i) = 2.0;
  }
  const CscMatrix a = CscMatrix::from_dense(d);
  const CscMatrix aa = spgemm(a, a);
  EXPECT_EQ(aa.nnz(), 25);  // fully dense product
}

}  // namespace
}  // namespace lra
