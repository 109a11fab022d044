// Failure-injection / adversarial-input tests: singular pivot blocks,
// structurally deficient matrices, extreme scales, and the documented
// indicator limits. The contract under stress: never crash, never report
// kConverged with a violated bound.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/ilut_crtp.hpp"
#include "core/lu_crtp.hpp"
#include "core/lu_crtp_dist.hpp"
#include "core/randqb_ei.hpp"
#include "core/randqb_ei_dist.hpp"
#include "core/randubv.hpp"
#include "core/randubv_dist.hpp"
#include "gen/families.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "sparse/coo.hpp"
#include "sparse/io_mm.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

TEST(Robustness, ExactlyRankDeficientBelowMachinePrecision) {
  // Rank 15 with a tail at 1e-16 * sigma_max: asking for 1e-10 accuracy
  // forces the engine into the numerically-dead region; it must stop with
  // breakdown or max-iterations, not report a false convergence.
  const auto sigma = rank_deficient_spectrum(80, 15, 1.0, 1e-16);
  const CscMatrix a = givens_spray(
      sigma, {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 3});
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-10;
  const LuCrtpResult r = lu_crtp(a, o);
  testing::ExpectHonestBound(a, r, o.tau);
  // Must at least capture the true rank before stopping.
  if (r.status != Status::kConverged) EXPECT_GE(r.rank, 15);
}

TEST(Robustness, DuplicateColumns) {
  // Many exactly repeated columns: structural rank << n.
  CooBuilder b(40, 40);
  for (Index j = 0; j < 40; ++j) {
    const Index src = j % 5;  // only 5 distinct columns
    b.add((src * 7) % 40, j, 1.0 + src);
    b.add((src * 11 + 3) % 40, j, -0.5);
  }
  const CscMatrix a = b.build();
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-8;
  const LuCrtpResult r = lu_crtp(a, o);
  testing::ExpectHonestBound(a, r, o.tau);
  EXPECT_LE(r.rank, 10);  // cannot exceed the structural rank by much
}

TEST(Robustness, SingleNonzeroEntry) {
  CooBuilder b(30, 30);
  b.add(17, 4, 3.5);
  const CscMatrix a = b.build();
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-3;
  const LuCrtpResult r = lu_crtp(a, o);
  EXPECT_EQ(r.status, Status::kConverged);
  EXPECT_EQ(r.rank, 1);
  EXPECT_LT(lu_crtp_exact_error(a, r), 1e-12);

  RandQbOptions q;
  q.block_size = 4;
  q.tau = 1e-3;
  const RandQbResult qr = randqb_ei(a, q);
  EXPECT_EQ(qr.status, Status::kConverged);
  EXPECT_LT(randqb_exact_error(a, qr), 1e-3 * 3.5);
}

TEST(Robustness, ExtremeMagnitudes) {
  // Entries spanning 1e-150 .. 1e+150: norms must not overflow and the
  // factorization must still converge at coarse tolerance.
  CooBuilder b(25, 25);
  for (Index i = 0; i < 25; ++i)
    b.add(i, i, std::pow(10.0, 150.0 - 12.0 * static_cast<double>(i)));
  for (Index i = 1; i < 25; ++i) b.add(i - 1, i, 1e-150);
  const CscMatrix a = b.build();
  EXPECT_TRUE(std::isfinite(a.frobenius_norm()));
  LuCrtpOptions o;
  o.block_size = 4;
  o.tau = 1e-2;
  const LuCrtpResult r = lu_crtp(a, o);
  EXPECT_EQ(r.status, Status::kConverged);
  EXPECT_TRUE(std::isfinite(r.indicator));
}

TEST(Robustness, IlutOnNearlyBinaryMatrix) {
  // All magnitudes equal: nothing is "small enough" to drop; ILUT must
  // degrade gracefully to plain LU_CRTP behaviour.
  CooBuilder b(60, 60);
  for (Index j = 0; j < 60; ++j)
    for (Index i = 0; i < 60; i += 7) b.add((i + j) % 60, j, 1.0);
  const CscMatrix a = b.build();
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  const LuCrtpResult lu = lu_crtp(a, o);
  const LuCrtpResult il = ilut_crtp(a, o);
  testing::ExpectHonestBound(a, il, o.tau);
  EXPECT_EQ(il.rank, lu.rank);
}

TEST(Robustness, TallAndWideDegenerateShapes) {
  // 200 x 3 and 3 x 200.
  const CscMatrix tall =
      CscMatrix::from_dense(testing::random_matrix(200, 3, 5), 0.5);
  LuCrtpOptions o;
  o.block_size = 8;  // larger than min(m, n)
  o.tau = 1e-10;
  const LuCrtpResult rt = lu_crtp(tall, o);
  EXPECT_EQ(rt.status, Status::kConverged);
  EXPECT_LE(rt.rank, 3);

  const CscMatrix wide = tall.transposed();
  const LuCrtpResult rw = lu_crtp(wide, o);
  EXPECT_EQ(rw.status, Status::kConverged);
  EXPECT_LE(rw.rank, 3);
}

TEST(Robustness, RandUbvOnRankOne) {
  CooBuilder b(50, 50);
  for (Index i = 0; i < 50; ++i) b.add(i, 7, 1.0);
  const CscMatrix a = b.build();
  RandUbvOptions o;
  o.block_size = 4;
  o.tau = 1e-6;
  const RandUbvResult r = randubv(a, o);
  EXPECT_EQ(r.status, Status::kConverged);
  EXPECT_LT(randubv_exact_error(a, r), 1e-6 * a.frobenius_norm() * 1.01);
}

TEST(Robustness, ZeroToleranceRunsToFullRank) {
  const CscMatrix a =
      CscMatrix::from_dense(testing::random_matrix(30, 30, 11), 0.3);
  RandQbOptions o;
  o.block_size = 8;
  o.tau = 0.0;
  const RandQbResult r = randqb_ei(a, o);
  EXPECT_EQ(r.rank, 30);  // hit the budget, never "converged" at tau = 0
}

// A block size below 1 never advanced the rank: RandQB_EI and RandUBV looped
// forever (lra_cli approx --k=0 hung). Every solver now rejects it with a
// structured error, sequentially (P = 1) and distributed (P = 2).
TEST(Robustness, NonPositiveBlockSizeRejected) {
  const CscMatrix a =
      CscMatrix::from_dense(testing::random_matrix(30, 30, 11), 0.3);
  for (const Index k : {Index{0}, Index{-3}}) {
    RandQbOptions q;
    q.block_size = k;
    EXPECT_THROW(randqb_ei(a, q), std::invalid_argument);
    EXPECT_THROW(randqb_ei_dist(a, q, 2), std::invalid_argument);
    RandUbvOptions u;
    u.block_size = k;
    EXPECT_THROW(randubv(a, u), std::invalid_argument);
    EXPECT_THROW(randubv_dist(a, u, 2), std::invalid_argument);
    LuCrtpOptions l;
    l.block_size = k;
    EXPECT_THROW(lu_crtp(a, l), std::invalid_argument);
    EXPECT_THROW(lu_crtp_dist(a, l, 2), std::invalid_argument);
  }
}

// ColamdMode::kEvery used to run silently as kFirst on more than one rank.
// It reorders the whole Schur complement, so it works on one rank and is a
// structured error on two.
TEST(Robustness, ColamdEveryNeedsOneRank) {
  const CscMatrix a = circuit_like(150, 4, 2, 17);
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  o.colamd = ColamdMode::kEvery;
  const LuCrtpResult r = lu_crtp_dist(a, o, 1).result;
  EXPECT_EQ(r.status, Status::kConverged);
  EXPECT_LT(lu_crtp_exact_error(a, r), o.tau * r.anorm_f);
  EXPECT_THROW(lu_crtp_dist(a, o, 2), std::invalid_argument);
}

// Writes `text` to a temporary Matrix Market file and returns its path.
std::string write_temp_mtx(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path) << text;
  return path;
}

// An entry outside the header's shape went through CooBuilder::add, whose
// bounds check is an assert, and corrupted the heap in Release builds
// (lra_cli approx segfaulted). The reader now rejects it in every build.
TEST(Robustness, MatrixMarketIndexOutOfRange) {
  const std::string banner = "%%MatrixMarket matrix coordinate real general\n";
  for (const std::string entry : {"9 2 2.0", "2 4 2.0", "0 1 2.0", "1 -2 2.0"}) {
    SCOPED_TRACE(entry);
    const std::string path = write_temp_mtx(
        "lra_oob.mtx", banner + "3 3 2\n1 1 1.0\n" + entry + "\n");
    EXPECT_THROW(read_matrix_market(path), std::runtime_error);
    std::remove(path.c_str());
  }
  // A symmetric file mirrors (i, j) to (j, i): it must be square.
  const std::string path = write_temp_mtx(
      "lra_oob.mtx",
      "%%MatrixMarket matrix coordinate real symmetric\n2 4 1\n1 4 1.0\n");
  EXPECT_THROW(read_matrix_market(path), std::runtime_error);
  std::remove(path.c_str());
}

// A header nz of 999999999999 went straight into reserve() and died with
// std::bad_alloc. nz above m * n is now rejected without forming m * n, and
// storage grows with the entries actually read, so a header that merely
// overstates nz fails as truncated data instead of allocating for it.
TEST(Robustness, MatrixMarketNzAboveCapacity) {
  const std::string banner = "%%MatrixMarket matrix coordinate real general\n";
  for (const std::string size : {"3 3 999999999999", "2 2 5"}) {
    SCOPED_TRACE(size);
    const std::string path =
        write_temp_mtx("lra_nz.mtx", banner + size + "\n1 1 1.0\n");
    try {
      read_matrix_market(path);
      ADD_FAILURE() << "accepted nz above capacity";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("capacity"), std::string::npos)
          << e.what();
    }
    std::remove(path.c_str());
  }
  // Within capacity the header is legal, even where m * n overflows 64
  // bits; the entries it promises but lacks are truncation.
  for (const std::string size :
       {"100000 100000 9999999999", "4611686018427387904 4 9223372036854775807"}) {
    SCOPED_TRACE(size);
    const std::string path =
        write_temp_mtx("lra_nz.mtx", banner + size + "\n1 1 1.0\n");
    try {
      read_matrix_market(path);
      ADD_FAILURE() << "accepted a truncated file";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
    std::remove(path.c_str());
  }
  const std::string full =
      write_temp_mtx("lra_nz.mtx", banner + "2 1 2\n1 1 1.0\n2 1 3.0\n");
  const CscMatrix a = read_matrix_market(full);
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_EQ(a.coeff(1, 0), 3.0);
  std::remove(full.c_str());
}

// "nan" and "inf" value tokens were reported as "truncated value". Every
// value must be a complete finite number: non-finite tokens and literals
// that overflow to infinity name the entry; garbage is malformed.
TEST(Robustness, MatrixMarketNonFiniteValue) {
  const std::string banner = "%%MatrixMarket matrix coordinate real general\n";
  for (const std::string tok : {"nan", "NaN", "inf", "-inf", "Infinity", "1e999",
                                "-1e400"}) {
    SCOPED_TRACE(tok);
    const std::string path = write_temp_mtx(
        "lra_nonfinite.mtx", banner + "2 2 2\n1 1 1.0\n2 2 " + tok + "\n");
    try {
      read_matrix_market(path);
      ADD_FAILURE() << "accepted a non-finite value";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("entry 2: non-finite value"),
                std::string::npos)
          << e.what();
    }
    std::remove(path.c_str());
  }
  for (const std::string tok : {"1.0x", "abc", "--1"}) {
    SCOPED_TRACE(tok);
    const std::string path = write_temp_mtx(
        "lra_nonfinite.mtx", banner + "2 2 1\n1 1 " + tok + "\n");
    try {
      read_matrix_market(path);
      ADD_FAILURE() << "accepted a malformed value";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("entry 1: malformed value"),
                std::string::npos)
          << e.what();
    }
    std::remove(path.c_str());
  }
  // Finite values parse as before, subnormals and signs included.
  const std::string ok = write_temp_mtx(
      "lra_nonfinite.mtx", banner + "2 2 3\n1 1 -2.5e-3\n2 1 +4\n2 2 4.9e-324\n");
  const CscMatrix a = read_matrix_market(ok);
  EXPECT_EQ(a.coeff(0, 0), -2.5e-3);
  EXPECT_EQ(a.coeff(1, 0), 4.0);
  EXPECT_EQ(a.coeff(1, 1), 4.9e-324);
  std::remove(ok.c_str());
}

// A header of "1 999999999999 0" passed every check and CscMatrix then
// asked for ~8 TB of column pointers (std::bad_alloc). Dimensions above
// kMaxMatrixMarketDim are rejected before anything sized by them exists.
TEST(Robustness, MatrixMarketHugeDimensions) {
  const std::string banner = "%%MatrixMarket matrix coordinate real general\n";
  const std::string big = std::to_string(kMaxMatrixMarketDim + 1);
  for (const std::string& size :
       {std::string("1 999999999999 0"), std::string("999999999999 1 0"),
        big + " 2 1\n1 1 1.0", "2 " + big + " 1\n1 1 1.0"}) {
    SCOPED_TRACE(size);
    const std::string path =
        write_temp_mtx("lra_huge.mtx", banner + size + "\n");
    try {
      read_matrix_market(path);
      ADD_FAILURE() << "accepted dimensions above the bound";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("exceed the maximum"),
                std::string::npos)
          << e.what();
    }
    std::remove(path.c_str());
  }
  // The bound itself is legal (as rows: nothing here is sized by m).
  const std::string edge = std::to_string(kMaxMatrixMarketDim);
  const std::string path = write_temp_mtx(
      "lra_huge.mtx", banner + edge + " 3 1\n" + edge + " 2 5.0\n");
  const CscMatrix a = read_matrix_market(path);
  EXPECT_EQ(a.rows(), kMaxMatrixMarketDim);
  EXPECT_EQ(a.coeff(kMaxMatrixMarketDim - 1, 1), 5.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lra
