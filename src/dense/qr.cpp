#include "dense/qr.hpp"

#include <algorithm>
#include <cassert>

#include "dense/blas.hpp"
#include "dense/tsqr.hpp"

namespace lra {

HouseholderQR::HouseholderQR(Matrix a) : qr_(std::move(a)) {
  const Index m = qr_.rows(), n = qr_.cols();
  const Index kmax = std::min(m, n);
  tau_.assign(static_cast<std::size_t>(kmax), 0.0);
  for (Index k = 0; k < kmax; ++k) {
    double* ck = qr_.col(k) + k;
    const double beta = make_reflector(m - k, ck, tau_[k]);
    // Apply (I - tau v v^T) to the trailing columns.
    if (k + 1 < n)
      apply_reflector(m - k, ck, tau_[k], qr_.col(k + 1) + k, m, n - k - 1);
    qr_(k, k) = beta;
  }
}

Matrix HouseholderQR::thin_q() const {
  const Index m = qr_.rows();
  const Index k = std::min(m, qr_.cols());
  Matrix q(m, k);
  for (Index j = 0; j < k; ++j) q(j, j) = 1.0;
  // Accumulate reflectors back to front.
  for (Index p = k - 1; p >= 0; --p)
    apply_reflector(m - p, qr_.col(p) + p, tau_[p], q.col(p) + p, m, k - p);
  return q;
}

Matrix HouseholderQR::r() const {
  const Index k = std::min(qr_.rows(), qr_.cols());
  Matrix r(k, qr_.cols());
  for (Index j = 0; j < qr_.cols(); ++j)
    for (Index i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = qr_(i, j);
  return r;
}

void HouseholderQR::apply_qt(Matrix& b) const {
  const Index m = qr_.rows();
  assert(b.rows() == m);
  if (b.cols() == 0) return;
  const Index k = static_cast<Index>(tau_.size());
  for (Index p = 0; p < k; ++p)
    apply_reflector(m - p, qr_.col(p) + p, tau_[p], b.col(0) + p, m, b.cols());
}

void HouseholderQR::apply_q(Matrix& b) const {
  const Index m = qr_.rows();
  assert(b.rows() == m);
  if (b.cols() == 0) return;
  const Index k = static_cast<Index>(tau_.size());
  for (Index p = k - 1; p >= 0; --p)
    apply_reflector(m - p, qr_.col(p) + p, tau_[p], b.col(0) + p, m, b.cols());
}

Matrix HouseholderQR::solve(const Matrix& b) const {
  const Index n = qr_.cols();
  assert(qr_.rows() >= n);
  Matrix y = b;
  apply_qt(y);
  Matrix x(n, b.cols());
  for (Index j = 0; j < b.cols(); ++j) {
    for (Index i = n - 1; i >= 0; --i) {
      double s = y(i, j);
      for (Index p = i + 1; p < n; ++p) s -= qr_(i, p) * x(p, j);
      x(i, j) = s / qr_(i, i);
    }
  }
  return x;
}

Index orth_tsqr_block_rows(Index rows, Index cols) {
  // Tall-skinny panels (the RandQB_EI hot path) go through TSQR so the
  // stage-1 block factorizations run on the thread pool. The 16-block grid
  // is a function of the shape only, never of the worker count, so the
  // returned basis is bitwise identical at any thread count. Short or
  // near-square inputs keep the one-shot Householder path (no parallelism
  // to win there, and other callers rely on its exact bits for small
  // panels).
  constexpr Index kTsqrBlocks = 16;
  if (rows >= 8 * cols && rows >= 2048)
    return std::max(cols, (rows + kTsqrBlocks - 1) / kTsqrBlocks);
  return 0;
}

Matrix orth(const Matrix& a) {
  if (a.empty()) return Matrix(a.rows(), 0);
  if (const Index block_rows = orth_tsqr_block_rows(a.rows(), a.cols()))
    return tsqr(a, block_rows).q;
  return HouseholderQR(a).thin_q();
}

}  // namespace lra
