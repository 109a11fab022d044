#include "dense/bidiag.hpp"

#include "dense/blas.hpp"

namespace lra {

Bidiagonal bidiagonalize(const Matrix& a_in) {
  Matrix a = a_in.rows() >= a_in.cols() ? a_in : a_in.transposed();
  const Index m = a.rows(), n = a.cols();
  Bidiagonal bd;
  bd.d.assign(static_cast<std::size_t>(n), 0.0);
  if (n > 1) bd.e.assign(static_cast<std::size_t>(n - 1), 0.0);

  std::vector<double> rowbuf(static_cast<std::size_t>(n));
  for (Index k = 0; k < n; ++k) {
    // Left reflector annihilates A(k+1:m, k).
    double tau = 0.0;
    double* ck = a.col(k) + k;
    const double beta = make_reflector(m - k, ck, tau);
    if (k + 1 < n)
      apply_reflector(m - k, ck, tau, a.col(k + 1) + k, m, n - k - 1);
    bd.d[k] = beta;

    if (k >= n - 1) continue;
    // Right reflector annihilates A(k, k+2:n) (acts on row k).
    const Index len = n - k - 1;
    for (Index j = 0; j < len; ++j) rowbuf[j] = a(k, k + 1 + j);
    double tau_r = 0.0;
    const double beta_r = make_reflector(len, rowbuf.data(), tau_r);
    if (tau_r != 0.0) {
      // Apply (I - tau v v^T) from the right to rows k+1:m.
      for (Index i = k + 1; i < m; ++i) {
        double s = a(i, k + 1);
        for (Index j = 1; j < len; ++j) s += rowbuf[j] * a(i, k + 1 + j);
        s *= tau_r;
        a(i, k + 1) -= s;
        for (Index j = 1; j < len; ++j) a(i, k + 1 + j) -= s * rowbuf[j];
      }
    }
    bd.e[k] = beta_r;
    a(k, k + 1) = beta_r;
    for (Index j = 1; j < len; ++j) a(k, k + 1 + j) = 0.0;
  }
  return bd;
}

}  // namespace lra
