#include "core/randubv.hpp"

#include "core/randubv_dist.hpp"
#include "dense/blas.hpp"
#include "sparse/ops.hpp"

namespace lra {

RandUbvResult randubv(const CscMatrix& a, const RandUbvOptions& opts) {
  return randubv_dist(a, opts, 1, SimOptions{}).result;
}

double randubv_exact_error(const CscMatrix& a, const RandUbvResult& r) {
  // ||A - U B V^T||_F via H = U B, W = V^T.
  const Matrix h = matmul(r.u, r.b);
  const Matrix w = r.v.transposed();
  return residual_fro(a, h, w);
}

}  // namespace lra
