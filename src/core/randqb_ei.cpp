#include "core/randqb_ei.hpp"

#include <algorithm>
#include <cmath>

#include "core/randqb_ei_dist.hpp"
#include "dense/blas.hpp"
#include "sparse/ops.hpp"

namespace lra {

RandQbResult randqb_ei(const CscMatrix& a, const RandQbOptions& opts) {
  RandQbResult res = randqb_ei_dist(a, opts, 1, SimOptions{}).result;
  // Orthogonality-loss diagnostic ||Q^T Q - I||_inf (max row sum).
  if (res.rank > 0) {
    const Matrix g = matmul_tn(res.q, res.q);
    for (Index i = 0; i < g.rows(); ++i) {
      double rowsum = 0.0;
      for (Index j = 0; j < g.cols(); ++j)
        rowsum += std::fabs(g(i, j) - (i == j ? 1.0 : 0.0));
      res.orth_loss = std::max(res.orth_loss, rowsum);
    }
  }
  return res;
}

double randqb_exact_error(const CscMatrix& a, const RandQbResult& r) {
  return residual_fro(a, r.q, r.b);
}

}  // namespace lra
