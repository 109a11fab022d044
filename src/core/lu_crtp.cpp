#include "core/lu_crtp.hpp"

#include "core/lu_crtp_dist.hpp"
#include "sparse/spgemm.hpp"

namespace lra {

LuCrtpResult lu_crtp(const CscMatrix& a, const LuCrtpOptions& opts) {
  return lu_crtp_dist(a, opts, 1, SimOptions{}).result;
}

double lu_crtp_exact_error(const CscMatrix& a, const LuCrtpResult& r) {
  const CscMatrix pap = permute(a, r.row_perm, r.col_perm);
  const CscMatrix lu = spgemm(r.l, r.u);
  return spadd(pap, lu, 1.0, -1.0).frobenius_norm();
}

}  // namespace lra
