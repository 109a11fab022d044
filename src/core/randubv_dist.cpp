#include "core/randubv_dist.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>

#include "core/spmd.hpp"
#include "dense/blas.hpp"
#include "obs/prof/phase.hpp"
#include "sparse/ops.hpp"

namespace lra {

using obs::prof::PhaseScope;
using spmd::LocalQr;
using spmd::Slice;
using spmd::slice_of;
using spmd::tsqr_dist;
using spmd::TsqrOut;

DistRandUbvResult randubv_dist(const CscMatrix& a, const RandUbvOptions& opts,
                               int nranks, const SimOptions& sim) {
  if (opts.block_size < 1)
    throw std::invalid_argument("randubv: block size must be >= 1, got " +
                                std::to_string(opts.block_size));
  DistRandUbvResult out;
  const Index m = a.rows(), n = a.cols();
  const Index lmax = std::min(m, n);
  const Index rank_budget = opts.max_rank < 0 ? lmax : std::min(opts.max_rank, lmax);
  const Index b = std::min(opts.block_size, rank_budget);
  const double anorm = a.frobenius_norm();
  const double target = opts.tau * anorm;

  SimWorld world(nranks, sim);
  std::mutex out_mu;

  auto body = [&](RankCtx& ctx) {
    const Slice cs = slice_of(n, ctx.size(), ctx.rank());  // rows of V
    CscMatrix a_block;
    const CscMatrix& a_loc = spmd::local_rows(ctx, a, a_block);  // rows of A, U

    Matrix u_loc(a_loc.rows(), 0);
    Matrix v_loc(cs.size(), 0);
    // Block-bidiagonal coefficients (replicated); assembled into B at the end.
    std::vector<Matrix> diag_l;   // L_j (b x b)
    std::vector<Matrix> super_r;  // R_j (b x b)
    obs::TelemetrySeries telemetry;

    // V_1 = orth(Gaussian) — block generated identically, sliced, TSQR'd.
    Matrix omega;
    {
      PhaseScope sketch_phase(ctx, "sketch");
      omega = ctx.compute("spmm", [&] {
        return Matrix::gaussian(n, b, opts.seed, 0).block(cs.begin, 0, cs.size(), b);
      });
    }
    Matrix vj_loc = tsqr_dist(ctx, std::move(omega), b, "orth").q_loc;

    // U_1 L_1 = qr(A V_1). The Lanczos QRs below keep one Householder QR per
    // rank (no orth() routing).
    Matrix z_loc;
    {
      PhaseScope sketch_phase(ctx, "sketch");
      const Matrix v_full = spmd::gather_rows(ctx, vj_loc, n);
      z_loc = ctx.compute("spmm", [&] { return spmm(a_loc, v_full); });
    }
    TsqrOut u1 = tsqr_dist(ctx, std::move(z_loc), b, "orth", LocalQr::kHouseholder);
    Matrix uj_loc = std::move(u1.q_loc);
    Matrix lj = std::move(u1.r);  // upper triangular here; L in UBV notation

    double e = anorm * anorm;
    Index rank_so_far = 0, iterations = 0;
    double indicator = anorm;
    Status status = Status::kMaxIterations;

    // Loop-carried buffer for the W = A^T U_j partial (the only per-iteration
    // sketch product here that is not moved into a TSQR).
    Matrix w_partial;

    for (;;) {
      {
        PhaseScope b_phase(ctx, "b_update");
        ctx.compute("b_update", [&] {
          v_loc.append_cols(vj_loc);
          u_loc.append_cols(uj_loc);
          diag_l.push_back(lj);
        });
      }
      rank_so_far += b;
      iterations += 1;
      e -= lj.frobenius_norm_sq();
      indicator = std::sqrt(std::max(0.0, e));
      obs::append_sample(telemetry, rank_so_far, indicator / anorm, opts.tau,
                         ctx.vtime());
      if (indicator < target) {
        status = opts.tau < kRandQbIndicatorFloor ? Status::kIndicatorFloor
                                                  : Status::kConverged;
        break;
      }
      if (rank_so_far + b > rank_budget) break;

      // W = A^T U_j - V_j L_j^T (row-distributed over n), reorthogonalized
      // against all previous V (one-sided full reorthogonalization).
      Matrix w_loc;
      {
        PhaseScope power_phase(ctx, "power");
        ctx.compute("spmm", [&] { spmm_t_into(w_partial, a_loc, uj_loc); });
        spmd::allreduce_sum(ctx, w_partial);
        w_loc = ctx.compute("spmm", [&] {
          Matrix w = w_partial.block(cs.begin, 0, cs.size(), b);
          gemm(w, vj_loc, lj, -1.0, 1.0, Trans::kNo, Trans::kYes);
          return w;
        });
      }
      {
        PhaseScope reorth_phase(ctx, "reorth");
        Matrix proj =
            ctx.compute("reorth", [&] { return matmul_tn(v_loc, w_loc); });
        spmd::allreduce_sum(ctx, proj);
        ctx.compute("reorth", [&] { gemm(w_loc, v_loc, proj, -1.0, 1.0); });
      }
      TsqrOut vt = tsqr_dist(ctx, std::move(w_loc), b, "orth", LocalQr::kHouseholder);
      Matrix vnext_loc = std::move(vt.q_loc);
      const Matrix rj = std::move(vt.r);
      e -= rj.frobenius_norm_sq();
      super_r.push_back(rj);

      // Z = A V_{j+1} - U_j R_j^T (row-distributed over m), reorthogonalized
      // against all previous U.
      Matrix vnext_full;
      {
        PhaseScope rep(ctx, "replicate");
        vnext_full = spmd::gather_rows(ctx, vnext_loc, n);
      }
      Matrix znext_loc;
      {
        PhaseScope power_phase(ctx, "power");
        znext_loc = ctx.compute("spmm", [&] {
          Matrix z = spmm(a_loc, vnext_full);
          gemm(z, uj_loc, rj, -1.0, 1.0, Trans::kNo, Trans::kYes);
          return z;
        });
      }
      {
        PhaseScope reorth_phase(ctx, "reorth");
        Matrix proj =
            ctx.compute("reorth", [&] { return matmul_tn(u_loc, znext_loc); });
        spmd::allreduce_sum(ctx, proj);
        ctx.compute("reorth", [&] { gemm(znext_loc, u_loc, proj, -1.0, 1.0); });
      }
      TsqrOut ut = tsqr_dist(ctx, std::move(znext_loc), b, "orth", LocalQr::kHouseholder);
      uj_loc = std::move(ut.q_loc);
      lj = std::move(ut.r);
      vj_loc = std::move(vnext_loc);
    }

    // Gather factors (charged; see the RandQB_EI body).
    PhaseScope assemble_phase(ctx, "assemble");
    Matrix u = spmd::gather_rows(ctx, std::move(u_loc), m, /*root=*/0);
    Matrix v = spmd::gather_rows(ctx, std::move(v_loc), n, /*root=*/0);
    if (ctx.rank() == 0) {
      std::lock_guard<std::mutex> lock(out_mu);
      RandUbvResult& r = out.result;
      r.status = status;
      r.rank = rank_so_far;
      r.iterations = iterations;
      r.anorm_f = anorm;
      r.indicator = indicator;
      r.u = std::move(u);
      r.v = std::move(v);
      // Block-bidiagonal B (K x K): A ~= U B V^T with L_j on the block
      // diagonal and R_j^T coupling U block j with V block j+1.
      r.b = Matrix(rank_so_far, rank_so_far);
      Index off = 0;
      for (std::size_t j = 0; j < diag_l.size(); ++j) {
        r.b.set_block(off, off, diag_l[j]);
        if (j < super_r.size() && off + b < rank_so_far)
          r.b.set_block(off, off + b, super_r[j].transposed());
        off += diag_l[j].rows();
      }
      r.telemetry = std::move(telemetry);
    }
  };

  spmd::run(world, body, out, anorm);
  return out;
}

}  // namespace lra
