#include "core/randqb_ei_dist.hpp"

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
using spmd::Slice;
using spmd::slice_of;
using spmd::tsqr_dist;

DistRandQbResult randqb_ei_dist(const CscMatrix& a, const RandQbOptions& opts,
                                int nranks, const SimOptions& sim) {
  if (opts.block_size < 1)
    throw std::invalid_argument("randqb_ei: block size must be >= 1, got " +
                                std::to_string(opts.block_size));
  DistRandQbResult out;
  const Index m = a.rows(), n = a.cols();
  const Index k = opts.block_size;
  const Index lmax = std::min(m, n);
  const Index rank_budget = opts.max_rank < 0 ? lmax : std::min(opts.max_rank, lmax);
  const double anorm = a.frobenius_norm();
  const double target = opts.tau * anorm;

  SimWorld world(nranks, sim);
  std::mutex out_mu;

  auto body = [&](RankCtx& ctx) {
    const Slice cs = slice_of(n, ctx.size(), ctx.rank());  // cols of B
    CscMatrix a_block;
    const CscMatrix& a_loc = spmd::local_rows(ctx, a, a_block);  // rows of A, Q

    Matrix q_loc(a_loc.rows(), 0);  // my rows of Q_K
    Matrix b_loc(0, cs.size());     // my columns of B_K
    double e = anorm * anorm;       // E in Algorithm 1
    Index rank_so_far = 0;
    Index iterations = 0;
    obs::TelemetrySeries telemetry;
    double indicator = anorm;
    Status status = Status::kMaxIterations;

    // Loop-carried buffers for the two sketch products that are not moved
    // into the TSQR (those must stay fresh); reshaped in place per iteration.
    Matrix z_full, bkt_loc;

    while (rank_so_far < rank_budget) {
      const Index kk = std::min(k, rank_budget - rank_so_far);

      // Line 5: Y = A Omega - Q_K (B_K Omega).
      Matrix y_loc;
      {
        PhaseScope phase(ctx, "sketch");
        // Line 4: Gaussian test block, identical on every rank by
        // construction (stream = iteration for reproducibility).
        const Matrix omega = ctx.compute([&] {
          return Matrix::gaussian(n, kk, opts.seed,
                                  static_cast<std::uint64_t>(iterations));
        });

        // B_K * Omega: column-distributed B against my slice of Omega's rows.
        Matrix bo(rank_so_far, kk);
        if (rank_so_far > 0) {
          ctx.compute("spmm", [&] {
            const Matrix omega_slice = omega.block(cs.begin, 0, cs.size(), kk);
            gemm(bo, b_loc, omega_slice);
          });
          spmd::allreduce_sum(ctx, bo);
        }

        y_loc = ctx.compute("spmm", [&] {
          Matrix y = spmm(a_loc, omega);
          if (rank_so_far > 0) gemm(y, q_loc, bo, -1.0, 1.0);
          return y;
        });
      }
      Matrix qk_loc = tsqr_dist(ctx, std::move(y_loc), kk, "orth").q_loc;

      // Lines 6-9: power scheme.
      for (int p = 0; p < opts.power; ++p) {
        PhaseScope phase(ctx, "power");
        // z = A^T qk - B^T (Q^T qk), row-distributed by the column slices.
        ctx.compute("power", [&] { spmm_t_into(z_full, a_loc, qk_loc); });
        spmd::allreduce_sum(ctx, z_full);
        Matrix z_loc = ctx.compute("power", [&] {
          return z_full.block(cs.begin, 0, cs.size(), kk);
        });
        if (rank_so_far > 0) {
          Matrix qtqk = ctx.compute("power", [&] { return matmul_tn(q_loc, qk_loc); });
          spmd::allreduce_sum(ctx, qtqk);
          ctx.compute("power", [&] {
            gemm(z_loc, b_loc, qtqk, -1.0, 1.0, Trans::kYes, Trans::kNo);
          });
        }
        Matrix qhat_loc = tsqr_dist(ctx, std::move(z_loc), kk, "power").q_loc;
        // Replicate qhat (A_loc needs all of it).
        Matrix qhat;
        {
          PhaseScope rep(ctx, "replicate");
          qhat = spmd::gather_rows(ctx, std::move(qhat_loc), n);
        }
        // w = A qhat - Q (B qhat).
        Matrix bq(rank_so_far, kk);
        if (rank_so_far > 0) {
          ctx.compute("power", [&] {
            const Matrix qhat_slice = qhat.block(cs.begin, 0, cs.size(), kk);
            gemm(bq, b_loc, qhat_slice);
          });
          spmd::allreduce_sum(ctx, bq);
        }
        Matrix w_loc = ctx.compute("power", [&] {
          Matrix w = spmm(a_loc, qhat);
          if (rank_so_far > 0) gemm(w, q_loc, bq, -1.0, 1.0);
          return w;
        });
        qk_loc = tsqr_dist(ctx, std::move(w_loc), kk, "power").q_loc;
      }

      // Line 10: re-orthogonalization against the accumulated basis.
      if (rank_so_far > 0) {
        PhaseScope phase(ctx, "reorth");
        Matrix proj = ctx.compute("reorth", [&] { return matmul_tn(q_loc, qk_loc); });
        spmd::allreduce_sum(ctx, proj);
        ctx.compute("reorth", [&] { gemm(qk_loc, q_loc, proj, -1.0, 1.0); });
        qk_loc = tsqr_dist(ctx, std::move(qk_loc), kk, "reorth").q_loc;
      }

      // Line 11: B_k = Q_k^T A : local partial over my rows, reduced; keep my
      // columns.
      Matrix bk_slice;
      {
        PhaseScope phase(ctx, "b_update");
        Matrix bk_partial = ctx.compute("b_update", [&] {
          spmm_t_into(bkt_loc, a_loc, qk_loc);
          return bkt_loc.transposed();  // kk x n
        });
        spmd::allreduce_sum(ctx, bk_partial);
        bk_slice = ctx.compute("b_update", [&] {
          return bk_partial.block(0, cs.begin, kk, cs.size());
        });
      }

      // Lines 13-14: error indicator (4), ||B_k||_F^2 summed over column
      // slices. Post the reduction first, then fold the new block into the
      // accumulated basis while the allreduce is in flight — the append
      // reads nothing the reduction writes, so the copy cost genuinely
      // overlaps the transfer.
      CollRequest ind_req;
      {
        PhaseScope phase(ctx, "error_check");
        const double local_sq = ctx.compute(
            "error_check", [&] { return bk_slice.frobenius_norm_sq(); });
        ind_req = ctx.iallreduce_sum(std::vector<double>{local_sq});
      }

      // Line 12: grow the factorization.
      {
        PhaseScope phase(ctx, "b_update");
        ctx.compute("b_update", [&] {
          q_loc.append_cols(qk_loc);
          b_loc.append_rows(bk_slice);
        });
      }
      rank_so_far += kk;
      iterations += 1;

      const double bk_sq = ctx.wait_allreduce_sum(ind_req)[0];
      e -= bk_sq;
      indicator = std::sqrt(std::max(0.0, e));
      obs::append_sample(telemetry, rank_so_far, indicator / anorm, opts.tau,
                         ctx.vtime());
      if (indicator < target) {
        // Below the floor of Theorem 3 [Yu/Gu/Li] the indicator cannot
        // certify the bound in double precision.
        status = opts.tau < kRandQbIndicatorFloor ? Status::kIndicatorFloor
                                                  : Status::kConverged;
        break;
      }
    }

    // Assemble the factors on rank 0. The gathers are charged: spmd::run
    // reads the virtual makespan after the body returns, so they are part of
    // virtual_seconds and of the profile's "assemble" phase.
    PhaseScope assemble_phase(ctx, "assemble");
    Matrix q = spmd::gather_rows(ctx, std::move(q_loc), m, /*root=*/0);
    Matrix b = spmd::gather_cols(ctx, std::move(b_loc), n, /*root=*/0);
    if (ctx.rank() == 0) {
      std::lock_guard<std::mutex> lock(out_mu);
      RandQbResult& r = out.result;
      r.status = status;
      r.rank = rank_so_far;
      r.iterations = iterations;
      r.anorm_f = anorm;
      r.indicator = indicator;
      r.q = std::move(q);
      r.b = std::move(b);
      r.telemetry = std::move(telemetry);
    }
  };

  spmd::run(world, body, out, anorm);
  return out;
}

}  // namespace lra
