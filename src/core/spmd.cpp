#include "core/spmd.hpp"

#include <algorithm>
#include <optional>

#include "dense/blas.hpp"
#include "dense/qr.hpp"
#include "dense/tsqr.hpp"
#include "obs/prof/phase.hpp"

namespace lra::spmd {

Slice slice_of(Index n, int p, int r) {
  const Index base = n / p, rem = n % p;
  const Index lo = r * base + std::min<Index>(r, rem);
  return {lo, lo + base + (r < rem ? 1 : 0)};
}

const CscMatrix& local_rows(RankCtx& ctx, const CscMatrix& a,
                            CscMatrix& storage) {
  if (ctx.size() == 1) return a;
  const Slice rs = slice_of(a.rows(), ctx.size(), ctx.rank());
  storage = a.block(rs.begin, rs.end, 0, a.cols());
  return storage;
}

void allreduce_sum(RankCtx& ctx, Matrix& m) {
  if (ctx.size() == 1 || m.size() == 0) return;
  const std::vector<double> sum =
      ctx.allreduce_sum(std::vector<double>(m.data(), m.data() + m.size()));
  std::copy(sum.begin(), sum.end(), m.data());
}

Matrix gather_rows(RankCtx& ctx, Matrix loc, Index total_rows, int root) {
  if (ctx.size() == 1) return loc;
  const Index kk = loc.cols();
  const std::vector<double> all =
      ctx.allgatherv(std::vector<double>(loc.data(), loc.data() + loc.size()));
  if (root >= 0 && ctx.rank() != root) return {};
  Matrix full(total_rows, kk);
  std::size_t pos = 0;
  for (int r = 0; r < ctx.size(); ++r) {
    const Slice s = slice_of(total_rows, ctx.size(), r);
    for (Index j = 0; j < kk; ++j)
      for (Index i = 0; i < s.size(); ++i)
        full(s.begin + i, j) = all[pos + static_cast<std::size_t>(j * s.size() + i)];
    pos += static_cast<std::size_t>(s.size() * kk);
  }
  return full;
}

Matrix gather_cols(RankCtx& ctx, Matrix loc, Index total_cols, int root) {
  if (ctx.size() == 1) return loc;
  // Column-major column slices in rank order concatenate to the whole
  // column-major matrix.
  const std::vector<double> all =
      ctx.allgatherv(std::vector<double>(loc.data(), loc.data() + loc.size()));
  if (root >= 0 && ctx.rank() != root) return {};
  Matrix full(loc.rows(), total_cols);
  std::copy(all.begin(), all.end(), full.data());
  return full;
}

TsqrOut tsqr_dist(RankCtx& ctx, Matrix y_loc, Index kk,
                  const std::string& kernel, LocalQr local) {
  obs::prof::PhaseScope phase(ctx, "tsqr");
  // Local QR: tall panels through the pool-parallel tsqr() exactly as orth()
  // routes them, so a one-rank world reproduces orth()'s bits; otherwise one
  // Householder QR whose explicit Q is formed below. Ranks with fewer rows
  // than kk contribute a short R block.
  const Index block_rows = local == LocalQr::kOrth
                               ? orth_tsqr_block_rows(y_loc.rows(), kk)
                               : 0;
  TsqrOut mine;
  std::optional<HouseholderQR> f;
  ctx.compute(kernel, [&] {
    if (block_rows > 0) {
      TsqrResult t = tsqr(y_loc, block_rows);
      mine.q_loc = std::move(t.q);
      mine.r = std::move(t.r);
    } else {
      f.emplace(std::move(y_loc));
      mine.r = f->r();  // min(m_loc, kk) x kk
    }
  });
  if (ctx.size() == 1) {
    if (f) mine.q_loc = ctx.compute(kernel, [&] { return f->thin_q(); });
    return mine;
  }

  // Allgather the R factors, prefixed with the local row count so ranks can
  // unpack heterogeneous blocks. While the exchange is in flight, form this
  // rank's explicit Q1: thin_q reads only the local factorization, so the
  // O(m_loc * kk^2) backtransform overlaps the modeled allgather without
  // touching any floating-point order.
  const Matrix& r_loc = mine.r;
  std::vector<double> payload;
  payload.reserve(static_cast<std::size_t>(1 + r_loc.rows() * kk));
  payload.push_back(static_cast<double>(r_loc.rows()));
  for (Index i = 0; i < r_loc.rows(); ++i)
    for (Index j = 0; j < kk; ++j) payload.push_back(r_loc(i, j));
  CollRequest gather = ctx.iallgatherv(payload);
  if (f) mine.q_loc = ctx.compute(kernel, [&] { return f->thin_q(); });
  const std::vector<double> all = ctx.wait_allgatherv(gather);

  // Stack and redundantly factor the P small R blocks.
  return ctx.compute(kernel, [&] {
    Matrix stacked(0, kk);
    std::vector<Index> offsets;  // row offset of each rank's block
    std::size_t pos = 0;
    for (int r = 0; r < ctx.size(); ++r) {
      const Index nr = static_cast<Index>(all[pos++]);
      Matrix blk(nr, kk);
      for (Index i = 0; i < nr; ++i)
        for (Index j = 0; j < kk; ++j)
          blk(i, j) = all[pos + static_cast<std::size_t>(i * kk + j)];
      pos += static_cast<std::size_t>(nr * kk);
      offsets.push_back(stacked.rows());
      stacked.append_rows(blk);
    }
    HouseholderQR top(std::move(stacked));
    const Matrix q2 = top.thin_q();
    const Matrix my_q2 = q2.block(offsets[static_cast<std::size_t>(ctx.rank())],
                                  0, std::min<Index>(r_loc.rows(), kk), kk);
    TsqrOut out;
    out.r = top.r();
    out.q_loc = matmul(mine.q_loc, my_q2);  // Q_loc = Q1_loc * Q2_block
    return out;
  });
}

}  // namespace lra::spmd
