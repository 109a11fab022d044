#include "core/lu_crtp_dist.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/spmd.hpp"
#include "dense/lu.hpp"
#include "dense/qr.hpp"
#include "obs/prof/phase.hpp"
#include "par/pool.hpp"
#include "qrtp/qrtp_dist.hpp"
#include "sparse/colamd.hpp"
#include "sparse/drop.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"

namespace lra {
namespace {

using obs::prof::PhaseScope;

struct Triplet {
  Index i, j;
  double v;
};

// CSC matrix from L or U records: their (row, col) pairs are distinct and
// their values nonzero, so sorting the records in place gives what
// CooBuilder::build() would, without its copies of the records.
CscMatrix to_csc(Index rows, Index cols, std::vector<Triplet> ts) {
  std::sort(ts.begin(), ts.end(), [](const Triplet& x, const Triplet& y) {
    return x.j != y.j ? x.j < y.j : x.i < y.i;
  });
  std::vector<Index> colptr(static_cast<std::size_t>(cols) + 1, 0);
  std::vector<Index> rowind(ts.size());
  std::vector<double> values(ts.size());
  for (std::size_t t = 0; t < ts.size(); ++t) {
    ++colptr[static_cast<std::size_t>(ts[t].j) + 1];
    rowind[t] = ts[t].i;
    values[t] = ts[t].v;
  }
  for (Index j = 0; j < cols; ++j) colptr[j + 1] += colptr[j];
  return CscMatrix(rows, cols, std::move(colptr), std::move(rowind),
                   std::move(values));
}

// Column-by-column CSC assembly for the row_perm blocks. Entries are
// distinct per column; exact zeros are dropped and each column's rows are
// sorted when it is closed, so the result equals what CooBuilder::build()
// makes of the same triplets, without its global sort. Rows usually arrive
// ascending already (the source columns are sorted and the row renumbering
// is monotone), so the sort runs only on the U12 columns.
class ColumnAppender {
 public:
  explicit ColumnAppender(Index rows) : rows_(rows), colptr_{0} {}

  void add(Index i, double v) {
    if (v == 0.0) return;
    rowind_.push_back(i);
    values_.push_back(v);
  }

  void end_column() {
    const std::size_t c0 = static_cast<std::size_t>(colptr_.back());
    if (!std::is_sorted(rowind_.begin() + static_cast<std::ptrdiff_t>(c0),
                        rowind_.end())) {
      scratch_.clear();
      for (std::size_t t = c0; t < rowind_.size(); ++t)
        scratch_.emplace_back(rowind_[t], values_[t]);
      std::sort(scratch_.begin(), scratch_.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
      for (std::size_t t = c0; t < rowind_.size(); ++t)
        std::tie(rowind_[t], values_[t]) = scratch_[t - c0];
    }
    colptr_.push_back(static_cast<Index>(rowind_.size()));
  }

  CscMatrix build() && {
    const Index cols = static_cast<Index>(colptr_.size()) - 1;
    return CscMatrix(rows_, cols, std::move(colptr_), std::move(rowind_),
                     std::move(values_));
  }

 private:
  Index rows_;
  std::vector<Index> colptr_, rowind_;
  std::vector<double> values_;
  std::vector<std::pair<Index, double>> scratch_;
};

}  // namespace

DistLuResult lu_crtp_dist(const CscMatrix& a, const LuCrtpOptions& opts,
                          int nranks, const SimOptions& sim) {
  if (opts.block_size < 1)
    throw std::invalid_argument("lu_crtp: block size must be >= 1, got " +
                                std::to_string(opts.block_size));
  if (opts.colamd == ColamdMode::kEvery && nranks > 1)
    throw std::invalid_argument(
        "lu_crtp: ColamdMode::kEvery reorders the whole Schur complement and "
        "needs one rank, got " + std::to_string(nranks));
  DistLuResult out;
  const Index k = opts.block_size;
  const Index lmax = std::min(a.rows(), a.cols());
  const Index rank_budget = opts.max_rank < 0 ? lmax : std::min(opts.max_rank, lmax);
  const double anorm = a.frobenius_norm();
  const double target = opts.tau * anorm;

  // COLAMD is "a local, intrinsically sequential reordering heuristic ...
  // applied as a preprocessing step" (paper, Section V); it is not charged
  // to the parallel runtime.
  Perm pre = identity_perm(a.cols());
  CscMatrix a0;
  if (opts.colamd != ColamdMode::kOff) {
    pre = colamd_postordered(a);
    a0 = permute_columns(a, pre);
  } else {
    a0 = a;
  }

  SimWorld world(nranks, sim);
  std::mutex out_mu;

  auto body = [&](RankCtx& ctx) {
    const int p = ctx.size();
    const int r = ctx.rank();

    // Cyclic block-column distribution (block width k); one rank owns A^(1)
    // whole. Column ids refer to the *preprocessed* column order and are
    // folded back through `pre` at the end.
    std::vector<Index> col_ids;  // global ids of the s_loc columns
    for (Index j = 0; j < a0.cols(); ++j)
      if (static_cast<int>((j / k) % p) == r) col_ids.push_back(j);
    CscMatrix s_loc = p == 1 ? std::move(a0) : a0.select_columns(col_ids);

    // Active rows: replicated compact space; row_ids[local] = global id.
    std::vector<Index> row_ids(static_cast<std::size_t>(a.rows()));
    std::iota(row_ids.begin(), row_ids.end(), Index{0});

    std::vector<Index> sel_rows_global, sel_cols_global;  // iteration order
    std::vector<Triplet> l_entries, u_entries;  // global coords (rank-local)

    double mu = 0.0, mu_first = 0.0, phi = 0.0, t_acc_sq = 0.0;
    double r11_first = 0.0;
    bool threshold_enabled = opts.threshold != ThresholdMode::kNone;
    bool control_hit = false;
    Index dropped_total = 0;

    double indicator = anorm;
    Index rank_so_far = 0, iterations = 0;
    Status status = indicator <= target ? Status::kConverged  // zero-ish input
                                        : Status::kMaxIterations;
    obs::TelemetrySeries telemetry;
    std::vector<double> fill;
    std::vector<Index> schur_nnz, factor_nnz;

    while (indicator > target && rank_so_far < rank_budget) {
      const Index m_a = static_cast<Index>(row_ids.size());
      const Index n_a = ctx.allreduce_sum(static_cast<double>(col_ids.size()));
      Index kk = std::min({k, m_a, n_a, rank_budget - rank_so_far});
      if (kk <= 0) break;

      if (opts.colamd == ColamdMode::kEvery && iterations > 0) {
        // Re-order the Schur complement (one rank only, see above).
        ctx.compute("colamd", [&] {
          const Perm ord = colamd_postordered(s_loc);
          s_loc = permute_columns(s_loc, ord);
          std::vector<Index> reordered(col_ids.size());
          for (std::size_t j = 0; j < ord.size(); ++j)
            reordered[j] = col_ids[static_cast<std::size_t>(ord[j])];
          col_ids = std::move(reordered);
        });
      }

      // --- Column tournament (line 5 of Algorithm 2; two-stage reduction
      // tree). The candidates borrow s_loc for the duration of the call.
      CandidateColumns local{col_ids, std::move(s_loc)};
      CandidateColumns winners = qr_tp_dist(ctx, local, kk, "col_qrtp");
      s_loc = std::move(local.cols);
      kk = std::min<Index>(kk, winners.cols.cols());

      // --- Panel QR of the kk selected columns (line 6) on the owning
      // process; Q broadcast ---
      std::vector<Index> live;
      Matrix q;  // live.size() x kk
      double r00 = 0.0;
      {
        PhaseScope panel_phase(ctx, "panel");
        if (r == 0) {
          ctx.compute("col_qr", [&] {
            live = winners.cols.nonempty_rows();
            // Structurally rank-deficient panel: shrink the block.
            if (static_cast<Index>(live.size()) < kk)
              kk = static_cast<Index>(live.size());
            if (kk > 0) {
              const Matrix pd = dense_row_subset(winners.cols, live);
              HouseholderQR f(pd.block(0, 0, pd.rows(), kk));
              q = f.thin_q();
              r00 = std::fabs(f.r()(0, 0));
            }
          });
        }
        ByteWriter w;
        if (r == 0) {
          w.put<std::int64_t>(kk);
          w.put<double>(r00);
          w.put_vec(live);
          std::vector<double> qflat(q.data(), q.data() + q.size());
          w.put_vec(qflat);
        }
        std::vector<std::byte> blob = r == 0 ? w.take() : std::vector<std::byte>{};
        ctx.bcast_bytes(blob, 0);
        ByteReader rd(blob);
        kk = rd.get<std::int64_t>();
        r00 = rd.get<double>();
        live = rd.get_vec<Index>();
        const auto qflat = rd.get_vec<double>();
        q = Matrix(static_cast<Index>(live.size()), kk);
        std::copy(qflat.begin(), qflat.end(), q.data());
      }
      if (kk == 0) {
        status = Status::kBreakdown;
        break;
      }
      if (iterations == 0) r11_first = r00;
      winners.global_index.resize(static_cast<std::size_t>(kk));
      if (winners.cols.cols() > kk) {
        std::vector<Index> keep(static_cast<std::size_t>(kk));
        std::iota(keep.begin(), keep.end(), Index{0});
        winners.cols = winners.cols.select_columns(keep);
      }

      // --- Row tournament on row slices of Q^T (line 7) ---
      const spmd::Slice qs = spmd::slice_of(static_cast<Index>(live.size()), p, r);
      const Matrix q_slice = q.block(qs.begin, 0, qs.size(), kk);
      const std::vector<Index> slice_rows(live.begin() + qs.begin,
                                          live.begin() + qs.end);
      std::vector<Index> sel_rows =
          qr_tp_rows_dist(ctx, q_slice, slice_rows, kk, "row_qrtp");
      if (static_cast<Index>(sel_rows.size()) < kk) {
        status = Status::kBreakdown;
        break;
      }

      // --- Split around the pivot block (line 8; "row_perm" in Fig. 5) ---
      std::vector<Index> rest_rows;
      Matrix a11(kk, kk);
      CscMatrix a21;
      CscMatrix u12_loc, a22_loc;
      std::vector<Index> next_col_ids;
      {
        PhaseScope row_perm_phase(ctx, "row_perm");
        std::vector<Index> selpos(static_cast<std::size_t>(m_a), -1);
        for (Index j = 0; j < kk; ++j) selpos[sel_rows[j]] = j;
        std::vector<Index> restpos(static_cast<std::size_t>(m_a), -1);
        rest_rows.reserve(static_cast<std::size_t>(m_a - kk));
        for (Index i = 0; i < m_a; ++i)
          if (selpos[i] < 0) {
            restpos[i] = static_cast<Index>(rest_rows.size());
            rest_rows.push_back(i);
          }

        // Winner columns split into A11 (dense) and A21 (all ranks hold the
        // replicated winners after the tournament broadcast).
        ctx.compute("row_perm", [&] {
          ColumnAppender b21(m_a - kk);
          for (Index c = 0; c < kk; ++c) {
            const auto rows = winners.cols.col_rows(c);
            const auto vals = winners.cols.col_values(c);
            for (std::size_t t = 0; t < rows.size(); ++t) {
              if (selpos[rows[t]] >= 0)
                a11(selpos[rows[t]], c) = vals[t];
              else
                b21.add(restpos[rows[t]], vals[t]);
            }
            b21.end_column();
          }
          a21 = std::move(b21).build();
        });

        // Local columns (minus any winners we own) split into U12 and A22,
        // read in place from s_loc.
        ctx.compute("row_perm", [&] {
          std::vector<Index> winner_ids = winners.global_index;
          std::sort(winner_ids.begin(), winner_ids.end());
          std::vector<Index> keep;
          keep.reserve(col_ids.size());
          for (std::size_t j = 0; j < col_ids.size(); ++j)
            if (!std::binary_search(winner_ids.begin(), winner_ids.end(),
                                    col_ids[j])) {
              keep.push_back(static_cast<Index>(j));
              next_col_ids.push_back(col_ids[j]);
            }
          ColumnAppender b12(kk);
          ColumnAppender b22(m_a - kk);
          for (const Index j : keep) {
            const auto rows = s_loc.col_rows(j);
            const auto vals = s_loc.col_values(j);
            for (std::size_t t = 0; t < rows.size(); ++t) {
              if (selpos[rows[t]] >= 0)
                b12.add(selpos[rows[t]], vals[t]);
              else
                b22.add(restpos[rows[t]], vals[t]);
            }
            b12.end_column();
            b22.end_column();
          }
          u12_loc = std::move(b12).build();
          a22_loc = std::move(b22).build();
        });
      }

      // --- L block X = A21 A11^{-1} (line 10): scattered solve + allgather
      // (Section V) ---
      CscMatrix x;  // (m_a - kk) x kk, replicated after the allgather
      {
        PhaseScope solve_phase(ctx, "solve_a21");
        // Row-equilibrate the pivot block first, A11 = D * S with D = diag(row
        // max magnitudes), so the conditioning guard is scale-invariant
        // (graded blocks are fine; true deficiency is not). The solve
        // X A11 = A21 becomes Y S = A21 with X(:, j) = Y(:, j) / D(j, j).
        std::vector<double> dinv(static_cast<std::size_t>(kk), 0.0);
        bool degenerate = false;
        Matrix a11_scaled = a11;
        ctx.compute("solve_a21", [&] {
          for (Index i = 0; i < kk; ++i) {
            double mx = 0.0;
            for (Index j = 0; j < kk; ++j)
              mx = std::max(mx, std::fabs(a11_scaled(i, j)));
            if (mx == 0.0) {
              degenerate = true;
              continue;
            }
            dinv[i] = 1.0 / mx;
            for (Index j = 0; j < kk; ++j) a11_scaled(i, j) *= dinv[i];
          }
        });
        PartialPivLU lu11 =
            ctx.compute("solve_a21", [&] { return PartialPivLU(a11_scaled); });
        if (degenerate || lu11.singular() || lu11.rcond_estimate() < 1e-15) {
          status = Status::kBreakdown;
          break;
        }
        // A21's nonzero rows are dealt round-robin over ranks; row c of X
        // solves y^T S = a21_c^T, then X(c, j) = y(j) * dinv[j]. Each solve
        // writes its own payload record [c, x_c0 .. x_c(kk-1)], so the
        // solves run on the thread pool (inline on a rank of a P > 1 world)
        // and the result is bitwise identical at any thread count.
        const CscMatrix a21t = a21.transposed();  // kk x (m_a - kk)
        std::vector<Index> my_rows;
        for (Index c = 0, counter = 0; c < a21t.cols(); ++c)
          if (a21t.col_nnz(c) > 0 && static_cast<int>(counter++ % p) == r)
            my_rows.push_back(c);
        const std::size_t stride = static_cast<std::size_t>(kk) + 1;
        std::vector<double> payload(my_rows.size() * stride);
        ctx.compute("solve_a21", [&] {
          ThreadPool::global().parallel_ranges(
              Index{0}, static_cast<Index>(my_rows.size()), "lu_solve",
              /*grain=*/16, [&](Index i0, Index i1, int) {
                for (Index i = i0; i < i1; ++i) {
                  const Index c = my_rows[static_cast<std::size_t>(i)];
                  double* rec = payload.data() + static_cast<std::size_t>(i) * stride;
                  rec[0] = static_cast<double>(c);
                  double* rhs = rec + 1;
                  const auto rows = a21t.col_rows(c);
                  const auto vals = a21t.col_values(c);
                  for (std::size_t t = 0; t < rows.size(); ++t) rhs[rows[t]] = vals[t];
                  lu11.solve_row_inplace(rhs);
                  for (Index j = 0; j < kk; ++j) rhs[j] *= dinv[j];
                }
              });
        });
        const std::vector<double> allx =
            p == 1 ? std::move(payload) : ctx.allgatherv(payload);
        ctx.compute("solve_a21", [&] {
          // X in CSC straight from the row records: order the records by
          // row (at P > 1 the ranks' blocks arrive one after another), count
          // each column's nonzeros, then fill. Every row has one record and
          // exact zeros are dropped, so this is CooBuilder::build()'s result
          // without its sort of every entry.
          const std::size_t nrec = allx.size() / stride;
          auto rec = [&](std::size_t t) { return allx.data() + t * stride; };
          auto by_row = [&](std::size_t s, std::size_t t) {
            return rec(s)[0] < rec(t)[0];
          };
          std::vector<std::size_t> order(nrec);
          std::iota(order.begin(), order.end(), std::size_t{0});
          if (!std::is_sorted(order.begin(), order.end(), by_row))
            std::sort(order.begin(), order.end(), by_row);
          std::vector<Index> colptr(static_cast<std::size_t>(kk) + 1, 0);
          for (std::size_t t = 0; t < nrec; ++t)
            for (Index j = 0; j < kk; ++j)
              if (rec(t)[1 + j] != 0.0) ++colptr[static_cast<std::size_t>(j) + 1];
          for (Index j = 0; j < kk; ++j) colptr[j + 1] += colptr[j];
          std::vector<Index> next(colptr.begin(), colptr.end() - 1);
          std::vector<Index> rowind(static_cast<std::size_t>(colptr[kk]));
          std::vector<double> values(rowind.size());
          for (const std::size_t t : order)
            for (Index j = 0; j < kk; ++j) {
              const double v = rec(t)[1 + j];
              if (v == 0.0) continue;
              const Index q = next[j]++;
              rowind[q] = static_cast<Index>(rec(t)[0]);
              values[q] = v;
            }
          x = CscMatrix(m_a - kk, kk, std::move(colptr), std::move(rowind),
                        std::move(values));
        });
      }

      // --- Schur complement of the local columns (line 12) ---
      CscMatrix schur_loc;
      {
        PhaseScope schur_phase(ctx, "schur");
        schur_loc = ctx.compute(
            "schur", [&] { return schur_update(a22_loc, x, u12_loc); });
      }

      // Post the error-indicator reduction (9) now and record this round's
      // factor triplets while it is in flight: the recording reads only
      // panel state (x, a11, u12), none of which the reduction touches, so
      // the bookkeeping overlaps the modeled allreduce.
      CollRequest ind_req;
      {
        PhaseScope err_phase(ctx, "error_check");
        const double local_sq = schur_loc.frobenius_norm_sq();
        ind_req = ctx.iallreduce_sum(std::vector<double>{local_sq});
      }

      // --- Record L and U triplets (line 11; L on rank 0, U on the owning
      // ranks) ---
      const Index koff = rank_so_far;
      for (Index j = 0; j < kk; ++j) {
        sel_rows_global.push_back(row_ids[sel_rows[j]]);
        sel_cols_global.push_back(winners.global_index[j]);
      }
      if (r == 0) {
        for (Index j = 0; j < kk; ++j)
          l_entries.push_back({row_ids[sel_rows[j]], koff + j, 1.0});
        for (Index j = 0; j < x.cols(); ++j) {
          const auto rows = x.col_rows(j);
          const auto vals = x.col_values(j);
          for (std::size_t t = 0; t < rows.size(); ++t)
            l_entries.push_back(
                {row_ids[rest_rows[rows[t]]], koff + j, vals[t]});
        }
        for (Index rr = 0; rr < kk; ++rr)
          for (Index c = 0; c < kk; ++c)
            if (a11(rr, c) != 0.0)
              u_entries.push_back(
                  {koff + rr, winners.global_index[c], a11(rr, c)});
      }
      for (Index j = 0; j < u12_loc.cols(); ++j) {
        const auto rows = u12_loc.col_rows(j);
        const auto vals = u12_loc.col_values(j);
        for (std::size_t t = 0; t < rows.size(); ++t)
          u_entries.push_back({koff + rows[t], next_col_ids[j], vals[t]});
      }

      rank_so_far += kk;
      iterations += 1;

      indicator = std::sqrt(std::max(0.0, ctx.wait_allreduce_sum(ind_req)[0]));

      // --- ILUT thresholding (Algorithm 3, lines 5-10) ---
      if (threshold_enabled && iterations == 1) {
        const Index u_est =
            opts.estimated_iterations > 0
                ? opts.estimated_iterations
                : std::max<Index>(1, rank_budget / k);
        mu = opts.tau * r11_first /
             (static_cast<double>(u_est) *
              std::sqrt(static_cast<double>(std::max<Index>(1, a.nnz()))));
        mu_first = mu;
        phi = opts.phi > 0.0 ? opts.phi : opts.tau * r11_first;
      }
      if (threshold_enabled && indicator >= target) {
        PhaseScope threshold_phase(ctx, "threshold");
        CscMatrix backup = schur_loc;
        DropResult dr = ctx.compute("threshold", [&] {
          return opts.threshold == ThresholdMode::kIlut
                     ? drop_below(schur_loc, mu)
                     : drop_budgeted(schur_loc, phi, t_acc_sq);
        });
        const double global_drop_sq = ctx.allreduce_sum(dr.fro_sq);
        const double global_dropped = ctx.allreduce_sum(static_cast<double>(dr.dropped));
        if (std::sqrt(t_acc_sq + global_drop_sq) >= phi) {
          // Threshold control (line 10): undo and stop thresholding.
          schur_loc = std::move(backup);
          mu = 0.0;
          threshold_enabled = false;
          control_hit = true;
        } else {
          t_acc_sq += global_drop_sq;
          dropped_total += static_cast<Index>(global_dropped);
        }
      }

      // --- Bookkeeping for the next iteration ---
      std::vector<Index> next_rows;
      next_rows.reserve(rest_rows.size());
      for (Index i : rest_rows) next_rows.push_back(row_ids[i]);
      row_ids = std::move(next_rows);
      col_ids = std::move(next_col_ids);
      s_loc = std::move(schur_loc);

      const double nnz_glob = ctx.allreduce_sum(static_cast<double>(s_loc.nnz()));
      const double ncols_glob = ctx.allreduce_sum(static_cast<double>(col_ids.size()));
      const double factor_nnz_glob = ctx.allreduce_sum(
          static_cast<double>(l_entries.size() + u_entries.size()));
      fill.push_back(ncols_glob * row_ids.size() == 0
                         ? 0.0
                         : nnz_glob / (static_cast<double>(row_ids.size()) *
                                       ncols_glob));
      schur_nnz.push_back(static_cast<Index>(nnz_glob));
      factor_nnz.push_back(static_cast<Index>(factor_nnz_glob));
      obs::IterationSample& smp = obs::append_sample(
          telemetry, rank_so_far, indicator / anorm, opts.tau, ctx.vtime());
      smp.schur_nnz = schur_nnz.back();
      smp.fill_density = fill.back();
      smp.factor_nnz = factor_nnz.back();
      if (indicator < target) {
        status = Status::kConverged;
        break;
      }
    }
    if (indicator < target) status = Status::kConverged;

    // --- Gather factors to rank 0 (charged, like RandQB_EI's assemble) ---
    // U triplets and surviving column ids; one rank already holds them all.
    PhaseScope assemble_phase(ctx, "assemble");
    std::vector<Triplet> all_u;
    std::vector<Index> surviving_cols;
    if (p == 1) {
      all_u = std::move(u_entries);
      surviving_cols = std::move(col_ids);
    } else {
      ByteWriter w;
      w.put_vec(u_entries);
      w.put_vec(col_ids);  // surviving columns on this rank
      const auto blobs = ctx.exchange_all(w.take(), 0.0, "gather_factors");
      if (r == 0) {
        for (const auto& blob : blobs) {
          ByteReader rd(blob);
          const auto u = rd.get_vec<Triplet>();
          all_u.insert(all_u.end(), u.begin(), u.end());
          const auto sc = rd.get_vec<Index>();
          surviving_cols.insert(surviving_cols.end(), sc.begin(), sc.end());
        }
        std::sort(surviving_cols.begin(), surviving_cols.end());
      }
    }

    if (r == 0) {
      std::lock_guard<std::mutex> lock(out_mu);
      LuCrtpResult& res = out.result;
      res.status = status;
      res.rank = rank_so_far;
      res.iterations = iterations;
      res.anorm_f = anorm;
      res.indicator = indicator;
      res.r11_first = r11_first;
      res.mu = mu_first;
      res.t_norm_sq = t_acc_sq;
      res.dropped_entries = dropped_total;
      res.threshold_control_hit = control_hit;
      res.fill_density = std::move(fill);
      res.schur_nnz = std::move(schur_nnz);
      res.factor_nnz = std::move(factor_nnz);
      res.telemetry = std::move(telemetry);

      // Final order: selected rows/columns in iteration order, then the
      // survivors (P_r A P_c ~= L U; P_c composed with `pre`).
      res.row_perm = std::move(sel_rows_global);
      res.row_perm.insert(res.row_perm.end(), row_ids.begin(), row_ids.end());
      Perm colp = std::move(sel_cols_global);
      colp.insert(colp.end(), surviving_cols.begin(), surviving_cols.end());
      res.col_perm.resize(colp.size());
      for (std::size_t j = 0; j < colp.size(); ++j)
        res.col_perm[j] = pre[colp[j]];

      const Perm row_pos = invert(res.row_perm);
      Perm col_pos(colp.size());
      for (std::size_t j = 0; j < colp.size(); ++j)
        col_pos[colp[j]] = static_cast<Index>(j);

      for (Triplet& t : l_entries) t.i = row_pos[t.i];
      res.l = to_csc(a.rows(), res.rank, std::move(l_entries));
      for (Triplet& t : all_u) t.j = col_pos[t.j];
      res.u = to_csc(res.rank, a.cols(), std::move(all_u));
    }
  };

  spmd::run(world, body, out, anorm);
  return out;
}

}  // namespace lra
