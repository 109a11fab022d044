#include "sparse/spgemm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <vector>

#include "dense/blas.hpp"
#include "par/pool.hpp"
#include "support/workspace.hpp"

namespace lra {
namespace {

// Sparse accumulator (SPA) over m rows: dense value array + occupancy list.
class Spa {
 public:
  explicit Spa(Index m)
      : val_(static_cast<std::size_t>(m), 0.0),
        mark_(static_cast<std::size_t>(m), 0) {}

  void scatter(Index i, double v) {
    if (!mark_[i]) {
      mark_[i] = 1;
      nz_.push_back(i);
      val_[i] = v;
    } else {
      val_[i] += v;
    }
  }

  /// Flush the nonzeros of the accumulated column into rows/vals, sorted by
  /// row, dropping entries that cancelled to exactly zero; returns their
  /// count. Resets the accumulator.
  Index gather_nonzeros(Index* rows, double* vals) {
    std::sort(nz_.begin(), nz_.end());
    Index c = 0;
    for (Index i : nz_) {
      if (val_[i] != 0.0) {
        rows[c] = i;
        vals[c++] = val_[i];
      }
      val_[i] = 0.0;
      mark_[i] = 0;
    }
    nz_.clear();
    return c;
  }

  /// Flush the accumulated column into (rowind, values), sorted by row, then
  /// reset. Entries that cancelled to exactly zero are kept (they are real
  /// fill-in positions); callers prune separately if desired.
  void gather(std::vector<Index>& rowind, std::vector<double>& values) {
    std::sort(nz_.begin(), nz_.end());
    for (Index i : nz_) {
      rowind.push_back(i);
      values.push_back(val_[i]);
      val_[i] = 0.0;
      mark_[i] = 0;
    }
    nz_.clear();
  }

 private:
  std::vector<double> val_;
  std::vector<char> mark_;
  std::vector<Index> nz_;
};

// Stitch per-column (rows, values) buffers into one CSC matrix.
CscMatrix stitch_columns(Index m, Index n,
                         std::vector<std::vector<Index>>& col_rows,
                         std::vector<std::vector<double>>& col_vals) {
  std::vector<Index> colptr(static_cast<std::size_t>(n) + 1, 0);
  for (Index j = 0; j < n; ++j)
    colptr[j + 1] = colptr[j] + static_cast<Index>(col_rows[j].size());
  std::vector<Index> rowind(static_cast<std::size_t>(colptr[n]));
  std::vector<double> values(static_cast<std::size_t>(colptr[n]));
  for (Index j = 0; j < n; ++j) {
    std::copy(col_rows[j].begin(), col_rows[j].end(),
              rowind.begin() + colptr[j]);
    std::copy(col_vals[j].begin(), col_vals[j].end(),
              values.begin() + colptr[j]);
  }
  return CscMatrix(m, n, std::move(colptr), std::move(rowind),
                   std::move(values));
}

}  // namespace

CscMatrix spgemm(const CscMatrix& a, const CscMatrix& b) {
  assert(a.cols() == b.rows());
  const Index m = a.rows(), n = b.cols();
  // Output columns are independent; compute them into per-column buffers
  // with one sparse accumulator per pool slice (each column's scatter order
  // is unchanged, so the result is bitwise identical to the serial path at
  // any thread count), then stitch into one CSC.
  std::vector<std::vector<Index>> col_rows_out(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> col_vals_out(static_cast<std::size_t>(n));
  ThreadPool::global().parallel_ranges(
      Index{0}, n, "spgemm", /*grain=*/16, [&](Index j0, Index j1, int) {
        Spa spa(m);
        for (Index j = j0; j < j1; ++j) {
          const auto brows = b.col_rows(j);
          const auto bvals = b.col_values(j);
          for (std::size_t p = 0; p < brows.size(); ++p) {
            const Index k = brows[p];
            const double w = bvals[p];
            const auto arows = a.col_rows(k);
            const auto avals = a.col_values(k);
            for (std::size_t q = 0; q < arows.size(); ++q)
              spa.scatter(arows[q], avals[q] * w);
          }
          spa.gather(col_rows_out[j], col_vals_out[j]);
        }
      });
  return stitch_columns(m, n, col_rows_out, col_vals_out);
}

CscMatrix spadd(const CscMatrix& a, const CscMatrix& b, double alpha,
                double beta) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  std::vector<Index> colptr(static_cast<std::size_t>(a.cols()) + 1, 0);
  std::vector<Index> rowind;
  std::vector<double> values;
  for (Index j = 0; j < a.cols(); ++j) {
    const auto ar = a.col_rows(j);
    const auto av = a.col_values(j);
    const auto br = b.col_rows(j);
    const auto bv = b.col_values(j);
    std::size_t p = 0, q = 0;
    while (p < ar.size() || q < br.size()) {
      Index i;
      double v;
      if (q >= br.size() || (p < ar.size() && ar[p] < br[q])) {
        i = ar[p];
        v = alpha * av[p++];
      } else if (p >= ar.size() || br[q] < ar[p]) {
        i = br[q];
        v = beta * bv[q++];
      } else {
        i = ar[p];
        v = alpha * av[p++] + beta * bv[q++];
      }
      rowind.push_back(i);
      values.push_back(v);
    }
    colptr[j + 1] = static_cast<Index>(rowind.size());
  }
  return CscMatrix(a.rows(), a.cols(), std::move(colptr), std::move(rowind),
                   std::move(values));
}

CscMatrix schur_update(const CscMatrix& a, const CscMatrix& l,
                       const CscMatrix& u) {
  assert(a.rows() == l.rows() && a.cols() == u.cols() && l.cols() == u.rows());
  const Index m = a.rows(), n = a.cols(), kk = l.cols();

  // Rows where L has any entry: column j's result can be nonzero only on
  // these and on A(:, j)'s rows.
  std::vector<char> in_l(static_cast<std::size_t>(m), 0);
  Index nl = 0;
  for (const Index i : l.rowind())
    if (!in_l[i]) {
      in_l[i] = 1;
      ++nl;
    }

  // Per column: the scatter work w, which picks the accumulator, and a
  // structural bound on the output, min(w, |rows(L) u rows(A(:, j))|). The
  // bounds lay out one output buffer; column j computes straight into its
  // slot, so the layout does not depend on the slicing.
  std::vector<Index> slot(static_cast<std::size_t>(n) + 1, 0);
  std::vector<char> dense(static_cast<std::size_t>(n), 0);
  bool any_dense = false;
  for (Index j = 0; j < n; ++j) {
    Index w = a.col_nnz(j);
    Index reach = nl;
    for (const Index i : a.col_rows(j)) reach += in_l[i] ? 0 : 1;
    bool finite = true;
    const auto ur = u.col_rows(j);
    const auto uv = u.col_values(j);
    for (std::size_t p = 0; p < ur.size(); ++p) {
      w += l.col_nnz(ur[p]);
      finite = finite && std::isfinite(uv[p]);
    }
    dense[j] = finite && 8 * w >= m && w > 0;
    any_dense = any_dense || dense[j];
    slot[j + 1] = slot[j] + std::min(w, reach);
  }
  std::vector<Index> rowind(static_cast<std::size_t>(slot[n]));
  std::vector<double> values(rowind.size());
  std::vector<Index> count(static_cast<std::size_t>(n), 0);

  // Dense copy of L for the dense-column path, built once.
  Workspace::Scope scope;
  double* ld = nullptr;
  if (any_dense) {
    ld = scope.zeroed_doubles(static_cast<std::size_t>(m) *
                              static_cast<std::size_t>(kk));
    for (Index k = 0; k < kk; ++k) {
      double* col = ld + static_cast<std::size_t>(k) * m;
      const auto lr = l.col_rows(k);
      const auto lv = l.col_values(k);
      for (std::size_t q = 0; q < lr.size(); ++q) col[lr[q]] = lv[q];
    }
  }

  ThreadPool::global().parallel_ranges(
      Index{0}, n, "schur", /*grain=*/16, [&](Index j0, Index j1, int) {
        Workspace::Scope slice_scope;
        double* y = nullptr;
        std::optional<Spa> spa;
        for (Index j = j0; j < j1; ++j) {
          Index* out_rows = rowind.data() + slot[j];
          double* out_vals = values.data() + slot[j];
          const auto ar = a.col_rows(j);
          const auto av = a.col_values(j);
          const auto ur = u.col_rows(j);
          const auto uv = u.col_values(j);
          if (dense[j]) {
            // y = A(:, j), then y += L(:, k) * (-U(k, j)) in ascending k;
            // the row-order gather resets y to zero for the next column.
            if (y == nullptr)
              y = slice_scope.zeroed_doubles(static_cast<std::size_t>(m));
            for (std::size_t p = 0; p < ar.size(); ++p) y[ar[p]] = av[p];
            for (std::size_t p = 0; p < ur.size(); ++p)
              axpy(m, -uv[p], ld + static_cast<std::size_t>(ur[p]) * m, y);
            Index c = 0;
            for (Index i = 0; i < m; ++i) {
              const double v = y[i];
              y[i] = 0.0;
              if (v != 0.0) {
                out_rows[c] = i;
                out_vals[c++] = v;
              }
            }
            count[j] = c;
          } else {
            if (!spa) spa.emplace(m);
            for (std::size_t p = 0; p < ar.size(); ++p)
              spa->scatter(ar[p], av[p]);
            for (std::size_t p = 0; p < ur.size(); ++p) {
              const double w = -uv[p];
              const auto lr = l.col_rows(ur[p]);
              const auto lv = l.col_values(ur[p]);
              for (std::size_t q = 0; q < lr.size(); ++q)
                spa->scatter(lr[q], lv[q] * w);
            }
            count[j] = spa->gather_nonzeros(out_rows, out_vals);
          }
        }
      });

  // Close the gaps left by cancelled entries, in column order.
  std::vector<Index> colptr(static_cast<std::size_t>(n) + 1, 0);
  for (Index j = 0; j < n; ++j) {
    const Index dst = colptr[j], src = slot[j], c = count[j];
    if (dst != src) {
      std::copy_n(rowind.begin() + src, c, rowind.begin() + dst);
      std::copy_n(values.begin() + src, c, values.begin() + dst);
    }
    colptr[j + 1] = dst + c;
  }
  rowind.resize(static_cast<std::size_t>(colptr[n]));
  values.resize(rowind.size());
  return CscMatrix(m, n, std::move(colptr), std::move(rowind),
                   std::move(values));
}

}  // namespace lra
