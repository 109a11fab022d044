#pragma once
// Column approximate minimum degree ordering (COLAMD-style, Davis et al.).
// Greedy minimum-degree elimination on the column intersection graph of
// A^T A performed symbolically on A itself via row merging. This
// implementation keeps the core COLAMD mechanics (pivot-row formation, row
// absorption, approximate external degrees) and omits supercolumn detection.
//
// Each step eliminates the column with the smallest (score, column id); the
// score is the approximate external degree, the sum of (|r| - 1) over the
// column's alive rows r. Scores are kept incrementally (absorbing row r
// subtracts |r| - 1 from each of its columns, the new pivot row P adds
// |P| - 1 to each of its columns), and the candidates sit in an indexed
// binary min-heap over the n columns, re-keyed in place once per pivot-row
// column after all of that step's score changes. The heap holds its own copy
// of each key, so it is never read mid-update. Integer scores and the fixed
// tie-break make the order a function of (score, id) alone: it is the same
// order the lazy priority-queue formulation (one stale entry per update)
// produced, in O(n) heap memory instead of O(updates).

#include "sparse/csc.hpp"
#include "sparse/permute.hpp"

namespace lra {

/// Fill-reducing column ordering: result[new] = old column.
Perm colamd_order(const CscMatrix& a);

/// The preprocessing used by LU_CRTP in the paper: COLAMD, then a postorder
/// traversal of the column elimination tree of the reordered matrix.
Perm colamd_postordered(const CscMatrix& a);

}  // namespace lra
