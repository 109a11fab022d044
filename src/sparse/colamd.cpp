#include "sparse/colamd.hpp"

#include <algorithm>
#include <vector>

#include "sparse/etree.hpp"

namespace lra {
namespace {

// Indexed binary min-heap over columns 0..n-1, ordered by (score, col) — the
// column id is the deterministic tie-break. It keeps its own copy of every
// key, written only by update(): the elimination changes the scores of a
// whole pivot row before any of them is fixed up here, and a heap reading
// the live scores would see its invariant broken mid-sweep.
class ColumnHeap {
 public:
  explicit ColumnHeap(std::vector<Index> keys)
      : key_(std::move(keys)), heap_(key_.size()), pos_(key_.size()) {
    const Index n = static_cast<Index>(key_.size());
    for (Index c = 0; c < n; ++c) heap_[c] = pos_[c] = c;
    for (Index h = n / 2 - 1; h >= 0; --h) sift_down(h);
  }

  bool empty() const { return heap_.empty(); }

  Index pop() {
    const Index top = heap_.front();
    place(heap_.back(), 0);
    heap_.pop_back();
    pos_[top] = -1;
    if (!heap_.empty()) sift_down(0);
    return top;
  }

  /// Re-key a column still in the heap.
  void update(Index c, Index key) {
    const Index old = key_[c];
    key_[c] = key;
    if (key < old)
      sift_up(pos_[c]);
    else
      sift_down(pos_[c]);
  }

 private:
  bool before(Index a, Index b) const {
    return key_[a] != key_[b] ? key_[a] < key_[b] : a < b;
  }
  void place(Index c, Index h) {
    heap_[h] = c;
    pos_[c] = h;
  }
  void sift_up(Index h) {
    const Index c = heap_[h];
    while (h > 0) {
      const Index parent = (h - 1) / 2;
      if (!before(c, heap_[parent])) break;
      place(heap_[parent], h);
      h = parent;
    }
    place(c, h);
  }
  void sift_down(Index h) {
    const Index n = static_cast<Index>(heap_.size());
    const Index c = heap_[h];
    for (;;) {
      Index child = 2 * h + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], c)) break;
      place(heap_[child], h);
      h = child;
    }
    place(c, h);
  }

  std::vector<Index> key_;   // key_[c]: c's score as of its last update()
  std::vector<Index> heap_;  // heap_[h]: column at heap slot h
  std::vector<Index> pos_;   // pos_[c]: heap slot of column c, -1 once popped
};

}  // namespace

Perm colamd_order(const CscMatrix& a) {
  const Index n = a.cols();
  // Row and column adjacency, mutable during elimination. Pivot rows created
  // by elimination are appended after the original rows. An alive row holds
  // only uneliminated columns (eliminating a column absorbs all its rows),
  // so a row's length is fixed for its lifetime; col2row may still list
  // absorbed rows, which are skipped and compacted away lazily.
  std::vector<std::vector<Index>> row2col(static_cast<std::size_t>(a.rows()));
  std::vector<std::vector<Index>> col2row(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j)
    for (Index r : a.col_rows(j)) {
      row2col[r].push_back(j);
      col2row[j].push_back(r);
    }
  std::vector<char> row_alive(row2col.size(), 1);
  std::vector<char> col_done(static_cast<std::size_t>(n), 0);

  // Approximate external degree: sum over alive rows of (row length - 1).
  // This is COLAMD's upper bound on |Adj(j)| in the quotient graph. Kept
  // incrementally: absorbing row r takes |r| - 1 off each of its columns,
  // and the new pivot row P adds |P| - 1 to each of its columns.
  std::vector<Index> score(static_cast<std::size_t>(n), 0);
  for (Index j = 0; j < n; ++j)
    for (Index r : col2row[j])
      score[j] += static_cast<Index>(row2col[r].size()) - 1;
  ColumnHeap heap(score);

  Perm order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> in_pivot(static_cast<std::size_t>(n), 0);

  while (!heap.empty()) {
    const Index j = heap.pop();
    col_done[j] = 1;
    order.push_back(j);

    // Form the pivot row: union of the columns of all rows incident to j,
    // excluding j itself; absorb (kill) those rows.
    std::vector<Index> pivot_cols;
    for (Index r : col2row[j]) {
      if (!row_alive[r]) continue;
      row_alive[r] = 0;
      const Index ext = static_cast<Index>(row2col[r].size()) - 1;
      for (Index c : row2col[r]) {
        if (c == j) continue;
        score[c] -= ext;
        if (in_pivot[c]) continue;
        in_pivot[c] = 1;
        pivot_cols.push_back(c);
      }
      row2col[r].clear();
      row2col[r].shrink_to_fit();
    }
    col2row[j].clear();
    col2row[j].shrink_to_fit();
    if (pivot_cols.empty()) continue;

    const Index pr = static_cast<Index>(row2col.size());
    const Index ext = static_cast<Index>(pivot_cols.size()) - 1;
    for (Index c : pivot_cols) {
      in_pivot[c] = 0;
      auto& rows = col2row[c];
      if (rows.size() == rows.capacity())
        std::erase_if(rows, [&](Index r) { return !row_alive[r]; });
      rows.push_back(pr);
      score[c] += ext;
    }
    // Every score this step changed belongs to a pivot-row column, and all
    // of them are final now; only then is the heap re-keyed.
    for (Index c : pivot_cols) heap.update(c, score[c]);
    row2col.push_back(std::move(pivot_cols));
    row_alive.push_back(1);
  }
  return order;
}

Perm colamd_postordered(const CscMatrix& a) {
  const Perm ord = colamd_order(a);
  const CscMatrix reord = permute_columns(a, ord);
  const Perm post = etree_postorder(column_etree(reord));
  return compose(ord, post);
}

}  // namespace lra
