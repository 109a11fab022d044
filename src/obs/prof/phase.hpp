#pragma once
// Phase annotation for the virtual-time runtime: solvers and the comm layer
// mark algorithm phases (sketch, TSQR, panel solve, replicate, ...) with a
// scoped RAII marker that nests inside the tracer. The innermost open
// PhaseScope names the phase every trace event records, and communication
// requests capture the phase at *post* time, so a transfer is attributed to
// the phase that initiated it even when the matching wait runs under a later
// scope.
//
// Zero-cost contract: a PhaseStack is a fixed-size array of pointers to
// string-literal names — push/pop are two integer operations, no heap, no
// branching on tracing state — so the scopes stay in place when profiling is
// off without perturbing clocks or allocation counts. Phase names MUST be
// string literals (or otherwise outlive the run); the stack stores pointers.
//
// The documented taxonomy below is the contract between the annotations, the
// profiler output, and the docs: CI lints that every PhaseScope literal in
// the tree appears here (tools/bench_diff --lint-phases).

#include <cstddef>
#include <string_view>

namespace lra::obs::prof {

/// The documented phase taxonomy (ARCHITECTURE.md "Profiling layer").
/// Solver phases follow the paper's kernel decomposition (Figs. 5-6) plus
/// the structural comm phases of the distributed engines.
inline constexpr std::string_view kPhaseTaxonomy[] = {
    "sketch",       // random block generation + sketch products (Y = A*Omega)
    "tsqr",         // allgather-TSQR orthonormalization
    "power",        // power-iteration scheme of RandQB_EI
    "reorth",       // re-orthogonalization against the accumulated basis
    "b_update",     // B_k = Q_k^T A update / basis append
    "error_check",  // Frobenius error-indicator reduction
    "replicate",    // allgather-replication of a distributed block
    "tournament",   // QR_TP column/row tournament reduction tree
    "panel",        // panel QR on the owner + Q broadcast
    "row_perm",     // local row permutation / pivot split
    "solve_a21",    // X = A21 A11^{-1} scattered solve + allgather
    "schur",        // Schur-complement update
    "threshold",    // ILUT / budgeted dropping
    "assemble",     // final factor gathers (charged to the solve)
};

/// True when `name` appears in the documented taxonomy.
bool is_documented_phase(std::string_view name);

/// Fixed-capacity stack of phase names. Stores the pointers verbatim (names
/// must be string literals); depth beyond kMaxDepth keeps counting but stops
/// recording, so deeply-nested pushes still pair with their pops.
class PhaseStack {
 public:
  static constexpr int kMaxDepth = 16;

  void push(const char* name) {
    if (depth_ < kMaxDepth) names_[depth_] = name;
    ++depth_;
  }
  void pop() {
    if (depth_ > 0) --depth_;
  }
  /// Innermost phase name, or "" outside every scope.
  const char* top() const {
    if (depth_ <= 0) return "";
    const int i = depth_ < kMaxDepth ? depth_ : kMaxDepth;
    return names_[i - 1];
  }
  int depth() const { return depth_; }

 private:
  const char* names_[kMaxDepth] = {};
  int depth_ = 0;
};

/// RAII phase marker. Construct from any context exposing `phases()` (a
/// RankCtx) or directly from a PhaseStack. `name` must be a string literal
/// from the documented taxonomy (CI-linted).
class PhaseScope {
 public:
  explicit PhaseScope(PhaseStack& stack, const char* name) : stack_(&stack) {
    stack_->push(name);
  }
  template <typename Ctx>
  PhaseScope(Ctx& ctx, const char* name) : stack_(&ctx.phases()) {
    stack_->push(name);
  }
  ~PhaseScope() { stack_->pop(); }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseStack* stack_;
};

}  // namespace lra::obs::prof
