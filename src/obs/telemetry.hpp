#pragma once
// Unified per-iteration convergence telemetry emitted by every solver
// (sequential and distributed): one sample per iteration carrying the
// accumulated rank, the relative error indicator against the fixed-precision
// target tau, the rank's virtual clock at the step (for a sequential solve,
// which runs as one rank, the CPU seconds of the calling thread and of the
// pool workers' slices), and — for the LU-family
// methods — the Schur-complement fill diagnostics. This is the raw series
// behind the paper's accuracy-vs-cost trajectories (Figs. 2-3, Table II),
// surfaced uniformly through LowRankApprox and the JSONL run reports.

#include <vector>

namespace lra::obs {

struct IterationSample {
  long long iteration = 0;      // 1-based
  long long rank = 0;           // accumulated rank K after the iteration
  double indicator_rel = 0.0;   // error indicator relative to ||A||_F
  double tau = 0.0;             // fixed-precision target in force
  double time_seconds = 0.0;    // cumulative virtual seconds of rank 0
  // LU-family Schur-complement diagnostics; negative = not applicable.
  long long schur_nnz = -1;
  double fill_density = -1.0;
  long long factor_nnz = -1;
};

using TelemetrySeries = std::vector<IterationSample>;

/// Append the sample of the iteration that just finished (its 1-based
/// number is the series length after the append); returns it so callers can
/// fill the LU-family diagnostics.
inline IterationSample& append_sample(TelemetrySeries& series, long long rank,
                                      double indicator_rel, double tau,
                                      double time_seconds) {
  IterationSample s;
  s.iteration = static_cast<long long>(series.size()) + 1;
  s.rank = rank;
  s.indicator_rel = indicator_rel;
  s.tau = tau;
  s.time_seconds = time_seconds;
  series.push_back(s);
  return series.back();
}

}  // namespace lra::obs
