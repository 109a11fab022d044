#pragma once
// Wall-clock and per-thread CPU-time stopwatches.
//
// The virtual-time runtime (par/) charges compute sections with *thread CPU
// time* so that timesharing many simulated ranks onto few physical cores does
// not distort per-rank costs; a one-rank world adds the CPU time the
// thread-pool workers spent on its kernels' slices (ThreadPool::
// helper_cpu_seconds), so its work is charged on the same clock.

#include <chrono>

namespace lra {

/// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() noexcept { reset(); }
  void reset() noexcept { start_ = std::chrono::steady_clock::now(); }
  /// Seconds elapsed since construction or last reset().
  double seconds() const noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// CPU time consumed by the calling thread, in seconds.
double thread_cpu_seconds() noexcept;

}  // namespace lra
