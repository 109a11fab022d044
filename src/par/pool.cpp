#include "par/pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/stopwatch.hpp"
#include "support/workspace.hpp"

namespace lra {
namespace {

// Serial scope (SimWorld ranks) and worker re-entrancy are both per-thread
// properties: a nested parallel_for issued from inside a slice must run
// inline, both for correctness (the fork-join slot is busy) and because the
// outer loop already owns the parallelism.
thread_local int tl_serial_depth = 0;
thread_local bool tl_inside_slice = false;

constexpr int kMaxThreads = 512;

}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;

  // Current job, valid while epoch is the live one.
  const std::function<void(Index, Index, int)>* job = nullptr;
  Index job_begin = 0;
  Index job_end = 0;
  int job_slices = 0;
  std::uint64_t epoch = 0;
  int pending = 0;  // helper slices still running
  bool stopping = false;
  double helper_cpu = 0.0;  // thread CPU seconds helpers spent in slices

  std::vector<std::thread> helpers;  // workers 1 .. nthreads-1

  mutable std::mutex stats_mu;
  std::map<std::string, PoolKernelStat> stats;

  // Contiguous slice s of [begin, end) split into `slices` near-equal parts.
  static void slice_bounds(Index begin, Index end, int slices, int s,
                           Index* lo, Index* hi) {
    const Index n = end - begin;
    const Index base = n / slices, rem = n % slices;
    *lo = begin + s * base + std::min<Index>(s, rem);
    *hi = *lo + base + (s < rem ? 1 : 0);
  }

  // `seen` starts at the epoch current when the helper was (re)started —
  // starting from 0 after a set_num_threads() restart would make the helper
  // see the stale epoch of an already-finished job and chase its dangling
  // job pointer.
  void helper_loop(int worker, std::uint64_t seen) {
    for (;;) {
      const std::function<void(Index, Index, int)>* fn = nullptr;
      Index b = 0, e = 0;
      int slices = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv_work.wait(lock, [&] { return stopping || epoch != seen; });
        if (stopping) return;
        seen = epoch;
        fn = job;
        b = job_begin;
        e = job_end;
        slices = job_slices;
      }
      if (worker < slices) {
        Index lo, hi;
        slice_bounds(b, e, slices, worker, &lo, &hi);
        const double cpu0 = thread_cpu_seconds();
        tl_inside_slice = true;
        (*fn)(lo, hi, worker);
        tl_inside_slice = false;
        const double cpu = thread_cpu_seconds() - cpu0;
        std::lock_guard<std::mutex> lock(mu);
        helper_cpu += cpu;
        if (--pending == 0) cv_done.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(int nthreads) : impl_(new Impl) {
  start_workers(std::clamp(nthreads, 1, kMaxThreads));
}

ThreadPool::~ThreadPool() {
  stop_workers();
  delete impl_;
}

ThreadPool& ThreadPool::global() {
  // Intentionally leaked: joining workers during static destruction races
  // with other teardown; the OS reclaims the threads at process exit.
  static ThreadPool* pool = new ThreadPool(env_thread_count());
  return *pool;
}

void ThreadPool::start_workers(int n) {
  nthreads_ = n;
  impl_->stopping = false;
  const std::uint64_t epoch_now = impl_->epoch;
  impl_->helpers.reserve(static_cast<std::size_t>(n - 1));
  for (int w = 1; w < n; ++w)
    impl_->helpers.emplace_back([this, w, epoch_now] {
      // Label the worker's thread_local scratch arena so per-arena workspace
      // stats are attributable; a set_num_threads() teardown folds the old
      // workers' counters into the retired tally (workspace.cpp).
      Workspace::name_current_thread("worker-" + std::to_string(w));
      impl_->helper_loop(w, epoch_now);
    });
}

void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->cv_work.notify_all();
  for (auto& t : impl_->helpers) t.join();
  impl_->helpers.clear();
}

void ThreadPool::set_num_threads(int n) {
  if (n <= 0) n = resolve_thread_count(n, "set_num_threads");
  n = std::min(n, kMaxThreads);
  if (n == nthreads_) return;
  stop_workers();
  start_workers(n);
}

void ThreadPool::run_ranges(Index begin, Index end, const char* label,
                            Index grain,
                            const std::function<void(Index, Index, int)>& fn) {
  const Index n = end - begin;
  if (n <= 0) return;

  // Inline paths: serial scope (simulated ranks), nested invocation from a
  // slice, or a range too short to be worth forking. These bypass the stats
  // as well — inside SimWorld ranks even the mutexed bookkeeping would show
  // up in the CPU-time-charged virtual clocks.
  if (tl_serial_depth > 0 || tl_inside_slice || n < grain) {
    fn(begin, end, 0);
    return;
  }

  const int slices = static_cast<int>(
      std::min<Index>(nthreads_, std::max<Index>(1, n / grain)));
  Stopwatch clock;
  if (slices == 1) {
    tl_inside_slice = true;
    fn(begin, end, 0);
    tl_inside_slice = false;
    record(label, clock.seconds(), 1);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->job = &fn;
    impl_->job_begin = begin;
    impl_->job_end = end;
    impl_->job_slices = slices;
    impl_->pending = slices - 1;
    ++impl_->epoch;
  }
  impl_->cv_work.notify_all();

  // The caller is worker 0.
  Index lo, hi;
  Impl::slice_bounds(begin, end, slices, 0, &lo, &hi);
  tl_inside_slice = true;
  fn(lo, hi, 0);
  tl_inside_slice = false;

  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->cv_done.wait(lock, [&] { return impl_->pending == 0; });
    impl_->job = nullptr;
  }
  record(label, clock.seconds(), slices);
}

double ThreadPool::helper_cpu_seconds() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->helper_cpu;
}

double ThreadPool::parallel_reduce_sum(
    Index begin, Index end, const char* label, Index chunk,
    const std::function<double(Index, Index)>& fn) {
  const Index n = end - begin;
  if (n <= 0) return 0.0;
  chunk = std::max<Index>(1, chunk);
  const Index nchunks = (n + chunk - 1) / chunk;
  if (nchunks == 1) return fn(begin, end);

  // The chunk grid depends only on (range, chunk) — never on the worker
  // count — and the partials are summed in chunk order, so the rounding is
  // identical at any thread count.
  std::vector<double> partial(static_cast<std::size_t>(nchunks));
  run_ranges(0, nchunks, label, 1, [&](Index c0, Index c1, int) {
    for (Index c = c0; c < c1; ++c) {
      const Index lo = begin + c * chunk;
      const Index hi = std::min<Index>(lo + chunk, end);
      partial[static_cast<std::size_t>(c)] = fn(lo, hi);
    }
  });
  double sum = 0.0;
  for (Index c = 0; c < nchunks; ++c)
    sum += partial[static_cast<std::size_t>(c)];
  return sum;
}

void ThreadPool::record(const char* label, double seconds, int threads) {
  std::lock_guard<std::mutex> lock(impl_->stats_mu);
  PoolKernelStat& s = impl_->stats[label];
  s.calls += 1;
  s.wall_seconds += seconds;
  s.threads = threads;
}

std::map<std::string, PoolKernelStat> ThreadPool::kernel_stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mu);
  return impl_->stats;
}

void ThreadPool::reset_stats() {
  std::lock_guard<std::mutex> lock(impl_->stats_mu);
  impl_->stats.clear();
}

ThreadPool::ScopedSerial::ScopedSerial() { ++tl_serial_depth; }
ThreadPool::ScopedSerial::~ScopedSerial() { --tl_serial_depth; }

bool ThreadPool::serial_scope() { return tl_serial_depth > 0; }

int resolve_thread_count(long long requested, const char* source) {
  if (requested <= 0) {
    std::fprintf(stderr,
                 "lra: %s=%lld is not a valid worker count; "
                 "falling back to 1 thread\n",
                 source, requested);
    return 1;
  }
  return static_cast<int>(std::min<long long>(requested, kMaxThreads));
}

int env_thread_count() {
  if (const char* env = std::getenv("LRA_NUM_THREADS")) {
    char* rest = nullptr;
    const long long v = std::strtoll(env, &rest, 10);
    if (rest == env || *rest != '\0')
      return resolve_thread_count(0, "LRA_NUM_THREADS");
    return resolve_thread_count(v, "LRA_NUM_THREADS");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min<unsigned>(hw, kMaxThreads));
}

}  // namespace lra
