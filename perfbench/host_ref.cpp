#include "host_ref.hpp"

#include <cstddef>
#include <cstdint>
#include <ctime>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

constexpr std::size_t kDim = 96;  // dense block: 3 x 72 KB, cache resident
constexpr int kDenseReps = 30;
constexpr std::size_t kStreamDoubles = std::size_t{1} << 20;  // 8 MB
constexpr int kStreamReps = 16;
constexpr std::size_t kWalkWords = std::size_t{1} << 20;  // 8 MB
constexpr int kWalkSteps = 400000;
// Full-period LCG step modulo 2^20 (multiplier = 1 mod 4, odd increment),
// so the walk visits distinct words in an order no prefetcher follows.
constexpr std::uint64_t kWalkMul = 0x5851F42D4C957F2Dull;

volatile double g_sink = 0.0;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// One pass over the three parts; thread CPU seconds of the timed part.
double one_pass(const std::vector<double>& stream,
                const std::vector<std::uint64_t>& walk) {
  std::vector<double> a(kDim * kDim, 1.0001), b(kDim * kDim, 0.9999),
      c(kDim * kDim, 0.0);
  const double t0 = thread_cpu_seconds();

  for (int r = 0; r < kDenseReps; ++r)
    for (std::size_t i = 0; i < kDim; ++i)
      for (std::size_t k = 0; k < kDim; ++k) {
        const double aik = a[i * kDim + k];
        for (std::size_t j = 0; j < kDim; ++j)
          c[i * kDim + j] += aik * b[k * kDim + j];
      }

  double sum = c[kDim + 1];
  for (int r = 0; r < kStreamReps; ++r)
    for (double v : stream) sum += v;

  // Each step's address depends on the word loaded by the step before.
  std::uint64_t at = 0;
  for (int s = 0; s < kWalkSteps; ++s)
    at = (at * kWalkMul + 1 + walk[at]) & (kWalkWords - 1);

  const double t = thread_cpu_seconds() - t0;
  g_sink = g_sink + sum + static_cast<double>(at);
  return t;
}

}  // namespace

double reference_seconds(int threads) {
  const std::vector<double> stream(kStreamDoubles, 1.0);
  const std::vector<std::uint64_t> walk(kWalkWords, 0);
  if (threads <= 1) return one_pass(stream, walk);
  std::vector<double> t(static_cast<std::size_t>(threads), 0.0);
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i)
    pool.emplace_back([&, i] {
      t[static_cast<std::size_t>(i)] = one_pass(stream, walk);
    });
  for (std::thread& th : pool) th.join();
  double sum = 0.0;
  for (double x : t) sum += x;
  return sum / threads;
}

}  // namespace perfbench
