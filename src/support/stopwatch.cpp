#include "support/stopwatch.hpp"

#include <ctime>

namespace lra {

namespace {

double clock_seconds(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double thread_cpu_seconds() noexcept {
  return clock_seconds(CLOCK_THREAD_CPUTIME_ID);
}

}  // namespace lra
