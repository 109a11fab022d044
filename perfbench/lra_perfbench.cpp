// Time-to-tau benchmark harness. Every workload solves all four methods at
// tau = 1e-3 with block size 32 and the library's default options, through
// the public entry points only: approximate() for sequential workloads,
// randqb_ei_dist / lu_crtp_dist / randubv_dist for distributed ones. The
// workload rationale and the layer -> end-to-end metric mapping are in
// README.md next to this file.
//
//   lra_perfbench gen --workload=W --seed=N --out=FILE
//       Generate the workload's input with make_preset and write it as a
//       Matrix Market file; the solver side sees only that file.
//   lra_perfbench run --workload=W --mtx=FILE --seed=N --seconds=S
//                     --trace=0|1 [--inject=METHOD:SHARE]
//       --trace=0: time solve passes for S seconds, print the end-to-end
//       metrics, every timing scaled to a nominal host speed (host_ref.hpp).
//       --trace=1: traced runs, layer probes and attribution, print the
//       per-layer metrics. --inject busy-waits SHARE x the solve
//       time after every solve call of METHOD (the sensitivity self-check).
//
// The last stdout line is {"correct","attempted","failed","metrics"}; the
// line before it records provenance. Every solve is one attempted operation
// and fails on a status other than converged, on a true relative residual
// above tau (computed outside the timed region), on a result that differs
// from the first pass of the run, or on a failed conservation check of a
// traced run. The exit code is nonzero when any operation failed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "host_ref.hpp"

#include "core/driver.hpp"
#include "core/lu_crtp_dist.hpp"
#include "core/randqb_ei_dist.hpp"
#include "core/randubv_dist.hpp"
#include "dense/blas.hpp"
#include "dense/tsqr.hpp"
#include "gen/presets.hpp"
#include "obs/json.hpp"
#include "obs/prof/profile.hpp"
#include "par/pool.hpp"
#include "qrtp/tournament.hpp"
#include "sparse/colamd.hpp"
#include "sparse/io_mm.hpp"
#include "sparse/ops.hpp"
#include "support/autotune.hpp"
#include "support/cli.hpp"
#include "support/kernel_variant.hpp"
#include "support/simd.hpp"
#include "support/stopwatch.hpp"
#include "support/workspace.hpp"

namespace {

using namespace lra;

constexpr double kTau = 1e-3;
constexpr Index kBlock = 32;
constexpr int kSetupReads = 2;  // read_matrix_market calls per setup sample
constexpr int kMinPasses = 3;    // timed passes even when one overruns S
constexpr double kMethodPassSeconds = 0.5;  // per method and pass, see below

// Why each workload exists is recorded in README.md and BENCHMARK.json.
struct Workload {
  const char* name;
  const char* preset;
  double scale;
  int np;  // 0: sequential approximate(); > 0: the _dist engines at np ranks
};
constexpr Workload kWorkloads[] = {
    {"seq-m2-fill", "M2", 0.5, 0},
    {"seq-m6-lowrank", "M6", 1.0, 0},
    {"dist-m2-np4", "M2", 0.5, 4},
};

constexpr Method kMethods[] = {Method::kRandQbEi, Method::kRandUbv,
                               Method::kLuCrtp, Method::kIlutCrtp};

// Phases reported per method; seconds in any other phase (or outside every
// scope) are folded into "<method>.phase.other.compute_s" so that a phase
// added later is never silently dropped.
const std::vector<std::string>& reported_phases(Method m) {
  static const std::vector<std::string> rand_qb = {
      "sketch", "tsqr", "power", "reorth", "b_update", "error_check",
      "replicate"};
  static const std::vector<std::string> rand_ubv = {
      "sketch", "tsqr", "power", "reorth", "b_update"};
  static const std::vector<std::string> lu = {
      "tournament", "panel", "row_perm", "solve_a21", "schur"};
  static const std::vector<std::string> ilut = [] {
    std::vector<std::string> v = lu;
    v.push_back("threshold");
    return v;
  }();
  switch (m) {
    case Method::kRandQbEi: return rand_qb;
    case Method::kRandUbv: return rand_ubv;
    case Method::kLuCrtp: return lu;
    default: return ilut;
  }
}

using Factors = std::variant<RandQbResult, LuCrtpResult, RandUbvResult>;

struct Solve {
  Status status = Status::kMaxIterations;
  Index rank = 0;
  Index iterations = 0;
  Index factor_values = 0;
  double indicator_rel = 0.0;
  double seconds = 0.0;  // CPU (sequential, timed_solve) or virtual makespan
  double wall = 0.0;     // wall seconds of the call, injected delay included
  double cpu = 0.0;      // process CPU seconds (all threads), set by timed_solve
  Factors factors;
  obs::CommStats comm;
  std::vector<obs::RankTrace> trace;
};

// Same definition as LowRankApprox::factor_values().
Index factor_values_of(const RandQbResult& r) {
  return r.q.size() + r.b.size();
}
Index factor_values_of(const LuCrtpResult& r) {
  return r.l.nnz() + r.u.nnz();
}
Index factor_values_of(const RandUbvResult& r) {
  return r.u.size() + r.v.size() + r.b.size();
}

template <typename R>
void fill_from(Solve& s, R&& r) {
  s.status = r.status;
  s.rank = r.rank;
  s.iterations = r.iterations;
  s.indicator_rel = r.anorm_f > 0.0 ? r.indicator / r.anorm_f : 0.0;
  s.factor_values = factor_values_of(r);
  s.factors = std::forward<R>(r);
}

ApproxOptions options_for(Method m) {
  ApproxOptions o;
  o.method = m;
  o.tau = kTau;
  o.block_size = kBlock;
  return o;
}

Solve solve_seq(const CscMatrix& a, Method m) {
  Solve s;
  Stopwatch sw;
  const LowRankApprox r = approximate(a, options_for(m));
  s.wall = sw.seconds();
  if (const auto* qb = r.as_randqb()) fill_from(s, *qb);
  if (const auto* lu = r.as_lu()) fill_from(s, *lu);
  if (const auto* ubv = r.as_ubv()) fill_from(s, *ubv);
  return s;
}

template <typename D>
Solve from_dist(D&& d, double wall) {
  Solve s;
  s.seconds = d.virtual_seconds;
  s.wall = wall;
  s.comm = std::move(d.comm);
  s.trace = std::move(d.trace);
  fill_from(s, std::move(d.result));
  return s;
}

// Option mapping mirrors approximate() so both engines solve the same
// problem.
Solve solve_dist(const CscMatrix& a, Method m, int np, bool traced) {
  const ApproxOptions o = options_for(m);
  SimOptions sim;
  sim.collect_trace = traced;
  Stopwatch sw;
  switch (m) {
    case Method::kRandQbEi: {
      RandQbOptions q;
      q.block_size = o.block_size;
      q.tau = o.tau;
      q.power = o.power;
      q.seed = o.seed;
      q.max_rank = o.max_rank;
      auto d = randqb_ei_dist(a, q, np, sim);
      return from_dist(std::move(d), sw.seconds());
    }
    case Method::kRandUbv: {
      RandUbvOptions u;
      u.block_size = o.block_size;
      u.tau = o.tau;
      u.seed = o.seed;
      u.max_rank = o.max_rank;
      auto d = randubv_dist(a, u, np, sim);
      return from_dist(std::move(d), sw.seconds());
    }
    default: {
      LuCrtpOptions l;
      l.block_size = o.block_size;
      l.tau = o.tau;
      l.max_rank = o.max_rank;
      l.colamd = o.colamd;
      if (m == Method::kIlutCrtp) l.threshold = ThresholdMode::kIlut;
      auto d = lu_crtp_dist(a, l, np, sim);
      return from_dist(std::move(d), sw.seconds());
    }
  }
}

// True ||A - HW||_F / ||A||_F through the library's public residual
// functions (never the solver's own indicator).
double true_residual_rel(const CscMatrix& a, const Factors& f) {
  double err = 0.0;
  if (const auto* qb = std::get_if<RandQbResult>(&f))
    err = randqb_exact_error(a, *qb);
  else if (const auto* lu = std::get_if<LuCrtpResult>(&f))
    err = lu_crtp_exact_error(a, *lu);
  else
    err = randubv_exact_error(a, std::get<RandUbvResult>(f));
  return err / a.frobenius_norm();
}

// Checks that need no extra work: status, and agreement with the first
// (residual-certified) solve of the same method in this run.
std::string quick_check(const Solve& s, const Solve* first) {
  if (s.status != Status::kConverged)
    return std::string("status ") + to_string(s.status);
  if (first && (s.rank != first->rank ||
                s.factor_values != first->factor_values ||
                s.indicator_rel != first->indicator_rel))
    return "result differs from the first solve of this run";
  return "";
}

// Counts operations against failures.
class Gate {
 public:
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }

  void record(const std::string& what, const std::string& failure) {
    ++attempted_;
    if (!failure.empty()) fail(what, failure);
  }

  /// record(), plus a true-residual check of `s` when it passed the other
  /// checks. Call it outside every timed region: it runs on the full-width
  /// pool (the residual functions are bitwise independent of the worker
  /// count). It then releases s.factors, so that no copy of the factors
  /// stays resident while later solves are measured.
  void certify(const std::string& what, const std::string& failure,
               const CscMatrix& a, Solve& s) {
    std::string why = failure;
    if (why.empty()) {
      const int width = ThreadPool::global().num_threads();
      ThreadPool::global().set_num_threads(
          static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
      const double res = true_residual_rel(a, s.factors);
      ThreadPool::global().set_num_threads(width);
      if (!(res <= kTau)) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "true residual %.6e above tau", res);
        why = buf;
      }
    }
    s.factors = Factors{};
    record(what, why);
  }

 private:
  void fail(const std::string& what, const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(), why.c_str());
  }

  long long attempted_ = 0;
  long long failed_ = 0;
};

// Per-rank compute + comm + idle must tile each rank's clock and the
// slowest rank must end at the solver's reported makespan.
std::string conservation_check(const Solve& s,
                               const obs::prof::Profile& p) {
  if (!p.conserved)
    return "profile: " +
           (p.violations.empty() ? std::string("not conserved")
                                 : p.violations.front());
  const std::string inv = s.comm.check_invariants();
  if (!inv.empty()) return "comm invariants: " + inv;
  const double tol = 1e-9 * std::max(1.0, p.makespan);
  for (const obs::prof::RankProfile& r : p.ranks) {
    double sum = r.idle;
    for (const auto& [name, c] : r.phases) sum += c.compute + c.comm;
    if (std::fabs(sum - r.total) > tol)
      return "rank phases + idle do not sum to the rank clock";
  }
  if (std::fabs(p.makespan - s.seconds) > tol)
    return "profile makespan differs from the solver's virtual seconds";
  return "";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void busy_wait(double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < until) {
  }
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Process high-water RSS in MB (VmHWM).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
  return 0.0;
}

// Reset VmHWM to the current RSS (Linux clear_refs "5"), so each pass reports
// its own peak; a median over passes is far steadier than the run's maximum.
// Returns false where the kernel does not support it.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5" << std::flush;
  return out.good();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  return "unknown";
}

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    obs::JsonObj m;
    m.field("value", value).field("unit", unit);
    obj_.raw(name, m.str());
  }
  std::string str() const { return obj_.str(); }

 private:
  obs::JsonObj obj_;
};

struct Inject {
  bool active = false;
  Method method = Method::kRandQbEi;
  double share = 0.0;
};

// One solve of `m` the way the workload's timed passes run it, with the
// self-check's injected delay (if any) inside the measured time. On the
// sequential workloads the solve's time is its process CPU seconds (all
// threads). At pool width 1 that is the solver's own work. Wall time also
// counts the seconds its one thread waited for a core on a shared host, so
// it spread more across runs. The distributed makespan is built from thread
// CPU time too.
Solve timed_solve(const CscMatrix& a, const Workload& w, Method m,
                  const Inject& inj) {
  Stopwatch sw;
  const double cpu0 = process_cpu_seconds();
  Solve s = w.np > 0 ? solve_dist(a, m, w.np, false) : solve_seq(a, m);
  if (inj.active && inj.method == m) {
    busy_wait(inj.share * s.wall);
    s.wall = sw.seconds();
  }
  s.cpu = process_cpu_seconds() - cpu0;
  if (w.np == 0) s.seconds = s.cpu;
  return s;
}

// Reads the input `count` times into *out; returns the process CPU seconds
// of each read (see timed_solve for why CPU time).
std::vector<double> timed_reads(const std::string& path, int count,
                                CscMatrix* out) {
  std::vector<double> t;
  for (int i = 0; i < count; ++i) {
    const double cpu0 = process_cpu_seconds();
    CscMatrix a = read_matrix_market(path);
    t.push_back(process_cpu_seconds() - cpu0);
    *out = std::move(a);
  }
  return t;
}

struct RunContext {
  const Workload* w = nullptr;
  std::string mtx;
  long long seed = 0;
  double seconds = 0.0;
  Inject inject;
  obs::JsonObj samples;  // sample counts per reported timing
  obs::JsonObj host_ref;  // reference timings and unscaled medians
  double pass_wall_s = 0.0;  // median wall seconds of a pass (context only)
};

// ---- end-to-end run (--trace=0) --------------------------------------------

void run_end_to_end(RunContext& ctx, Gate& gate, Metrics& out) {
  const Workload& w = *ctx.w;
  const int ref_threads = std::max(1, w.np);

  // A pass solves every method at least once and repeats the fast ones
  // until each has kMethodPassSeconds of samples, so every timing gets
  // several samples per pass. solve_cpu_s is the process CPU time of the
  // first solve of each method in the pass: on dist-m2-np4 the pass's wall
  // time waits for the slowest of four rank threads and spread 29% across
  // runs on a shared host, while CPU time still counts any work moved
  // outside the virtual clock.
  //
  // Between timed solves the harness does untimed work: it certifies the
  // run's first solve of each method (the others must match it), it
  // re-reads the input kSetupReads times after each method's solves (so
  // setup_s samples the host across the whole run, as the solve timings
  // do), and it runs the host-speed reference. That work is kept out of the
  // pass's peak RSS (the running peak is taken before it and VmHWM restarts
  // from the current RSS after it) and out of the time budget.
  std::vector<Solve> first;  // factors released once certified
  std::map<Method, std::vector<double>> times, raw_times;
  std::vector<double> reads, pass_cpu, pass_wall, pass_rss, refs;
  double pass_peak = 0.0, untimed_s = 0.0;
  auto untimed = [&](auto&& work) {
    pass_peak = std::max(pass_peak, peak_rss_mb());
    Stopwatch sw;
    work();
    untimed_s += sw.seconds();
    reset_peak_rss();
  };

  // Every timing is scaled to the nominal host speed of host_ref.hpp: the
  // reference runs right before and right after each timed call, on as many
  // threads as the call keeps busy, and the call's seconds are multiplied
  // by kRefNominalSeconds / (mean of the two reference times). The
  // reference taken after one call is the "before" of the next unless other
  // work ran in between (ref_prev == 0).
  double ref_prev = 0.0;
  auto reference = [&] {
    double r = 0.0;
    untimed([&] { r = perfbench::reference_seconds(ref_threads); });
    refs.push_back(r);
    return r;
  };
  auto scaled = [&](auto&& call, bool aside) {
    if (ref_prev == 0.0) ref_prev = reference();
    if (aside)
      untimed(call);
    else
      call();
    const double after = reference();
    const double f = perfbench::kRefNominalSeconds / (0.5 * (ref_prev + after));
    ref_prev = after;
    return f;
  };
  auto read_block = [&](CscMatrix* into, bool aside) {
    std::vector<double> t;
    const double f = scaled(
        [&] { t = timed_reads(ctx.mtx, kSetupReads, into); }, aside);
    for (double x : t) reads.push_back(x * f);
  };

  Stopwatch budget;
  auto timed_s = [&] { return budget.seconds() - untimed_s; };
  CscMatrix a;
  read_block(&a, false);
  const bool rss_per_pass = reset_peak_rss();
  double last_pass = 0.0;
  while (pass_wall.size() < static_cast<std::size_t>(kMinPasses) ||
         timed_s() + last_pass <= ctx.seconds) {
    const double pass_start = timed_s();
    double cpu = 0.0, wall = 0.0;
    pass_peak = 0.0;
    for (std::size_t i = 0; i < std::size(kMethods); ++i) {
      const Method m = kMethods[i];
      double spent = 0.0;  // wall seconds of this method's solves
      for (int rep = 0; rep == 0 || spent < kMethodPassSeconds; ++rep) {
        Solve s;
        const double f =
            scaled([&] { s = timed_solve(a, w, m, ctx.inject); }, false);
        spent += s.wall;
        if (rep == 0) {
          cpu += s.cpu * f;
          wall += s.wall;
        }
        times[m].push_back(s.seconds * f);
        raw_times[m].push_back(s.seconds);
        const std::string what = std::string(to_string(m)) + " pass " +
                                 std::to_string(pass_wall.size() + 1);
        if (first.size() == i) {
          untimed([&] { gate.certify(what, quick_check(s, nullptr), a, s); });
          ref_prev = 0.0;
          first.push_back(std::move(s));
        } else {
          gate.record(what, quick_check(s, &first[i]));
        }
      }
      CscMatrix copy;
      read_block(&copy, true);
    }
    pass_cpu.push_back(cpu);
    pass_wall.push_back(wall);
    if (rss_per_pass) {
      pass_rss.push_back(std::max(pass_peak, peak_rss_mb()));
      reset_peak_rss();
    }
    last_pass = timed_s() - pass_start;
  }
  if (!rss_per_pass) pass_rss.push_back(peak_rss_mb());

  obs::JsonObj raw;
  for (Method m : kMethods) {
    const std::string name = std::string(to_string(m)) + ".time_to_tau_s";
    out.add(name, median(times[m]), "s");
    ctx.samples.field(name, static_cast<long long>(times[m].size()));
    raw.field(name, median(raw_times[m]));
  }
  for (std::size_t i = 0; i < std::size(kMethods); ++i)
    out.add(std::string(to_string(kMethods[i])) + ".rank",
            static_cast<double>(first[i].rank), "count");
  for (std::size_t i = 2; i < std::size(kMethods); ++i)
    out.add(std::string(to_string(kMethods[i])) + ".factor_values",
            static_cast<double>(first[i].factor_values), "count");
  out.add("solve_cpu_s", median(pass_cpu), "s");
  ctx.pass_wall_s = median(pass_wall);
  out.add("setup_s", median(reads), "s");
  out.add("peak_rss_mb", median(pass_rss), "MB");
  ctx.samples.field("passes", static_cast<long long>(pass_wall.size()))
      .field("solve_cpu_s", static_cast<long long>(pass_cpu.size()))
      .field("setup_s", static_cast<long long>(reads.size()))
      .field("peak_rss_mb", static_cast<long long>(pass_rss.size()));
  ctx.host_ref.field("threads", ref_threads)
      .field("nominal_s", perfbench::kRefNominalSeconds)
      .field("median_s", median(refs))
      .field("samples", static_cast<long long>(refs.size()))
      .raw("unscaled", raw.str());
}

// ---- per-layer run (--trace=1) ---------------------------------------------

// Median seconds of fn() over about 0.5 s of calls (at least one).
template <typename F>
double probe_seconds(F&& fn) {
  std::vector<double> t;
  Stopwatch total;
  while (t.empty() || (total.seconds() < 0.5 && t.size() < 50)) {
    Stopwatch sw;
    fn();
    t.push_back(sw.seconds());
  }
  return median(t);
}

// Direct calls into public layer functions on this workload's matrix and
// shapes. Rates are computed from the shapes (flop and byte formulas
// below), not read from hardware counters.
void layer_probes(const CscMatrix& a, Index k_rank,
                  const std::vector<double>& reads, Metrics& out) {
  const double m = static_cast<double>(a.rows());
  const double n = static_cast<double>(a.cols());
  const double nnz = static_cast<double>(a.nnz());
  const double kb = static_cast<double>(kBlock);
  const double csc_bytes = nnz * (8.0 + 8.0) + (n + 1.0) * 8.0;

  out.add("sparse.read_mm_s", median(reads), "s");
  out.add("sparse.colamd_s", probe_seconds([&] { colamd_postordered(a); }),
          "s");

  const Matrix omega = Matrix::gaussian(a.cols(), kBlock, 11);
  const Matrix panel = Matrix::gaussian(a.rows(), kBlock, 12);
  const double t_spmm = probe_seconds([&] { spmm(a, omega); });
  const double t_spmm_t = probe_seconds([&] { spmm_t(a, panel); });
  // 2 flops per stored entry per right-hand column; bytes = A once plus
  // the dense operand read and the dense result written once.
  const double spmm_flops = 2.0 * nnz * kb;
  out.add("sparse.spmm_gflops", spmm_flops / t_spmm * 1e-9, "GFLOP/s");
  out.add("sparse.spmm_gbs",
          (csc_bytes + (n + m) * kb * 8.0) / t_spmm * 1e-9, "GB/s");
  out.add("sparse.spmm_t_gflops", spmm_flops / t_spmm_t * 1e-9, "GFLOP/s");
  out.add("sparse.spmm_t_gbs",
          (csc_bytes + (m + n) * kb * 8.0) / t_spmm_t * 1e-9, "GB/s");

  // Same row-block grid as orth() uses for tall panels.
  const Index block_rows = std::max<Index>(kBlock, (a.rows() + 15) / 16);
  const double t_tsqr = probe_seconds([&] { tsqr(panel, block_rows); });
  out.add("dense.tsqr_s", t_tsqr, "s");
  // Householder QR of an m x k panel plus forming the thin Q: 4 m k^2.
  out.add("dense.tsqr_gflops", 4.0 * m * kb * kb / t_tsqr * 1e-9, "GFLOP/s");

  const Index kk = std::max<Index>(kBlock, k_rank);
  const Matrix basis = Matrix::gaussian(a.rows(), kk, 13);
  const double t_tn = probe_seconds([&] { matmul_tn(basis, panel); });
  const double kkd = static_cast<double>(kk);
  out.add("dense.gemm_tn_gflops", 2.0 * m * kkd * kb / t_tn * 1e-9,
          "GFLOP/s");
  out.add("dense.gemm_tn_gbs", (m * (kkd + kb) + kkd * kb) * 8.0 / t_tn * 1e-9,
          "GB/s");

  out.add("qrtp.select_cols_s", probe_seconds([&] { qr_tp_select(a, kBlock); }),
          "s");
  std::vector<Index> rows(static_cast<std::size_t>(a.rows()));
  for (Index i = 0; i < a.rows(); ++i) rows[static_cast<std::size_t>(i)] = i;
  out.add("qrtp.select_rows_s",
          probe_seconds([&] { qr_tp_select_rows(panel, rows, kBlock); }), "s");
}

void add_profile_metrics(const std::string& m, Method method, const Solve& s,
                         const obs::prof::Profile& p, Metrics& out) {
  const double nr = std::max(1, p.nranks);
  double other = 0.0;
  const std::vector<std::string>& named = reported_phases(method);
  for (const auto& [phase, c] : p.phases)
    if (std::find(named.begin(), named.end(), phase) == named.end() &&
        c.compute > 0.0) {
      other += c.compute;
      std::fprintf(stderr, "note: %s phase '%s' (%.6f s) reported as other\n",
                   m.c_str(), phase.c_str(), c.compute / nr);
    }
  for (const std::string& phase : named) {
    const auto it = p.phases.find(phase);
    out.add(m + ".phase." + phase + ".compute_s",
            it == p.phases.end() ? 0.0 : it->second.compute / nr, "s");
  }
  out.add(m + ".phase.other.compute_s", other / nr, "s");
  out.add(m + ".iterations", static_cast<double>(s.iterations), "count");

  // msgs: point-to-point sends; bytes: p2p bytes plus every rank's local
  // collective contribution (the randomized engines use collectives only).
  std::uint64_t coll = 0, bytes = s.comm.total_bytes();
  for (const obs::CommCounters& r : s.comm.per_rank) {
    for (const auto& [label, calls] : r.collective_calls) coll += calls;
    for (const auto& [label, b] : r.collective_bytes) bytes += b;
  }
  out.add(m + ".comm.msgs", static_cast<double>(s.comm.total_msgs()), "count");
  out.add(m + ".comm.bytes", static_cast<double>(bytes), "bytes");
  out.add(m + ".comm.collective_calls", static_cast<double>(coll), "count");
  out.add(m + ".comm_s", p.comm / nr, "s");
  out.add(m + ".idle_s", p.idle / nr, "s");
  out.add(m + ".overlap_s", p.overlap / nr, "s");
}

void run_per_layer(RunContext& ctx, Gate& gate, Metrics& out) {
  const Workload& w = *ctx.w;
  CscMatrix a;
  const std::vector<double> reads = timed_reads(ctx.mtx, kSetupReads, &a);
  const int np = std::max(1, w.np);

  // Sequential engine at pool width 1: pool dispatch cost, workspace use,
  // and the wall time the np=1 attribution is compared against. The first
  // pass warms up; the second is reported. The first pass's solves are
  // certified once the layer stats are read, so that the residual checks
  // do not count toward the workspace high-water mark.
  std::map<Method, double> seq_wall;
  Index k_rank = 0;
  std::vector<Solve> first;
  for (int rep = 0; rep < 2; ++rep) {
    ThreadPool::global().reset_stats();
    for (std::size_t i = 0; i < std::size(kMethods); ++i) {
      const Method m = kMethods[i];
      Solve s = solve_seq(a, m);
      const std::string what = std::string(to_string(m)) + " sequential";
      seq_wall[m] = s.wall;
      if (m == Method::kRandUbv) k_rank = s.rank;
      if (rep == 0) {
        first.push_back(std::move(s));
      } else {
        gate.record(what, quick_check(s, &first[i]));
      }
    }
  }
  const std::map<std::string, PoolKernelStat> pool =
      ThreadPool::global().kernel_stats();
  const WorkspaceStats ws = Workspace::aggregate();
  for (std::size_t i = 0; i < first.size(); ++i)
    gate.certify(std::string(to_string(kMethods[i])) + " sequential",
                 quick_check(first[i], nullptr), a, first[i]);

  double traced_wall = 0.0, untraced_wall = 0.0;
  for (Method m : kMethods) {
    const std::string name = to_string(m);
    // np=1 shadow: the share of the sequential wall time that the phase
    // profile attributes (the distributed engines start their clock after
    // COLAMD, so the gap shows work no profile sees).
    Solve shadow = solve_dist(a, m, 1, true);
    const obs::prof::Profile p1 = obs::prof::build_profile(shadow.trace);
    const std::string q1 = quick_check(shadow, nullptr);
    gate.certify(name + " traced np=1",
                 q1.empty() ? conservation_check(shadow, p1) : q1, a, shadow);
    out.add(name + ".attributed_share", p1.makespan / seq_wall[m], "ratio");

    if (np == 1) {
      const Solve plain = solve_dist(a, m, 1, false);
      gate.record(name + " untraced np=1", quick_check(plain, &shadow));
      untraced_wall += plain.wall;
      traced_wall += shadow.wall;
      add_profile_metrics(name, m, shadow, p1, out);
      continue;
    }
    Solve traced = solve_dist(a, m, np, true);
    const obs::prof::Profile p = obs::prof::build_profile(traced.trace);
    const std::string q = quick_check(traced, nullptr);
    const std::string where = " np=" + std::to_string(np);
    gate.certify(name + " traced" + where,
                 q.empty() ? conservation_check(traced, p) : q, a, traced);
    const Solve plain = solve_dist(a, m, np, false);
    gate.record(name + " untraced" + where, quick_check(plain, &traced));
    untraced_wall += plain.wall;
    traced_wall += traced.wall;
    add_profile_metrics(name, m, traced, p, out);
  }

  // Pool regions the solvers fork at width 1 today; any other label is
  // folded into pool.other.wall_s.
  static const char* const kPoolLabels[] = {"gemm", "lu_solve", "schur",
                                            "spmm", "spmm_t",   "tsqr"};
  double pool_other = 0.0;
  for (const auto& [label, st] : pool)
    if (std::find(std::begin(kPoolLabels), std::end(kPoolLabels), label) ==
        std::end(kPoolLabels))
      pool_other += st.wall_seconds;
  for (const char* label : kPoolLabels) {
    const auto it = pool.find(label);
    out.add(std::string("pool.") + label + ".wall_s",
            it == pool.end() ? 0.0 : it->second.wall_seconds, "s");
  }
  out.add("pool.other.wall_s", pool_other, "s");
  out.add("workspace.high_water_bytes", static_cast<double>(ws.high_water),
          "bytes");
  out.add("workspace.grows", static_cast<double>(ws.grows), "count");
  out.add("obs.trace_overhead_ratio", traced_wall / untraced_wall, "ratio");
  layer_probes(a, k_rank, reads, out);
}

// ---- commands --------------------------------------------------------------

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

int cmd_gen(const Cli& cli) {
  const Workload* w = find_workload(cli.get("workload", ""));
  const std::string out = cli.get("out", "");
  if (!w || out.empty() || !cli.has("seed")) {
    std::fprintf(stderr, "gen: need --workload=NAME --seed=N --out=FILE\n");
    return 2;
  }
  const TestMatrix t = make_preset(
      w->preset, w->scale, static_cast<std::uint64_t>(cli.get_int("seed", 0)));
  write_matrix_market(t.a, out);
  return 0;
}

bool parse_inject(const std::string& spec, Inject* inj) {
  const std::size_t c = spec.find(':');
  if (c == std::string::npos) return false;
  try {
    inj->method = method_from_string(spec.substr(0, c));
    inj->share = std::stod(spec.substr(c + 1));
  } catch (const std::exception&) {
    return false;
  }
  inj->active = inj->method != Method::kAuto && inj->share > 0.0;
  return inj->active;
}

int cmd_run(const Cli& cli) {
  RunContext ctx;
  ctx.w = find_workload(cli.get("workload", ""));
  ctx.mtx = cli.get("mtx", "");
  ctx.seed = cli.get_int("seed", -1);
  ctx.seconds = cli.get_double("seconds", 0.0);
  const long long trace = cli.get_int("trace", -1);
  if (!ctx.w || ctx.mtx.empty() || ctx.seed < 0 || !(ctx.seconds > 0.0) ||
      (trace != 0 && trace != 1) ||
      (cli.has("inject") && !parse_inject(cli.get("inject", ""), &ctx.inject))) {
    std::fprintf(stderr,
                 "run: need --workload=NAME --mtx=FILE --seed=N --seconds=S "
                 "--trace=0|1 [--inject=METHOD:SHARE]\n");
    return 2;
  }

  // Pinning: sequential workloads run at exactly one pool thread (rank
  // threads of the distributed workloads are serial by construction), with
  // the library's default kernel variant and tile geometry, so neither the
  // environment nor a stray autotune cache can change the kernels between
  // two runs that are compared. Every setting pinned over is recorded in
  // the provenance line as "ignored".
  std::string ignored;
  auto note = [&ignored](const std::string& what) {
    ignored += (ignored.empty() ? "" : ";") + what;
  };
  for (const char* var :
       {"LRA_NUM_THREADS", "LRA_KERNEL_VARIANT", kAutotuneEnvVar})
    if (const char* env = std::getenv(var)) note(std::string(var) + "=" + env);
  if (std::ifstream(kAutotuneDefaultFile).good()) note(kAutotuneDefaultFile);
  ThreadPool::global().set_num_threads(1);
  set_kernel_variant(KernelVariant::kSimd);
  set_kernel_config(default_kernel_config());

  Gate gate;
  Metrics metrics;
  Stopwatch total;
  if (trace == 0)
    run_end_to_end(ctx, gate, metrics);
  else
    run_per_layer(ctx, gate, metrics);

  obs::JsonObj prov;
  prov.field("workload", ctx.w->name)
      .field("preset", ctx.w->preset)
      .field("scale", ctx.w->scale)
      .field("seed", ctx.seed)
      .field("np", std::max(1, ctx.w->np))
      .field("engine", ctx.w->np > 0 ? "dist" : "sequential")
      .field("tau", kTau)
      .field("block_size", static_cast<long long>(kBlock))
      .field("trace", static_cast<int>(trace))
      .field("seconds", ctx.seconds)
      .field("run_wall_s", total.seconds())
      .field("pass_wall_s", ctx.pass_wall_s)
      .field("pool_threads", ThreadPool::global().num_threads())
      .field("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .field("isa", simd::simd_isa_name())
      .field("kernel_variant", to_string(kernel_variant()))
      .field("autotune", kernel_config_summary(kernel_config()))
      .field("ignored", ignored)
      .field("cpu", cpu_model())
      .field("build_type", LRA_BENCH_BUILD_TYPE)
      .field("rates", "computed from shapes")
      .field("inject", ctx.inject.active ? cli.get("inject", "") : "")
      .raw("samples", ctx.samples.str())
      .raw("host_ref", ctx.host_ref.str());
  std::printf("{\"provenance\":%s}\n", prov.str().c_str());

  obs::JsonObj result;
  result.field("correct", gate.failed() == 0)
      .field("attempted", gate.attempted())
      .field("failed", gate.failed())
      .raw("metrics", metrics.str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return gate.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: lra_perfbench gen|run --flags (see source)\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const lra::Cli cli(argc - 1, argv + 1);
    if (cmd == "gen") return cmd_gen(cli);
    if (cmd == "run") return cmd_run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
