#pragma once
// SPMD building blocks shared by the solver bodies (RandQB_EI, RandUBV,
// LU_CRTP): the contiguous 1D partition, typed Matrix collectives and the
// allgather-TSQR. Each solver states its algorithm once, as an SPMD body; its
// sequential entry point runs that body in a one-rank world, where every
// collective below is the identity and moves its operand instead of copying
// it.

#include <stdexcept>
#include <string>

#include "core/termination.hpp"
#include "dense/matrix.hpp"
#include "par/simcomm.hpp"
#include "sparse/csc.hpp"

namespace lra::spmd {

/// Run a solver body on `world` and fill the runtime fields of `out` (a
/// Dist*Result: virtual_seconds, kernel_seconds, comm, trace). A payload
/// corruption injected by the world's fault plan aborts the run and is
/// reported as Status::kCommFault, never as a crash.
template <typename DistResult, typename Body>
void run(SimWorld& world, const Body& body, DistResult& out, double anorm) {
  try {
    world.run(body);
  } catch (const sim::CommFaultError&) {
    out.result.status = Status::kCommFault;
    out.result.anorm_f = anorm;
  } catch (const std::out_of_range&) {
    // A corrupted payload that slipped past the transport and was rejected
    // by ByteReader's bounds checks; only reachable with a fault plan.
    if (!world.fault_plan()) throw;
    out.result.status = Status::kCommFault;
    out.result.anorm_f = anorm;
  }
  out.virtual_seconds = world.elapsed_virtual();
  out.kernel_seconds = world.kernel_times_max();
  out.comm = world.comm_stats();
  out.trace = world.take_trace();
}

/// Contiguous 1D partition of `n` items over `p` ranks; rank r owns
/// [begin, end).
struct Slice {
  Index begin, end;
  Index size() const { return end - begin; }
};
Slice slice_of(Index n, int p, int r);

/// This rank's row block of `a` (rows slice_of(a.rows(), P, r)). In a
/// one-rank world that is `a` itself; otherwise the block is copied into
/// `storage`, which must outlive the returned reference.
const CscMatrix& local_rows(RankCtx& ctx, const CscMatrix& a,
                            CscMatrix& storage);

/// Elementwise sum of `m` over all ranks, in place (same shape everywhere).
void allreduce_sum(RankCtx& ctx, Matrix& m);

/// Replicate a row-distributed matrix: rank r holds the rows
/// slice_of(total_rows, P, r) of a total_rows x loc.cols() matrix, and every
/// rank gets the whole of it — or, with root >= 0, only rank `root` does and
/// the others get an empty matrix.
Matrix gather_rows(RankCtx& ctx, Matrix loc, Index total_rows, int root = -1);

/// Replicate a column-distributed matrix: rank r holds the columns
/// slice_of(total_cols, P, r) of a loc.rows() x total_cols matrix. `root`
/// as in gather_rows.
Matrix gather_cols(RankCtx& ctx, Matrix loc, Index total_cols, int root = -1);

/// How a rank factors its local panel inside tsqr_dist.
enum class LocalQr {
  kOrth,         // orth()'s routing: tall panels through the pool tsqr()
  kHouseholder,  // always one Householder QR
};

struct TsqrOut {
  Matrix q_loc;  // this rank's rows of the orthonormal factor
  Matrix r;      // kk x kk upper triangular, replicated
};

/// Allgather-TSQR of the row-distributed tall matrix y_loc (rows of a global
/// m x kk matrix): local QR, allgather of the R factors, a redundant QR of
/// the stacked R blocks, and the local Q update. In a one-rank world the
/// local QR is the whole factorization. `kernel` labels the compute time.
TsqrOut tsqr_dist(RankCtx& ctx, Matrix y_loc, Index kk,
                  const std::string& kernel, LocalQr local = LocalQr::kOrth);

}  // namespace lra::spmd
