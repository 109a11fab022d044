#pragma once
// Runtime switch between the kernel implementations in dense/blas.cpp and
// sparse/ops.cpp:
//
//   naive       — the seed loops; the bitwise reference.
//   simd        — the vectorized kernels on support/simd.hpp, using hardware
//                 FMA where the build's ISA has it. Deterministic (same
//                 input, same bits at any thread count / tile config), but
//                 gated against naive by a ULP bound, not bitwise identity.
//   simd-strict — the same vectorized kernels restricted to the two-rounding
//                 mul+add chain with lane-sequential k-accumulation; bitwise
//                 identical to naive and what the determinism suite, the
//                 differential oracle, and the distributed solvers' bitwise
//                 tests pin.
//
// All variants are always compiled; the dispatch happens once per kernel
// call on a cached flag. Selection order: set_kernel_variant() (the
// --kernel-variant CLI flag), then the LRA_KERNEL_VARIANT environment
// variable, then the simd default.
//
// For inputs free of non-finite values and exact-zero entries in the dense
// operands, naive and simd-strict produce bitwise-identical results
// at any thread count (see the determinism notes in ARCHITECTURE.md): these
// kernels tile only over output rows/columns and never split a k-reduction,
// so each output element accumulates its terms in exactly the seed kernel's
// order. The one behavioural difference is that the seed GEMM/SpMM skip
// multiply-adds whose dense multiplier is exactly 0.0, which can flip a
// -0.0 or suppress a NaN on degenerate inputs; simd and simd-strict multiply
// through instead.

#include <string_view>

namespace lra {

enum class KernelVariant { kNaive, kSimd, kSimdStrict };

/// All accepted --kernel-variant / LRA_KERNEL_VARIANT spellings.
inline constexpr char kKernelVariantNames[] = "naive|simd|simd-strict";

/// Active variant (cached; first call consults LRA_KERNEL_VARIANT).
KernelVariant kernel_variant();

/// Override the variant (CLI / tests). Takes effect for subsequent kernel
/// calls; not synchronized with kernels already running on the pool.
void set_kernel_variant(KernelVariant v);

/// "naive" / "simd" / "simd-strict" -> enum; false otherwise.
bool parse_kernel_variant(std::string_view text, KernelVariant* out);

const char* to_string(KernelVariant v);

}  // namespace lra
