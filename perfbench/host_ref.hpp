// Host-speed reference for the time-to-tau benchmark.
//
// On a shared host the speed of one core drifts by a third or more over
// seconds to minutes, as neighbours come and go on the same cores, caches
// and memory. That drift moves whole runs, so more samples in a run cannot
// remove it. The harness therefore times this fixed reference work right
// before and right after every timed call and scales the call's seconds by
// how fast the reference ran at that moment.
//
// The reference mixes the three kinds of work the solvers do: a dense
// multiply-add loop on cache-resident blocks (the dense kernels), a stream
// over 8 MB (the sparse and panel sweeps) and a dependent random walk over
// 8 MB (pivoting, ordering and other irregular access). It calls no library
// code and is compiled with the benchmark's own fixed flags, so no change to
// the library can move it.
#pragma once

namespace perfbench {

/// Reference seconds of a host on which the benchmark's timings are
/// reported: a timing t measured next to a reference time r is reported as
/// t * kRefNominalSeconds / r.
constexpr double kRefNominalSeconds = 0.08;

/// Runs the reference work once on each of `threads` threads at the same
/// time and returns their mean thread CPU seconds. Its buffers are
/// allocated and released inside the call, so no memory stays resident.
double reference_seconds(int threads);

}  // namespace perfbench
