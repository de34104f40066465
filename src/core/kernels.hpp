// Schedule-separated analysis kernels (ROADMAP item 3).
//
// The generic components' inner loops — magnitude, histogram binning,
// threshold compaction, moments accumulation, the dim-reduce strided
// scatter — live here, split Halide-style into *what* is computed (one
// kernel per operation, bit-exact semantics documented per function) and
// *how* it is scheduled (Schedule::Scalar replays the seed's sequential
// loops; Schedule::Simd runs portable `#pragma omp simd` / lane-split
// variants of the same math).  The chain executor (core/fusion.hpp), which
// runs every fusible component fused or alone, calls these entry points, so
// operator fusion and vectorization compose but are gated independently.
//
// Gating: the active schedule resolves once from the SB_SIMD environment
// variable (unset/anything -> Simd, "off"/"0"/"false" -> Scalar), mirroring
// SB_FUSE; set_schedule() overrides it for A/B benches.
//
// Bit-identity contract (docs/PERFORMANCE.md): magnitude, histogram,
// threshold, and the copies are bit-identical across schedules (per-element
// math is unchanged; histogram uses per-lane sub-histograms merged at block
// end, so the integer counts cannot race or reorder).  Moments sums are
// floating-point reassociated under Simd (lane-split accumulators), which
// can differ from Scalar at the ulp level — deterministically so.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace sb::core::kernels {

enum class Schedule { Scalar, Simd };

/// The schedule every component-facing overload uses: the set_schedule()
/// override when present, else the cached SB_SIMD resolution.
Schedule active_schedule();

/// Overrides (or, with nullopt, un-overrides) the active schedule.
/// Process-wide; call between runs, not concurrently with them.
void set_schedule(std::optional<Schedule> s);

/// True unless SB_SIMD is "off"/"0"/"false" (read once, cached).
bool simd_enabled_from_env();

// ---- magnitude ------------------------------------------------------------

/// Row-wise euclidean norm: out[i] = sqrt(sum_c vecs[i*ncomp+c]^2).
/// Each row's component sum is accumulated in index order under both
/// schedules, so the results are bit-identical; Simd vectorizes across rows.
void magnitude(const double* vecs, std::size_t n, std::size_t ncomp, double* out,
               Schedule s);
void magnitude(const double* vecs, std::size_t n, std::size_t ncomp, double* out);

// ---- histogram ------------------------------------------------------------

/// Adds each value's bin to `counts` (size = bins, not cleared).  Edge
/// semantics, identical under both schedules:
///   - NaN values are dropped (not counted anywhere);
///   - bin = floor((v - min) / width) with width = (max - min) / bins,
///     clamped into [0, bins-1]: v <= min (including -inf) lands in bin 0,
///     v >= max (including +inf) in bin bins-1;
///   - a degenerate range (min == max, or an inverted caller-supplied
///     max < min, giving width <= 0 or NaN) puts every non-NaN value in
///     bin 0.
/// Simd computes the bin indices branch-free in blocks and scatters them
/// into per-lane sub-histograms merged at block end (the Halide scheduled-
/// histogram pattern), so the integer counts match Scalar exactly.
void histogram_accumulate(std::span<const double> values, double min, double max,
                          std::span<std::uint64_t> counts, Schedule s);

// ---- threshold ------------------------------------------------------------

enum class ThresholdOp { Above, Below, Band };

/// Order-preserving compaction of the values passing the predicate
/// (Above: v > lo; Below: v < lo; Band: lo <= v <= hi) into `out`
/// (capacity >= in.size()); returns the pass count.  Output order equals
/// input order under both schedules (Simd evaluates the predicate
/// vectorized into a mask, then compacts sequentially), so the results are
/// bit-identical.  NaN never passes any mode.
std::size_t threshold_compact(std::span<const double> in, ThresholdOp op,
                              double lo, double hi, double* out, Schedule s);

// ---- moments --------------------------------------------------------------

/// Single-pass accumulators for distributed moments: count, sum, sum of
/// squares, sum of cubes, min, max over the non-NaN values.
struct MomentsAccum {
    double n = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    double lo;  // +inf when no finite value seen
    double hi;  // -inf when no finite value seen

    MomentsAccum();
};

/// Scalar accumulates in index order (the seed semantics); Simd splits the
/// input across independent lane accumulators merged in lane order —
/// deterministic, but reassociated (ulp-level differences from Scalar).
MomentsAccum moments_accumulate(std::span<const double> values, Schedule s);

// ---- strided copies -------------------------------------------------------

/// Scatters n elements of `elem` bytes from a dense source to a destination
/// with a stride of `dst_stride` elements (the dim-reduce non-contiguous
/// inner loop).  Pure data movement: bit-identical under both schedules;
/// Simd vectorizes the common elem == 8 case as word copies.
void scatter_strided(const std::byte* src, std::byte* dst, std::size_t n,
                     std::size_t dst_stride, std::size_t elem, Schedule s);

}  // namespace sb::core::kernels
