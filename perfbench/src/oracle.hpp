// Seeded inputs and the output oracle.
//
// Every value a benchmark source publishes is a pure function of (seed,
// step, row, column), so the benchmark can recompute, for any published
// step, the values the terminal Histogram must have binned and the exact
// histogram it must have written.  The reference is computed here from the
// documented component semantics (Select by column, Euclidean magnitude,
// keep every stride-th row, keep values above a threshold, equal-width bins
// with the last bin closed), independently of the runtime's kernels.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/histogram.hpp"

namespace pb {

/// The physical flavour of a source's columns.
enum class Kind {
    Gtcp,   // 7 plasma quantities per (slice, gridpoint)
    Crack,  // ID, Type, vx, vy, vz per atom
    Md,     // x, y, z per atom
};

/// The seeded value generator shared by the sources and the oracle.
///
/// Values come from a bank of kBank precomputed steps (built once per
/// seed, so a source publishes at memory speed and the analysis pipeline,
/// not the generator, is what the benchmark measures); step t uses bank
/// entry t % kBank plus one marker row whose value grows with t and is the
/// step's maximum, so every step's histogram is distinct and a step
/// delivered under the wrong index cannot match its reference.
class Field {
public:
    static constexpr std::uint64_t kBank = 8;

    Field(Kind kind, std::uint64_t seed, std::uint64_t rows, std::uint64_t cols);

    /// Value of column `col` of row `row` at `step`.  Rows are the source
    /// array's leading dimensions flattened row-major.
    double at(std::uint64_t step, std::uint64_t row, std::uint64_t col) const;

    /// Fills rows [row0, row0 + nrows) x all columns, row-major.
    void fill(std::uint64_t step, std::uint64_t row0, std::uint64_t nrows, double* out) const;

    std::uint64_t rows() const noexcept { return rows_; }
    std::uint64_t cols() const noexcept { return cols_; }

private:
    /// The row carrying step `step`'s marker (a multiple of 8, so it
    /// survives every downsampling stride the workloads use).
    std::uint64_t marker_row(std::uint64_t step) const;
    double marker(std::uint64_t step, std::uint64_t col) const;

    Kind kind_;
    std::uint64_t rows_;
    std::uint64_t cols_;
    std::vector<double> bank_;  // kBank x rows x cols
};

/// What a workload's analysis pipeline computes from the source array, in
/// terms the oracle can replay.
struct Analysis {
    std::vector<std::uint64_t> columns;  // selected columns, in order
    bool magnitude = false;              // Euclidean norm over `columns`
    std::uint64_t stride = 1;            // keep rows 0, stride, 2*stride, ...
    std::optional<double> above;         // keep values strictly above
    std::size_t bins = 0;
};

/// The values the terminal histogram bins for `step` (in no particular
/// order — the histogram does not depend on it).
std::vector<double> reference_values(const Field& field, const Analysis& a,
                                     std::uint64_t step);

/// Reference histogram: NaNs dropped, min/max over the rest, `bins`
/// equal-width bins over [min, max] with the last bin closed, out-of-range
/// values clamped into the edge bins, all values in bin 0 when min == max,
/// and an all-zero histogram at min = max = 0 when nothing is left.
sb::core::HistogramResult reference_histogram(std::span<const double> values,
                                              std::size_t bins, std::uint64_t step);

/// Outcome of checking a run's histogram file against the references.
struct Verdict {
    std::uint64_t published = 0;  // steps the source published
    std::uint64_t missing = 0;    // published steps with no output
    std::uint64_t differing = 0;  // outputs not equal to the reference (or unexpected)
    std::vector<std::string> notes;

    std::uint64_t failed() const noexcept { return missing + differing; }
};

/// Checks `got` (a parsed histogram file) against the reference of every
/// step in [0, published).  Steps outside that range, and repeated steps,
/// count as differing.
Verdict verify(const std::vector<sb::core::HistogramResult>& got,
               std::uint64_t published, const Field& field, const Analysis& a);

}  // namespace pb
