// The Histogram component (paper §III.E).
//
//   histogram input-stream-name input-array-name num-bins [output-file]
//
// The component's ranks partition a one-dimensional array among themselves,
// communicate to discover the global minimum and maximum, bin the values
// between those extremes, and combine the counts.  As in the paper, the
// component is a workflow endpoint: one process (rank 0) writes the
// per-timestep histogram to a file on disk — the output is tiny compared to
// the input, so a single writer suffices.
//
// Values are binned with an inclusive upper edge on the last bin; NaNs are
// ignored.  When every value is identical the single occupied bin is bin 0.
#pragma once

#include <iosfwd>
#include <optional>

#include "core/component.hpp"

namespace sb::core {

/// One timestep's histogram.
struct HistogramResult {
    std::uint64_t step = 0;
    double min = 0.0;
    double max = 0.0;
    std::vector<std::uint64_t> counts;

    std::uint64_t total() const noexcept {
        std::uint64_t n = 0;
        for (auto c : counts) n += c;
        return n;
    }

    /// Lower edge of bin `b`.
    double bin_lo(std::size_t b) const;
    double bin_hi(std::size_t b) const;

    bool operator==(const HistogramResult&) const = default;
};

/// Binning kernel: counts of `values` in `bins` equal-width bins over
/// [min, max], dispatched through core/kernels.hpp (scalar or per-lane
/// vectorized per SB_SIMD; identical counts either way).  Edge semantics:
///   - NaN values are dropped, not counted in any bin;
///   - out-of-range values are clamped into the edge bins: v <= min
///     (including -inf) counts in bin 0, v >= max (including +inf) in the
///     last bin — they can only arise from caller-supplied extremes, so
///     clamping keeps total() == non-NaN input size;
///   - a degenerate range (min == max, or inverted max < min) puts every
///     non-NaN value in bin 0.
/// Throws std::invalid_argument when bins == 0.
std::vector<std::uint64_t> histogram_counts(std::span<const double> values,
                                            double min, double max, std::size_t bins);

/// The collective histogram used by Histogram and by the all-in-one
/// baseline: allreduces min/max over the communicator, bins the local
/// values, and sums the counts.  Every rank returns the complete result.
HistogramResult distributed_histogram(const mpi::Communicator& comm,
                                      std::span<const double> local,
                                      std::size_t bins, std::uint64_t step);

/// Appends one histogram in the on-disk text format.
void write_histogram(std::ostream& os, const HistogramResult& h);

/// Parses a file of appended histograms (used by tests and benches).
std::vector<HistogramResult> read_histogram_file(const std::string& path);

/// Newest `# step N` marker in an existing histogram file, or nullopt when
/// the file is missing or holds no step yet.  Lenient (a torn tail never
/// throws): a resuming sink uses it to skip replayed steps whose rows the
/// previous incarnation already wrote, so an input acknowledgement lost in
/// a crash cannot duplicate output.
std::optional<std::uint64_t> last_histogram_step(const std::string& path);

class Histogram : public Component {
public:
    std::string name() const override { return "histogram"; }
    std::string usage() const override {
        return "histogram input-stream-name input-array-name num-bins [output-file]";
    }
    std::optional<FusedStage> stage(const util::ArgList& args) const override;
    Contract contract(const util::ArgList& args) const override {
        Contract c = stage_contract(*stage(args));
        c.inputs.front().exact_rank = 1;
        c.inputs.front().needs_float64 = true;
        return c;
    }
};

}  // namespace sb::core
