// The Moments component.
//
//   moments input-stream-name input-array-name [output-file]
//
// An endpoint like Histogram, but producing the statistical moments of a
// one-dimensional array per timestep: count, mean, variance (population),
// skewness, min, and max.  The ranks accumulate local power sums and
// combine them with a single elementwise allreduce; rank 0 appends one line
// per timestep to a text file.  The output is a tiny human-readable
// reduction of the data — the role the paper assigns to its endpoint
// components.
#pragma once

#include <iosfwd>
#include <optional>

#include "core/component.hpp"

namespace sb::core {

/// One timestep's moments.
struct MomentsResult {
    std::uint64_t step = 0;
    std::uint64_t count = 0;
    double mean = 0.0;
    double variance = 0.0;  // population
    double skewness = 0.0;  // 0 when undefined (n<2 or zero variance)
    double min = 0.0;
    double max = 0.0;
};

/// The collective kernel: every rank passes its partition and receives the
/// complete global result.  NaNs are skipped.
MomentsResult distributed_moments(const mpi::Communicator& comm,
                                  std::span<const double> local, std::uint64_t step);

void write_moments(std::ostream& os, const MomentsResult& m);
std::vector<MomentsResult> read_moments_file(const std::string& path);

/// Newest step id in an existing moments file, or nullopt when the file is
/// missing or holds no data row yet.  Lenient (a torn tail never throws):
/// a resuming sink uses it to skip replayed steps whose rows the previous
/// incarnation already wrote.
std::optional<std::uint64_t> last_moments_step(const std::string& path);

class Moments : public Component {
public:
    std::string name() const override { return "moments"; }
    std::string usage() const override {
        return "moments input-stream-name input-array-name [output-file]";
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
