// The benchmark's three in situ workloads (see perfbench/README.md for why
// each exists and which layer it stresses).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/launch_script.hpp"
#include "oracle.hpp"
#include "util/ndarray.hpp"

namespace pb {

/// Ranks of every workload's source (the load generator), kept small so
/// busy rank threads stay within a 4-core machine.
constexpr int kSourceRanks = 2;

/// The stream hop whose reads characterise a workload, for the flexpath
/// replay: the array shape, the dimension its two writer ranks split, and
/// the boxes its reader asks for each step.
struct Hop {
    sb::util::NdShape shape;
    std::size_t split_dim = 0;
    std::vector<sb::util::Box> reads;
};

struct Workload {
    std::string name;
    Kind kind = Kind::Md;
    sb::util::NdShape shape;             // source array; last dim = columns
    std::size_t partition_dim = 0;       // dimension the source ranks split
    std::vector<std::string> dim_names;  // one per dimension
    std::vector<std::string> header;     // column names (header of the last dim)
    std::string stream;
    std::string array;
    Analysis analysis;  // what the terminal histogram sees, for the oracle

    /// Paced phase: open loop, step t due at t0 + t / rate_hz.  A constant,
    /// set once at about half the flat-out step rate; never re-derived.
    double rate_hz = 0.0;
    std::uint64_t paced_steps = 0;  // per round
    std::uint64_t flat_steps = 0;   // per round (closed loop)
    bool durable = false;           // every stream goes to the durable log
    std::size_t expected_chains = 0;  // Workflow::fusion_plan() chain count

    /// The pipeline after the source, one entry per analysis instance; the
    /// last is the histogram that writes `hist_file`.
    std::vector<sb::core::LaunchEntry> stages(const std::string& hist_file) const;

    /// The hop of stages() that the flexpath replay re-creates.
    Hop replay_hop() const;

    std::uint64_t rows() const { return shape.volume() / shape[shape.ndim() - 1]; }
    std::uint64_t bytes_per_step() const { return shape.volume() * sizeof(double); }
};

/// The named workload; throws std::invalid_argument for an unknown name.
const Workload& workload(const std::string& name);

std::vector<std::string> workload_names();

}  // namespace pb
