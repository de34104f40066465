// The benchmark-owned, seeded source component ("pb-source").
//
// It stands in for the simulation: every value it publishes comes from
// shared_field(workload, seed), so the data depends only on the seed argument.  With
// rate=0 it runs closed-loop (next step as soon as end_step returns, so
// backpressure throttles it); with rate=R > 0 it runs open-loop, step t
// due at t0 + t / R however late the pipeline runs.  It declares ports()
// and contract() like the shipped simulation components, so workflows that
// start with it pass the default SB_LINT gate and stay fusible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "workloads.hpp"

namespace pb {

/// What the source observed in the last workflow run.
struct SourceProbe {
    /// First-step instant shared by the source ranks (max of their ready
    /// times, sb::obs::steady_seconds): the end of workflow set-up and the
    /// origin of the paced schedule.
    double t0 = 0.0;
    struct StepRecord {
        std::uint64_t step = 0;
        int rank = 0;
        double due = 0.0;         // scheduled start (t0 in the closed loop)
        double begin = 0.0;       // actual start of the step
        double end_step_s = 0.0;  // time inside Writer::end_step
        double fill_cpu_s = 0.0;  // this thread's CPU time generating the block
    };
    std::vector<StepRecord> steps;
};

/// Clears the probe before a workflow run.
void reset_probe();

/// The probe of the last run (call after Workflow::run returns).
SourceProbe take_probe();

/// The process-wide generator of `w`'s source array for `seed`, built on
/// first use.
const Field& shared_field(const Workload& w, std::uint64_t seed);

/// Fills `box` of `w`'s source array at `step` (box.volume() values,
/// row-major).  `box` spans every index before w.partition_dim and a
/// contiguous range of it, as the source ranks' blocks do.
void fill_block(const Field& field, const Workload& w, std::uint64_t step,
                const sb::util::Box& box, double* out);

/// Registers "pb-source" with the component registry (idempotent).
void register_source();

/// The workload's whole graph for one workflow run: the source, then
/// w.stages(hist_file).  The one place a workflow's topology is built.
std::vector<sb::core::LaunchEntry> launch_entries(const Workload& w, std::uint64_t seed,
                                                  std::uint64_t steps, double rate_hz,
                                                  const std::string& hist_file);

/// CPU time of the calling thread, in seconds.
double thread_cpu_seconds();

/// CPU time of the whole process (every thread), in seconds.
double process_cpu_seconds();

}  // namespace pb
