// Graph-level operator fusion (ROADMAP item 3, docs/PERFORMANCE.md).
//
// Every hop between adjacent components pays a publish/acquire round-trip,
// an FFS encode/decode, and a scheduling handoff per step — even when the
// producer and consumer run the same number of ranks and the data could
// flow straight through.  The planner here walks the workflow's dataflow
// graph (core/graph.hpp ports) before launch and collapses each maximal
// chain of fusible components into one synthesized fused unit that executes
// the composed kernels in a single pass per input block, reading only the
// chain's head stream and writing only its tail endpoint.
//
// Legality (all statically checked; anything else stays unfused):
//   - only the element-wise / reduction components fuse: Select, Magnitude,
//     Threshold, Dim-Reduce, Downsample mid-chain, Histogram and Moments as
//     chain tails (they are file endpoints);
//   - the connecting stream must have exactly one writer and one reader —
//     Fork/Reduce/All-Pairs fan-in/fan-out and any cross-stream hop are
//     fusion boundaries — and the downstream stage must read the array the
//     upstream stage writes;
//   - both sides must run the same process count (differing partitionings
//     re-distribute through the stream and cannot collapse);
//   - Moments only terminates an all-Magnitude prefix: its floating-point
//     sums are partition-order-sensitive, and Magnitude is the one
//     transform that preserves the partitioning Moments would have seen
//     unfused, keeping the output bit-identical (Histogram's integer counts
//     and exact min/max reductions are partition-proof, so it tails any
//     chain);
//   - a workflow containing any component with undeclared ports disables
//     fusion outright (an opaque component could open any stream, so
//     single-reader/single-writer cannot be proven).
//
// One executor runs every fusible component.  Each component defines its
// stage once (Component::stage: the argument parse), and run_fused_chain
// below is the only step loop for those kinds: an unfused run is a set of
// one-stage chains on this same executor, one per instance, so fused and
// unfused outputs are bit-identical by construction.
//
// Execution preserves per-component semantics: each stage keeps its own
// instance label, StepStats sink, Compute spans, and fault points, so Fig. 9
// columns, traces, critical-path attribution, and SB_FAULT schedules name
// the original instances.  When a mid-chain stage needs a repartitioning
// the stream used to provide (e.g. Dim-Reduce removing the partitioned
// dimension), the executor falls back to an allgather of the intermediate
// (counted by the fusion.gather_fallbacks metric) rather than failing —
// fused runs never error where unfused runs would not.
//
// Gating: SB_FUSE env (unset -> on; "off"/"0"/"false" -> off), overridable
// per workflow via Workflow::set_fusion — mirrors SB_READ_AHEAD.  Off runs
// every instance as its own one-stage unit.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/component.hpp"

namespace sb::core {

/// Workflow-level fusion knob: Auto follows SB_FUSE, On/Off pin it.
enum class FusionMode { Auto, On, Off };

/// True unless SB_FUSE is "off"/"0"/"false" (read once, cached).
bool fusion_enabled_from_env();

/// Resolves a FusionMode against the environment gate.
bool fusion_enabled(FusionMode mode);

/// Fusible stages, upstream to downstream.  The planner's chains always
/// hold >= 2 stages; a standalone run is a chain of one.
struct FusedChain {
    std::vector<FusedStage> stages;

    const FusedStage& head() const { return stages.front(); }
    const FusedStage& tail() const { return stages.back(); }
    /// True when the tail publishes a stream (vs. writing a file endpoint).
    bool tail_writes_stream() const { return !tail().out_stream.empty(); }
};

/// Planner input: one workflow instance.
struct FusionCandidate {
    std::string component;
    int nprocs = 1;
    util::ArgList args;
    Ports ports;
};

struct FusionPlan {
    std::vector<FusedChain> chains;
    /// Human-readable reasons candidate links stayed unfused (for --dot /
    /// debugging; empty notes mean nothing looked fusible in the first
    /// place).
    std::vector<std::string> notes;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    /// Chain index containing instance `i`, or npos.
    std::size_t chain_of(std::size_t i) const;
    bool fused(std::size_t i) const { return chain_of(i) != npos; }
};

/// Statically plans fusion over the workflow's instances.  Pure: no streams
/// are touched, and an empty plan is always a valid (seed-semantics) answer.
/// `barrier_streams` names streams that must stay materialized — a link
/// through one of them is never fused.  The workflow passes every stream
/// with on-disk durable history here: eliding it would silently drop the
/// replay a cold-restarted or late-joining reader resumes from.
FusionPlan plan_fusion(const std::vector<FusionCandidate>& candidates,
                       const std::set<std::string>& barrier_streams = {});

/// Per-stage observability plumbing supplied by the workflow: the original
/// instance label ("magnitude#1") and stats sink, so a fused run reports
/// exactly like the unfused one.
struct FusedStageHooks {
    std::string instance;
    StepStats* stats = nullptr;
};

/// Runs one rank of a fused chain to end of stream: reads the head's input
/// stream, applies every stage per input block, writes the tail endpoint.
/// `hooks` parallels chain.stages.  ctx.comm is the fused unit's
/// communicator; ctx.attempt carries restart semantics to file endpoints.
void run_fused_chain(RunContext& ctx, const FusedChain& chain,
                     const std::vector<FusedStageHooks>& hooks);

}  // namespace sb::core
