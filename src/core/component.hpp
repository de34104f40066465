// The SmartBlock component framework.
//
// A SmartBlock component is, in the paper, a standalone MPI executable
// configured entirely by positional command-line parameters and connected to
// its neighbours by named FlexPath streams.  Here a component is a class
// whose run() receives a RunContext (the stream fabric + this rank's
// communicator) and the same positional arguments the paper's launch scripts
// pass (Figs. 1-3, 8).  One instance runs per rank; ranks coordinate through
// the communicator exactly as the paper's processes do ("for each timestep,
// these processes communicate to determine how to partition the overall
// incoming dataset").
//
// Design guidelines from paper §III.A are enforced structurally:
//   1. uniform packaging — every component exports the same interface;
//   2. any-rank data with labelled dimensions — shapes/labels come from
//      stream metadata, never from configuration;
//   3. semantics preserved downstream — helpers propagate attributes and
//      headers across components that don't use them;
//   4. explicit re-arrangement — Dim-Reduce does layout changes, nothing
//      else silently reorders memory.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "adios/reader.hpp"
#include "adios/writer.hpp"
#include "core/contract.hpp"
#include "core/kernels.hpp"
#include "mpi/runtime.hpp"
#include "util/argparse.hpp"

namespace sb::core {

/// Per-component, per-step measurements (Fig. 9 / Fig. 10 need per-component
/// timestep completion times "averaged over the component's communicator").
/// One StepStats is shared by all ranks of a component instance.
class StepStats {
public:
    void record(std::uint64_t step, int rank, double seconds, std::uint64_t bytes_in,
                std::uint64_t bytes_out);

    struct Sample {
        std::uint64_t step;
        int rank;
        double seconds;
        std::uint64_t bytes_in;
        std::uint64_t bytes_out;
        /// Completion instant on the process-wide steady clock (seconds);
        /// lets the workflow export a timeline (see Workflow::write_trace).
        double t_end;
    };

    /// Raw samples, in record order.
    std::vector<Sample> samples() const;

    struct StepRow {
        std::uint64_t step = 0;
        int nranks = 0;           // ranks that reported this step
        double mean_seconds = 0;  // mean over the communicator
        double max_seconds = 0;
        std::uint64_t bytes_in = 0;   // summed over ranks
        std::uint64_t bytes_out = 0;
    };

    /// One row per step, aggregated over ranks, ordered by step.
    std::vector<StepRow> per_step() const;

    /// Mean per-step completion time over all steps and ranks.
    double mean_step_seconds() const;

    std::uint64_t total_bytes_in() const;
    std::uint64_t total_bytes_out() const;
    std::uint64_t steps() const;

private:
    mutable std::mutex mu_;
    std::vector<Sample> samples_;
};

/// Seconds on the process-wide steady clock (the time base of
/// StepStats::Sample::t_end).
double steady_now_seconds();

/// Everything a component rank needs to run.
struct RunContext {
    // Constructor matching the historical aggregate shape, so existing
    // RunContext{fabric, comm, stats, opts} call sites keep compiling
    // without naming the supervision fields (-Wmissing-field-initializers).
    RunContext(flexpath::Fabric& f, mpi::Communicator c, StepStats* s = nullptr,
               flexpath::StreamOptions o = {})
        : fabric(f), comm(std::move(c)), stats(s), stream_options(std::move(o)) {}

    flexpath::Fabric& fabric;
    mpi::Communicator comm;
    StepStats* stats = nullptr;  // optional measurement sink
    flexpath::StreamOptions stream_options{};  // applied to output streams

    // ---- supervision (set by Workflow, defaulted elsewhere) --------------
    /// The workflow-level component name this rank belongs to ("" outside a
    /// workflow); scopes the "component.step" / "component.run" fault points.
    std::string component;
    /// The instance label this rank belongs to ("magnitude#1", "" outside a
    /// workflow); scopes the per-step Compute spans (obs::SpanStore) that the
    /// critical-path analyzer attributes to this instance.
    std::string instance;
    /// 0 on the first run, k on the k-th restart.  Components with external
    /// side effects (file endpoints) use this to resume instead of truncate.
    int attempt = 0;
    /// True when the workflow resumed mid-stream from a durable step log
    /// (cold restart): file endpoints append rather than truncate even on
    /// attempt 0, because earlier steps' output already exists on disk.
    bool resume = false;
};

/// The streams a component instance would read and write, derived from its
/// arguments without running it.  The workflow graph validator (see
/// core/graph.hpp) builds the dataflow DAG from these.
struct Ports {
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;
    /// False when the component cannot statically name its streams (the
    /// graph validator then treats it as opaque instead of mis-wired).
    bool known = true;
};

/// One fusible component's launch arguments, parsed once (Component::stage).
/// A standalone run executes it as a one-stage chain and the fusion planner
/// (core/fusion.hpp) strings several together; both use the same executor.
struct FusedStage {
    enum class Kind {
        Select,
        Magnitude,
        Threshold,
        DimReduce,
        Downsample,
        Histogram,
        Moments,
    };
    Kind kind = Kind::Magnitude;
    std::size_t instance = 0;  // workflow instance index (add() order)
    std::string component;     // registry name ("dim-reduce", ...)
    std::string in_stream;
    std::string in_array;
    std::string out_stream;  // empty for the file-endpoint kinds
    std::string out_array;
    std::string out_file;  // Histogram / Moments

    std::size_t dim = 0;              // Select / Downsample
    std::vector<std::string> wanted;  // Select
    kernels::ThresholdOp tmode = kernels::ThresholdOp::Above;
    double lo = 0.0;  // Threshold
    double hi = 0.0;
    std::size_t remove = 0;  // Dim-Reduce
    std::size_t grow = 0;
    std::uint64_t stride = 1;  // Downsample
    std::size_t bins = 0;      // Histogram

    /// Malformed argument values (a non-number, an unknown mode, a zero
    /// stride or bin count, an inverted band), in the order the arguments
    /// are read.  run() throws the first as util::ArgError before opening a
    /// stream; contract() reports them all as param_errors; the planner
    /// leaves the instance unfused.
    std::vector<std::string> arg_errors;
};

/// For Component::stage: returns parse(), or records the util::ArgError it
/// throws in st.arg_errors and returns a value-initialized result, so a bad
/// value never hides the stage's streams from ports().
template <class Parse>
auto stage_arg(FusedStage& st, Parse&& parse) -> decltype(parse()) {
    try {
        return parse();
    } catch (const util::ArgError& e) {
        st.arg_errors.emplace_back(e.what());
        return {};
    }
}

/// Base class of all SmartBlock components (analytics, sources, endpoints).
class Component {
public:
    virtual ~Component() = default;

    /// The name used in launch scripts ("select", "histogram", "lammps", ...).
    virtual std::string name() const = 0;

    /// One-line usage string, in the style of the paper's Figs. 1-3.
    virtual std::string usage() const = 0;

    /// The component's fusible stage for these arguments: the one parse
    /// that run(), ports(), contract() and the fusion planner share.  Throws
    /// util::ArgError only when arguments are missing; malformed values go
    /// to FusedStage::arg_errors.  The default, nullopt, means "not
    /// fusible" — such a component overrides run() and ports() itself.
    virtual std::optional<FusedStage> stage(const util::ArgList& args) const {
        (void)args;
        return std::nullopt;
    }

    /// Runs this rank of the component to end of stream.  Called once.  The
    /// default runs stage(args) as a one-stage chain on the fused executor
    /// (core/fusion.hpp), reporting under ctx.instance / ctx.stats.
    virtual void run(RunContext& ctx, const util::ArgList& args);

    /// Declares the streams run() would open for these arguments.  Throws
    /// util::ArgError for missing arguments (same validation as run()).
    /// The default names stage()'s streams, or — for a component with no
    /// stage — declares nothing and marks the ports unknown.
    virtual Ports ports(const util::ArgList& args) const;

    /// The component's static contract for these arguments (core/contract.hpp):
    /// per-port arrays, rank/kind requirements, shape transforms, and header
    /// flow.  Must be consistent with ports() and run().  Throws
    /// util::ArgError exactly where ports() would.  The default declares the
    /// component opaque to the static analyzer.
    virtual Contract contract(const util::ArgList& args) const {
        (void)args;
        return Contract{};
    }
};

/// The part of a fusible component's contract its stage alone determines:
/// known, the input stream/array, the output stream/array (when the stage
/// publishes one), and st.arg_errors as param_errors.
Contract stage_contract(const FusedStage& st);

// ---- helpers shared by the generic components ----------------------------

/// Attribute key carrying the names of the quantities along dimension `dim`
/// of array `array` — the "header" of paper §III.C.
std::string header_attr_key(const std::string& array, std::size_t dim);

/// Rules for carrying attributes across a component (design guideline 3).
struct AttrRules {
    std::string in_array;
    std::string out_array;
    /// For each output dimension, the input dimension it came from; empty
    /// means identity.  Headers are re-keyed through this map.
    std::vector<std::size_t> dim_map;
    /// Input dimensions whose headers must not propagate (they were
    /// consumed or invalidated, e.g. Select's filtered dimension).
    std::set<std::size_t> drop_in_dims;
};

/// One step's attributes as plain maps — the in-memory currency of the
/// fused-chain executor (core/fusion.hpp), where intermediate streams never
/// materialize but their attribute semantics must still compose.
struct AttrSet {
    std::map<std::string, std::vector<std::string>> strings;
    std::map<std::string, double> doubles;
};

/// Applies `rules` to `in`, producing the attribute set the downstream step
/// would observe: `<in_array>.*` keys rename to `<out_array>.*`, header
/// dimension indices remap per dim_map, dropped dimensions' headers vanish,
/// unrelated attributes pass through unchanged.
AttrSet apply_attr_rules(const AttrSet& in, const AttrRules& rules);

/// Copies the current step's attributes from `in` to `out` through
/// apply_attr_rules — the per-hop propagation of the components that run
/// their own step loop (Fork, Transpose, All-Pairs, ...).
void propagate_attributes(const adios::Reader& in, adios::Writer& out,
                          const AttrRules& rules);

/// Records one step's timing/volume into ctx.stats if present.
void record_step(const RunContext& ctx, std::uint64_t step, double seconds,
                 std::uint64_t bytes_in, std::uint64_t bytes_out);

/// Picks the dimension a component should auto-partition: the largest-extent
/// dimension not in `exclude`.  Throws if every dimension is excluded.
std::size_t pick_partition_dim(const util::NdShape& shape,
                               const std::set<std::size_t>& exclude);

/// Builds a single-variable GroupDef for a component's output: the array
/// plus one scalar dimension variable per label.
adios::GroupDef output_group(const std::string& component,
                             const std::string& array_name,
                             const std::vector<std::string>& dim_labels,
                             adios::DataKind kind = adios::DataKind::Float64);

}  // namespace sb::core
