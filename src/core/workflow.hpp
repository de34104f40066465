// Workflow assembly and execution.
//
// In the paper a workflow is a set of MPI executables launched together by
// one job script (Fig. 8); the components find each other purely through
// stream names, block until their neighbours are ready, and the whole graph
// drains when the driving simulation closes its output stream.  Workflow
// reproduces that: each added instance is a component with a process count
// and its positional arguments; run() launches every instance at once (each
// rank a thread, each instance a communicator) and blocks until the whole
// graph has finished.
//
// If any rank of any instance throws, every stream in the fabric is aborted
// so the remaining components unwind instead of blocking forever, and the
// root-cause exception is rethrown from run().
//
// Supervision (docs/RESILIENCE.md): each instance is its own failure
// domain.  Under RestartPolicy::on_failure a failed instance is relaunched
// in place — its input streams detach and replay un-acknowledged steps, its
// output streams roll back to the last fully assembled step — while the
// rest of the graph keeps running; only a non-restartable (or restart-
// exhausted) failure aborts the fabric.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/component.hpp"
#include "core/fusion.hpp"
#include "core/registry.hpp"
#include "obs/report.hpp"

namespace sb::obs {
class Sampler;
}  // namespace sb::obs

namespace sb::core {

/// Workflow-level static-lint knob: Auto follows the SB_LINT environment
/// gate (unset -> on; "off"/"0"/"false" -> off, the seed behaviour), On/Off
/// pin it for this workflow.  When enabled, run() fail-fasts on fatal
/// wiring defects (dangling inputs, double writers/readers, cycles) with
/// the same diagnostics smartblock_lint prints, instead of deadlocking.
enum class LintMode { Auto, On, Off };

/// Whether (and how often) the workflow relaunches a failed component
/// instance instead of aborting the whole graph.
struct RestartPolicy {
    enum class Mode {
        Never,      // any failure is fatal to the workflow (the seed behaviour)
        OnFailure,  // relaunch the instance, replaying un-acknowledged steps
    };
    Mode mode = Mode::Never;
    /// Restarts allowed per instance (not counting the initial run).
    int max_attempts = 2;
    /// Exponential backoff between relaunches, with deterministic jitter
    /// (0.5x-1.5x, hashed from instance and attempt — reproducible runs).
    double backoff_base_ms = 10.0;
    double backoff_factor = 2.0;
    double backoff_max_ms = 1000.0;

    static RestartPolicy never() { return {}; }
    static RestartPolicy on_failure(int max_attempts = 2) {
        RestartPolicy p;
        p.mode = Mode::OnFailure;
        p.max_attempts = max_attempts;
        return p;
    }
};

/// Thrown by Workflow::run() when several instances failed for distinct
/// reasons: carries the root cause in what() plus every suppressed
/// secondary error (a failure in one component unwinds its neighbours, and
/// those secondary unwinds used to be silently dropped).
class WorkflowError : public std::runtime_error {
public:
    WorkflowError(const std::string& what, std::vector<std::string> suppressed)
        : std::runtime_error(what), suppressed_(std::move(suppressed)) {}
    const std::vector<std::string>& suppressed() const noexcept {
        return suppressed_;
    }

private:
    std::vector<std::string> suppressed_;
};

class Workflow {
public:
    /// `default_options` applies to every output stream opened by the
    /// workflow's components (writer-side buffering depth etc.).
    explicit Workflow(flexpath::Fabric& fabric,
                      flexpath::StreamOptions default_options = {});

    /// Adds an instance of a registered component.  Returns the instance's
    /// stats sink (per-step timings, shared by its ranks), which remains
    /// valid after run().  `line` is the launch-script line the instance
    /// came from (0 = hand-built), used to anchor lint diagnostics.
    std::shared_ptr<StepStats> add(const std::string& component, int nprocs,
                                   std::vector<std::string> args,
                                   std::size_t line = 0);

    /// Number of instances added.
    std::size_t size() const noexcept { return instances_.size(); }

    /// Sets the workflow-wide restart policy (default: RestartPolicy::never,
    /// the fail-fast seed behaviour).  Call before run().
    void set_restart_policy(RestartPolicy policy) { policy_ = policy; }

    /// Per-instance override (instance `i` in add() order); unset instances
    /// use the workflow-wide policy.
    void set_restart_policy(std::size_t i, RestartPolicy policy) {
        instances_.at(i).policy = policy;
    }

    /// Times instance `i` was relaunched during the last run().
    int restarts(std::size_t i) const { return instances_.at(i).restarts; }

    /// Operator-fusion knob (core/fusion.hpp): Auto follows the SB_FUSE
    /// environment gate, On/Off pin it for this workflow.  Call before run().
    void set_fusion(FusionMode mode) { fusion_ = mode; }
    FusionMode fusion() const noexcept { return fusion_; }

    /// Static-lint knob (see LintMode): Auto follows SB_LINT, On/Off pin the
    /// fail-fast wiring check for this workflow.  Call before run().
    void set_lint(LintMode mode) { lint_ = mode; }
    LintMode lint() const noexcept { return lint_; }

    /// The fusion plan run() would execute right now: empty when fusion is
    /// disabled (every instance its own unit), otherwise the maximal fusible
    /// chains over the current instances.  Pure — streams are not touched.
    FusionPlan fusion_plan() const;

    /// Total processes across all instances (the paper's resource count).
    int total_procs() const noexcept;

    /// Launches everything, waits for the graph to drain, records the
    /// end-to-end wall time.  Throws the first root-cause failure.
    void run();

    /// End-to-end seconds of the last run() — "from the start of the
    /// simulation to the point when the last histogram of the last timestep
    /// is written" (paper §V.C).
    double elapsed_seconds() const noexcept { return elapsed_; }

    /// Stats sink of instance `i`, in add() order.
    const StepStats& stats(std::size_t i) const { return *instances_.at(i).stats; }

    /// Human-readable description of instance `i` ("select x16").
    std::string describe(std::size_t i) const;

    /// Writes a Chrome trace-event JSON timeline of the last run (one
    /// track per component instance, one lane per rank, one slice per
    /// timestep).  A final "transport" track carries per-stream queue-depth
    /// counter tracks and async slices for backpressure / acquire stalls
    /// recorded by the FlexPath layer during the run.  Load it in
    /// chrome://tracing or Perfetto to see how the stages of the in situ
    /// pipeline overlap — and why a lane is idle.  Call after run().
    void write_trace(const std::string& path) const;

    /// Writes a JSON snapshot of every obs::Registry metric (see
    /// docs/OBSERVABILITY.md for the schema and metric reference).  The
    /// registry is process-wide, so values accumulate across runs unless
    /// obs::Registry::global().reset() is called between them.
    void write_metrics(const std::string& path) const;

    /// The same snapshot as a human-readable aligned table, with process
    /// uptime and per-counter rates, followed by the critical-path
    /// summary when step spans were recorded.
    std::string metrics_summary() const;

    /// Walks the last run's step timelines (obs::SpanStore) across the
    /// workflow graph and names the limiting instance per step — see
    /// obs/report.hpp.  Call after run(); cached.
    obs::CriticalPathSummary critical_path() const;

    /// Human-readable critical-path report of the last run ("magnitude#0
    /// limits 10/12 steps (83%), median 12.4 ms compute" + per-step
    /// table).  Backs `smartblock_run --report`.
    std::string report() const;

    /// Attaches a metrics sampler whose time series are embedded as the
    /// "timeseries" block of write_metrics().  Not owned; must outlive
    /// write_metrics() calls.  Pass nullptr to detach.
    void attach_sampler(obs::Sampler* sampler) noexcept { sampler_ = sampler; }

    /// The instance label used for Compute spans and trace tracks
    /// ("magnitude#1": component name + '#' + add() index).
    std::string instance_label(std::size_t i) const;

private:
    struct Instance {
        std::string component;
        int nprocs;
        util::ArgList args;
        std::shared_ptr<StepStats> stats;
        std::optional<RestartPolicy> policy;  // overrides the workflow policy
        int restarts = 0;                     // relaunches during the last run
        std::size_t line = 0;                 // launch-script line (0 = none)
    };

    /// Whether the error behind `err` may be recovered by relaunching the
    /// unit (a fused chain's members, or a single instance), and if so, rolls
    /// its external streams back (detach + replay/skip).  Streams internal to
    /// a fused unit never materialize and need no rollback.
    bool try_recover(const std::vector<std::size_t>& members, int attempt,
                     const RestartPolicy& policy, const std::exception_ptr& err,
                     bool another_failed);

    /// Ports of instance `i` ({.known=false} when undeclared or throwing).
    Ports ports_of(std::size_t i) const;

    flexpath::Fabric& fabric_;
    flexpath::StreamOptions options_;
    RestartPolicy policy_;
    FusionMode fusion_ = FusionMode::Auto;
    LintMode lint_ = LintMode::Auto;
    std::vector<Instance> instances_;
    obs::Sampler* sampler_ = nullptr;
    mutable std::optional<obs::CriticalPathSummary> cpath_;  // critical_path() cache
    double elapsed_ = 0.0;
    double epoch_ = 0.0;  // steady-clock start of the last run
    bool ran_ = false;
};

}  // namespace sb::core
