// sb::lint — static workflow contract analyzer (docs/LINT.md).
//
// A SmartBlock workflow is wired by matching stream names across launch-
// script lines; whether the wired graph can actually *run* depends on facts
// that only surface at runtime in the seed: array names, ranks, element
// kinds, dimension headers, and the transport/restart configuration.  This
// module abstract-interprets the components' declarative contracts
// (core/contract.hpp) over the resolved dataflow DAG before anything
// launches and reports what would have gone wrong, anchored to the launch-
// script lines that caused it:
//
//   - wiring defects (the core/graph.hpp rules, re-keyed to stable IDs),
//   - shape/rank/kind mismatches between a writer's symbolic output shape
//     and each reader's requirements, including workflow-wide rank-variable
//     solving across opaque producers,
//   - attribute/header availability where components re-key or drop
//     dimension headers (select needs names; dim-reduce drops them),
//   - fusion-legality notes per chain, computed by the *actual* planner
//     (core/fusion.hpp) so diagnostics never drift from execution,
//   - configuration-safety audits (replay-impossible retention, ZeroFill
//     feeding a validate, liveness timeouts shorter than injected delays).
//
// Diagnostics carry a severity, a stable rule ID (the suppression key), the
// 1-based launch-script line, a fix-it hint when one is known, and render
// both human-readable and as JSON (`smartblock_lint --json`).
//
// Gating: SB_LINT env (unset -> on; "off"/"0"/"false" -> off, the seed
// behaviour), overridable per workflow via Workflow::set_lint — the same
// pattern as SB_FUSE / SB_READ_AHEAD.  Only the wiring rules fail-fast
// inside Workflow::run; everything else is reported by the CLI tools.
#pragma once

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "core/launch_script.hpp"
#include "fault/fault.hpp"
#include "flexpath/stream.hpp"

namespace sb::lint {

enum class Severity { Note, Warning, Error };

const char* severity_name(Severity s);

/// One finding.  `rule` is the stable ID from docs/LINT.md (also the
/// --allow suppression key); `line` is the 1-based launch-script line the
/// finding anchors to (0 = no line, e.g. workflow-wide config rules);
/// `instance` names the offending component instance ("#3 histogram", empty
/// for workflow-wide findings); `hint` is a fix-it suggestion (may be
/// empty).
struct Diagnostic {
    std::string rule;
    Severity severity = Severity::Error;
    std::size_t line = 0;
    std::string instance;
    std::string message;
    std::string hint;
};

/// Analyzer configuration: the workflow-level knobs whose interactions the
/// config-safety rules audit, plus the rule allow-list.
struct Options {
    /// Stream options the workflow would run with (retention / data-loss /
    /// liveness interplay).
    flexpath::StreamOptions stream;
    /// Restart policy the workflow would run with.
    core::RestartPolicy restart;
    /// Fusion mode (legality notes are suppressed when fusion resolves off).
    core::FusionMode fusion = core::FusionMode::Auto;
    /// Armed fault specs (SB_FAULT-style), for the liveness-vs-delay rule.
    std::vector<fault::FaultSpec> faults;
    /// Rule IDs to drop from the result (--allow=<id>).
    std::set<std::string> allow;
};

struct Result {
    std::vector<Diagnostic> diagnostics;  // severity-major, then line order
    std::size_t errors = 0;
    std::size_t warnings = 0;
    std::size_t notes = 0;

    bool clean() const noexcept { return errors == 0 && warnings == 0; }
};

/// Thrown by Workflow::run's fail-fast gate: carries the wiring findings.
class LintError : public std::runtime_error {
public:
    LintError(const std::string& what, Result result)
        : std::runtime_error(what), result_(std::move(result)) {}
    const Result& result() const noexcept { return result_; }

private:
    Result result_;
};

/// Full analysis of a resolved entry list: wiring, contracts, fusion notes,
/// config audits.  Pure; unregistered components surface as diagnostics,
/// never as exceptions.
Result lint_entries(const std::vector<core::LaunchEntry>& entries,
                    const Options& opts = {});

/// Parses `script` (core/launch_script.hpp grammar) and lints it.  Script
/// comments of the form `# lint-config: key=value ...` override `opts`
/// before analysis so committed trigger scripts are self-contained; keys:
/// retain-steps, read-ahead, queue-capacity, durable-dir, fsync,
/// on-data-loss (fail|skip|zero-fill), liveness-ms, restart-policy
/// (never|on-failure),
/// fuse (auto|on|off), fault (one SB_FAULT entry).  A malformed script or
/// directive becomes a graph-bad-arguments error, not an exception.
Result lint_script(const std::string& text, const Options& opts = {});

/// Wiring rules only (dangling-input, multiple-writers, multiple-readers,
/// cycle) — the fail-fast subset Workflow::run enforces.  Deliberately
/// excludes bad-arguments (argument errors must keep surfacing from the
/// component itself, as util::ArgError) and all contract rules (runtime
/// shape errors stay runtime; see WorkflowErrors tests).
Result lint_wiring(const std::vector<core::LaunchEntry>& entries);

/// Renders findings human-readable: one "<source>:<line>: <severity>:
/// [<rule>] <instance>: <message>" line each, hints indented beneath,
/// followed by a totals line.  `source_name` prefixes line anchors (empty
/// -> "line N" prose).
std::string render_text(const Result& result, const std::string& source_name = "");

/// Renders findings as a JSON object: {"diagnostics": [...], "errors": N,
/// "warnings": N, "notes": N, "exit_code": N} (see docs/LINT.md).
std::string render_json(const Result& result, bool strict = false);

/// Process exit code for a result: 2 if any error, else 1 if any warning
/// (2 under --strict), else 0 — notes are informational and never fail.
int exit_code(const Result& result, bool strict = false);

/// Node-coloring overlay for core::graph_to_dot: errors red, warnings
/// gold, first finding per instance annotated into the label.
std::vector<core::DotAnnotation> dot_annotations(
    const std::vector<core::LaunchEntry>& entries, const Result& result);

/// Parses an SB_FAULT-style list ("seed=7; p=throw@3, q=delay:50") into
/// specs for Options::faults without arming anything; "seed=N" entries are
/// skipped.  Throws std::invalid_argument on malformed entries.
std::vector<fault::FaultSpec> parse_fault_specs(const std::string& value);

/// True unless SB_LINT is "off"/"0"/"false" (read per call — tests toggle).
bool lint_enabled_from_env();

/// Resolves a core::LintMode against the environment gate.
bool lint_enabled(core::LintMode mode);

}  // namespace sb::lint
