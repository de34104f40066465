// Golden-diagnostic tests for the static workflow contract analyzer
// (src/lint): every rule ID is pinned against a committed trigger script in
// examples/lint/ — rule, severity, and launch-script line anchor — so a
// diagnostic can't silently change identity or drift off its source line.
// Also covered: exit-code semantics (0/1/2, --strict), JSON rendering
// (parsed, not grepped), allow-list suppression, lint-config directives,
// the Workflow::run fail-fast gate, and that the shipped evaluation
// workflows (Figs. 5-7) lint clean with fusion notes matching the real
// planner.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "core/component.hpp"
#include "core/launch_script.hpp"
#include "core/registry.hpp"
#include "core/workflow.hpp"
#include "json_test_util.hpp"
#include "lint/lint.hpp"
#include "sim/source_component.hpp"

namespace core = sb::core;
namespace lint = sb::lint;
namespace sim = sb::sim;
namespace fp = sb::flexpath;
namespace u = sb::util;

namespace {

std::string slurp(const std::string& rel) {
    std::ifstream in(std::string(SB_REPO_DIR) + "/" + rel);
    EXPECT_TRUE(in.good()) << "cannot open " << rel;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

lint::Result lint_file(const std::string& rel, const lint::Options& opts = {}) {
    sim::register_simulations();
    return lint::lint_script(slurp(rel), opts);
}

const lint::Diagnostic* find_rule(const lint::Result& r, const std::string& rule) {
    for (const auto& d : r.diagnostics)
        if (d.rule == rule) return &d;
    return nullptr;
}

}  // namespace

// ---- golden diagnostics: one committed trigger script per rule -----------

// gtest prints a parameter that has no operator<< as its raw bytes, and
// gtest_discover_tests bakes that text into the ctest name.  Golden therefore
// holds no pointers and no padding, so every build names these cases the
// same; the trigger script is looked up by rule in trigger_script().
struct Golden {
    char rule[28];  // longest rule ID + NUL; the tail is zero-filled
    lint::Severity severity;
    std::uint32_t line;  // 0 = workflow-wide (config rules)
    int exit_plain;
};
static_assert(sizeof(Golden) == 40, "Golden must stay free of padding");

std::string trigger_script(const std::string& rule) {
    static const std::map<std::string, std::string> scripts = {
        {"graph-dangling-input", "dangling_input_bad.sh"},
        {"graph-unconsumed-output", "unconsumed_output_bad.sh"},
        {"graph-multiple-writers", "multiple_writers_bad.sh"},
        {"graph-multiple-readers", "multiple_readers_bad.sh"},
        {"shape-rank-mismatch", "shape_rank_bad.sh"},
        {"shape-array-mismatch", "shape_array_bad.sh"},
        {"shape-dim-out-of-range", "shape_dim_bad.sh"},
        {"shape-bad-param", "shape_bad_param_bad.sh"},
        {"shape-validate-mismatch", "shape_validate_bad.sh"},
        {"shape-rank-unsolvable", "rank_unsolvable_bad.sh"},
        {"attr-header-missing", "attr_header_missing_bad.sh"},
        {"attr-header-name", "attr_header_name_bad.sh"},
        {"attr-header-dropped", "attr_header_dropped_bad.sh"},
        {"config-replay-impossible", "config_replay_bad.sh"},
        {"config-durable-volatile", "config_durable_volatile_bad.sh"},
        {"config-zerofill-validate", "config_zerofill_validate_bad.sh"},
        {"config-liveness-fault-delay", "config_liveness_bad.sh"}};
    return scripts.at(rule);
}

class LintGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(LintGolden, TriggerScriptFiresRuleAtLine) {
    const Golden& g = GetParam();
    const std::string file = trigger_script(g.rule);
    const lint::Result r = lint_file("examples/lint/" + file);
    const lint::Diagnostic* d = find_rule(r, g.rule);
    ASSERT_NE(d, nullptr) << file << " did not fire " << g.rule << ":\n"
                          << lint::render_text(r);
    EXPECT_EQ(d->severity, g.severity) << file;
    EXPECT_EQ(d->line, g.line) << file;
    EXPECT_EQ(lint::exit_code(r), g.exit_plain) << file;
    // --strict escalates warnings (but never notes) to the error exit code.
    EXPECT_EQ(lint::exit_code(r, true), g.exit_plain == 0 ? 0 : 2) << file;
}

INSTANTIATE_TEST_SUITE_P(
    Rules, LintGolden,
    ::testing::Values(
        Golden{"graph-dangling-input", lint::Severity::Error, 5, 2},
        Golden{"graph-unconsumed-output", lint::Severity::Warning, 3, 1},
        Golden{"graph-multiple-writers", lint::Severity::Error, 4, 2},
        Golden{"graph-multiple-readers", lint::Severity::Error, 6, 2},
        Golden{"shape-rank-mismatch", lint::Severity::Error, 5, 2},
        Golden{"shape-array-mismatch", lint::Severity::Error, 4, 2},
        Golden{"shape-dim-out-of-range", lint::Severity::Error, 4, 2},
        Golden{"shape-bad-param", lint::Severity::Error, 5, 2},
        Golden{"shape-validate-mismatch", lint::Severity::Error, 7, 2},
        Golden{"shape-rank-unsolvable", lint::Severity::Error, 7, 2},
        Golden{"attr-header-missing", lint::Severity::Error, 5, 2},
        Golden{"attr-header-name", lint::Severity::Error, 4, 2},
        Golden{"attr-header-dropped", lint::Severity::Error, 7, 2},
        Golden{"config-replay-impossible", lint::Severity::Warning, 0, 1},
        Golden{"config-durable-volatile", lint::Severity::Warning, 0, 1},
        Golden{"config-zerofill-validate", lint::Severity::Warning, 8, 1},
        Golden{"config-liveness-fault-delay", lint::Severity::Warning, 0, 1}),
    [](const ::testing::TestParamInfo<Golden>& info) {
        std::string n = info.param.rule;
        for (char& c : n)
            if (c == '-') c = '_';
        return n;
    });

// Each *_bad.sh trigger has a *_ok.sh counterpart (or a config/allow
// positive) that must be completely clean, even under --strict.
TEST(LintGoldenOk, PositiveCounterpartsAreClean) {
    for (const char* f :
         {"dangling_input_ok.sh", "unconsumed_output_ok.sh",
          "multiple_writers_ok.sh", "multiple_readers_ok.sh", "shape_rank_ok.sh",
          "shape_validate_ok.sh", "rank_unsolvable_ok.sh", "attr_header_ok.sh",
          "config_ok.sh", "config_replay_ok.sh", "config_durable_volatile_ok.sh",
          "allow_suppress_ok.sh"}) {
        const lint::Result r = lint_file(std::string("examples/lint/") + f);
        EXPECT_TRUE(r.clean()) << f << ":\n" << lint::render_text(r);
        EXPECT_EQ(lint::exit_code(r, /*strict=*/true), 0) << f;
    }
}

// ---- diagnostics carry actionable detail ---------------------------------

TEST(LintDetail, DanglingInputSuggestsNearestStream) {
    const lint::Result r = lint_file("examples/lint/dangling_input_bad.sh");
    const lint::Diagnostic* d = find_rule(r, "graph-dangling-input");
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->hint.find("velos.fp"), std::string::npos) << d->hint;
    // The typo'd writer output is also flagged as unconsumed.
    const lint::Diagnostic* w = find_rule(r, "graph-unconsumed-output");
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->severity, lint::Severity::Warning);
}

TEST(LintDetail, ArrayMismatchNamesTheWritersArray) {
    const lint::Result r = lint_file("examples/lint/shape_array_bad.sh");
    const lint::Diagnostic* d = find_rule(r, "shape-array-mismatch");
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->hint.find("coords"), std::string::npos) << d->hint;
}

TEST(LintDetail, RankMismatchShowsConcreteShape) {
    const lint::Result r = lint_file("examples/lint/shape_rank_bad.sh");
    const lint::Diagnostic* d = find_rule(r, "shape-rank-mismatch");
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("[256, 3]"), std::string::npos) << d->message;
}

TEST(LintDetail, HeaderNameListsAvailableQuantities) {
    const lint::Result r = lint_file("examples/lint/attr_header_name_bad.sh");
    const lint::Diagnostic* d = find_rule(r, "attr-header-name");
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("vorticity"), std::string::npos) << d->message;
    EXPECT_NE(d->message.find("potential"), std::string::npos) << d->message;
}

TEST(LintDetail, RankUnsolvableCitesBothConstraintSites) {
    const lint::Result r = lint_file("examples/lint/rank_unsolvable_bad.sh");
    const lint::Diagnostic* d = find_rule(r, "shape-rank-unsolvable");
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("histogram"), std::string::npos) << d->message;
    EXPECT_NE(d->message.find("magnitude"), std::string::npos) << d->message;
}

TEST(LintDetail, ValidateMismatchReportsProvablyDifferentDim) {
    const lint::Result r = lint_file("examples/lint/shape_validate_bad.sh");
    const lint::Diagnostic* d = find_rule(r, "shape-validate-mismatch");
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("1 vs 2"), std::string::npos) << d->message;
}

// ---- inline wiring rules (no component contract needed) ------------------

TEST(LintWiring, CycleDetected) {
    const lint::Result r = lint::lint_script(
        "aprun -n 1 magnitude a.fp x b.fp y &\n"
        "aprun -n 1 magnitude b.fp y a.fp x &\n"
        "wait\n");
    const lint::Diagnostic* d = find_rule(r, "graph-cycle");
    ASSERT_NE(d, nullptr) << lint::render_text(r);
    EXPECT_EQ(d->severity, lint::Severity::Error);
    EXPECT_EQ(lint::exit_code(r), 2);
}

TEST(LintWiring, UnknownComponentIsBadArguments) {
    const lint::Result r = lint::lint_script("aprun -n 1 nosuch-component a b &\nwait\n");
    const lint::Diagnostic* d = find_rule(r, "graph-bad-arguments");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->line, 1u);
    EXPECT_NE(d->message.find("nosuch-component"), std::string::npos);
}

TEST(LintWiring, ArgErrorSurfacesWithComponentUsage) {
    // histogram with a single argument: ports() itself rejects the args.
    const lint::Result r = lint::lint_script("aprun -n 1 histogram only &\nwait\n");
    const lint::Diagnostic* d = find_rule(r, "graph-bad-arguments");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, lint::Severity::Error);
}

TEST(LintWiring, OpaquePortsIsANoteOnly) {
    // A third-party component that never overrides ports(): the analyzer
    // reports it can't see through the instance, but does not fail the lint.
    struct OpaqueComponent : core::Component {
        std::string name() const override { return "test-opaque"; }
        std::string usage() const override { return "test-opaque"; }
        void run(core::RunContext&, const u::ArgList&) override {}
    };
    core::register_component("test-opaque",
                             [] { return std::make_unique<OpaqueComponent>(); });
    const lint::Result r = lint::lint_script("aprun -n 1 test-opaque &\nwait\n");
    const lint::Diagnostic* d = find_rule(r, "graph-opaque-ports");
    ASSERT_NE(d, nullptr) << lint::render_text(r);
    EXPECT_EQ(d->severity, lint::Severity::Note);
    EXPECT_EQ(lint::exit_code(r), 0);
    EXPECT_EQ(lint::exit_code(r, /*strict=*/true), 0);
}

TEST(LintWiring, MalformedScriptBecomesDiagnosticNotException) {
    const lint::Result r = lint::lint_script("aprun -n zero histogram a b 4 &\n");
    EXPECT_GE(r.errors, 1u);
    EXPECT_NE(find_rule(r, "graph-bad-arguments"), nullptr);
}

// ---- lint-config directives and allow-list -------------------------------

TEST(LintConfig, BadDirectiveValueIsAnError) {
    const lint::Result r = lint::lint_script(
        "# lint-config: on-data-loss=sometimes\n"
        "aprun -n 1 gromacs atoms=16 steps=1 &\n"
        "aprun -n 1 moments gmx.fp coords &\n"
        "wait\n");
    const lint::Diagnostic* d = find_rule(r, "graph-bad-arguments");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->line, 1u);
    EXPECT_NE(d->message.find("lint-config"), std::string::npos);
}

TEST(LintConfig, AllowOptionSuppressesRule) {
    sim::register_simulations();
    const std::string text = slurp("examples/lint/unconsumed_output_bad.sh");
    ASSERT_FALSE(lint::lint_script(text).clean());
    lint::Options opts;
    opts.allow.insert("graph-unconsumed-output");
    const lint::Result r = lint::lint_script(text, opts);
    EXPECT_TRUE(r.clean()) << lint::render_text(r);
}

TEST(LintConfig, FaultSpecParserSkipsSeedEntries) {
    const auto specs = lint::parse_fault_specs("seed=7; flexpath.acquire=delay:50");
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].point, "flexpath.acquire");
    EXPECT_THROW((void)lint::parse_fault_specs("not a spec"), std::invalid_argument);
}

// ---- renderers -----------------------------------------------------------

TEST(LintRender, TextCarriesSourceRuleAndTotals) {
    const lint::Result r = lint_file("examples/lint/dangling_input_bad.sh");
    const std::string text = lint::render_text(r, "dangling_input_bad.sh");
    EXPECT_NE(text.find("dangling_input_bad.sh:5"), std::string::npos) << text;
    EXPECT_NE(text.find("[graph-dangling-input]"), std::string::npos) << text;
    EXPECT_NE(text.find("hint:"), std::string::npos) << text;
    EXPECT_NE(text.find("1 error, 1 warning, 0 notes"), std::string::npos) << text;
}

TEST(LintRender, JsonParsesAndMatchesCounts) {
    const lint::Result r = lint_file("examples/lint/dangling_input_bad.sh");
    const auto doc = jsonutil::JsonParser(lint::render_json(r)).parse();
    ASSERT_EQ(doc.kind, jsonutil::JsonValue::Kind::Object);
    EXPECT_EQ(doc.find("errors")->number, static_cast<double>(r.errors));
    EXPECT_EQ(doc.find("warnings")->number, static_cast<double>(r.warnings));
    EXPECT_EQ(doc.find("exit_code")->number, 2.0);
    const auto* diags = doc.find("diagnostics");
    ASSERT_NE(diags, nullptr);
    ASSERT_EQ(diags->arr.size(), r.diagnostics.size());
    const auto& first = diags->arr.front();
    EXPECT_EQ(first.find("rule")->str, r.diagnostics.front().rule);
    EXPECT_EQ(first.find("severity")->str, "error");
    EXPECT_EQ(first.find("line")->number,
              static_cast<double>(r.diagnostics.front().line));
}

TEST(LintRender, DotAnnotationsColorOffendingNodes) {
    sim::register_simulations();
    const auto entries =
        core::parse_launch_script(slurp("examples/lint/dangling_input_bad.sh"));
    const lint::Result r = lint::lint_entries(entries);
    const auto ann = lint::dot_annotations(entries, r);
    ASSERT_FALSE(ann.empty());
    bool red = false;
    for (const auto& a : ann) red = red || a.color == "red";
    EXPECT_TRUE(red);
    const std::string dot = core::graph_to_dot(entries, ann);
    EXPECT_NE(dot.find("fillcolor=\"red\""), std::string::npos) << dot;
    EXPECT_NE(dot.find("[graph-dangling-input]"), std::string::npos) << dot;
}

TEST(LintRender, DotEscapesLabelMetacharacters) {
    EXPECT_EQ(core::dot_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// ---- shipped evaluation workflows lint clean, notes match the planner ----

TEST(LintWorkflows, ShippedScriptsAreErrorAndWarningFree) {
    for (const char* f : {"examples/workflows/lammps_crack.sh",
                          "examples/workflows/gtcp_pressure.sh",
                          "examples/workflows/gromacs_spread.sh"}) {
        const lint::Result r = lint_file(f);
        EXPECT_TRUE(r.clean()) << f << ":\n" << lint::render_text(r);
        EXPECT_EQ(lint::exit_code(r, /*strict=*/true), 0) << f;
    }
}

TEST(LintWorkflows, FusionNotesMatchThePlanner) {
    sim::register_simulations();
    for (const char* f : {"examples/workflows/lammps_crack.sh",
                          "examples/workflows/gtcp_pressure.sh",
                          "examples/workflows/gromacs_spread.sh"}) {
        const auto entries = core::parse_launch_script(slurp(f));
        lint::Options opts;
        opts.fusion = core::FusionMode::On;
        const lint::Result r = lint::lint_entries(entries, opts);

        fp::Fabric fabric;
        core::Workflow wf(fabric);
        for (const auto& e : entries) wf.add(e.component, e.nprocs, e.args, e.line);
        wf.set_fusion(core::FusionMode::On);
        const core::FusionPlan plan = wf.fusion_plan();

        std::size_t chain_notes = 0, boundary_notes = 0;
        for (const auto& d : r.diagnostics) {
            if (d.rule == "fusion-chain") ++chain_notes;
            if (d.rule == "fusion-boundary") ++boundary_notes;
        }
        EXPECT_EQ(chain_notes, plan.chains.size()) << f;
        EXPECT_EQ(boundary_notes, plan.notes.size()) << f;
    }
}

TEST(LintWorkflows, FusionOffSuppressesNotes) {
    sim::register_simulations();
    const auto entries = core::parse_launch_script(
        slurp("examples/workflows/gromacs_spread.sh"));
    lint::Options opts;
    opts.fusion = core::FusionMode::Off;
    const lint::Result r = lint::lint_entries(entries, opts);
    EXPECT_EQ(find_rule(r, "fusion-chain"), nullptr);
    EXPECT_EQ(find_rule(r, "fusion-boundary"), nullptr);
}

// ---- Workflow::run fail-fast gate ----------------------------------------

TEST(LintWorkflowGate, MiswiredGraphFailsFastInsteadOfHanging) {
    // In the seed a reader on a never-written stream blocks forever; with
    // the gate on, run() throws before any instance launches.
    sim::register_simulations();
    fp::Fabric fabric;
    core::Workflow wf(fabric);
    wf.add("histogram", 1, {"nosuch.fp", "vals", "8"}, 3);
    wf.set_lint(core::LintMode::On);
    try {
        wf.run();
        FAIL() << "expected lint::LintError";
    } catch (const lint::LintError& e) {
        EXPECT_NE(std::string(e.what()).find("mis-wired"), std::string::npos);
        const lint::Diagnostic* d = find_rule(e.result(), "graph-dangling-input");
        ASSERT_NE(d, nullptr);
        EXPECT_EQ(d->line, 3u);
    }
}

TEST(LintWorkflowGate, WiringSubsetExcludesContractAndArgumentRules) {
    // The fail-fast gate must not intercept what the seed reports itself:
    // bad arguments keep coming from the component as util::ArgError, and
    // contract violations (histogram on a 2-D array) stay runtime errors.
    const auto entries = core::parse_launch_script(
        "aprun -n 1 gromacs atoms=16 steps=1 &\n"
        "aprun -n 1 histogram gmx.fp coords 8 &\n"  // rank error at runtime
        "aprun -n 1 histogram only &\n"             // ArgError at add/run
        "wait\n");
    const lint::Result wiring = lint::lint_wiring(entries);
    EXPECT_EQ(wiring.errors, 0u) << lint::render_text(wiring);
    // The full analyzer does see both problems.
    const lint::Result full = lint::lint_entries(entries);
    EXPECT_NE(find_rule(full, "graph-bad-arguments"), nullptr);
}

TEST(LintWorkflowGate, CleanPipelineRunsWithGateOnAndOff) {
    sim::register_simulations();
    for (const core::LintMode mode : {core::LintMode::On, core::LintMode::Off}) {
        fp::Fabric fabric;
        core::Workflow wf(fabric);
        wf.add("gromacs", 1, {"atoms=32", "steps=2"});
        wf.add("magnitude", 1, {"gmx.fp", "coords", "radii.fp", "radii"});
        wf.add("histogram", 1, {"radii.fp", "radii", "8"});
        wf.set_lint(mode);
        EXPECT_NO_THROW(wf.run());
    }
}

// ---- environment gate ----------------------------------------------------

TEST(LintEnv, ModeAndEnvResolution) {
    EXPECT_TRUE(lint::lint_enabled(core::LintMode::On));
    EXPECT_FALSE(lint::lint_enabled(core::LintMode::Off));

    ::setenv("SB_LINT", "off", 1);
    EXPECT_FALSE(lint::lint_enabled_from_env());
    EXPECT_FALSE(lint::lint_enabled(core::LintMode::Auto));
    EXPECT_TRUE(lint::lint_enabled(core::LintMode::On));  // pin beats env
    ::setenv("SB_LINT", "0", 1);
    EXPECT_FALSE(lint::lint_enabled_from_env());
    ::setenv("SB_LINT", "on", 1);
    EXPECT_TRUE(lint::lint_enabled_from_env());
    ::unsetenv("SB_LINT");
    EXPECT_TRUE(lint::lint_enabled_from_env());
    EXPECT_TRUE(lint::lint_enabled(core::LintMode::Auto));
}

// ---- contract coverage audit ---------------------------------------------

// Every registered component must expose a non-opaque contract for
// representative arguments: a component whose contract() silently regresses
// to the opaque default would turn whole downstream subgraphs unanalyzable.
TEST(LintContracts, AllRegisteredComponentsDeclareContracts) {
    sim::register_simulations();
    core::register_builtin_components();
    const std::map<std::string, std::vector<std::string>> rep = {
        {"all-pairs", {"in.fp", "a", "out.fp", "b"}},
        {"dim-reduce", {"in.fp", "a", "0", "1", "out.fp", "b"}},
        {"downsample", {"in.fp", "a", "0", "2", "out.fp", "b"}},
        {"file-writer", {"in.fp", "a", "prefix"}},
        {"file-reader", {"prefix", "out.fp", "b"}},
        {"fork", {"in.fp", "a", "o1.fp", "b1", "o2.fp", "b2"}},
        {"heatmap", {"in.fp", "a", "prefix"}},
        {"histogram", {"in.fp", "a", "8"}},
        {"magnitude", {"in.fp", "a", "out.fp", "b"}},
        {"moments", {"in.fp", "a"}},
        {"reduce", {"in.fp", "a", "0", "sum", "out.fp", "b"}},
        {"select", {"in.fp", "a", "1", "out.fp", "b", "x", "y"}},
        {"threshold", {"in.fp", "a", "above", "0.5", "out.fp", "b"}},
        {"transpose", {"in.fp", "a", "1,0", "out.fp", "b"}},
        {"validate", {"a.fp", "a", "b.fp", "b"}},
        {"aio", {"in.fp", "a", "0", "8", "out.txt", "x"}},
        {"lammps", {}},
        {"gromacs", {}},
        {"gtcp", {}},
    };
    for (const std::string& name : core::component_names()) {
        if (name == "test-opaque") continue;  // registered by this suite
        const auto it = rep.find(name);
        ASSERT_NE(it, rep.end())
            << "component '" << name << "' has no representative args in this "
            << "audit -- add it (and a contract() if it lacks one)";
        const auto c = core::make_component(name);
        const u::ArgList args(it->second);
        EXPECT_TRUE(c->ports(args).known) << name;
        EXPECT_TRUE(c->contract(args).known)
            << "component '" << name << "' is opaque to the analyzer";
    }
}
