// sb_perfbench: the SmartBlock benchmark program (see perfbench/README.md).
//
//   sb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload through core::Workflow in rounds, each a paced phase
// (open loop) and a flat-out phase (closed loop), checks every output step
// against the oracle, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1), one per line with unit and sample count,
// followed by one JSON object as the last line of standard output.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "core/fusion.hpp"
#include "core/histogram.hpp"
#include "core/kernels.hpp"
#include "core/workflow.hpp"
#include "durable/log.hpp"
#include "lint/lint.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "source.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/pool.hpp"

extern char** environ;

namespace {

namespace core = sb::core;
namespace fs = std::filesystem;
namespace obs = sb::obs;
using namespace pb;

/// Durable segments small enough that every md_durable round rolls and
/// collects several of them.
constexpr std::size_t kSegmentBytes = 1u << 20;

struct Cli {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

Cli parse_cli(int argc, char** argv) {
    Cli c;
    std::set<std::string> seen;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
        const std::string val = argv[i + 1];
        if (key == "--workload") {
            c.workload = val;
        } else if (key == "--seed") {
            c.seed = std::stoull(val);
        } else if (key == "--seconds") {
            c.seconds = std::stod(val);
            if (!(c.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
        } else if (key == "--trace") {
            if (val != "0" && val != "1") throw std::invalid_argument("--trace takes 0 or 1");
            c.trace = val == "1";
        } else {
            throw std::invalid_argument("unknown option " + key);
        }
        seen.insert(key);
    }
    if (seen.size() != 4) {
        throw std::invalid_argument(
            "usage: sb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    }
    return c;
}

/// Names of every SB_* variable set in the environment.
std::vector<std::string> sb_variables() {
    std::vector<std::string> out;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "SB_", 3) == 0) {
            const char* eq = std::strchr(*e, '=');
            out.emplace_back(*e, eq ? static_cast<std::size_t>(eq - *e) : std::strlen(*e));
        }
    }
    return out;
}

const char* on_off(bool b) { return b ? "on" : "off"; }

void print_gates() {
    const sb::flexpath::StreamOptions defaults;
    const double liveness = sb::flexpath::resolve_liveness_seconds(defaults);
    std::printf(
        "# gates (resolved, no SB_* variable set): SB_FUSE=%s SB_LINT=%s SB_POOL=%s "
        "SB_SIMD=%s SB_DURABLE=%s SB_METRICS=%s SB_CHECK=%s SB_READ_AHEAD=%zu "
        "SB_PLAN_CACHE=on SB_LIVENESS_MS=%s SB_FAULT=none\n",
        on_off(core::fusion_enabled_from_env()), on_off(sb::lint::lint_enabled_from_env()),
        on_off(sb::util::pool_enabled()), on_off(core::kernels::simd_enabled_from_env()),
        on_off(sb::durable::durable_enabled_from_env()), on_off(obs::enabled()),
        on_off(sb::check::enabled()), sb::flexpath::resolve_read_ahead(defaults),
        liveness > 0.0 ? std::to_string(liveness * 1e3).c_str() : "off");
}

// Runtime counters whose per-round deltas feed the per-layer metrics.
const std::vector<std::string> kCounters = {
    "flexpath.backpressure_wait_seconds", "flexpath.acquire_wait_seconds",
    "flexpath.reads",  "flexpath.plan_hits", "flexpath.plan_misses",
    "flexpath.plan_compile_seconds", "flexpath.zero_copy_reads",
    "durable.append_seconds", "durable.bytes_appended", "durable.fsyncs",
    "durable.segments_collected", "pool.hits", "pool.misses", "pool.bytes_allocated",
    "mpi.collective_wait_seconds", "fusion.gather_fallbacks",
};

std::map<std::string, double> counter_totals() {
    std::map<std::string, double> out;
    for (const std::string& n : kCounters) out[n] = obs::Registry::global().total(n);
    return out;
}

enum class Phase { Paced, Flat };

/// One workflow run: set-up, one phase, verification, and (traced) the
/// per-step layer segments.
struct Round {
    Phase phase = Phase::Flat;
    std::uint64_t steps = 0;
    double setup_s = 0.0;
    double program_cpu_s = 0.0;     // process CPU time less the generator's fill
    std::vector<double> latency_s;  // paced: per step, from its due time
    double throughput_mb_s = 0.0;   // flat-out
    SourceProbe probe;
    Verdict verdict;
    std::map<std::string, double> counters;  // deltas over the run

    // Traced runs only, per step (max over ranks): instance label ->
    // StepStats seconds; stream -> Queue / Assemble seconds; actor ->
    // WaitIn seconds.
    std::map<std::string, std::map<std::uint64_t, double>> compute_s;
    std::map<std::string, std::map<std::uint64_t, double>> queue_s;
    std::map<std::string, std::map<std::uint64_t, double>> assemble_s;
    std::map<std::string, std::map<std::uint64_t, double>> wait_in_s;
};

struct Context {
    const Workload* w = nullptr;
    const Field* field = nullptr;
    std::uint64_t seed = 0;
    fs::path dir;  // scratch: histogram file, durable log
};

void keep_max(std::map<std::uint64_t, double>& m, std::uint64_t step, double v) {
    auto [it, fresh] = m.emplace(step, v);
    if (!fresh) it->second = std::max(it->second, v);
}

void collect_segments(const core::Workflow& wf, double after, Round& r) {
    std::set<std::string> instances;
    for (std::size_t i = 0; i < wf.size(); ++i) {
        const std::string label = wf.instance_label(i);
        instances.insert(label);
        auto& per_step = r.compute_s[label];
        for (const auto& s : wf.stats(i).samples()) keep_max(per_step, s.step, s.seconds);
    }
    const obs::SpanStore& store = obs::SpanStore::global();
    for (const std::string& scope : store.scopes()) {
        if (instances.count(scope)) continue;  // Compute segments mirror StepStats
        for (const obs::StepTimeline& tl : store.timelines(scope, after)) {
            for (const obs::StepSegment& seg : tl.segments) {
                switch (seg.kind) {
                    case obs::SegmentKind::Queue:
                        keep_max(r.queue_s[scope], tl.step, seg.seconds());
                        break;
                    case obs::SegmentKind::Assemble:
                        keep_max(r.assemble_s[scope], tl.step, seg.seconds());
                        break;
                    case obs::SegmentKind::WaitIn:
                        keep_max(r.wait_in_s[seg.actor], tl.step, seg.seconds());
                        break;
                    default:
                        break;
                }
            }
        }
    }
}

Round run_round(const Context& c, Phase phase, std::uint64_t steps, bool traced) {
    const Workload& w = *c.w;
    const fs::path hist = c.dir / "hist.txt";
    const fs::path log = c.dir / "log";
    fs::remove_all(log);
    fs::remove(hist);
    // Each run starts with empty runtime logs, as a fresh in situ job does;
    // both are bounded, but fill up over many workflow runs.
    obs::SpanStore::global().clear();
    obs::TraceLog::global().clear();
    const auto before = counter_totals();
    reset_probe();

    Round r;
    r.phase = phase;
    r.steps = steps;
    const double rate = phase == Phase::Paced ? w.rate_hz : 0.0;
    sb::flexpath::Fabric fabric;
    sb::flexpath::StreamOptions opts;
    if (w.durable) {
        opts.durable.dir = log.string();
        opts.durable.fsync = sb::durable::FsyncPolicy::Never;
        opts.durable.segment_bytes = kSegmentBytes;
        opts.durable.retain_steps = 2;
    }
    const double cpu0 = process_cpu_seconds();
    const double t_construct = obs::steady_seconds();
    core::Workflow wf(fabric, opts);
    {
        const ScopedSpan span("workflow.add");
        for (const core::LaunchEntry& e : launch_entries(w, c.seed, steps, rate, hist.string())) {
            wf.add(e.component, e.nprocs, e.args);
        }
    }
    {
        const ScopedSpan span("workflow.run");
        wf.run();
    }
    r.program_cpu_s = process_cpu_seconds() - cpu0;

    r.probe = take_probe();
    r.setup_s = r.probe.t0 - t_construct;
    for (const auto& rec : r.probe.steps) r.program_cpu_s -= rec.fill_cpu_s;
    std::map<std::uint64_t, double> done;  // step -> latest terminal completion
    for (const auto& s : wf.stats(wf.size() - 1).samples()) keep_max(done, s.step, s.t_end);
    if (phase == Phase::Paced) {
        for (const auto& [step, t_end] : done) {
            r.latency_s.push_back(t_end - (r.probe.t0 + static_cast<double>(step) / rate));
        }
    } else if (!done.empty()) {
        double last = 0.0;
        for (const auto& [step, t_end] : done) last = std::max(last, t_end);
        r.throughput_mb_s = static_cast<double>(steps * w.bytes_per_step()) / 1e6 /
                            (last - r.probe.t0);
    }

    std::vector<core::HistogramResult> got;
    try {
        got = core::read_histogram_file(hist.string());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
    }
    r.verdict = verify(got, steps, *c.field, w.analysis);

    const auto after = counter_totals();
    for (const auto& [name, v] : after) r.counters[name] = v - before.at(name);
    if (traced) collect_segments(wf, t_construct, r);
    return r;
}

/// Static shape of the workload's graph: fused chains and the stream hops
/// that re-distribute between differing process counts.
struct GraphShape {
    std::size_t chains = 0;
    std::string chain_text;
    std::size_t redistributing_hops = 0;
};

GraphShape graph_shape(const Context& c) {
    sb::flexpath::Fabric fabric;
    core::Workflow wf(fabric);
    const std::vector<core::LaunchEntry> entries =
        launch_entries(*c.w, c.seed, 1, 0.0, "unused.txt");
    for (const core::LaunchEntry& e : entries) wf.add(e.component, e.nprocs, e.args);
    const core::FusionPlan plan = wf.fusion_plan();
    GraphShape g;
    g.chains = plan.chains.size();
    for (const core::FusedChain& chain : plan.chains) {
        std::string text;
        for (const core::FusedStage& st : chain.stages) {
            text += (text.empty() ? "" : "+") + wf.instance_label(st.instance);
        }
        g.chain_text += (g.chain_text.empty() ? "" : ", ") + text;
    }
    // Stream hops survive fusion only between units; a hop re-distributes
    // when its writer and reader run different process counts.
    for (std::size_t i = 1; i < entries.size(); ++i) {
        const bool elided = plan.fused(i) && plan.fused(i - 1) &&
                            plan.chain_of(i - 1) == plan.chain_of(i);
        if (!elided && entries[i].nprocs != entries[i - 1].nprocs) ++g.redistributing_hops;
    }
    return g;
}

// ---- reporting -------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string detail;  // sample count, percentile, base, provenance
};

std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void print_line(const Metric& m) {
    std::printf("%-40s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.detail.c_str());
}

void print_report(const std::vector<Metric>& metrics, std::uint64_t attempted,
                  std::uint64_t failed) {
    for (const Metric& m : metrics) print_line(m);
    std::ostringstream json;
    json << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": "
         << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
             << fmt(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
}

/// A memory figure of this process from /proc/self/status ("VmRSS" is the
/// resident set, "VmHWM" its high-water mark), in MB.
double status_mb(const std::string& field) {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(field + ":", 0) == 0) {
            return std::stod(line.substr(field.size() + 1)) / 1024.0;  // kB
        }
    }
    throw std::runtime_error("no " + field + " in /proc/self/status");
}

/// The program's peak resident memory per workflow round, above `base_mb`:
/// the benchmark's own resident data (code, generator bank) measured before
/// the first workflow.  Each round starts from a trimmed heap with the
/// high-water mark reset, so memory the allocator kept from earlier rounds
/// does not count twice and rounds do not accumulate.
struct PeakRss {
    double base_mb = 0.0;
    bool reset = true;  // whether every high-water mark restarted at its round

    static PeakRss start() {
        PeakRss p;
        p.begin_round();
        p.base_mb = status_mb("VmRSS");
        return p;
    }
    void begin_round() {
        malloc_trim(0);
        std::ofstream clear("/proc/self/clear_refs");
        clear << "5";  // resets VmHWM to the current resident set
        clear.flush();
        reset = reset && static_cast<bool>(clear);
    }
    double round_mb() const { return status_mb("VmHWM") - base_mb; }
};

double median_or_zero(const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); }

/// The per-step samples of `key` pooled over `rounds` of one phase.
template <typename Member>
std::vector<double> pooled(const std::vector<Round>& rounds, Phase phase, Member member,
                           const std::string& key) {
    std::vector<double> out;
    for (const Round& r : rounds) {
        if (r.phase != phase) continue;
        const auto& m = r.*member;
        const auto it = m.find(key);
        if (it == m.end()) continue;
        for (const auto& [step, v] : it->second) out.push_back(v);
    }
    return out;
}

double counter_sum(const std::vector<Round>& rounds, const std::string& name) {
    double s = 0.0;
    for (const Round& r : rounds) s += r.counters.at(name);
    return s;
}

std::string metric_label(const std::string& instance) {
    std::string s = instance;
    std::replace(s.begin(), s.end(), '#', '_');
    return "core." + s;
}

/// Every instance label any workload can produce, so each traced run
/// reports the same metric names (0 where the instance does not exist).
std::vector<std::string> all_instance_labels() {
    std::set<std::string> labels;
    for (const std::string& name : workload_names()) {
        labels.insert("pb-source#0");
        const auto stages = workload(name).stages("unused.txt");
        for (std::size_t i = 0; i < stages.size(); ++i) {
            labels.insert(stages[i].component + "#" + std::to_string(i + 1));
        }
    }
    return {labels.begin(), labels.end()};
}

// ---- the two kinds of run -----------------------------------------------------

struct Totals {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    void add(const Round& r) {
        attempted += r.verdict.published;
        failed += r.verdict.failed();
        for (const std::string& note : r.verdict.notes) {
            std::fprintf(stderr, "perfbench: oracle: %s\n", note.c_str());
        }
    }
};

/// One unmeasured round, paced then flat-out (still verified): the
/// process's first workflows pay one-time costs (pool shelves filling, page
/// faults, lazy registries) that a long-running in situ job pays once, not
/// per step.
void warm_up(const Context& c, Totals& totals) {
    totals.add(run_round(c, Phase::Paced, c.w->paced_steps, false));
    totals.add(run_round(c, Phase::Flat, c.w->flat_steps, false));
}

/// Whether a measurement loop that began at `t0` starts another round: until
/// `min_rounds` ran, then while the mean round so far still fits in
/// `seconds`.  Rounds have fixed step counts, so a slow machine runs fewer
/// of them rather than longer ones.
bool more_rounds(std::size_t done, std::size_t min_rounds, double t0, double seconds) {
    if (done < min_rounds) return true;
    const double elapsed = obs::steady_seconds() - t0;
    return elapsed + elapsed / static_cast<double>(done) <= seconds;
}

/// One-step workflows run per round only to sample set-up time, so that
/// setup_s is a median over many set-ups.
constexpr std::size_t kSetupProbesPerRound = 4;

void end_to_end(const Context& c, const Cli& cli, PeakRss rss) {
    const Workload& w = *c.w;
    Totals totals;
    warm_up(c, totals);
    std::vector<double> setups, cpu_per_gb, rss_mb, throughputs, latencies;
    const double t_start = obs::steady_seconds();
    std::size_t rounds = 0;
    for (; more_rounds(rounds, 2, t_start, cli.seconds); ++rounds) {
        rss.begin_round();
        for (std::size_t k = 0; k < kSetupProbesPerRound; ++k) {
            const Round r = run_round(c, Phase::Flat, 1, false);
            totals.add(r);
            setups.push_back(r.setup_s);
        }
        double round_cpu_s = 0.0;
        double round_gb = 0.0;
        double paced_p50 = 0.0;
        for (const Phase phase : {Phase::Paced, Phase::Flat}) {
            const Round r =
                run_round(c, phase, phase == Phase::Paced ? w.paced_steps : w.flat_steps, false);
            totals.add(r);
            setups.push_back(r.setup_s);
            round_cpu_s += r.program_cpu_s;
            round_gb += static_cast<double>(r.steps * w.bytes_per_step()) / 1e9;
            if (phase == Phase::Flat) {
                throughputs.push_back(r.throughput_mb_s);
            } else {
                paced_p50 = median(r.latency_s);
                latencies.insert(latencies.end(), r.latency_s.begin(), r.latency_s.end());
            }
        }
        cpu_per_gb.push_back(round_cpu_s / round_gb);
        rss_mb.push_back(rss.round_mb());
        std::printf(
            "# round %zu: %.4f CPU s/GB, peak %.1f MB, flat-out %.1f MB/s, paced p50 %.3f ms\n",
            rounds, cpu_per_gb.back(), rss_mb.back(), throughputs.back(), paced_p50 * 1e3);
    }
    const std::size_t flat_steps = rounds * w.flat_steps;
    const Tail latency_tail = tail(latencies);
    char tail_detail[160];
    std::snprintf(tail_detail, sizeof tail_detail,
                  "p%.2f of n=%zu paced steps (%zu beyond); wall clock, not gated",
                  latency_tail.percentile, latency_tail.n, Tail::kBeyond);
    const double error_rate = totals.attempted
                                  ? static_cast<double>(totals.failed) /
                                        static_cast<double>(totals.attempted)
                                  : 0.0;
    print_line({"step_error_rate", error_rate, "1",
                "missing or differing " + std::to_string(totals.failed) + " of " +
                    std::to_string(totals.attempted) +
                    " published steps (JSON: failed/attempted)"});
    // Wall-clock throughput and latency: printed, but not in the JSON.  On a
    // shared machine they follow the host's CPU steal (README, "Noise").
    print_line({"throughput_mb_s", median(throughputs), "MB/s",
                "median of " + std::to_string(throughputs.size()) + " flat-out rounds (" +
                    std::to_string(flat_steps) + " steps); wall clock, not gated"});
    print_line({"step_latency_p50_ms", median(latencies) * 1e3, "ms",
                "n=" + std::to_string(latencies.size()) + " paced steps; wall clock, not gated"});
    print_line({"step_latency_tail_ms", latency_tail.value * 1e3, "ms", tail_detail});
    print_report(
        {
            {"cpu_s_per_gb", median(cpu_per_gb), "s/GB",
             "program CPU per GB published, median of " + std::to_string(cpu_per_gb.size()) +
                 " rounds (paced + flat-out, " +
                 std::to_string(rounds * (w.paced_steps + w.flat_steps)) + " steps)"},
            {"setup_s", median(setups), "s",
             "median of " + std::to_string(setups.size()) + " workflow set-ups"},
            {"peak_rss_mb", median(rss_mb), "MB",
             "median over " + std::to_string(rss_mb.size()) +
                 " rounds of the round's high-water mark above the benchmark's own " +
                 fmt(rss.base_mb) + " MB" + (rss.reset ? "" : " (high-water mark not reset)")},
        },
        totals.attempted, totals.failed);
}

void per_layer(const Context& c, const Cli& cli, const GraphShape& graph) {
    const Workload& w = *c.w;
    Totals totals;
    warm_up(c, totals);

    // A quarter of the time for untraced flat-out rounds (the baseline for
    // the tracing overhead), half for traced rounds, the rest for replay.
    std::vector<double> tp_plain, tp_traced;
    double t_start = obs::steady_seconds();
    for (std::size_t k = 0; more_rounds(k, 1, t_start, cli.seconds / 4); ++k) {
        const Round r = run_round(c, Phase::Flat, w.flat_steps, false);
        totals.add(r);
        tp_plain.push_back(r.throughput_mb_s);
    }
    tracer::set_enabled(true);
    std::vector<Round> rounds;
    t_start = obs::steady_seconds();
    for (std::size_t k = 0; more_rounds(k, 1, t_start, cli.seconds / 2); ++k) {
        for (const Phase phase : {Phase::Paced, Phase::Flat}) {
            rounds.push_back(run_round(c, phase,
                                       phase == Phase::Paced ? w.paced_steps : w.flat_steps, true));
            totals.add(rounds.back());
            if (phase == Phase::Flat) tp_traced.push_back(rounds.back().throughput_mb_s);
        }
    }
    const auto replayed = replay_layers(w, *c.field, c.seed, c.dir / "replay");
    tracer::set_enabled(false);
    const std::vector<Span> spans = tracer::take();
    const fs::path trace_file = c.dir / ("trace-seed" + std::to_string(c.seed) + ".json");
    tracer::write_chrome(trace_file.string(), spans);
    const auto self = tracer::self_times(spans);

    std::vector<Metric> m;
    const auto add = [&](const std::string& name, double v, const std::string& unit,
                         const std::string& detail) { m.push_back({name, v, unit, detail}); };
    std::uint64_t steps = 0;
    std::uint64_t paced_steps = 0;
    std::vector<double> lag, end_step, latency;
    for (const Round& r : rounds) {
        steps += r.steps;
        if (r.phase != Phase::Paced) continue;
        paced_steps += r.steps;
        latency.insert(latency.end(), r.latency_s.begin(), r.latency_s.end());
        for (const auto& rec : r.probe.steps) {
            lag.push_back(rec.begin - rec.due);
            end_step.push_back(rec.end_step_s);
        }
    }
    const std::string traced_desc = std::to_string(rounds.size()) + " traced rounds, " +
                                    std::to_string(steps) + " steps";
    const double sd = static_cast<double>(std::max<std::uint64_t>(steps, 1));

    // source (the load generator)
    add("source.lag_p50_ms", median_or_zero(lag) * 1e3, "ms",
        "paced lateness vs schedule, n=" + std::to_string(lag.size()));
    add("source.lag_max_ms", lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end()) * 1e3,
        "ms", "paced, n=" + std::to_string(lag.size()));
    add("source.end_step_us", median_or_zero(end_step) * 1e6, "us",
        "p50 Writer::end_step, paced, n=" + std::to_string(end_step.size()));
    const auto fill = self.find("source.fill");
    add("source.fill_us", fill == self.end() ? 0.0 : median(fill->second) * 1e6, "us",
        "p50 span self time, all traced steps");

    // flexpath
    const auto per_step_streams = [&](auto member) {
        // Median over paced steps of the per-step sum across streams (in the
        // closed loop the source ranks drift apart, and the assembly window
        // then measures their skew rather than the stream).
        std::map<std::pair<std::size_t, std::uint64_t>, double> sum;
        for (std::size_t i = 0; i < rounds.size(); ++i) {
            if (rounds[i].phase != Phase::Paced) continue;
            for (const auto& [stream, per_step] : rounds[i].*member) {
                for (const auto& [step, v] : per_step) sum[{i, step}] += v;
            }
        }
        std::vector<double> v;
        for (const auto& [key, x] : sum) v.push_back(x);
        return median_or_zero(v);
    };
    add("flexpath.backpressure_s", counter_sum(rounds, "flexpath.backpressure_wait_seconds"), "s",
        "total, " + traced_desc);
    add("flexpath.acquire_wait_s", counter_sum(rounds, "flexpath.acquire_wait_seconds"), "s",
        "total, " + traced_desc);
    add("flexpath.assemble_ms", per_step_streams(&Round::assemble_s) * 1e3, "ms",
        "p50 per paced step, summed over streams");
    add("flexpath.queue_ms", per_step_streams(&Round::queue_s) * 1e3, "ms",
        "p50 per paced step, summed over streams");
    const double reads = counter_sum(rounds, "flexpath.reads");
    add("flexpath.reads_per_step", reads / sd, "count", traced_desc);
    const Ratio plan{counter_sum(rounds, "flexpath.plan_hits"),
                     counter_sum(rounds, "flexpath.plan_hits") +
                         counter_sum(rounds, "flexpath.plan_misses")};
    add("flexpath.plan_hit_ratio", plan.value(), "ratio",
        "hits / lookups, base " + fmt(plan.base) + " lookups");
    add("flexpath.plan_lookups", plan.base, "count", "base of plan_hit_ratio");
    add("flexpath.plan_compile_s", counter_sum(rounds, "flexpath.plan_compile_seconds"), "s",
        "total, " + traced_desc);
    const Ratio zero_copy{counter_sum(rounds, "flexpath.zero_copy_reads"), reads};
    add("flexpath.zero_copy_share", zero_copy.value(), "ratio",
        "zero-copy / reads, base " + fmt(reads) + " reads");
    add("flexpath.reads", reads, "count", "base of zero_copy_share");
    for (const char* k : {"flexpath.read_warm_us", "flexpath.read_cold_us", "ffs.meta_encode_us",
                          "ffs.meta_decode_us", "ffs.blocks_encode_mb_s",
                          "ffs.blocks_decode_mb_s"}) {
        const LayerValue& v = replayed.at(k);
        add(k, v.value, v.unit, "replay: " + v.note);
    }

    // core components
    for (const std::string& label : all_instance_labels()) {
        const std::vector<double> compute = pooled(rounds, Phase::Flat, &Round::compute_s, label);
        const std::vector<double> wait = pooled(rounds, Phase::Flat, &Round::wait_in_s, label);
        const bool present = !compute.empty();
        add(metric_label(label) + ".compute_ms", median_or_zero(compute) * 1e3, "ms",
            present ? "p50 StepStats, flat-out, n=" + std::to_string(compute.size())
                    : "not in this workload");
        add(metric_label(label) + ".wait_in_ms", median_or_zero(wait) * 1e3, "ms",
            present ? "p50 WaitIn per step, flat-out, n=" + std::to_string(wait.size())
                    : "not in this workload");
    }

    // kernels
    for (const char* k : {"magnitude", "histogram", "threshold", "scatter_strided"}) {
        for (const char* suffix : {"_ns_per_elem", "_ops_per_elem", "_bytes_per_elem"}) {
            const std::string key = std::string("kernels.") + k + suffix;
            const LayerValue& v = replayed.at(key);
            add(key, v.value, v.unit, "replay: " + v.note);
        }
    }

    // fusion
    add("fusion.units", static_cast<double>(graph.chains), "count",
        "fused chains (expected " + std::to_string(w.expected_chains) + ")");
    add("fusion.gather_fallbacks", counter_sum(rounds, "fusion.gather_fallbacks"), "count",
        traced_desc);
    add("fusion.redistributing_hops", static_cast<double>(graph.redistributing_hops), "count",
        "stream hops between differing process counts");

    // durable
    add("durable.append_s", counter_sum(rounds, "durable.append_seconds"), "s",
        "total, " + traced_desc);
    add("durable.bytes_appended_per_step", counter_sum(rounds, "durable.bytes_appended") / sd,
        "B", traced_desc);
    add("durable.fsyncs", counter_sum(rounds, "durable.fsyncs"), "count", traced_desc);
    add("durable.segments_collected", counter_sum(rounds, "durable.segments_collected"), "count",
        traced_desc);
    for (const char* k : {"durable.append_us", "durable.load_us"}) {
        const LayerValue& v = replayed.at(k);
        add(k, v.value, v.unit, "replay: " + v.note);
    }

    // pool
    const Ratio pool{counter_sum(rounds, "pool.hits"),
                     counter_sum(rounds, "pool.hits") + counter_sum(rounds, "pool.misses")};
    add("pool.hit_ratio", pool.value(), "ratio",
        "hits / acquires, base " + fmt(pool.base) + " acquires");
    add("pool.acquires", pool.base, "count", "base of pool.hit_ratio");
    add("pool.bytes_allocated_per_step", counter_sum(rounds, "pool.bytes_allocated") / sd, "B",
        traced_desc);

    // mpi, lint, workflow
    add("mpi.collective_wait_s", counter_sum(rounds, "mpi.collective_wait_seconds"), "s",
        "total, " + traced_desc);
    for (const char* k : {"lint.analyze_ms", "workflow.fusion_plan_ms"}) {
        const LayerValue& v = replayed.at(k);
        add(k, v.value, v.unit, "replay: " + v.note);
    }

    // ladder: per paced step, the generator's lateness plus every instance's
    // step time plus every stream's queueing, against the measured latency.
    std::vector<double> ladder;
    for (const Round& r : rounds) {
        if (r.phase != Phase::Paced) continue;
        std::map<std::uint64_t, double> sum;
        for (const auto& rec : r.probe.steps) keep_max(sum, rec.step, rec.begin - rec.due);
        for (const auto* per : {&r.compute_s, &r.queue_s}) {
            for (const auto& [scope, per_step] : *per) {
                for (const auto& [step, v] : per_step) sum[step] += v;
            }
        }
        for (const auto& [step, v] : sum) ladder.push_back(v);
    }
    const double p50 = median_or_zero(latency);
    const double layers = median_or_zero(ladder);
    const double overhead = median(tp_plain) > 0.0
                                ? (median(tp_plain) - median(tp_traced)) / median(tp_plain) * 100.0
                                : 0.0;
    add("obs.trace_overhead_pct", overhead, "%",
        "flat-out throughput, " + std::to_string(tp_plain.size()) + " untraced vs " +
            std::to_string(tp_traced.size()) + " traced rounds");
    add("layers.sum_ms", layers * 1e3, "ms",
        "p50 over " + std::to_string(ladder.size()) +
            " paced steps of lag + step times + queueing");
    add("layers.gap_pct", p50 > 0.0 ? (p50 - layers) / p50 * 100.0 : 0.0, "%",
        "(p50 latency " + fmt(p50 * 1e3) + " ms - sum) / p50");
    std::printf("# trace: %zu spans written to %s\n", spans.size(), trace_file.string().c_str());
    print_report(m, totals.attempted, totals.failed);
}

}  // namespace

int main(int argc, char** argv) {
    Cli cli;
    try {
        cli = parse_cli(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "sb_perfbench: %s\n", e.what());
        return 2;
    }
    if (const auto vars = sb_variables(); !vars.empty()) {
        std::string list;
        for (const std::string& v : vars) list += " " + v;
        std::fprintf(stderr,
                     "sb_perfbench: refusing to measure a non-default program; unset:%s\n",
                     list.c_str());
        return 3;
    }
    try {
        Context c;
        c.w = &workload(cli.workload);
        c.seed = cli.seed;
        c.field = &shared_field(*c.w, c.seed);
        c.dir = fs::path(".bench_build") / "run" / c.w->name;
        fs::create_directories(c.dir);
        register_source();
        const Workload& w = *c.w;
        const GraphShape graph = graph_shape(c);
        std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", w.name.c_str(),
                    static_cast<unsigned long long>(cli.seed), cli.seconds, cli.trace ? 1 : 0);
        print_gates();
        std::printf(
            "# load: source %d ranks, %s; per round a paced phase (open loop, step t due at "
            "t0 + t/%g s, %llu steps) then a flat-out phase (closed loop, %llu steps, "
            "throttled by backpressure); rounds until --seconds elapse\n",
            kSourceRanks, w.shape.to_string().c_str(), w.rate_hz,
            static_cast<unsigned long long>(w.paced_steps),
            static_cast<unsigned long long>(w.flat_steps));
        std::printf("# fusion: %zu chain(s) [%s] (expected %zu)%s; redistributing hops: %zu\n",
                    graph.chains, graph.chain_text.c_str(), w.expected_chains,
                    graph.chains == w.expected_chains ? "" : "  <-- FUSION CHANGED",
                    graph.redistributing_hops);
        if (cli.trace) {
            per_layer(c, cli, graph);
        } else {
            end_to_end(c, cli, PeakRss::start());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "sb_perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
