// Shared machinery for the evaluation-reproduction benches.
//
// Scaling note (documented in DESIGN.md): the paper ran on Titan (up to
// 1,600 processes) and an 80-node cluster; this reproduction runs on a
// single container where each "process" is a thread.  Process counts are
// scaled down ~16x and data volumes ~100x from the paper's Table I / II,
// keeping the *ratios between runs* so the scaling shapes are comparable.
#pragma once

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/histogram.hpp"
#include "core/workflow.hpp"
#include "flexpath/stream.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/source_component.hpp"
#include "sim/toroid_sim.hpp"
#include "util/stats.hpp"

namespace sb::bench {

/// One run of the GTCP workflow (Table I / Fig. 9 of the paper): the
/// simulation, Select(perpendicular_pressure), two Dim-Reduces, and the
/// Histogram endpoint, launched together.
struct GtcpRunConfig {
    int run_number = 1;
    std::uint64_t slices = 8;
    std::uint64_t gridpoints = 1024;
    std::uint64_t steps = 3;
    int gtcp_procs = 4;
    int select_procs = 1;
    int dimred1_procs = 1;
    int dimred2_procs = 1;
    int histo_procs = 1;
    /// Transport knobs for every stream the workflow opens (buffering depth,
    /// durable log) and the fusion mode — Auto follows SB_FUSE, so fused-vs-
    /// unfused A/Bs pin On/Off explicitly.
    flexpath::StreamOptions stream_options{};
    core::FusionMode fusion = core::FusionMode::Auto;

    std::uint64_t sim_bytes_per_step() const {
        return slices * gridpoints * 7 * 8;
    }
    std::uint64_t sim_bytes_total() const { return sim_bytes_per_step() * steps; }
    int total_procs() const {
        return gtcp_procs + select_procs + dimred1_procs + dimred2_procs + histo_procs;
    }
};

struct GtcpRunResult {
    GtcpRunConfig config;
    double end_to_end_seconds = 0.0;
    /// Transport stall time this run added across all streams and ranks
    /// (deltas of the process-wide obs totals).
    double backpressure_wait_seconds = 0.0;
    double acquire_wait_seconds = 0.0;
    /// Per-component stats, in pipeline order.
    std::shared_ptr<core::StepStats> select, dimred1, dimred2, histo;

    /// Backpressure stall as a percentage of total process-time: how much
    /// of the workflow's aggregate compute capacity was spent blocked on
    /// full downstream queues.  0 when metrics are off (SB_METRICS=off).
    double backpressure_stall_percent() const {
        const double proc_seconds = end_to_end_seconds * config.total_procs();
        return proc_seconds > 0.0
                   ? 100.0 * backpressure_wait_seconds / proc_seconds
                   : 0.0;
    }

    /// The paper's Table I throughput: total simulation output divided by
    /// the total process count and the end-to-end time.
    double end_to_end_kb_per_proc_per_sec() const {
        return static_cast<double>(config.sim_bytes_total()) / 1024.0 /
               config.total_procs() / end_to_end_seconds;
    }

    /// Fig. 9's per-component, per-process throughput (KB/s): the
    /// component's per-step input volume over its process count and step
    /// completion time, averaged over the steady-state steps (the first
    /// step is warm-up: lazily created writers, first-touch buffers).
    double component_kb_per_proc_per_sec(const core::StepStats& s, int nprocs) const {
        const auto rows = s.per_step();
        double sum = 0.0;
        int n = 0;
        for (std::size_t i = rows.size() > 1 ? 1 : 0; i < rows.size(); ++i) {
            if (rows[i].mean_seconds <= 0.0) continue;
            sum += static_cast<double>(rows[i].bytes_in) / 1024.0 / nprocs /
                   rows[i].mean_seconds;
            ++n;
        }
        return n ? sum / n : 0.0;
    }
};

/// The five weak-scaling runs: process ladder scaled ~1/16 and data ~1/100
/// from the paper's Table I setup.
inline std::vector<GtcpRunConfig> gtcp_weak_scaling_ladder() {
    // Paper: output {918, 1435, 2066, 2811, 12905} MB over runs 1..5 with
    // procs gtcp {64,84,156,234,1024}, select {10,16,18,25,116},
    // dim-reduce {6,10,14,19,88} (x2), histogram {2,2,4,5,24}.
    std::vector<GtcpRunConfig> runs;
    const double mb[] = {9.18, 14.35, 20.66, 28.11, 129.05};  // /100
    const int gtcp[] = {4, 5, 10, 15, 64};
    const int sel[] = {1, 1, 1, 2, 7};
    const int dr[] = {1, 1, 1, 1, 6};
    const int hist[] = {1, 1, 1, 1, 2};
    for (int i = 0; i < 5; ++i) {
        GtcpRunConfig c;
        c.run_number = i + 1;
        c.steps = 6;
        c.slices = 8;
        // Total bytes = slices * gridpoints * 7 * 8 * steps.
        c.gridpoints = static_cast<std::uint64_t>(
            mb[i] * 1024.0 * 1024.0 /
            (static_cast<double>(c.slices) * 7.0 * 8.0 *
             static_cast<double>(c.steps)));
        c.gtcp_procs = gtcp[i];
        c.select_procs = sel[i];
        c.dimred1_procs = dr[i];
        c.dimred2_procs = dr[i];
        c.histo_procs = hist[i];
        runs.push_back(c);
    }
    return runs;
}

/// Assembles and runs one GTCP workflow; the histogram file goes to /tmp.
inline GtcpRunResult run_gtcp_workflow(const GtcpRunConfig& c) {
    sim::register_simulations();
    flexpath::Fabric fabric;
    core::Workflow wf(fabric, c.stream_options);
    wf.set_fusion(c.fusion);
    wf.add("gtcp", c.gtcp_procs,
           {"slices=" + std::to_string(c.slices),
            "gridpoints=" + std::to_string(c.gridpoints),
            "steps=" + std::to_string(c.steps)});
    GtcpRunResult r;
    r.config = c;
    r.select = wf.add("select", c.select_procs,
                      {"gtcp.fp", "field3d", "2", "psel.fp", "pp",
                       "perpendicular_pressure"});
    r.dimred1 = wf.add("dim-reduce", c.dimred1_procs,
                       {"psel.fp", "pp", "2", "1", "pflat1.fp", "pp1"});
    r.dimred2 = wf.add("dim-reduce", c.dimred2_procs,
                       {"pflat1.fp", "pp1", "0", "1", "pflat2.fp", "pp2"});
    r.histo = wf.add("histogram", c.histo_procs,
                     {"pflat2.fp", "pp2", "16",
                      "/tmp/sb_bench_gtcp_run" + std::to_string(c.run_number) + ".txt"});
    auto& reg = obs::Registry::global();
    const double bp0 = reg.total("flexpath.backpressure_wait_seconds");
    const double acq0 = reg.total("flexpath.acquire_wait_seconds");
    wf.run();
    r.end_to_end_seconds = wf.elapsed_seconds();
    r.backpressure_wait_seconds =
        reg.total("flexpath.backpressure_wait_seconds") - bp0;
    r.acquire_wait_seconds = reg.total("flexpath.acquire_wait_seconds") - acq0;
    return r;
}

/// Machine-readable bench output: collects samples per (config, metric) and
/// writes `BENCH_<name>.json` with n/median/p90 for each, so CI and the
/// EXPERIMENTS.md tables consume the same numbers the console shows.
class JsonReport {
public:
    explicit JsonReport(std::string name) : name_(std::move(name)) {}

    void add(const std::string& config, const std::string& metric, double value) {
        samples_[{config, metric}].push_back(value);
    }

    /// Writes BENCH_<name>.json into `dir`; returns the path written.
    std::string write(const std::string& dir = ".") const {
        const std::string path = dir + "/BENCH_" + name_ + ".json";
        std::ofstream out(path, std::ios::trunc);
        out << "{\n  \"bench\": \"" << obs::json_escape(name_)
            << "\",\n  \"results\": [";
        bool first = true;
        for (const auto& [key, vals] : samples_) {
            out << (first ? "\n" : ",\n") << "    {\"config\":\""
                << obs::json_escape(key.first) << "\",\"metric\":\""
                << obs::json_escape(key.second) << "\",\"n\":" << vals.size()
                << ",\"median\":" << obs::json_number(util::percentile(vals, 50.0))
                << ",\"p90\":" << obs::json_number(util::percentile(vals, 90.0))
                << "}";
            first = false;
        }
        out << "\n  ]\n}\n";
        std::printf("wrote %s\n", path.c_str());
        return path;
    }

private:
    std::string name_;
    std::map<std::pair<std::string, std::string>, std::vector<double>> samples_;
};

inline void print_header(const char* title, const char* paper_ref) {
    std::printf("\n================================================================\n");
    std::printf("%s\n(reproduces %s; single-node thread-per-process scaling — see "
                "DESIGN.md)\n", title, paper_ref);
    std::printf("================================================================\n");
}

}  // namespace sb::bench
