// Micro-benchmark of graph-level operator fusion (core/fusion.hpp): a
// four-component analysis chain — magnitude -> downsample -> threshold ->
// histogram — consuming a pre-produced stream, run unfused (every hop pays
// a publish/acquire round-trip, an FFS encode/decode, and a scheduling
// handoff per step) and fused (one unit, composed kernels, zero
// intermediate streams).  The source is a workflow instance publishing
// pre-generated steps into a deep queue, so the analysis pipeline, not
// production, dominates.
//
// The log-backed variant additionally parks every buffered step in a
// durable log (fsync never); fusion's win grows because the three
// intermediate streams never exist, so nothing is logged or reloaded
// between stages.
//
// Usage: micro_fusion [--smoke]
// Writes BENCH_micro_fusion.json (see bench_util.hpp JsonReport).
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/registry.hpp"
#include "flexpath/writer.hpp"
#include "util/timer.hpp"

namespace core = sb::core;
namespace fp = sb::flexpath;
namespace u = sb::util;

namespace {

struct FusionCase {
    std::uint64_t steps = 0;
    std::uint64_t atoms = 0;  // rows of the [atoms, 3] source array
    int procs = 0;            // ranks of every analysis component
};

/// The source's array: [atoms, 3] doubles.
const std::string kArray = "v";

/// The source's steps, generated once before any timed run so each run
/// pays only the publish.
std::vector<std::vector<double>> g_blocks;

void generate_blocks(const FusionCase& fc) {
    g_blocks.assign(fc.steps, std::vector<double>(fc.atoms * 3));
    for (std::uint64_t t = 0; t < fc.steps; ++t) {
        std::vector<double>& block = g_blocks[t];
        for (std::size_t i = 0; i < block.size(); ++i) {
            block[i] = 2.0 * std::sin(0.001 * static_cast<double>(i + t));
        }
    }
}

/// "fusion-source out-stream-name atoms": publishes g_blocks as kArray.  A
/// workflow instance with declared ports and contract, so the chain it feeds
/// passes the default lint gate.
class FusionSource final : public core::Component {
public:
    std::string name() const override { return "fusion-source"; }
    std::string usage() const override { return "fusion-source out-stream-name atoms"; }
    core::Ports ports(const u::ArgList& args) const override {
        args.require_at_least(2, usage());
        return core::Ports{{}, {args.str(0, "out-stream-name")}};
    }
    core::Contract contract(const u::ArgList& args) const override {
        args.require_at_least(2, usage());
        core::Contract c;
        c.known = true;
        core::OutputContract out;
        out.stream = args.str(0, "out-stream-name");
        out.array = kArray;
        out.rule = core::OutputContract::Shape::Source;
        out.kind = core::OutputContract::Kind::Float64;
        out.shape = {core::SymDim::constant(args.unsigned_integer(1, "atoms")),
                     core::SymDim::constant(3)};
        c.outputs.push_back(std::move(out));
        return c;
    }
    void run(core::RunContext& ctx, const u::ArgList& args) override {
        const u::NdShape shape{args.unsigned_integer(1, "atoms"), 3};
        fp::WriterPort port(ctx.fabric, args.str(0, "out-stream-name"), ctx.comm.rank(),
                            ctx.comm.size(), ctx.stream_options);
        for (const std::vector<double>& block : g_blocks) {
            port.declare(fp::VarDecl{kArray, fp::DataKind::Float64, shape, {}});
            port.put<double>(kArray, u::Box::whole(shape), block);
            port.end_step();
        }
        port.close();
    }
};

/// End-to-end seconds for the 4-component chain under one fusion mode.
double run_chain(const FusionCase& fc, core::FusionMode mode,
                 const std::string& log_dir) {
    fp::Fabric fabric;
    // Deep queue: the source publishes the whole run up front where
    // capacity allows, so consumers never wait on production.
    fp::StreamOptions opts(8);
    if (!log_dir.empty()) {
        // A fresh log per run: history on disk would make the run a cold
        // restart and every logged stream a fusion barrier.
        std::filesystem::remove_all(log_dir);
        opts.durable.dir = log_dir;
    }

    const std::string hist = "/tmp/sb_bench_micro_fusion_hist.txt";
    core::Workflow wf(fabric, opts);
    wf.set_fusion(mode);
    wf.add("fusion-source", 1, {"src.fp", std::to_string(fc.atoms)});
    wf.add("magnitude", fc.procs, {"src.fp", "v", "m.fp", "mag"});
    wf.add("downsample", fc.procs, {"m.fp", "mag", "0", "2", "d.fp", "dmag"});
    wf.add("threshold", fc.procs, {"d.fp", "dmag", "above", "1.0", "t.fp", "tmag"});
    wf.add("histogram", fc.procs, {"t.fp", "tmag", "32", hist});

    u::WallTimer timer;
    wf.run();
    return timer.seconds();
}

double best_of(int reps, const FusionCase& fc, core::FusionMode mode,
               const std::string& log_dir) {
    double best = run_chain(fc, mode, log_dir);
    for (int i = 1; i < reps; ++i) {
        best = std::min(best, run_chain(fc, mode, log_dir));
    }
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
    const FusionCase fc = smoke ? FusionCase{4, 4096, 2} : FusionCase{16, 65536, 2};
    const int reps = smoke ? 1 : 3;
    core::register_component("fusion-source",
                             [] { return std::make_unique<FusionSource>(); });
    generate_blocks(fc);

    sb::bench::print_header(
        "micro: operator fusion of a 4-component analysis chain",
        "component standardization overhead, paper §V");
    sb::bench::JsonReport report("micro_fusion");

    namespace fs = std::filesystem;
    const fs::path log_dir = fs::temp_directory_path() / "sb_bench_fusion_log";

    const double melems = static_cast<double>(fc.steps) *
                          static_cast<double>(fc.atoms) / 1e6;
    std::printf("magnitude -> downsample -> threshold -> histogram, %d ranks "
                "each, %llu steps of [%llu x 3] doubles\n\n",
                fc.procs, static_cast<unsigned long long>(fc.steps),
                static_cast<unsigned long long>(fc.atoms));
    for (const bool logged : {false, true}) {
        const std::string dir = logged ? log_dir.string() : "";
        const double unfused = best_of(reps, fc, core::FusionMode::Off, dir);
        const double fused = best_of(reps, fc, core::FusionMode::On, dir);
        const std::string base = logged ? "log" : "inmem";
        report.add(base + "_unfused", "elapsed_seconds", unfused);
        report.add(base + "_unfused", "melems_per_second", melems / unfused);
        report.add(base + "_fused", "elapsed_seconds", fused);
        report.add(base + "_fused", "melems_per_second", melems / fused);
        report.add(base + "_fused", "speedup_vs_unfused", unfused / fused);
        std::printf("%-10s unfused %8.2f ms (%7.2f Melem/s)   fused %8.2f ms "
                    "(%7.2f Melem/s)   speedup %.2fx\n",
                    base.c_str(), unfused * 1e3, melems / unfused, fused * 1e3,
                    melems / fused, unfused / fused);
    }

    fs::remove_all(log_dir);
    report.write();
    return 0;
}
