// Micro-benchmark of the resilience machinery (docs/RESILIENCE.md):
//
//   1. Replay throughput vs retained depth — a reader detaches with D
//      log-retained steps outstanding, reattaches, and drains the replay.
//      Measures the durable-log reload + redistribution cost a restarted
//      component pays before it sees fresh data.
//   2. Restart latency — the same two-component workflow run clean and with
//      one injected mid-stream crash of the sink (restart policy
//      on_failure), reporting the end-to-end overhead of detach + backoff +
//      relaunch + replay.
//
// Usage: micro_restart [--smoke]
// Writes BENCH_micro_restart.json (see bench_util.hpp JsonReport).
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/component.hpp"
#include "core/registry.hpp"
#include "core/workflow.hpp"
#include "fault/fault.hpp"
#include "flexpath/reader.hpp"
#include "flexpath/writer.hpp"
#include "util/ndarray.hpp"
#include "util/timer.hpp"

namespace core = sb::core;
namespace fp = sb::flexpath;
namespace u = sb::util;

namespace {

/// Publishes `depth` steps of `len` doubles into a durable log under
/// `log_dir` (emptied first: earlier history would be recovered, not
/// written), detaches the reader, then times the reattached reader draining
/// the replay (log reload + copy per step).
double replay_drain_seconds(std::uint64_t depth, std::uint64_t len,
                            const std::string& log_dir) {
    fp::Fabric fabric;
    // The queue must hold every step: payloads park in the log, but each
    // assembled step still passes through the bounded queue, and no reader
    // is attached while the writer runs ahead.
    std::filesystem::remove_all(log_dir);
    fp::StreamOptions opts(static_cast<std::size_t>(depth) + 1);
    opts.durable.dir = log_dir;
    opts.read_ahead = 2;
    opts.retain_steps = static_cast<std::size_t>(depth);

    {
        fp::WriterPort w(fabric, "replay", 0, 1, opts);
        std::vector<double> block(len);
        for (std::uint64_t t = 0; t < depth; ++t) {
            for (std::uint64_t i = 0; i < len; ++i) {
                block[i] = static_cast<double>(t * len + i);
            }
            w.declare(fp::VarDecl{"a", fp::DataKind::Float64, u::NdShape{len}, {}});
            w.put<double>("a", u::Box({0}, {len}), block);
            w.end_step();
        }
        w.close();
    }
    // A reader attaches, acknowledges nothing, and dies.
    { fp::ReaderPort dead(fabric, "replay", 0, 1); }
    fabric.get("replay")->detach_reader();

    u::WallTimer timer;
    fp::ReaderPort port(fabric, "replay", 0, 1);
    std::vector<double> buf(len);
    std::uint64_t steps = 0;
    while (port.begin_step()) {
        port.read_bytes("a", u::Box({0}, {len}),
                        std::as_writable_bytes(std::span(buf)));
        port.end_step();
        ++steps;
    }
    const double t = timer.seconds();
    if (steps != depth) {
        std::fprintf(stderr, "micro_restart: replayed %llu of %llu steps\n",
                     static_cast<unsigned long long>(steps),
                     static_cast<unsigned long long>(depth));
    }
    return t;
}

/// Deterministic source for the restart-latency workflow (same shape as the
/// chaos tests): `steps` steps of `len` doubles on one rank.
class BenchSource final : public core::Component {
public:
    std::string name() const override { return "bench_source"; }
    std::string usage() const override {
        return "bench_source out-stream-name num-steps len";
    }
    core::Ports ports(const sb::util::ArgList& args) const override {
        args.require_at_least(3, usage());
        return core::Ports{{}, {args.str(0, "out-stream-name")}};
    }
    void run(core::RunContext& ctx, const sb::util::ArgList& args) override {
        args.require_at_least(3, usage());
        const std::string out = args.str(0, "out-stream-name");
        const std::uint64_t steps = args.unsigned_integer(1, "num-steps");
        const std::uint64_t len = args.unsigned_integer(2, "len");
        fp::WriterPort port(ctx.fabric, out, ctx.comm.rank(), ctx.comm.size(),
                            ctx.stream_options);
        std::vector<double> v(len);
        for (std::uint64_t t = 0; t < steps; ++t) {
            for (std::uint64_t i = 0; i < len; ++i) {
                v[i] = static_cast<double>(t * 100 + i) * 0.5;
            }
            port.declare(
                fp::VarDecl{"v", fp::DataKind::Float64, u::NdShape{len}, {}});
            port.put<double>("v", u::Box({0}, {len}), v);
            port.end_step();
            core::record_step(ctx, t, 0.0, 0, len * sizeof(double));
        }
        port.close();
    }
};

/// End-to-end seconds of a source→histogram workflow; when `fault` is
/// non-empty it is armed (SB_FAULT syntax) and the sink restarts once.
double workflow_seconds(std::uint64_t steps, std::uint64_t len,
                        const std::string& stream, const std::string& out_file,
                        const std::string& fault) {
    auto& faults = sb::fault::Registry::global();
    faults.disarm_all();
    if (!fault.empty()) faults.arm_from_env(fault.c_str());

    fp::Fabric fabric;
    core::Workflow wf(fabric);
    wf.add("bench_source",
           1, {stream, std::to_string(steps), std::to_string(len)});
    wf.add("histogram", 1, {stream, "v", "16", out_file});
    wf.set_restart_policy(core::RestartPolicy::on_failure(2));
    wf.run();
    faults.disarm_all();
    return wf.elapsed_seconds();
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
    const int reps = smoke ? 1 : 3;
    const std::uint64_t len = smoke ? 4096 : 32768;  // doubles per step

    core::register_component("bench_source",
                             [] { return std::make_unique<BenchSource>(); });

    sb::bench::print_header(
        "micro: restart + replay (detach/reattach, supervised relaunch)",
        "fault tolerance machinery, docs/RESILIENCE.md");
    sb::bench::JsonReport report("micro_restart");

    namespace fs = std::filesystem;
    const fs::path scratch = fs::temp_directory_path() / "sb_bench_restart";
    fs::remove_all(scratch);
    fs::create_directories(scratch);

    std::printf("replay drain after reader detach (%llu KiB/step, durable log)\n\n",
                static_cast<unsigned long long>(len * sizeof(double) / 1024));
    std::printf("%-16s %14s %14s %12s\n", "retained depth", "elapsed ms",
                "steps/s", "MB/s");
    const std::vector<std::uint64_t> depths =
        smoke ? std::vector<std::uint64_t>{2, 4}
              : std::vector<std::uint64_t>{2, 4, 8, 16};
    for (const std::uint64_t depth : depths) {
        const std::string log_dir = (scratch / "log").string();
        double best = replay_drain_seconds(depth, len, log_dir);
        for (int i = 1; i < reps; ++i) {
            best = std::min(best, replay_drain_seconds(depth, len, log_dir));
        }
        const double steps_s = static_cast<double>(depth) / best;
        const double mb_s =
            static_cast<double>(depth * len * sizeof(double)) / best / 1e6;
        const std::string config = "replay_d" + std::to_string(depth);
        report.add(config, "elapsed_seconds", best);
        report.add(config, "steps_per_second", steps_s);
        std::printf("%-16llu %14.2f %14.1f %12.1f\n",
                    static_cast<unsigned long long>(depth), best * 1e3, steps_s,
                    mb_s);
    }

    const std::uint64_t steps = smoke ? 6 : 12;
    std::printf("\nsupervised restart latency (source->histogram, %llu steps)\n\n",
                static_cast<unsigned long long>(steps));
    double clean = workflow_seconds(steps, len, "bench.clean.fp",
                                    (scratch / "clean.txt").string(), "");
    double faulted = workflow_seconds(
        steps, len, "bench.fault.fp", (scratch / "fault.txt").string(),
        "seed=7; flexpath.acquire:bench.fault.fp=throw@3");
    for (int i = 1; i < reps; ++i) {
        clean = std::min(clean,
                         workflow_seconds(steps, len, "bench.clean.fp",
                                          (scratch / "clean.txt").string(), ""));
        faulted = std::min(
            faulted,
            workflow_seconds(steps, len, "bench.fault.fp",
                             (scratch / "fault.txt").string(),
                             "seed=7; flexpath.acquire:bench.fault.fp=throw@3"));
    }
    report.add("workflow", "clean_seconds", clean);
    report.add("workflow", "faulted_seconds", faulted);
    report.add("workflow", "restart_overhead_seconds", faulted - clean);
    std::printf("%-16s %14.2f ms\n", "clean", clean * 1e3);
    std::printf("%-16s %14.2f ms\n", "1 crash+restart", faulted * 1e3);
    std::printf("%-16s %14.2f ms (backoff + detach + replay)\n", "overhead",
                (faulted - clean) * 1e3);

    fs::remove_all(scratch);
    report.write();
    return 0;
}
