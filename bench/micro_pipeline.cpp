// Micro-benchmark of reader-side step pipelining: a *skewed* reader group
// (each step, a rotating rank pays a fixed compute delay) consuming a
// pre-buffered stream with the in-flight step window at depth 1 (the seed's
// lockstep protocol), 2 (default), and 4.
//
// Under lockstep every rank waits for the slowest peer every step, so the
// group pays the delay once per step (~steps x delay total).  With a window
// of W, ranks may skew by up to W steps, so consecutive delays — which land
// on *different* ranks — overlap, and the group approaches each rank's own
// share (~steps x delay / ranks).  The log-backed variant parks every step
// in a durable log (fsync never) and additionally moves the log reload off
// the stream mutex into the prefetcher, overlapping file I/O + decode with
// reader compute.
//
// Usage: micro_pipeline [--smoke]
// Writes BENCH_micro_pipeline.json (see bench_util.hpp JsonReport).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "flexpath/reader.hpp"
#include "flexpath/writer.hpp"
#include "mpi/runtime.hpp"
#include "util/ndarray.hpp"
#include "util/timer.hpp"

namespace fp = sb::flexpath;
namespace u = sb::util;

namespace {

struct PipelineCase {
    std::uint64_t steps = 0;
    int readers = 0;
    std::chrono::milliseconds slow{0};  // per-step delay of the rotating slow rank
    std::uint64_t n = 0, m = 0;
};

/// End-to-end reader-group seconds for one window depth.  The writer runs
/// ahead into a deep queue (parked in a durable log under `log_dir` when it
/// is non-empty), so the readers' pipeline — not production — dominates.
double run_skewed(const PipelineCase& pc, std::size_t read_ahead,
                  const std::string& log_dir) {
    fp::Fabric fabric;
    const u::NdShape shape{pc.n, pc.m};
    fp::StreamOptions opts(8);
    opts.read_ahead = read_ahead;
    if (!log_dir.empty()) {
        // A fresh log per run: history left by an earlier run would be
        // recovered and replayed instead of written.
        std::filesystem::remove_all(log_dir);
        opts.durable.dir = log_dir;
    }

    std::jthread writer([&] {
        fp::WriterPort port(fabric, "pipe", 0, 1, opts);
        for (std::uint64_t t = 0; t < pc.steps; ++t) {
            port.declare(fp::VarDecl{"a", fp::DataKind::Float64, shape, {}});
            for (int w = 0; w < 2; ++w) {
                const u::Box b = u::partition_along(shape, 0, w, 2);
                std::vector<double> block(b.volume(), static_cast<double>(t));
                port.put<double>("a", b, block);
            }
            port.end_step();
        }
        port.close();
    });

    u::WallTimer timer;
    sb::mpi::run_ranks(pc.readers, [&](sb::mpi::Communicator& c) {
        fp::ReaderPort port(fabric, "pipe", c.rank(), c.size());
        std::vector<double> buf;
        std::uint64_t t = 0;
        while (port.begin_step()) {
            const u::Box box = u::partition_along(shape, 1, c.rank(), c.size());
            buf.resize(box.volume());
            port.read_bytes("a", box, std::as_writable_bytes(std::span(buf)));
            // Rotating skew: this step's slow rank.
            if (t % static_cast<std::uint64_t>(pc.readers) ==
                static_cast<std::uint64_t>(c.rank())) {
                std::this_thread::sleep_for(pc.slow);
            }
            port.end_step();
            ++t;
        }
    });
    return timer.seconds();
}

double best_of(int reps, const PipelineCase& pc, std::size_t read_ahead,
               const std::string& log_dir) {
    double best = run_skewed(pc, read_ahead, log_dir);
    for (int i = 1; i < reps; ++i) {
        best = std::min(best, run_skewed(pc, read_ahead, log_dir));
    }
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
    const PipelineCase pc = smoke
                                ? PipelineCase{8, 3, std::chrono::milliseconds(2), 32, 32}
                                : PipelineCase{48, 4, std::chrono::milliseconds(5), 256, 256};
    const int reps = smoke ? 1 : 3;

    sb::bench::print_header(
        "micro: reader-side step pipelining (in-flight window + prefetch)",
        "consumer-side asynchronous overlap, paper §IV");
    sb::bench::JsonReport report("micro_pipeline");

    namespace fs = std::filesystem;
    const fs::path log_dir = fs::temp_directory_path() / "sb_bench_pipeline_log";

    std::printf("skewed-rank reader group: %d ranks, %llu steps, %lld ms rotating delay\n\n",
                pc.readers, static_cast<unsigned long long>(pc.steps),
                static_cast<long long>(pc.slow.count()));
    for (const bool logged : {false, true}) {
        std::printf("%-24s %14s %14s %9s\n",
                    logged ? "durable log" : "in-memory", "elapsed ms", "steps/s",
                    "speedup");
        double lockstep = 0.0;
        for (const std::size_t ra : {1u, 2u, 4u}) {
            const double t = best_of(reps, pc, ra, logged ? log_dir.string() : "");
            if (ra == 1) lockstep = t;
            const std::string config = std::string(logged ? "log" : "inmem") +
                                       "_ra" + std::to_string(ra);
            report.add(config, "elapsed_seconds", t);
            report.add(config, "steps_per_second",
                       static_cast<double>(pc.steps) / t);
            std::printf("  read_ahead=%-14zu %14.2f %14.1f %8.2fx\n", ra, t * 1e3,
                        static_cast<double>(pc.steps) / t,
                        t > 0.0 ? lockstep / t : 0.0);
        }
        std::printf("\n");
    }

    fs::remove_all(log_dir);
    report.write();
    return 0;
}
