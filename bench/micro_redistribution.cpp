// Micro-benchmark of the MxN redistribution fast path (DESIGN.md):
// per-step bounding-box read cost through the reader-side copy-plan cache
// vs compiling the copy plan on every read (util::compile_copy_plan +
// execute_copy_plan over the writer blocks) across fan-in shapes, plus the
// zero-copy view path on writer-aligned boxes.  Small blocks on purpose —
// the cache removes per-read intersection/plan bookkeeping, so the effect
// is largest when bookkeeping is comparable to the payload copy.
//
// Usage: micro_redistribution [--smoke]
// Writes BENCH_micro_redistribution.json (see bench_util.hpp JsonReport).
#include <cstdio>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "flexpath/reader.hpp"
#include "flexpath/writer.hpp"
#include "util/ndarray.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace fp = sb::flexpath;
namespace u = sb::util;

namespace {

struct MxnShape {
    int writers = 1;   // blocks along dim 0
    int readers = 1;   // boxes along dim 1 (cross-cut: every box hits every block)
    std::uint64_t n = 128, m = 128;

    std::string label() const {
        return std::to_string(writers) + "w_x_" + std::to_string(readers) + "r_" +
               std::to_string(n) + "x" + std::to_string(m);
    }
};

// Streams `steps` steps of an n x m doubles array written as `writers`
// row-slabs; the reader pulls `readers` column-slab boxes per step, through
// ReaderPort::read_bytes (`cached`) or by compiling and executing a copy
// plan per writer block on every read, the work the cache saves.  The
// uncached arm takes the writer blocks as zero-copy views before its timer
// starts.  Only the reads are timed (begin_step's wait on the producer is
// not).  Returns the per-step read seconds, one sample per step.
std::vector<double> run_cross_cut(const MxnShape& s, std::uint64_t steps,
                                  bool cached) {
    fp::Fabric fabric;
    const u::NdShape shape{s.n, s.m};
    std::jthread writer([&] {
        fp::WriterPort port(fabric, "mxn", 0, 1, fp::StreamOptions{});
        for (std::uint64_t t = 0; t < steps; ++t) {
            port.declare(fp::VarDecl{"a", fp::DataKind::Float64, shape, {}});
            for (int w = 0; w < s.writers; ++w) {
                const u::Box b = u::partition_along(shape, 0, w, s.writers);
                std::vector<double> block(b.volume(), static_cast<double>(t));
                port.put<double>("a", b, block);
            }
            port.end_step();
        }
        port.close();
    });

    fp::ReaderPort reader(fabric, "mxn", 0, 1);
    std::vector<double> samples;
    std::vector<double> buf;
    std::vector<std::pair<u::Box, std::span<const std::byte>>> blocks;
    while (reader.begin_step()) {
        blocks.clear();
        if (!cached) {
            for (int w = 0; w < s.writers; ++w) {
                const u::Box b = u::partition_along(shape, 0, w, s.writers);
                const auto view = reader.try_read_view_bytes("a", b);
                if (!view) throw std::runtime_error("writer block not zero-copyable");
                blocks.emplace_back(b, *view);
            }
        }
        u::WallTimer t;
        for (int r = 0; r < s.readers; ++r) {
            const u::Box box = u::partition_along(shape, 1, r, s.readers);
            buf.resize(box.volume());
            const auto dest = std::as_writable_bytes(std::span(buf));
            if (cached) {
                reader.read_bytes("a", box, dest);
                continue;
            }
            for (const auto& [b, data] : blocks) {
                const auto region = u::intersect(b, box);
                if (!region) continue;
                u::execute_copy_plan(
                    data, dest, u::compile_copy_plan(b, box, *region, sizeof(double)));
            }
        }
        samples.push_back(t.seconds());
        reader.end_step();
    }
    return samples;
}

// Reader boxes identical to the writer blocks: compares an assembled copy
// (read_bytes) against the zero-copy view (try_read_view_bytes).
std::vector<double> run_aligned(const MxnShape& s, std::uint64_t steps,
                                bool zero_copy) {
    fp::Fabric fabric;
    const u::NdShape shape{s.n, s.m};
    std::jthread writer([&] {
        fp::WriterPort port(fabric, "mxn", 0, 1, fp::StreamOptions{});
        for (std::uint64_t t = 0; t < steps; ++t) {
            port.declare(fp::VarDecl{"a", fp::DataKind::Float64, shape, {}});
            for (int w = 0; w < s.writers; ++w) {
                const u::Box b = u::partition_along(shape, 0, w, s.writers);
                std::vector<double> block(b.volume(), static_cast<double>(t));
                port.put<double>("a", b, block);
            }
            port.end_step();
        }
        port.close();
    });

    fp::ReaderPort reader(fabric, "mxn", 0, 1);
    std::vector<double> samples;
    std::vector<double> buf;
    double sink = 0.0;
    while (reader.begin_step()) {
        u::WallTimer t;
        for (int w = 0; w < s.writers; ++w) {
            const u::Box box = u::partition_along(shape, 0, w, s.writers);
            if (zero_copy) {
                const auto view = reader.try_read_view_bytes("a", box);
                if (!view) throw std::runtime_error("aligned box not zero-copyable");
                sink += static_cast<double>((*view)[view->size() - 1]);
            } else {
                buf.resize(box.volume());
                reader.read_bytes("a", box, std::as_writable_bytes(std::span(buf)));
                sink += buf.back();
            }
        }
        samples.push_back(t.seconds());
        reader.end_step();
    }
    if (sink < 0.0) std::printf("%f\n", sink);  // keep the reads observable
    return samples;
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
    const std::uint64_t steps = smoke ? 8 : 400;
    const std::vector<MxnShape> shapes =
        smoke ? std::vector<MxnShape>{{2, 2, 32, 32}, {4, 4, 32, 32}}
              : std::vector<MxnShape>{
                    {2, 2, 128, 128}, {8, 8, 128, 128}, {16, 16, 128, 128}};

    sb::bench::print_header(
        "micro: MxN redistribution plan cache",
        "the fast-path optimisation of DESIGN.md (cached copy plans)");
    sb::bench::JsonReport report("micro_redistribution");

    std::printf("%-20s %14s %14s %9s\n", "shape (cross-cut)", "uncached us",
                "cached us", "speedup");
    for (const MxnShape& s : shapes) {
        const auto uncached = run_cross_cut(s, steps, false);
        const auto cached = run_cross_cut(s, steps, true);
        const double mu = sb::util::percentile(uncached, 50.0);
        const double mc = sb::util::percentile(cached, 50.0);
        for (double v : uncached)
            report.add(s.label(), "uncached_read_seconds_per_step", v);
        for (double v : cached)
            report.add(s.label(), "cached_read_seconds_per_step", v);
        std::printf("%-20s %14.2f %14.2f %8.2fx\n", s.label().c_str(), mu * 1e6,
                    mc * 1e6, mc > 0.0 ? mu / mc : 0.0);
    }

    std::printf("\n%-20s %14s %14s %9s\n", "shape (aligned)", "copy us",
                "view us", "speedup");
    const MxnShape aligned{8, 8, smoke ? 32ull : 256ull, smoke ? 32ull : 256ull};
    const auto copied = run_aligned(aligned, steps, false);
    const auto viewed = run_aligned(aligned, steps, true);
    const double mcopy = sb::util::percentile(copied, 50.0);
    const double mview = sb::util::percentile(viewed, 50.0);
    for (double v : copied) report.add(aligned.label(), "copy_read_seconds_per_step", v);
    for (double v : viewed) report.add(aligned.label(), "view_read_seconds_per_step", v);
    std::printf("%-20s %14.2f %14.2f %8.2fx\n", aligned.label().c_str(),
                mcopy * 1e6, mview * 1e6, mview > 0.0 ? mcopy / mview : 0.0);

    report.write();
    return 0;
}
