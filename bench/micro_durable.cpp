// Micro-benchmark of the durable step log (sb::durable): what crash
// consistency costs on the publish path, and what recovery costs at
// relaunch.
//
// Publish legs — one writer rank streaming fixed-size steps to a releasing
// reader, identical except for where the step's bytes go:
//
//   memory          bounded in-memory queue only (the volatile baseline)
//   durable_never   framed+checksummed log, fsync left to the page cache
//   durable_commit  framed+checksummed log, fsync after every commit marker
//
// Recovery legs time Log construction (scan + index rebuild + torn-tail
// repair) against logs of increasing step count, since a cold restart pays
// this once per stream before the workflow resumes.
//
// The crc32c arm times the frame checksum at md_durable's (786 KB) and
// gtcp's (7.3 MB) step sizes: the portable slicing-by-8 walk against the
// dispatched crc32c_update (SSE4.2 where the CPU has it).  The reload arm
// times Log::load_step (one pooled read plus both CRC checks) and runs twice,
// before every other leg and after them, so a dependence on what earlier
// legs left in the allocator shows as two different numbers.
//
// Usage: micro_durable [--smoke]
// Writes BENCH_micro_durable.json (see bench_util.hpp JsonReport).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "durable/log.hpp"
#include "ffs/crc32c.hpp"
#include "flexpath/reader.hpp"
#include "flexpath/writer.hpp"
#include "util/timer.hpp"

namespace d = sb::durable;
namespace fp = sb::flexpath;
namespace u = sb::util;
namespace fs = std::filesystem;

namespace {

struct DurableCase {
    std::uint64_t warmup = 0;
    std::uint64_t steps = 0;  // timed publishes per leg
    std::uint64_t elems = 0;  // doubles per step
};

fs::path fresh_dir(const std::string& leg) {
    const fs::path dir = fs::temp_directory_path() / ("sb_bench_durable_" + leg);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/// Seconds for `c.steps` steady-state publishes with `opts` deciding the
/// disk path (none, or the durable log with its fsync policy).
double run_publish(const DurableCase& c, const fp::StreamOptions& opts) {
    fp::Fabric fabric;
    const u::NdShape shape{c.elems};
    const u::Box whole = u::Box::whole(shape);
    const std::uint64_t total = c.warmup + c.steps;

    std::jthread reader([&fabric, total] {
        fp::ReaderPort port(fabric, "dur.fp", 0, 1);
        while (port.begin_step()) port.end_step();
    });

    fp::WriterPort port(fabric, "dur.fp", 0, 1, opts);
    std::vector<double> staging(c.elems, 0.5);
    double elapsed = 0.0;
    for (std::uint64_t t = 0; t < total; ++t) {
        u::WallTimer timer;
        port.declare(fp::VarDecl{"v", fp::DataKind::Float64, shape, {}});
        port.put<double>("v", whole, staging);
        port.end_step();
        if (t >= c.warmup) elapsed += timer.seconds();
    }
    port.close();
    return elapsed;
}

/// Builds a clean `steps`-step log, then times its recovery scan (the Log
/// constructor) on reopen.
double run_recovery(const fs::path& dir, std::uint64_t steps,
                    std::uint64_t elems) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    d::Options o;
    o.dir = dir.string();
    {
        d::Log log("rec", o);
        sb::ffs::EncodedSegments payload;
        payload.header.resize(elems * sizeof(double), std::byte{0x5A});
        payload.segments.emplace_back(payload.header);
        payload.total = payload.header.size();
        const std::string meta = "bench-meta";
        for (std::uint64_t t = 0; t < steps; ++t) {
            log.append_step(
                t, 1,
                std::as_bytes(std::span<const char>(meta.data(), meta.size())),
                payload);
        }
        log.append_eos();
    }
    u::WallTimer timer;
    d::Options ro = o;
    ro.replay_history = true;
    d::Log log("rec", ro);
    const double seconds = timer.seconds();
    if (log.recovery().steps_recovered != steps) {
        std::fprintf(stderr, "recovery mismatch: %llu of %llu steps\n",
                     static_cast<unsigned long long>(
                         log.recovery().steps_recovered),
                     static_cast<unsigned long long>(steps));
    }
    return seconds;
}

/// MB/s of `crc` over `bytes` (a fresh buffer of non-trivial content).
template <typename Crc>
double crc_mb_per_s(std::size_t bytes, int passes, Crc crc) {
    std::vector<std::byte> buf(bytes);
    for (std::size_t i = 0; i < bytes; ++i) buf[i] = std::byte(i * 131 + 7);
    std::uint32_t state = crc(sb::ffs::crc32c_init(), buf);  // warm the pages
    u::WallTimer timer;
    for (int p = 0; p < passes; ++p) state = crc(state, buf);
    return static_cast<double>(bytes) * passes / timer.seconds() / 1e6;
}

/// MB/s of Log::load_step over a `steps`-step log of `step_bytes` payloads
/// (page-cache reads: the log was just written), `passes` times over.
double run_reload(const fs::path& dir, std::uint64_t steps,
                  std::size_t step_bytes, int passes) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    d::Options o;
    o.dir = dir.string();
    d::Log log("reload", o);
    sb::ffs::EncodedSegments payload;
    payload.header.resize(step_bytes, std::byte{0x5A});
    payload.segments.emplace_back(payload.header);
    payload.total = payload.header.size();
    const std::string meta = "bench-meta";
    const auto meta_bytes =
        std::as_bytes(std::span<const char>(meta.data(), meta.size()));
    for (std::uint64_t t = 0; t < steps; ++t) {
        log.append_step(t, 1, meta_bytes, payload);
    }
    std::size_t loaded = 0;
    u::WallTimer timer;
    for (int p = 0; p < passes; ++p) {
        for (std::uint64_t t = 0; t < steps; ++t) {
            loaded += log.load_step(t).payload.size();
        }
    }
    return static_cast<double>(loaded) / timer.seconds() / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
    const DurableCase c = smoke ? DurableCase{2, 24, 16 * 1024}
                                : DurableCase{4, 64, 256 * 1024};
    const int reps = smoke ? 1 : 3;

    sb::bench::print_header(
        "micro: durable step log append and recovery overhead",
        "crash consistency cost vs the in-memory path");
    sb::bench::JsonReport report("micro_durable");

    const double mb_per_step =
        static_cast<double>(c.elems) * sizeof(double) / 1e6;
    std::printf("1 writer rank -> 1 reader rank, %llu timed steps of %.2f MB\n\n",
                static_cast<unsigned long long>(c.steps), mb_per_step);

    // Reload arm, first leg: nothing has run in this process yet.
    const fs::path reload_dir = fresh_dir("reload");
    const std::uint64_t reload_steps = smoke ? 8 : 32;
    const int reload_passes = smoke ? 2 : 4;
    const auto reload_leg = [&](const char* config) {
        for (int r = 0; r < reps; ++r) {
            const double mbs = run_reload(reload_dir, reload_steps,
                                          c.elems * sizeof(double), reload_passes);
            report.add(config, "load_mb_per_s", mbs);
            if (r == reps - 1) {
                std::printf("  %-22s %8.1f MB/s  (Log::load_step, %.2f MB frames)\n",
                            config, mbs, mb_per_step);
            }
        }
    };
    std::printf("reload:\n");
    reload_leg("reload_first");
    std::printf("\n");

    struct Leg {
        const char* name;
        fp::StreamOptions opts;
    };
    std::vector<Leg> legs;
    legs.push_back({"memory", fp::StreamOptions(4)});
    {
        fp::StreamOptions o(4);
        o.durable.dir = fresh_dir("never").string();
        o.durable.fsync = d::FsyncPolicy::Never;
        legs.push_back({"durable_never", o});
    }
    {
        fp::StreamOptions o(4);
        o.durable.dir = fresh_dir("commit").string();
        o.durable.fsync = d::FsyncPolicy::Commit;
        legs.push_back({"durable_commit", o});
    }

    for (const Leg& leg : legs) {
        for (int r = 0; r < reps; ++r) {
            // Each rep republishes the same step range; recreate the leg's
            // disk state so reps measure a fresh log, not a replayed one.
            if (!leg.opts.durable.dir.empty()) {
                fs::remove_all(leg.opts.durable.dir);
                fs::create_directories(leg.opts.durable.dir);
            }
            const double s = run_publish(c, leg.opts);
            const double us_per_step = s / static_cast<double>(c.steps) * 1e6;
            report.add(leg.name, "publish_us_per_step", us_per_step);
            report.add(leg.name, "publish_mb_per_s",
                       mb_per_step * static_cast<double>(c.steps) / s);
            if (r == reps - 1) {
                std::printf("  %-15s %9.1f us/step  %8.1f MB/s\n", leg.name,
                            us_per_step,
                            mb_per_step * static_cast<double>(c.steps) / s);
            }
        }
    }

    std::printf("\nrecovery scan (reopen of a clean log):\n");
    const fs::path rec_dir = fresh_dir("recovery");
    const std::vector<std::uint64_t> sizes =
        smoke ? std::vector<std::uint64_t>{16, 64}
              : std::vector<std::uint64_t>{64, 512, 2048};
    for (const std::uint64_t steps : sizes) {
        for (int r = 0; r < reps; ++r) {
            const double s = run_recovery(rec_dir, steps, smoke ? 1024 : 8192);
            report.add("recover_" + std::to_string(steps) + "_steps",
                       "recovery_seconds", s);
            report.add("recover_" + std::to_string(steps) + "_steps",
                       "recovery_steps_per_s", static_cast<double>(steps) / s);
            if (r == reps - 1) {
                std::printf("  %6llu steps  %8.2f ms  (%.0f steps/s)\n",
                            static_cast<unsigned long long>(steps), s * 1e3,
                            static_cast<double>(steps) / s);
            }
        }
    }

    std::printf("\nreload, after every other leg:\n");
    reload_leg("reload_after_legs");

    std::printf("\ncrc32c (dispatch: %s):\n",
                sb::ffs::crc32c_uses_hardware() ? "sse4.2" : "portable");
    const int crc_passes = smoke ? 4 : 32;
    for (const auto& [label, bytes] :
         {std::pair<const char*, std::size_t>{"786KB", 786'432},
          std::pair<const char*, std::size_t>{"7.3MB", 7'300'000}}) {
        for (int r = 0; r < reps; ++r) {
            const double portable = crc_mb_per_s(bytes, crc_passes,
                                                 sb::ffs::crc32c_update_portable);
            const double dispatched =
                crc_mb_per_s(bytes, crc_passes, sb::ffs::crc32c_update);
            report.add(std::string("crc32c_portable_") + label, "mb_per_s", portable);
            report.add(std::string("crc32c_dispatched_") + label, "mb_per_s",
                       dispatched);
            if (r == reps - 1) {
                std::printf("  %-6s portable %8.1f MB/s  dispatched %8.1f MB/s\n",
                            label, portable, dispatched);
            }
        }
    }

    for (const Leg& leg : legs) {
        if (!leg.opts.durable.dir.empty()) fs::remove_all(leg.opts.durable.dir);
    }
    fs::remove_all(rec_dir);
    fs::remove_all(reload_dir);
    report.write();
    return 0;
}
