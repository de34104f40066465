// Tests for sb::durable — the crash-consistent step log: CRC32C vectors,
// frame round-trips, torn-tail truncation, mid-log corruption quarantine
// through the stream's OnDataLoss policy, cold-restart bit-identity at the
// Workflow level, late-join replay, the SB_DURABLE off gate, and the
// durable.* fault points (torn:<bytes> included) with exact counter deltas.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/launch_script.hpp"
#include "core/workflow.hpp"
#include "durable/log.hpp"
#include "fault/fault.hpp"
#include "ffs/crc32c.hpp"
#include "flexpath/reader.hpp"
#include "flexpath/stream.hpp"
#include "flexpath/writer.hpp"
#include "obs/metrics.hpp"
#include "sim/source_component.hpp"
#include "util/ndarray.hpp"

namespace d = sb::durable;
namespace f = sb::ffs;
namespace fp = sb::flexpath;
namespace ft = sb::fault;
namespace u = sb::util;
namespace fs = std::filesystem;

namespace {

double counter_total(const std::string& name) {
    return sb::obs::Registry::global().total(name);
}

/// Fresh scratch directory under the test tmpdir.
fs::path scratch(const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::span<const std::byte> bytes_of(const std::string& s) {
    return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

/// A payload the log treats as opaque — segments spliced like the real
/// scatter-gather spool packet, here just one span over the header.
d::Options log_opts(const fs::path& dir) {
    d::Options o;
    o.dir = dir.string();
    return o;
}

f::EncodedSegments payload_of(const std::string& s) {
    f::EncodedSegments segs;
    const auto b = bytes_of(s);
    segs.header.assign(b.begin(), b.end());
    segs.segments.emplace_back(segs.header);  // segments are the full list
    segs.total = segs.header.size();
    return segs;
}

std::string str_of(const f::Bytes& b) {
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

/// Per-step marker value with a distinctive 8-byte pattern (used to locate
/// one step's payload inside a segment file for corruption tests).
double val(std::uint64_t t) { return 12345.678 + static_cast<double>(t); }

/// Writes `steps` 4-element steps of val(t) through a 1-rank writer group
/// (EOS on close).  With durable options set, every step lands in the log.
void write_marked_steps(fp::Fabric& fabric, const std::string& stream,
                        std::uint64_t steps, const fp::StreamOptions& opts) {
    fp::WriterPort port(fabric, stream, 0, 1, opts);
    for (std::uint64_t t = 0; t < steps; ++t) {
        port.declare(fp::VarDecl{"x", fp::DataKind::Float64, u::NdShape{4}, {}});
        const std::vector<double> v(4, val(t));
        port.put<double>("x", u::Box({0}, {4}), v);
        port.end_step();
    }
    port.close();
}

std::vector<fs::path> sblog_files(const fs::path& dir) {
    std::vector<fs::path> out;
    for (const auto& e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ".sblog") out.push_back(e.path());
    }
    return out;
}

/// Flips one byte inside the first occurrence of `needle` in `path`.
void corrupt_first_occurrence(const fs::path& path,
                              std::span<const std::byte> needle) {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in);
    std::string buf((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    const std::string pat(reinterpret_cast<const char*>(needle.data()),
                          needle.size());
    const auto at = buf.find(pat);
    ASSERT_NE(at, std::string::npos) << "pattern not found in " << path;
    buf[at] = static_cast<char>(buf[at] ^ 0x5A);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

class DurableTest : public ::testing::Test {
protected:
    void TearDown() override { ft::Registry::global().disarm_all(); }
};

}  // namespace

// ---- CRC32C ----------------------------------------------------------------

TEST(Crc32c, KnownVectors) {
    // RFC 3720 check value for "123456789".
    EXPECT_EQ(sb::ffs::crc32c(bytes_of("123456789")), 0xE3069283u);
    EXPECT_EQ(sb::ffs::crc32c({}), 0x00000000u);
}

TEST(Crc32c, StreamingMatchesOneShot) {
    const std::string s = "the quick brown fox jumps over the lazy dog";
    for (std::size_t split = 0; split <= s.size(); split += 7) {
        std::uint32_t c = sb::ffs::crc32c_init();
        c = sb::ffs::crc32c_update(c, bytes_of(s.substr(0, split)));
        c = sb::ffs::crc32c_update(c, bytes_of(s.substr(split)));
        EXPECT_EQ(sb::ffs::crc32c_final(c), sb::ffs::crc32c(bytes_of(s)))
            << "split at " << split;
    }
}

// ---- option parsing --------------------------------------------------------

TEST(DurableOptions, FsyncPolicyParse) {
    d::Options o;
    EXPECT_TRUE(d::parse_fsync_policy("never", o));
    EXPECT_EQ(o.fsync, d::FsyncPolicy::Never);
    EXPECT_TRUE(d::parse_fsync_policy("commit", o));
    EXPECT_EQ(o.fsync, d::FsyncPolicy::Commit);
    EXPECT_TRUE(d::parse_fsync_policy("interval:25", o));
    EXPECT_EQ(o.fsync, d::FsyncPolicy::Interval);
    EXPECT_DOUBLE_EQ(o.fsync_interval_ms, 25.0);
    EXPECT_FALSE(d::parse_fsync_policy("interval:0", o));
    EXPECT_FALSE(d::parse_fsync_policy("interval:abc", o));
    EXPECT_FALSE(d::parse_fsync_policy("bogus", o));
}

TEST(DurableOptions, TornFaultSpecParse) {
    const ft::FaultSpec spec = ft::parse_spec("durable.append=torn:512");
    EXPECT_EQ(spec.action, ft::Action::Torn);
    EXPECT_EQ(spec.torn_bytes, 512u);
    EXPECT_THROW((void)ft::parse_spec("durable.append=torn:0"),
                 std::invalid_argument);
    EXPECT_THROW((void)ft::parse_spec("durable.append=torn:"),
                 std::invalid_argument);
}

TEST(DurableOptions, ResolveEnabledGate) {
    const bool env_on = d::durable_enabled_from_env();
    d::Options o;
    EXPECT_FALSE(d::resolve_enabled(o));  // no dir -> never on
    o.dir = "/tmp/somewhere";
    o.mode = d::Mode::On;
    EXPECT_TRUE(d::resolve_enabled(o));
    o.mode = d::Mode::Off;
    EXPECT_FALSE(d::resolve_enabled(o));
    o.mode = d::Mode::Auto;
    d::set_durable_enabled(false);
    EXPECT_FALSE(d::resolve_enabled(o));
    d::set_durable_enabled(true);
    EXPECT_TRUE(d::resolve_enabled(o));
    d::set_durable_enabled(env_on);  // restore the environment's resolution
}

// ---- log round-trip and recovery ------------------------------------------

TEST_F(DurableTest, RoundTripAppendLoadRecover) {
    const fs::path dir = scratch("sb_durable_rt");
    d::Options o = log_opts(dir);
    {
        d::Log log("rt", o);
        EXPECT_EQ(log.next_step(), 0u);
        for (std::uint64_t t = 0; t < 3; ++t) {
            const std::string meta = "meta-" + std::to_string(t);
            log.append_step(t, /*layout_gen=*/7, bytes_of(meta),
                            payload_of("payload-" + std::to_string(t)));
        }
        log.append_ack(2);
        EXPECT_GT(log.log_bytes(), 0u);

        const d::LoadedStep s1 = log.load_step(1);
        EXPECT_EQ(s1.step, 1u);
        EXPECT_EQ(s1.layout_gen, 7u);
        EXPECT_EQ(str_of(s1.meta), "meta-1");
        EXPECT_EQ(str_of(s1.payload), "payload-1");
    }
    {
        // Reopen: recovery resumes at the acknowledged frontier.
        d::Log log("rt", o);
        const d::RecoveryReport& r = log.recovery();
        EXPECT_EQ(r.steps_recovered, 3u);
        EXPECT_EQ(r.steps_quarantined, 0u);
        EXPECT_EQ(r.acked, 2u);
        EXPECT_EQ(r.next_step, 3u);
        EXPECT_FALSE(r.complete);
        EXPECT_EQ(r.torn_bytes, 0u);
        ASSERT_EQ(log.recovered().size(), 1u);  // only step 2 is unacked
        EXPECT_EQ(log.recovered()[0].step, 2u);
        EXPECT_EQ(log.max_layout_gen(), 7u);
        log.append_eos();
    }
    {
        // Replay-history mode exposes the whole surviving history.
        o.replay_history = true;
        d::Log log("rt", o);
        EXPECT_TRUE(log.complete());
        ASSERT_EQ(log.recovered().size(), 3u);
        for (std::uint64_t t = 0; t < 3; ++t) {
            const d::LoadedStep s = log.load_step(t);
            EXPECT_EQ(str_of(s.payload), "payload-" + std::to_string(t));
        }
        EXPECT_THROW((void)log.load_step(9), d::SpoolError);
    }
}

TEST_F(DurableTest, TornTailIsReportedThenTruncated) {
    const fs::path dir = scratch("sb_durable_torn");
    const d::Options o = log_opts(dir);
    std::uintmax_t committed = 0;
    {
        d::Log log("tt", o);
        log.append_step(0, 1, bytes_of("m0"), payload_of("p0"));
        log.append_step(1, 1, bytes_of("m1"), payload_of("p1"));
        committed = log.log_bytes();
        log.append_step(2, 1, bytes_of("m2"), payload_of("p2"));
    }
    const auto files = sblog_files(dir);
    ASSERT_EQ(files.size(), 1u);
    const std::uintmax_t full = fs::file_size(files[0]);
    fs::resize_file(files[0], full - 5);  // tear the last frame mid-write

    // scan_dir (--recover) reports the tear without mutating the log.
    const auto reports = d::scan_dir(dir.string());
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].stream, "tt");
    EXPECT_EQ(reports[0].steps_recovered, 2u);
    EXPECT_EQ(reports[0].torn_bytes, full - 5 - committed);
    EXPECT_EQ(fs::file_size(files[0]), full - 5);

    // Opening for real repairs: the torn tail is truncated back to the last
    // committed frame and appends resume at step 2.
    d::Log log("tt", o);
    EXPECT_EQ(log.recovery().steps_recovered, 2u);
    EXPECT_EQ(log.recovery().torn_bytes, full - 5 - committed);
    EXPECT_EQ(fs::file_size(files[0]), committed);
    EXPECT_EQ(log.next_step(), 2u);
    log.append_step(2, 1, bytes_of("m2"), payload_of("p2-again"));
    EXPECT_EQ(str_of(log.load_step(2).payload), "p2-again");
}

// ---- corruption quarantine through the stream's OnDataLoss policy ---------

namespace {

/// Builds a finished 4-step durable stream and corrupts step 2's payload on
/// disk; returns the log directory.
fs::path corrupted_stream_dir(const std::string& tag) {
    const fs::path dir = scratch("sb_durable_" + tag);
    fp::StreamOptions opts(8);
    opts.durable.dir = dir.string();
    opts.durable.mode = d::Mode::On;
    {
        fp::Fabric fabric;
        write_marked_steps(fabric, "q", 4, opts);
    }
    const auto files = sblog_files(dir);
    EXPECT_EQ(files.size(), 1u);
    std::array<std::byte, 8> pat;
    const double v = val(2);
    std::memcpy(pat.data(), &v, sizeof v);
    corrupt_first_occurrence(files[0], pat);
    return dir;
}

fp::StreamOptions replay_options(const fs::path& dir, fp::OnDataLoss policy) {
    fp::StreamOptions opts(8);
    opts.durable.dir = dir.string();
    opts.durable.mode = d::Mode::On;
    opts.durable.replay_history = true;
    opts.on_data_loss = policy;
    return opts;
}

}  // namespace

TEST_F(DurableTest, QuarantineSkipVacatesTheStep) {
    const fs::path dir = corrupted_stream_dir("skip");
    fp::Fabric fabric;
    const fp::StreamOptions opts = replay_options(dir, fp::OnDataLoss::Skip);
    fabric.get("q")->open_durable(opts);

    fp::ReaderPort reader(fabric, "q", 0, 1);
    std::vector<std::uint64_t> seen;
    while (reader.begin_step()) {
        seen.push_back(reader.current_step());
        EXPECT_FALSE(reader.step_lossy());
        const auto v = reader.read<double>("x", u::Box({0}, {4}));
        for (const double x : v) EXPECT_EQ(x, val(reader.current_step()));
        reader.end_step();
    }
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 3}));
}

TEST_F(DurableTest, QuarantineZeroFillKeepsMetadata) {
    const fs::path dir = corrupted_stream_dir("zf");
    fp::Fabric fabric;
    const fp::StreamOptions opts = replay_options(dir, fp::OnDataLoss::ZeroFill);
    fabric.get("q")->open_durable(opts);

    fp::ReaderPort reader(fabric, "q", 0, 1);
    std::uint64_t t = 0;
    while (reader.begin_step()) {
        EXPECT_EQ(reader.current_step(), t);
        const bool lossy = reader.step_lossy();
        EXPECT_EQ(lossy, t == 2) << "step " << t;
        const auto v = reader.read<double>("x", u::Box({0}, {4}));
        for (const double x : v) EXPECT_EQ(x, lossy ? 0.0 : val(t));
        reader.end_step();
        ++t;
    }
    EXPECT_EQ(t, 4u);
}

TEST_F(DurableTest, QuarantineFailPoisonsTheReader) {
    const fs::path dir = corrupted_stream_dir("fail");
    fp::Fabric fabric;
    const fp::StreamOptions opts = replay_options(dir, fp::OnDataLoss::Fail);
    fabric.get("q")->open_durable(opts);

    fp::ReaderPort reader(fabric, "q", 0, 1);
    std::uint64_t delivered = 0;
    try {
        while (reader.begin_step()) {
            ++delivered;
            reader.end_step();
        }
        FAIL() << "expected the quarantined frame to poison the stream";
    } catch (const d::SpoolError& e) {
        EXPECT_EQ(e.step(), 2u);
        EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos)
            << e.what();
        EXPECT_FALSE(e.file().empty());
    }
    EXPECT_LE(delivered, 2u);
}

// ---- late join and clean replay -------------------------------------------

TEST_F(DurableTest, LateJoiningReaderReplaysFromStepZero) {
    const fs::path dir = scratch("sb_durable_latejoin");
    fp::StreamOptions opts(8);
    opts.durable.dir = dir.string();
    opts.durable.mode = d::Mode::On;
    {
        fp::Fabric fabric;
        write_marked_steps(fabric, "late", 3, opts);
    }  // writer's process is gone; only the log remains

    fp::Fabric fabric;
    fp::StreamOptions ropts = opts;
    ropts.durable.replay_history = true;
    fabric.get("late")->open_durable(ropts);
    fp::ReaderPort reader(fabric, "late", 0, 1);
    std::uint64_t t = 0;
    while (reader.begin_step()) {
        EXPECT_EQ(reader.current_step(), t);
        const auto v = reader.read<double>("x", u::Box({0}, {4}));
        for (const double x : v) EXPECT_EQ(x, val(t));
        reader.end_step();
        ++t;
    }
    EXPECT_EQ(t, 3u);  // terminated by the logged EOS, no writer ever attached
}

// ---- SB_DURABLE off gate ---------------------------------------------------

TEST_F(DurableTest, ModeOffReproducesTheVolatilePath) {
    const fs::path dir = scratch("sb_durable_off");
    fp::StreamOptions opts(8);
    opts.durable.dir = dir.string();
    opts.durable.mode = d::Mode::Off;

    fp::Fabric fabric;
    write_marked_steps(fabric, "off", 3, opts);
    EXPECT_TRUE(sblog_files(dir).empty());  // gate off -> no log files

    fp::ReaderPort reader(fabric, "off", 0, 1);
    std::uint64_t t = 0;
    while (reader.begin_step()) {
        const auto v = reader.read<double>("x", u::Box({0}, {4}));
        for (const double x : v) EXPECT_EQ(x, val(t));
        reader.end_step();
        ++t;
    }
    EXPECT_EQ(t, 3u);
}

// ---- typed spool errors (volatile path) ------------------------------------

TEST_F(DurableTest, MissingSpoolFileThrowsTypedError) {
    const fs::path dir = scratch("sb_durable_spoolerr");
    fp::Fabric fabric;
    fp::StreamOptions opts(8, dir.string());  // volatile spool, no durable log
    write_marked_steps(fabric, "gone", 2, opts);
    for (const auto& f : fs::directory_iterator(dir)) fs::remove(f);

    fp::ReaderPort reader(fabric, "gone", 0, 1);
    try {
        (void)reader.begin_step();
        FAIL() << "expected the missing spool file to surface";
    } catch (const d::SpoolError& e) {
        EXPECT_NE(std::string(e.what()).find("missing spool file"),
                  std::string::npos)
            << e.what();
        EXPECT_FALSE(e.file().empty());
        EXPECT_LT(e.step(), 2u);
    }
}

// ---- fault points with exact counter deltas --------------------------------

TEST_F(DurableTest, TornWriteFaultLeavesARecoverableTear) {
    const fs::path dir = scratch("sb_durable_chaos");
    d::Options o = log_opts(dir);
    o.fsync = d::FsyncPolicy::Commit;

    const double appended0 = counter_total("durable.steps_appended");
    const double torn0 = counter_total("durable.torn_bytes");
    const double fsyncs0 = counter_total("durable.fsyncs");
    const double recovered0 = counter_total("durable.steps_recovered");
    {
        d::Log log("chaos", o);
        log.append_step(0, 1, bytes_of("m0"), payload_of("p0"));
        log.append_step(1, 1, bytes_of("m1"), payload_of("p1"));
        ft::Registry::global().arm(ft::parse_spec("durable.append:chaos=torn:7"));
        EXPECT_THROW(log.append_step(2, 1, bytes_of("m2"), payload_of("p2")),
                     ft::InjectedCrash);
    }
    ft::Registry::global().disarm_all();
    EXPECT_EQ(counter_total("durable.steps_appended") - appended0, 2.0);
    EXPECT_EQ(counter_total("durable.torn_bytes") - torn0, 7.0);
    EXPECT_EQ(counter_total("durable.fsyncs") - fsyncs0, 2.0);

    // Frame for step 2: 37 head + 2 meta + 2 payload + 8 tail = 49 bytes,
    // landed 7 short, so the scanner finds (and truncates) a 42-byte
    // uncommitted partial frame at the tail.
    {
        d::Log log("chaos", o);
        const d::RecoveryReport& r = log.recovery();
        EXPECT_EQ(r.steps_recovered, 2u);
        EXPECT_EQ(r.torn_bytes, 42u);
        EXPECT_EQ(r.next_step, 2u);
        bool truncated_note = false;
        for (const std::string& n : r.notes) {
            if (n.find("truncated torn tail (42 bytes)") != std::string::npos) {
                truncated_note = true;
            }
        }
        EXPECT_TRUE(truncated_note) << log.recovery().to_string();
        EXPECT_EQ(str_of(log.load_step(0).payload), "p0");
        EXPECT_EQ(str_of(log.load_step(1).payload), "p1");
        EXPECT_THROW((void)log.load_step(2), d::SpoolError);
    }
    // Write path counted the 7-byte shortfall; recovery counts the whole
    // truncated partial frame.
    EXPECT_EQ(counter_total("durable.torn_bytes") - torn0, 49.0);
    EXPECT_EQ(counter_total("durable.steps_recovered") - recovered0, 2.0);
}

TEST_F(DurableTest, ScanFaultPointFires) {
    const fs::path dir = scratch("sb_durable_scanfault");
    ft::Registry::global().arm(ft::parse_spec("durable.scan:scanfault=throw"));
    EXPECT_THROW(d::Log("scanfault", log_opts(dir)), ft::InjectedFault);
}

TEST_F(DurableTest, FsyncFaultPointFires) {
    const fs::path dir = scratch("sb_durable_fsyncfault");
    d::Options o = log_opts(dir);
    o.fsync = d::FsyncPolicy::Commit;
    d::Log log("fsf", o);
    ft::Registry::global().arm(ft::parse_spec("durable.fsync:fsf=crash"));
    EXPECT_THROW(log.append_step(0, 1, bytes_of("m"), payload_of("p")),
                 ft::InjectedCrash);
}

// ---- retention / GC --------------------------------------------------------

TEST_F(DurableTest, CollectDeletesOnlyAckedWholeSegments) {
    const fs::path dir = scratch("sb_durable_gc");
    d::Options o = log_opts(dir);
    o.segment_bytes = 1;   // every frame rolls into its own segment
    o.retain_steps = 1;
    {
        d::Log log("gc", o);
        for (std::uint64_t t = 0; t < 5; ++t) {
            log.append_step(t, 1, bytes_of("m"),
                            payload_of("p" + std::to_string(t)));
        }
        EXPECT_EQ(sblog_files(dir).size(), 5u);
        log.collect(5);  // nothing acked yet: nothing may be deleted
        EXPECT_EQ(sblog_files(dir).size(), 5u);
        log.append_ack(4);
        log.collect(4);  // floor = 4 - retain 1 = 3: steps 0..2 collectable
        EXPECT_EQ(sblog_files(dir).size(), 3u);
        // The collected history is gone; the retained tail still loads.
        EXPECT_THROW((void)log.load_step(0), d::SpoolError);
        EXPECT_EQ(str_of(log.load_step(3).payload), "p3");
        EXPECT_EQ(str_of(log.load_step(4).payload), "p4");
    }
    // keep-all default: no GC ever.
    const fs::path dir2 = scratch("sb_durable_gc_keep");
    d::Options o2 = log_opts(dir2);
    o2.segment_bytes = 1;
    d::Log log2("gc", o2);
    for (std::uint64_t t = 0; t < 4; ++t) {
        log2.append_step(t, 1, bytes_of("m"), payload_of("p"));
    }
    log2.append_ack(4);
    const std::size_t before = sblog_files(dir2).size();
    log2.collect(4);
    EXPECT_EQ(sblog_files(dir2).size(), before);
}

// ---- cold restart (whole-process relaunch) ---------------------------------

TEST_F(DurableTest, ColdRestartResumesBitIdentically) {
    sb::sim::register_simulations();
    const fs::path dir = scratch("sb_durable_cold");
    const std::string hist = ::testing::TempDir() + "/sb_durable_cold_hist.txt";
    const std::string ref = ::testing::TempDir() + "/sb_durable_cold_ref.txt";
    fs::remove(hist);
    fs::remove(ref);
    const std::string sim = "aprun -n 1 gromacs atoms=64 steps=4 substeps=3 &\n";
    const std::string mid = "aprun -n 1 magnitude gmx.fp coords radii.fp radii &\n";

    fp::StreamOptions opts(8);
    opts.durable.dir = dir.string();
    opts.durable.mode = d::Mode::On;

    // Run 1: the middle component's rank dies after publishing output step 1
    // but before acknowledging its input; the default Never policy makes the
    // whole "process" go down with it.  (No sink in this run, so the crash
    // point needs no coordination with a file writer.)
    ft::Registry::global().arm(ft::parse_spec("component.step:magnitude=crash@2"));
    {
        fp::Fabric fabric;
        sb::core::Workflow wf =
            sb::core::build_workflow(fabric, sim + mid + "wait\n", opts);
        EXPECT_THROW(wf.run(), std::exception);
    }
    ft::Registry::global().disarm_all();
    EXPECT_FALSE(sblog_files(dir).empty());

    // Run 2: a fresh fabric — the relaunched process.  The source replays
    // its deterministic sequence (suppressed up to the logged frontier), the
    // middle unit fast-forwards past the inputs whose outputs are already
    // durable, and the late-added sink replays radii.fp from step 0.
    const double suppressed0 = counter_total("flexpath.replay_suppressed");
    {
        fp::Fabric fabric;
        sb::core::Workflow wf = sb::core::build_workflow(
            fabric,
            sim + mid + "aprun -n 1 histogram radii.fp radii 8 " + hist +
                " &\nwait\n",
            opts);
        wf.run();
    }
    EXPECT_GT(counter_total("flexpath.replay_suppressed") - suppressed0, 0.0);

    // Reference: the same workflow end-to-end with no faults and no log.
    {
        fp::Fabric fabric;
        sb::core::Workflow wf = sb::core::build_workflow(
            fabric,
            sim + mid + "aprun -n 1 histogram radii.fp radii 8 " + ref +
                " &\nwait\n",
            fp::StreamOptions(8));
        wf.run();
    }
    const std::string got = slurp(hist);
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got, slurp(ref)) << "cold restart diverged from the clean run";
}

TEST_F(DurableTest, ColdRestartNeverDuplicatesSinkRows) {
    // The sink itself crashes at its third step, after writing that step's
    // rows and before acking its input step (the "component.step" fault
    // point fires once a step's rows are written, fused or not).  The
    // replay is at-least-once: the restarted sink must *skip* the rows its
    // previous incarnation already wrote instead of appending duplicates.
    sb::sim::register_simulations();
    const fs::path dir = scratch("sb_durable_dedup");
    const std::string hist = ::testing::TempDir() + "/sb_durable_dedup_hist.txt";
    const std::string ref = ::testing::TempDir() + "/sb_durable_dedup_ref.txt";
    fs::remove(hist);
    fs::remove(ref);
    const auto script = [](const std::string& out) {
        return std::string("aprun -n 1 gromacs atoms=64 steps=4 substeps=3 &\n") +
               "aprun -n 1 magnitude gmx.fp coords radii.fp radii &\n" +
               "aprun -n 1 histogram radii.fp radii 8 " + out + " &\nwait\n";
    };

    fp::StreamOptions opts(8);
    opts.durable.dir = dir.string();
    opts.durable.mode = d::Mode::On;

    ft::Registry::global().arm(ft::parse_spec("component.step:histogram=crash@3"));
    {
        fp::Fabric fabric;
        sb::core::Workflow wf = sb::core::build_workflow(fabric, script(hist), opts);
        EXPECT_THROW(wf.run(), std::exception);
    }
    ft::Registry::global().disarm_all();
    const std::string partial = slurp(hist);
    EXPECT_FALSE(partial.empty()) << "run 1 should have written rows pre-crash";

    {
        fp::Fabric fabric;
        sb::core::Workflow wf = sb::core::build_workflow(fabric, script(hist), opts);
        wf.run();
    }
    {
        fp::Fabric fabric;
        sb::core::Workflow wf = sb::core::build_workflow(fabric, script(ref),
                                                         fp::StreamOptions(8));
        wf.run();
    }
    EXPECT_EQ(slurp(hist), slurp(ref))
        << "restart duplicated or dropped sink rows";
}

// ---- kill -9 mid-run -------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SB_DURABLE_NO_FORK 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SB_DURABLE_NO_FORK 1
#endif
#endif

TEST_F(DurableTest, SigkillAfterFsyncedAppendsRecoversEveryStep) {
#ifdef SB_DURABLE_NO_FORK
    GTEST_SKIP() << "fork-based kill test disabled under sanitizers";
#else
    const fs::path dir = scratch("sb_durable_kill");
    d::Options o = log_opts(dir);
    o.fsync = d::FsyncPolicy::Commit;

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: append three fsync'd steps, then die like a power cut —
        // no destructors, no flush, no atexit.
        d::Log log("killed", o);
        for (std::uint64_t t = 0; t < 3; ++t) {
            log.append_step(t, 1, bytes_of("m"),
                            payload_of("p" + std::to_string(t)));
        }
        ::raise(SIGKILL);
        ::_exit(127);  // unreachable
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    d::Options ro = o;
    ro.replay_history = true;
    d::Log log("killed", ro);
    EXPECT_EQ(log.recovery().steps_recovered, 3u);
    EXPECT_EQ(log.recovery().steps_quarantined, 0u);
    for (std::uint64_t t = 0; t < 3; ++t) {
        EXPECT_EQ(str_of(log.load_step(t).payload), "p" + std::to_string(t));
    }
#endif
}
