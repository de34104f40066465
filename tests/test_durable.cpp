// Tests for sb::durable — the crash-consistent step log: CRC32C vectors and
// the dispatched CRC against its portable oracle, frame round-trips, reloads
// that outlive their log, collection past ack-only segments, torn-tail truncation, mid-log corruption quarantine
// through the stream's OnDataLoss policy, an enumerated recovery sweep
// (every truncation offset and every single-bit flip of a two-segment
// log), cold-restart bit-identity at the Workflow level, late-join replay,
// and the durable.* fault points (torn:<bytes> included) with exact
// counter deltas.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
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
#include "util/pool.hpp"

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
/// scatter-gather block packet, here just one span over the header.
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

std::string str_of(std::span<const std::byte> b) {
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

/// Deterministic non-trivial bytes (a 64-bit LCG's high bytes).
std::vector<std::byte> pattern_bytes(std::size_t n) {
    std::vector<std::byte> out(n);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::byte& b : out) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        b = std::byte(x >> 56);
    }
    return out;
}

TEST(Crc32c, DispatchMatchesPortableAtEveryLengthAndAlignment) {
    constexpr std::size_t kMaxLen = 4096;
    const std::vector<std::byte> buf = pattern_bytes(kMaxLen + 16);
    for (std::size_t mis = 0; mis < 16; ++mis) {
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
            const std::span<const std::byte> s(buf.data() + mis, len);
            ASSERT_EQ(sb::ffs::crc32c_update(sb::ffs::crc32c_init(), s),
                      sb::ffs::crc32c_update_portable(sb::ffs::crc32c_init(), s))
                << "length " << len << ", misalignment " << mis;
        }
    }
}

TEST(Crc32c, DispatchMatchesPortableOnAGtcpSizedStep) {
    const std::vector<std::byte> buf = pattern_bytes(7'300'000);
    EXPECT_EQ(sb::ffs::crc32c_update(sb::ffs::crc32c_init(), buf),
              sb::ffs::crc32c_update_portable(sb::ffs::crc32c_init(), buf));
}

TEST(Crc32c, DispatchChainsAcrossEverySplitPoint) {
    const std::vector<std::byte> buf = pattern_bytes(257);
    const std::span<const std::byte> all(buf);
    const std::uint32_t want = sb::ffs::crc32c_final(
        sb::ffs::crc32c_update_portable(sb::ffs::crc32c_init(), all));
    for (std::size_t split = 0; split <= all.size(); ++split) {
        std::uint32_t c = sb::ffs::crc32c_init();
        c = sb::ffs::crc32c_update(c, all.first(split));
        c = sb::ffs::crc32c_update(c, all.subspan(split));
        EXPECT_EQ(sb::ffs::crc32c_final(c), want) << "split at " << split;
    }
}

TEST(Crc32c, UsesHardwareExactlyWhenTheCpuHasSse42) {
#if defined(__x86_64__)
    // A dispatch that silently fell back to the table walk fails here.
    __builtin_cpu_init();
    EXPECT_EQ(sb::ffs::crc32c_uses_hardware(),
              __builtin_cpu_supports("sse4.2") != 0);
#else
    EXPECT_FALSE(sb::ffs::crc32c_uses_hardware());
#endif
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

TEST(DurableOptions, LogOpensExactlyWhenDirIsSet) {
    fp::Fabric fabric;
    const auto memory = fabric.get("mem");
    memory->open_durable(fp::StreamOptions(8));  // no dir: no log, no files
    EXPECT_EQ(memory->durable_log(), nullptr);

    const fs::path dir = scratch("sb_durable_opens");
    fp::StreamOptions opts(8);
    opts.durable.dir = dir.string();
    const auto logged = fabric.get("logged");
    logged->open_durable(opts);
    ASSERT_NE(logged->durable_log(), nullptr);
    EXPECT_EQ(sblog_files(dir).size(), 1u);  // the active segment
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

// ---- enumerated recovery: every truncation, every bit flip -----------------
//
// A two-segment log (steps 0..3 in segment 0; steps 4..7 and the Eos frame
// in segment 1) is damaged in every way a byte-level fault can: cut at
// every offset of either segment, or any single bit of either segment
// flipped.  Each damaged copy is reopened and checked against the
// documented recovery rules (docs/RESILIENCE.md, "Recovery") — which steps
// survive intact, which are quarantined, which are lost, whether the
// stream is complete, how many torn bytes are repaired — with exact
// durable.* counter deltas, and every surviving step of the damaged
// segment reloads byte for byte.  Each distinct outcome is then replayed
// through a stream under all three OnDataLoss policies.

namespace {

enum class Fate { Ok, Quarantined, Lost };

constexpr std::uint64_t kSweepSteps = 8;
constexpr std::uint64_t kPerSegment = 4;
constexpr std::uint64_t kHeadBytes = 37;                // magic .. crc_head
constexpr std::uint64_t kEosBytes = kHeadBytes + 8;     // + crc_payload, commit
constexpr std::uint64_t kMetaLenAt = 21;                // u32 meta_len field

/// What recovery must make of one damaged copy of the sweep log.
struct Outcome {
    std::array<Fate, kSweepSteps> fate{};  // all Ok
    bool complete = true;
    std::uint64_t torn = 0;

    /// 1 + the highest step the log accounts for: the Eos frame records
    /// all of them; without it, the highest surviving frame.
    std::uint64_t next_step() const {
        if (complete) return kSweepSteps;
        std::uint64_t next = 0;
        for (std::uint64_t s = 0; s < kSweepSteps; ++s) {
            if (fate[s] != Fate::Lost) next = s + 1;
        }
        return next;
    }
    /// Fates and completeness: everything a stream replay depends on.
    std::string key() const {
        std::string k;
        for (const Fate f : fate) k += "OQL"[static_cast<int>(f)];
        return k + (complete ? " complete" : " open");
    }
};

/// The pristine sweep log: both segment files and the fixed frame shape.
struct SweepLog {
    fs::path dir;
    std::array<std::string, 2> seg;
    std::uint64_t frame = 0;  // bytes per step frame (equal for every step)
    std::uint64_t meta = 0;   // metadata bytes per step frame

    fs::path path(int g) const {
        return dir / ("sweep." + std::to_string(g) + ".sblog");
    }
    void write(int g, const std::string& bytes) const {
        std::ofstream out(path(g), std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    /// Writes both segments: `damaged` as segment g, the other pristine.
    void install(int g, const std::string& damaged) const {
        write(g, damaged);
        write(1 - g, seg[static_cast<std::size_t>(1 - g)]);
    }
    std::string payload(std::uint64_t step) const {
        const std::uint64_t at =
            (step % kPerSegment) * frame + kHeadBytes + meta;
        return seg[step / kPerSegment].substr(at, frame - kEosBytes - meta);
    }
};

SweepLog build_sweep_log(const std::string& tag) {
    SweepLog log;
    log.dir = scratch(tag);
    const auto write = [&](std::size_t segment_bytes) {
        fs::remove_all(log.dir);
        fp::StreamOptions opts(kSweepSteps);
        opts.durable.dir = log.dir.string();
        if (segment_bytes > 0) opts.durable.segment_bytes = segment_bytes;
        fp::Fabric fabric;
        write_marked_steps(fabric, "sweep", kSweepSteps, opts);
    };
    write(0);  // one segment: learn the frame size
    const std::uint64_t one = fs::file_size(log.path(0));
    EXPECT_EQ((one - kEosBytes) % kSweepSteps, 0u);
    log.frame = (one - kEosBytes) / kSweepSteps;
    write(kPerSegment * log.frame);  // exactly four step frames per segment
    for (int g = 0; g < 2; ++g) log.seg[static_cast<std::size_t>(g)] = slurp(log.path(g));
    for (std::size_t i = 0; i < 4; ++i) {
        log.meta |= std::uint64_t{static_cast<unsigned char>(log.seg[0][kMetaLenAt + i])}
                    << (8 * i);
    }
    return log;
}

/// Segment g cut to `len` bytes.  Whole frames before the cut survive; in
/// the last segment the partial frame is a torn tail (repaired, counted,
/// and the Eos frame with it); in segment 0 it is an unparseable tail.
Outcome truncation_outcome(const SweepLog& log, int g, std::uint64_t len) {
    Outcome o;
    const std::uint64_t whole = std::min(len / log.frame, kPerSegment);
    for (std::uint64_t k = whole; k < kPerSegment; ++k) {
        o.fate[g * kPerSegment + k] = Fate::Lost;
    }
    if (g == 1) {
        o.complete = false;
        o.torn = len - whole * log.frame;
    }
    return o;
}

/// A bit of byte `at` in segment g flipped (which bit does not matter).
Outcome flip_outcome(const SweepLog& log, int g, std::uint64_t at) {
    Outcome o;
    const std::uint64_t k = at / log.frame;
    if (k >= kPerSegment) {
        // The Eos frame: only its (empty) payload's checksum is never
        // consulted; any other flip leaves an unverifiable or uncommitted
        // tail, truncated as torn, and the stream reads as still open.
        const std::uint64_t r = at - kPerSegment * log.frame;
        if (r >= kHeadBytes && r < kHeadBytes + 4) return o;
        o.complete = false;
        o.torn = kEosBytes;
        return o;
    }
    const std::uint64_t step = g * kPerSegment + k;
    const std::uint64_t off = k * log.frame;
    const std::uint64_t r = at - off;
    if (r >= kHeadBytes + log.meta) {
        // Payload, crc_payload, or commit marker: crc_head still vouches
        // for the header and metadata, so the step is quarantined.
        o.fate[step] = Fate::Quarantined;
        return o;
    }
    // Magic, header fields, crc_head, or metadata: the frame cannot be
    // trusted and the scanner resyncs at the next magic, losing the step.
    // That holds for a meta_len grown past the end of the segment too: a
    // verifiable frame follows, so it is corruption, not a torn append.
    o.fate[step] = Fate::Lost;
    return o;
}

/// Reopens the installed copy (segment g damaged) and checks it against
/// `want`; returns a failure description, or "" when recovery matched
/// exactly.  Every intact step of the damaged segment must reload byte for
/// byte (the other segment's frames are untouched and checksum-verified).
std::string check_recovery(const SweepLog& log, int g, const Outcome& want) {
    const double recovered0 = counter_total("durable.steps_recovered");
    const double quarantined0 = counter_total("durable.steps_quarantined");
    const double torn0 = counter_total("durable.torn_bytes");
    d::Options o;
    o.dir = log.dir.string();
    o.replay_history = true;
    d::Log rec("sweep", o);
    const d::RecoveryReport& r = rec.recovery();

    Outcome got;
    got.fate.fill(Fate::Lost);
    for (const d::RecoveredStep& rs : rec.recovered()) {
        got.fate[rs.step] = rs.state == d::RecoveredStep::State::Ok ? Fate::Ok
                                                                   : Fate::Quarantined;
    }
    got.complete = r.complete;
    got.torn = r.torn_bytes;
    std::uint64_t ok = 0;
    std::uint64_t quarantined = 0;
    for (const Fate f : want.fate) {
        ok += f == Fate::Ok ? 1 : 0;
        quarantined += f == Fate::Quarantined ? 1 : 0;
    }
    std::ostringstream err;
    if (got.key() != want.key() || got.torn != want.torn) {
        err << "recovered " << got.key() << " torn " << got.torn << ", want "
            << want.key() << " torn " << want.torn;
    } else if (r.next_step != want.next_step()) {
        err << "next step " << r.next_step << ", want " << want.next_step();
    } else if (counter_total("durable.steps_recovered") - recovered0 != double(ok) ||
               counter_total("durable.steps_quarantined") - quarantined0 !=
                   double(quarantined) ||
               counter_total("durable.torn_bytes") - torn0 != double(want.torn)) {
        err << "durable.* counter deltas differ from the report";
    } else {
        for (std::uint64_t s = g * kPerSegment; s < (g + 1) * kPerSegment; ++s) {
            if (want.fate[s] != Fate::Ok) continue;
            if (str_of(rec.load_step(s).payload) != log.payload(s)) {
                err << "step " << s << " reloads different bytes";
                break;
            }
        }
    }
    return err.str();
}

struct Replayed {
    std::vector<std::uint64_t> steps;  // delivered, in order
    std::vector<std::uint64_t> lossy;  // delivered zero-filled
    std::optional<std::uint64_t> error_step;
};

/// Replays the installed copy from step 0 through a stream under `policy`.
Replayed replay_sweep(const SweepLog& log, fp::OnDataLoss policy) {
    fp::StreamOptions opts(kSweepSteps);
    opts.durable.dir = log.dir.string();
    opts.durable.replay_history = true;
    opts.on_data_loss = policy;
    opts.read_ahead = 1;
    fp::Fabric fabric;
    const auto stream = fabric.get("sweep");
    stream->open_durable(opts);
    // A relaunched writer group with nothing left to publish ends the
    // stream, whether or not the Eos frame survived.
    stream->attach_writer(1, opts);
    stream->close_writer(0);
    Replayed out;
    fp::ReaderPort reader(fabric, "sweep", 0, 1);
    try {
        while (reader.begin_step()) {
            const std::uint64_t t = reader.current_step();
            const bool lossy = reader.step_lossy();
            out.steps.push_back(t);
            if (lossy) out.lossy.push_back(t);
            for (const double x : reader.read<double>("x", u::Box({0}, {4}))) {
                EXPECT_EQ(x, lossy ? 0.0 : val(t)) << "step " << t;
            }
            reader.end_step();
        }
    } catch (const d::SpoolError& e) {
        out.error_step = e.step();
    }
    return out;
}

/// The documented policy outcome for `want`: steps below the log's next
/// step that are quarantined or lost go through OnDataLoss — Skip drops
/// them, ZeroFill delivers quarantined ones zero-filled (a lost frame has
/// no metadata left, so it is dropped), Fail stops at the first one with
/// its SpoolError.  Lost steps past the next step were never committed.
void check_policies(const SweepLog& log, int g, const std::string& damaged,
                    const Outcome& want) {
    const std::uint64_t next = want.next_step();
    std::vector<std::uint64_t> ok;
    std::vector<std::uint64_t> quarantined;
    std::optional<std::uint64_t> first_bad;
    for (std::uint64_t s = 0; s < next; ++s) {
        if (want.fate[s] == Fate::Ok) {
            ok.push_back(s);
            continue;
        }
        if (want.fate[s] == Fate::Quarantined) quarantined.push_back(s);
        if (!first_bad) first_bad = s;
    }
    SCOPED_TRACE("outcome " + want.key());

    log.install(g, damaged);
    const Replayed skip = replay_sweep(log, fp::OnDataLoss::Skip);
    EXPECT_EQ(skip.steps, ok);
    EXPECT_TRUE(skip.lossy.empty());
    EXPECT_FALSE(skip.error_step.has_value());

    log.install(g, damaged);
    const Replayed zero = replay_sweep(log, fp::OnDataLoss::ZeroFill);
    std::vector<std::uint64_t> kept = ok;
    kept.insert(kept.end(), quarantined.begin(), quarantined.end());
    std::sort(kept.begin(), kept.end());
    EXPECT_EQ(zero.steps, kept);
    EXPECT_EQ(zero.lossy, quarantined);
    EXPECT_FALSE(zero.error_step.has_value());

    log.install(g, damaged);
    const Replayed fail = replay_sweep(log, fp::OnDataLoss::Fail);
    EXPECT_EQ(fail.error_step.has_value(), first_bad.has_value());
    if (first_bad && fail.error_step) {
        EXPECT_EQ(*fail.error_step, *first_bad);
    }
    // Delivery stops at the first bad step at the latest (the prefetcher
    // may surface the error before the reader drains the steps before it).
    const std::uint64_t limit = first_bad.value_or(next);
    EXPECT_LE(fail.steps.size(), limit);
    for (std::size_t i = 0; i < fail.steps.size(); ++i) {
        EXPECT_EQ(fail.steps[i], i);
    }
    if (!first_bad) {
        EXPECT_EQ(fail.steps, ok);
    }
}

/// Damage of one segment, described for failure messages.
struct Damage {
    int g = 0;
    std::string bytes;
    std::string what;
};

/// Runs `cases` (segment, damaged bytes, expected outcome) through
/// check_recovery, then every distinct outcome through check_policies.
template <typename ForEach>
void sweep(const SweepLog& log, ForEach for_each_case) {
    std::map<std::string, std::pair<Damage, Outcome>> classes;
    int failures = 0;
    int installed = -1;
    for_each_case([&](Damage damage, const Outcome& want) {
        if (failures >= 10) return;
        if (damage.g != installed) {
            log.write(1 - damage.g, log.seg[static_cast<std::size_t>(1 - damage.g)]);
            installed = damage.g;
        }
        log.write(damage.g, damage.bytes);
        const std::string err = check_recovery(log, damage.g, want);
        if (!err.empty()) {
            ADD_FAILURE() << damage.what << ": " << err;
            ++failures;
        }
        classes.try_emplace(want.key(), std::move(damage), want);
    });
    for (const auto& [key, c] : classes) {
        SCOPED_TRACE(c.first.what);
        check_policies(log, c.first.g, c.first.bytes, c.second);
    }
}

}  // namespace

TEST_F(DurableTest, EveryTruncationRecoversAsDocumented) {
    const SweepLog log = build_sweep_log("sb_durable_sweep_cut");
    ASSERT_EQ(log.seg[0].size(), kPerSegment * log.frame);
    ASSERT_EQ(log.seg[1].size(), kPerSegment * log.frame + kEosBytes);
    sweep(log, [&](const auto& visit) {
        for (int g = 0; g < 2; ++g) {
            const std::string& seg = log.seg[static_cast<std::size_t>(g)];
            for (std::uint64_t len = 0; len < seg.size(); ++len) {
                visit(Damage{g, seg.substr(0, len),
                             "segment " + std::to_string(g) + " cut at " +
                                 std::to_string(len)},
                      truncation_outcome(log, g, len));
            }
        }
    });
}

TEST_F(DurableTest, EveryBitFlipRecoversAsDocumented) {
    const SweepLog log = build_sweep_log("sb_durable_sweep_flip");
    ASSERT_EQ(log.seg[0].size(), kPerSegment * log.frame);
    ASSERT_EQ(log.seg[1].size(), kPerSegment * log.frame + kEosBytes);
    sweep(log, [&](const auto& visit) {
        for (int g = 0; g < 2; ++g) {
            const std::string& seg = log.seg[static_cast<std::size_t>(g)];
            for (std::uint64_t at = 0; at < seg.size(); ++at) {
                for (int bit = 0; bit < 8; ++bit) {
                    std::string bytes = seg;
                    bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
                    visit(Damage{g, std::move(bytes),
                                 "segment " + std::to_string(g) + " byte " +
                                     std::to_string(at) + " bit " +
                                     std::to_string(bit)},
                          flip_outcome(log, g, at));
                }
            }
        }
    });
}

// ---- late join and clean replay -------------------------------------------

TEST_F(DurableTest, LateJoiningReaderReplaysFromStepZero) {
    const fs::path dir = scratch("sb_durable_latejoin");
    fp::StreamOptions opts(8);
    opts.durable.dir = dir.string();
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

// ---- typed reload errors ----------------------------------------------------

TEST_F(DurableTest, MissingLogSegmentThrowsTypedError) {
    const fs::path dir = scratch("sb_durable_segerr");
    fp::Fabric fabric;
    fp::StreamOptions opts(8);
    opts.durable.dir = dir.string();
    write_marked_steps(fabric, "gone", 2, opts);
    for (const auto& f : fs::directory_iterator(dir)) fs::remove(f);

    fp::ReaderPort reader(fabric, "gone", 0, 1);
    try {
        (void)reader.begin_step();
        FAIL() << "expected the missing log segment to surface";
    } catch (const d::SpoolError& e) {
        EXPECT_NE(std::string(e.what()).find("durable log segment missing"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(e.file().find("gone."), std::string::npos) << e.file();
        EXPECT_EQ(e.step(), 0u);
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

TEST_F(DurableTest, CollectKeepsGoingPastAckOnlySegments) {
    constexpr std::uint64_t kSteps = 200;
    // Every frame, ack frames included, rolls into a segment of its own.
    // Two shapes: a step-count window with each ack after its step, and a
    // byte window with each ack before the next step, so that the newest
    // ack frame sits behind a step segment at every collection.
    struct Case {
        const char* name;
        bool ack_first;
        std::uint64_t collected;  // segments collected by the step loop
    };
    for (const Case c : {Case{"steps", false, 1 + 2 * (kSteps - 3)},
                         Case{"bytes", true, 1 + 2 * (kSteps - 2)}}) {
        SCOPED_TRACE(c.name);
        const fs::path dir = scratch(std::string("sb_durable_gc_acks_") + c.name);
        d::Options o = log_opts(dir);
        o.segment_bytes = 1;
        if (c.ack_first) {
            o.retain_bytes = 1;
        } else {
            o.retain_steps = 1;
        }
        const double collected0 = counter_total("durable.segments_collected");
        {
            d::Log log("gca", o);
            std::uint64_t steady = 0;
            for (std::uint64_t t = 0; t < kSteps; ++t) {
                if (c.ack_first) log.append_ack(t);
                log.append_step(t, 1, bytes_of("m"), payload_of("payload"));
                if (!c.ack_first) log.append_ack(t);
                log.collect(t);
                if (t == 10) steady = log.log_bytes();
                if (t > 10) {
                    ASSERT_LE(log.log_bytes(), steady) << "log grows at step " << t;
                    ASSERT_LE(sblog_files(dir).size(), 4u) << "at step " << t;
                }
            }
            // Once ack frames reach the oldest segment, each step frees one
            // step segment and one ack-only segment.
            EXPECT_EQ(counter_total("durable.segments_collected") - collected0,
                      double(c.collected));
            // The writer closes, then the reader retires the last step: the
            // Eos frame's segment must survive collection past it.
            log.append_eos();
            log.append_ack(kSteps);
            log.collect(kSteps);
        }
        d::Log reopened("gca", o);
        EXPECT_EQ(reopened.next_step(), kSteps);
        EXPECT_EQ(reopened.acked(), kSteps);
        EXPECT_TRUE(reopened.complete());
        EXPECT_EQ(reopened.recovery().steps_quarantined, 0u);
    }
}

TEST_F(DurableTest, LoadedStepOutlivesItsSegmentAndTheLog) {
    // A reload hands out views into one pooled frame buffer; they must stay
    // valid after the segment is collected and the log destroyed, and the
    // buffer must not be recycled under them (SB_POOL=off and SB_CHECK=on
    // run this same test with a plain allocation / a poisoning pool).
    const fs::path dir = scratch("sb_durable_loaded_lifetime");
    d::Options o = log_opts(dir);
    o.segment_bytes = 1;
    o.retain_steps = 1;
    const std::string payload(4096, 'q');
    std::optional<d::Log> log;
    log.emplace("life", o);
    for (std::uint64_t t = 0; t < 4; ++t) {
        log->append_step(t, 5, bytes_of("meta-" + std::to_string(t)),
                         payload_of(payload + std::to_string(t)));
    }
    const d::LoadedStep loaded = log->load_step(1);
    log->append_ack(4);
    log->collect(4);  // floor 3: step 1's segment is deleted
    EXPECT_FALSE(fs::exists(dir / "life.1.sblog"));
    EXPECT_THROW((void)log->load_step(1), d::SpoolError);
    log.reset();
    // Recycle same-sized pool buffers with other bytes meanwhile.
    for (int i = 0; i < 4; ++i) {
        const u::PooledBytes other = u::acquire_bytes(loaded.frame->size());
        std::fill(other->begin(), other->end(), std::byte{0xEE});
    }
    EXPECT_EQ(loaded.step, 1u);
    EXPECT_EQ(loaded.layout_gen, 5u);
    EXPECT_EQ(str_of(loaded.meta), "meta-1");
    EXPECT_EQ(str_of(loaded.payload), payload + "1");
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
#define SB_NO_FORK_KILL_TEST 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SB_NO_FORK_KILL_TEST 1
#endif
#endif

TEST_F(DurableTest, SigkillAfterFsyncedAppendsRecoversEveryStep) {
#ifdef SB_NO_FORK_KILL_TEST
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
