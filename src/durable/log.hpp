// sb::durable — a crash-consistent, checksummed step log.
//
// The one place a stream parks steps on disk.  A stream whose
// flexpath::StreamOptions::durable.dir is set keeps its buffered steps in
// an *addressable, replayable step log* instead of process memory, so deep
// buffering stays memory-bounded, a relaunched process recovers the
// buffered history, and a torn or bit-rotted frame surfaces as a typed
// error.  Every published step is appended as a framed record —
//
//   +-------+------+------+------------+----------+-------------+----------+
//   | magic | kind | step | layout_gen | meta_len | payload_len | crc_head |
//   | "SBLG"| u8   | u64  | u64        | u32      | u64         | u32      |
//   +-------+------+------+------------+----------+-------------+----------+
//   | meta bytes ... | payload bytes ... | crc_payload | commit "CMT1"     |
//   +----------------+-------------------+-------------+-------------------+
//
// (all integers little-endian; crc_head is CRC32C over kind..payload_len +
// meta, crc_payload over the payload, so a frame whose payload rotted still
// yields intact metadata for OnDataLoss::ZeroFill).  The payload is the
// step's scatter-gather block packet (ffs::encode_segments), spliced into
// the frame without an intermediate copy.  Kind=Ack frames record the
// reader group's retirement frontier; kind=Eos marks a cleanly closed
// writer group and records how many steps it published, so a late-joining
// reader of a finished stream terminates after replay and a lost final
// step frame still counts as a gap.
//
// On open, a recovery scanner validates every frame: a torn tail (the
// process died mid-append) is truncated back to the last committed frame; a
// mid-log corrupt frame is quarantined — surfaced through the stream's
// OnDataLoss policy (Skip / ZeroFill / Fail) — and scanning resyncs on the
// next magic.  The rebuilt step index lets a whole-process relaunch resume
// bit-identically from the last durable step (Workflow cold restart) and
// lets a fresh reader attach at step 0 and replay history before going
// live (Options::replay_history).
//
// Durability is configurable per workflow: fsync policy never | commit |
// interval:<ms>, segment roll size, and retention/GC by step count or bytes
// — GC only ever deletes whole segments whose every step is both
// acknowledged and unpinned.  Everything is observable (durable.* metrics,
// a "recovery" trace slice) and chaos-testable (fault points
// durable.append / durable.fsync / durable.scan, plus the torn:<bytes>
// action that truncates a frame mid-write).  See docs/RESILIENCE.md.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/mutex.hpp"
#include "ffs/encode.hpp"
#include "util/pool.hpp"

namespace sb::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace sb::obs

namespace sb::durable {

/// When appended frames are flushed to stable storage.
enum class FsyncPolicy {
    Never,     // leave it to the page cache (survives a process crash only)
    Commit,    // fsync after every appended frame (strongest, slowest)
    Interval,  // fsync at most once per fsync_interval_ms
};

struct Options {
    Options() = default;

    /// Log directory; a stream opens a log exactly when this is non-empty.
    std::string dir;

    FsyncPolicy fsync = FsyncPolicy::Never;
    double fsync_interval_ms = 50.0;  // FsyncPolicy::Interval cadence

    /// Active segment rolls to a new file past this size.
    std::size_t segment_bytes = 8ull << 20;

    /// Retention of *acknowledged* history (for late-joining readers):
    /// keep at least this many acked steps / bytes before GC may delete a
    /// segment.  0 = keep everything (late-join from step 0 always works;
    /// disk use is unbounded).  Unacknowledged or pinned steps are never
    /// collected regardless.
    std::size_t retain_steps = 0;
    std::uint64_t retain_bytes = 0;

    /// Recovery exposes every surviving step from 0 instead of resuming at
    /// the acknowledged frontier — the late-join replay mode.
    bool replay_history = false;
};

/// Always true: the durable log has no on/off gate (a stream opens one
/// exactly when Options::dir is set).  Kept only because the benchmark's
/// gate banner still prints it; it goes when that banner is updated.
bool durable_enabled_from_env();

/// Parses "never" | "commit" | "interval:<ms>" into `into`; returns false
/// on malformed input.
bool parse_fsync_policy(const std::string& text, Options& into);

/// Typed replacement for the raw reload errors: names the exact file,
/// byte offset, and step of the frame that could not be read back, so
/// recovery reports (and the poisoned stream's error) identify the frame.
class SpoolError : public std::runtime_error {
public:
    SpoolError(const std::string& what, std::string file, std::uint64_t offset,
               std::uint64_t step)
        : std::runtime_error(what + " [" + file + " @" + std::to_string(offset) +
                             ", step " + std::to_string(step) + "]"),
          file_(std::move(file)),
          offset_(offset),
          step_(step) {}

    const std::string& file() const noexcept { return file_; }
    std::uint64_t offset() const noexcept { return offset_; }
    std::uint64_t step() const noexcept { return step_; }

private:
    std::string file_;
    std::uint64_t offset_;
    std::uint64_t step_;
};

/// One step frame surviving recovery, in step order.
struct RecoveredStep {
    enum class State {
        Ok,          // both checksums verified
        BadPayload,  // header+meta intact, payload corrupt (ZeroFill-able)
    };
    std::uint64_t step = 0;
    std::uint64_t layout_gen = 0;
    State state = State::Ok;
    /// The frame's metadata packet — kept only for BadPayload frames, where
    /// it is the ZeroFill material (Ok frames reload lazily via load_step).
    ffs::Bytes meta;
};

/// What the recovery scanner found (also the --recover report).
struct RecoveryReport {
    std::string stream;
    std::uint64_t steps_recovered = 0;    // intact step frames
    std::uint64_t steps_quarantined = 0;  // corrupt frames with a known step
    std::uint64_t acked = 0;              // retirement frontier from Ack frames
    std::uint64_t next_step = 0;          // 1 + highest step seen
    bool complete = false;                // Eos frame present
    std::uint64_t torn_bytes = 0;         // truncated (or truncatable) tail bytes
    std::uint64_t log_bytes = 0;          // on-disk bytes after recovery
    std::size_t segments = 0;
    double seconds = 0.0;
    std::vector<std::string> notes;  // one line per quarantine/torn/resync event

    std::string to_string() const;
};

/// A loaded step frame (the reader-side reload currency): the whole frame,
/// read once into a pooled buffer, with views of its metadata and payload.
/// The views stay valid for as long as this object (or a copy) holds
/// `frame`, whatever happens to the log or its segment files meanwhile.
struct LoadedStep {
    std::uint64_t step = 0;
    std::uint64_t layout_gen = 0;
    util::PooledBytes frame;             // owns the bytes both views point into
    std::span<const std::byte> meta;
    std::span<const std::byte> payload;  // the encode_step_blocks packet
};

/// One stream's durable log: segmented files `<dir>/<stream>.<k>.sblog`.
/// Thread-safe.  Construction runs recovery (scan + torn-tail repair).
class Log {
public:
    Log(std::string stream, Options opts);
    ~Log();
    Log(const Log&) = delete;
    Log& operator=(const Log&) = delete;

    const Options& options() const noexcept { return opts_; }
    const RecoveryReport& recovery() const noexcept { return report_; }
    /// Surviving step frames in step order, starting at the acknowledged
    /// frontier (or step 0 under Options::replay_history).
    const std::vector<RecoveredStep>& recovered() const noexcept {
        return recovered_;
    }

    std::uint64_t next_step() const noexcept { return report_.next_step; }
    std::uint64_t acked() const noexcept { return report_.acked; }
    std::uint64_t max_layout_gen() const noexcept { return max_layout_gen_; }
    bool complete() const noexcept { return report_.complete; }

    // ---- writer side -----------------------------------------------------
    /// Appends one step frame; `payload` is the scatter-gather block packet
    /// (segments are spliced, never concatenated).  Applies the fsync
    /// policy.  Fault point "durable.append" fires before the write; the
    /// torn:<bytes> action makes the frame land short and rethrows as a
    /// crash, modelling a power cut mid-append.
    void append_step(std::uint64_t step, std::uint64_t layout_gen,
                     std::span<const std::byte> meta,
                     const ffs::EncodedSegments& payload);

    /// Records the reader group's retirement frontier (steps below `upto`
    /// are fully released): the recovery resume point.  Regressions and
    /// repeats are dropped.
    void append_ack(std::uint64_t upto);

    /// Marks the stream cleanly closed (writer group closed after its last
    /// step): replayed readers terminate instead of waiting for a writer.
    void append_eos();

    // ---- reader side -----------------------------------------------------
    /// Reads step `step` back with one positioned read into a pooled buffer,
    /// re-verifying both checksums in place (no further copy).  Throws
    /// SpoolError (file/offset/step context) for a quarantined, missing, or
    /// re-corrupted frame.
    LoadedStep load_step(std::uint64_t step);

    /// Garbage collection: deletes whole segments, oldest first, whose every
    /// step is below min(acked frontier, `pinned_below`) minus the retention
    /// window; a segment with no step frames goes once a newer ack frame
    /// exists.  Never touches the active segment, the segment holding the
    /// newest ack frame, or the one holding the Eos frame, so a reopened log
    /// recovers the same frontier, next step and completion.
    void collect(std::uint64_t pinned_below);

    /// Current on-disk size of all segments.
    std::uint64_t log_bytes() const;

private:
    struct Frame {
        std::uint64_t segment = 0;
        std::uint64_t offset = 0;
        std::uint64_t bytes = 0;
        std::uint64_t layout_gen = 0;
        RecoveredStep::State state = RecoveredStep::State::Ok;
    };
    struct Segment {
        std::uint64_t id = 0;
        std::uint64_t bytes = 0;
        std::uint64_t max_step = 0;
        bool has_steps = false;
        std::uint64_t max_ack = 0;  // newest ack frontier recorded here (0: none)
        bool has_eos = false;
    };

    std::string segment_path(std::uint64_t seg) const;
    void open_active_locked();
    void roll_if_needed_locked(std::size_t frame_bytes);
    void write_frame_locked(const ffs::Bytes& head,
                            const std::vector<std::span<const std::byte>>& body,
                            const ffs::Bytes& tail);
    void maybe_fsync_locked();
    void fsync_now_locked();

    const std::string stream_;
    const Options opts_;
    mutable check::CheckedMutex mu_;
    int fd_ = -1;                  // active segment, append-only
    std::vector<Segment> segments_;  // sorted by id; back() is active
    std::map<std::uint64_t, Frame> index_;  // step -> frame location
    std::vector<RecoveredStep> recovered_;
    RecoveryReport report_;
    std::uint64_t max_layout_gen_ = 0;
    std::uint64_t last_ack_ = 0;
    double last_fsync_ = 0.0;
    bool dirty_ = false;  // appended since the last fsync

    struct Instruments {
        obs::Counter* steps_appended = nullptr;
        obs::Counter* acks_appended = nullptr;
        obs::Counter* bytes_appended = nullptr;
        obs::Counter* bytes_read = nullptr;
        obs::Counter* steps_recovered = nullptr;
        obs::Counter* steps_quarantined = nullptr;
        obs::Counter* torn_bytes = nullptr;
        obs::Counter* fsyncs = nullptr;
        obs::Counter* segments_collected = nullptr;
        obs::Gauge* log_bytes = nullptr;
        obs::Histogram* append_seconds = nullptr;
        obs::Histogram* fsync_seconds = nullptr;
        obs::Histogram* recovery_seconds = nullptr;
    };
    Instruments ins_;
};

/// Non-destructive scan of every stream log found in `dir` (torn tails are
/// reported, not truncated): the `smartblock_run --recover` report.
std::vector<RecoveryReport> scan_dir(const std::string& dir);

/// True when `dir` holds at least one segment file for `stream` — a cheap
/// existence probe (no scan, no repair).  The fusion planner uses it to keep
/// a chain boundary wherever the interior stream has durable history a
/// late-joining or restarted reader would need to replay.
bool history_exists(const std::string& dir, const std::string& stream);

}  // namespace sb::durable
