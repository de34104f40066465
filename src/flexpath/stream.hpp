// FlexPath-like publish/subscribe stream transport.
//
// The paper's FlexPath connects a *writer group* (the W ranks of an upstream
// component) to a *reader group* (the R ranks of a downstream component)
// through a named stream, and carries out the MxN redistribution: each writer
// rank contributes a hyperslab block of a global array per timestep; each
// reader rank requests a bounding box and receives exactly the data inside
// it, regardless of how the writers partitioned the array.
//
// This module reproduces the four assembly properties of paper §IV:
//   1. Streams are addressed purely by name (Fabric registry), so workflows
//      are wired by matching output/input stream names at launch.
//   2. Launch order is irrelevant: a stream springs into existence on first
//      open from either side; readers block until writers produce, writers
//      buffer until readers consume.
//   3. Writer and reader group sizes are independent (full MxN).
//   4. Completed steps are buffered writer-side in a bounded queue, letting
//      the upstream component compute ahead of its consumers (asynchronous
//      overlap); a full queue applies backpressure.
//
// The asynchronous overlap extends to the consumer side: readers hold a
// bounded *in-flight step window* (StreamOptions::read_ahead, default 2)
// with per-rank cursors, so a fast reader rank starts step N+1 while slow
// peers still hold N, and a per-stream prefetch thread pops the queue and
// reloads logged blocks outside the stream mutex, overlapping fetch cost
// with downstream compute (docs/PERFORMANCE.md, "Reader-side step
// pipelining").
//
// Step metadata (variable names, kinds, global shapes, dimension labels,
// attributes) is carried as a self-describing FFS packet, decoded by
// readers, so downstream components discover everything from the stream
// itself — the property that makes SmartBlock components generic.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "check/mutex.hpp"
#include "durable/log.hpp"
#include "ffs/encode.hpp"
#include "ffs/type.hpp"
#include "util/ndarray.hpp"
#include "util/queue.hpp"

namespace sb::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace sb::obs

namespace sb::flexpath {

using DataKind = ffs::Kind;

/// Reload failures carry the exact file, byte offset, and step that could
/// not be read back (see durable::SpoolError).
using durable::SpoolError;

/// One writer rank's block of one variable for one step.  The payload is
/// shared (never copied) between writer buffering and reader access.
struct Block {
    util::Box box;  // global coordinates
    std::shared_ptr<const std::vector<std::byte>> data;  // row-major in box
};

/// Declaration of a variable within a step.
struct VarDecl {
    std::string name;
    DataKind kind = DataKind::Float64;
    util::NdShape global_shape;
    std::vector<std::string> dim_labels;  // empty, or one label per dimension

    bool operator==(const VarDecl&) const = default;
};

/// Decoded view of a step's metadata.
struct StepMeta {
    std::uint64_t step = 0;
    std::map<std::string, VarDecl> vars;
    std::map<std::string, std::vector<std::string>> string_attrs;
    std::map<std::string, double> double_attrs;
};

/// Encodes/decodes step metadata through the FFS wire format.
ffs::Bytes encode_step_meta(const StepMeta& m);
StepMeta decode_step_meta(std::span<const std::byte> wire);

/// A fully assembled timestep, as seen by readers.
struct StepData {
    std::uint64_t step = 0;
    ffs::Bytes meta;  // FFS-encoded metadata packet (see encode_step_meta)
    /// var name -> blocks, each var's blocks sorted by (offset, count).
    std::map<std::string, std::vector<Block>> blocks;
    /// True when the step's blocks live in the stream's durable log
    /// (StreamOptions::durable) instead of memory; readers load them back
    /// by step index, and the frame stays in the log for crash recovery
    /// until garbage-collected.
    bool in_log = false;
    /// Writer-layout generation: bumped by the stream whenever the block
    /// partitioning or any variable shape differs from the previous step.
    /// Reader-side copy plans compiled under one generation stay valid for
    /// every step carrying the same generation.
    std::uint64_t layout_gen = 0;
    /// True when the step's data was dropped under OnDataLoss::ZeroFill:
    /// metadata (shapes, labels, attributes) is intact but every read
    /// returns zeros (ReaderPort::step_lossy / adios::Reader::step_data_lost
    /// let components tell).
    bool lossy = false;
    /// Steady-clock instant the assembling rank began queueing the step
    /// (0 when metrics were off): the prefetcher closes the step's Queue
    /// span segment against this (docs/OBSERVABILITY.md, "Step provenance
    /// spans").  Includes any backpressure wait of the push itself.
    double t_enqueued = 0.0;

    /// The decoded metadata packet, decoded lazily on first access and
    /// shared by every reader rank of the step (one decode per step, not
    /// one per rank).  Thread-safe.
    const StepMeta& decoded_meta() const;

private:
    // Explicit mutex + flag rather than std::call_once: decode can throw
    // (corrupt packet, injected ffs.decode fault), and the next caller must
    // retry — exceptional call_once retry deadlocks under TSan's
    // interceptors.
    struct MetaCache {
        std::mutex mu;
        bool decoded = false;
        StepMeta meta;
    };
    std::shared_ptr<MetaCache> meta_cache_ = std::make_shared<MetaCache>();
};

/// Encodes/decodes a step's blocks: the payload of a durable-log frame
/// (exposed for tests).
ffs::Bytes encode_step_blocks(const std::map<std::string, std::vector<Block>>& blocks);
std::map<std::string, std::vector<Block>> decode_step_blocks(
    std::span<const std::byte> wire);

/// Per-rank, per-step contribution handed to the stream by a writer.
struct Contribution {
    std::map<std::string, VarDecl> var_decls;
    std::map<std::string, std::vector<Block>> blocks;
    std::map<std::string, std::vector<std::string>> string_attrs;
    std::map<std::string, double> double_attrs;
};

/// What a stream does when a detached reader's retention bound is exceeded
/// and un-acknowledged steps must be dropped (docs/RESILIENCE.md).
enum class OnDataLoss {
    Fail,      // never drop: the writer blocks (or trips its liveness timeout)
    Skip,      // drop the oldest retained step; readers never see it
    ZeroFill,  // keep the step's metadata, replace its data with zeros
};

struct StreamOptions {
    StreamOptions() = default;
    // Constructors (rather than aggregate init) so StreamOptions{N} call
    // sites stay clean under -Wmissing-field-initializers / SB_WERROR.
    explicit StreamOptions(std::size_t capacity) : queue_capacity(capacity) {}

    /// Max completed steps buffered writer-side.  0 = synchronous rendezvous
    /// (writer's end_step blocks until the reader group takes the step) —
    /// used by the async-buffering ablation.
    std::size_t queue_capacity = 2;

    /// Reader-side in-flight step window (read-ahead depth): how many steps
    /// the reader group may hold concurrently, and how far ahead of reader
    /// demand the stream's prefetcher fetches.  1 = the lockstep protocol
    /// (every rank must release step N before any rank sees N+1, fetched on
    /// demand).  0 = auto: the SB_READ_AHEAD env var ("off"/"0"/"false" ->
    /// 1, an integer -> that depth), defaulting to 2.  An explicit value
    /// here wins over the env var (tests pin semantics this way).  Memory
    /// cost: up to read_ahead assembled steps held reader-side.
    std::size_t read_ahead = 0;

    /// While the reader group is detached (component restart), the stream
    /// keeps pulling completed steps into the retained window so the writer
    /// is not stalled; at most read_ahead + retain_steps of them are held
    /// *in memory*.  Log-backed streams (durable.dir set) keep further
    /// steps parked on disk instead — replay material is then bounded by
    /// disk, not by this knob.  Past the bound, `on_data_loss` decides.
    std::size_t retain_steps = 8;

    /// Degradation policy when retention is exhausted (see OnDataLoss).
    /// Also decides what a cold restart does with a quarantined (corrupt)
    /// durable-log frame: Skip drops the step from the replayed sequence,
    /// ZeroFill replays its metadata with zeroed data, Fail poisons the
    /// stream with the frame's SpoolError.
    OnDataLoss on_data_loss = OnDataLoss::Fail;

    /// Crash-consistent step log (docs/RESILIENCE.md, "Durable step log").
    /// When durable.dir is set, published steps park their data in a
    /// checksummed, framed log instead of memory — the paper §VI idea of
    /// storage participating in a workflow, applied to the transport's
    /// buffer: deep buffering with bounded memory — and a relaunched
    /// process recovers the stream's state from it.
    durable::Options durable;

    /// Writer/reader liveness timeout in milliseconds: a submit blocked on
    /// a full queue or an acquire blocked on a silent writer group longer
    /// than this throws PeerLivenessError instead of waiting forever —
    /// converting a hung peer into a detected failure the supervisor can
    /// act on.  0 disables; negative (default) resolves SB_LIVENESS_MS
    /// (unset/"off"/"0" = disabled).
    double liveness_ms = -1.0;
};

/// The window depth `opts` resolves to (explicit value, else SB_READ_AHEAD,
/// else 2); always >= 1.
std::size_t resolve_read_ahead(const StreamOptions& opts);

/// The liveness timeout `opts` resolves to, in seconds (explicit value, else
/// SB_LIVENESS_MS); 0 = disabled.
double resolve_liveness_seconds(const StreamOptions& opts);

/// Thrown out of blocked stream operations when a workflow peer failed and
/// the fabric was aborted (so no component hangs on a dead neighbour).
class StreamAborted : public std::runtime_error {
public:
    explicit StreamAborted(const std::string& stream)
        : std::runtime_error("stream '" + stream + "' aborted") {}
};

/// Thrown out of a blocked submit/acquire when the liveness timeout
/// (StreamOptions::liveness_ms / SB_LIVENESS_MS) expired: the peer group
/// made no progress for the configured interval and is presumed hung or
/// dead.  The workflow supervisor treats it like any other component
/// failure (restart or root-cause propagation).
class PeerLivenessError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// A named stream connecting one writer group to one reader group.
/// Thread-safe; all blocking uses condition variables.
class Stream {
public:
    explicit Stream(std::string name);
    ~Stream();
    Stream(const Stream&) = delete;
    Stream& operator=(const Stream&) = delete;

    const std::string& name() const noexcept { return name_; }

    // ---- durability ------------------------------------------------------
    /// Opens (or recovers) the stream's durable log per `opts.durable` and
    /// `opts.on_data_loss`.  On a pristine stream holding recovered
    /// history, the reader window, step counters, and layout generation are
    /// rebuilt from the log: a relaunched process resumes where the durable
    /// frontier left off, and with durable.replay_history a late-joining
    /// reader replays from step 0.  Idempotent; a no-op when durable.dir is
    /// empty.  Call before attaching either side (Workflow does this for
    /// every external stream; attach_writer also calls it with its own
    /// options).
    void open_durable(const StreamOptions& opts);

    /// The stream's open durable log (nullptr when disabled) — recovery
    /// introspection for tests and the supervisor.
    durable::Log* durable_log() const;

    /// Marks the next writer-group attach as a restarted *source* replaying
    /// its deterministic sequence from step 0 after a cold restart: the
    /// first writer_resume_step() submissions of each rank are suppressed
    /// (the log already holds those steps).  Used by Workflow; the warm
    /// path uses detach_writer(true) instead.
    void set_cold_source_replay();

    /// Maps a step index to the reader-sequence cursor it occupies after
    /// recovery (quarantined steps dropped under OnDataLoss::Skip vacate
    /// their cursor).  Identity on a stream with no recovery skips.
    std::uint64_t reader_cursor_for_step(std::uint64_t step) const;

    // ---- writer side -----------------------------------------------------
    /// Called once per writer rank; the first call fixes the group size and
    /// options.  All ranks must pass the same values.
    void attach_writer(int nranks, const StreamOptions& opts);

    /// Submits rank `rank`'s contribution for its next step.  When the last
    /// rank of the group submits, the step is assembled, its metadata is
    /// FFS-encoded, and it is queued for the readers (this final submit
    /// blocks if the queue is full — backpressure).
    void submit(int rank, Contribution c);

    /// Called once per writer rank.  When the whole group has closed, end
    /// of stream propagates to the readers.
    void close_writer(int rank);

    /// Rolls the writer side back to the last fully assembled step after a
    /// writer-group incarnation died: partial per-rank submissions are
    /// discarded, submit counters rewind to the assembly frontier, and
    /// close counts reset, so a relaunched group resumes submitting step
    /// writer_resume_step() consistently.  With `source_replays_from_zero`
    /// (a component with no input streams regenerates its deterministic
    /// sequence from step 0), the first writer_resume_step() submissions of
    /// each rank are additionally suppressed instead of re-queued.
    void detach_writer(bool source_replays_from_zero);

    /// The step index a relaunched writer group's next accepted submission
    /// will be assigned (i.e. the number of fully assembled steps so far).
    std::uint64_t writer_resume_step() const;

    // ---- reader side -----------------------------------------------------
    /// Called once per reader rank; first call fixes the reader group size.
    /// Returns the cursor this rank must start acquiring from: 0 on first
    /// attach, or — after detach_reader() — the oldest un-acknowledged
    /// (retained) step, so a replacement reader group replays everything
    /// the failed one never finished.
    std::uint64_t attach_reader(int nranks);

    /// Detaches the reader group after its component incarnation died: all
    /// partial acknowledgements on in-flight steps are voided (a step is
    /// replayed in full unless *every* rank had released it), retention
    /// mode begins (see StreamOptions::retain_steps), and a later
    /// attach_reader() resumes from the oldest retained step.  Idempotent;
    /// a replacement group may attach with a different rank count.
    void detach_reader();

    /// Force-acknowledges every retained step below `cursor` (supervisor
    /// alignment: a restarted middle component whose *output* stream
    /// already holds steps through cursor-1 must not consume the inputs
    /// that produced them again).  Throws if steps beyond the fetched
    /// window would have to be skipped.
    void skip_reader_to(std::uint64_t cursor);

    /// Blocks until the step at this rank's cursor is available.  All
    /// reader ranks observe the same sequence of steps, but ranks need not
    /// be in lockstep: up to `read_ahead` consecutive steps are in flight
    /// at once, so a fast rank can hold cursor N+k while a slow peer still
    /// holds N (k < read_ahead).  Returns nullptr at end of stream.
    /// `cursor` is the number of steps this rank has already completed
    /// (managed per rank by ReaderPort).
    std::shared_ptr<const StepData> acquire(std::uint64_t cursor);

    /// Releases the step at this rank's cursor; when every reader rank has
    /// released a step it is retired (in order) and window space is freed
    /// for the prefetcher.
    void release(std::uint64_t cursor);

    /// Wakes every blocked reader/writer with StreamAborted (used when a
    /// workflow peer dies so the rest of the graph unwinds).  Idempotent.
    void abort();

    // ---- introspection (tests, benches) -----------------------------------
    std::size_t queued_steps() const;
    bool writer_attached() const;
    /// The resolved in-flight window depth (0 until a writer attached).
    std::size_t read_ahead() const;
    /// Steps currently held in the reader-side window.
    std::size_t in_flight_steps() const;
    /// Whether the reader group is currently detached (retention mode).
    bool reader_detached() const;
    /// Steps dropped (skipped or zero-filled) under the data-loss policy.
    std::uint64_t steps_lost() const;

private:
    const std::string name_;

    // CheckedMutex + condition_variable_any so the sb::check lock-order and
    // wait-for analyzers see every stream acquisition and blocked wait.
    // Two condition variables with targeted notifies instead of one
    // broadcast cv: readers blocked in acquire() sleep on reader_cv_
    // (woken when the prefetcher delivers a step, at EOS, and on abort);
    // the prefetch thread sleeps on prefetch_cv_ (woken when reader demand
    // advances, when a retired step frees window space, and on teardown).
    // submit()/release() no longer wake every blocked thread in the
    // process — the thundering herd of the single-cv protocol.
    mutable check::CheckedMutex mu_;
    std::condition_variable_any reader_cv_;
    std::condition_variable_any prefetch_cv_;

    // Writer group.  Ranks are not in lockstep: a fast rank may be several
    // steps ahead of a slow one, so contributions are merged per step.
    int writer_size_ = 0;  // 0 until attached
    StreamOptions opts_;
    std::vector<std::uint64_t> rank_submits_;  // per-rank count of submitted steps
    std::map<std::uint64_t, Contribution> pending_;  // step -> merged contribution
    std::map<std::uint64_t, int> pending_counts_;    // step -> ranks arrived
    // First-contribution instant per assembling step (metrics on only):
    // closes the step's Assemble span segment when the last rank arrives.
    std::map<std::uint64_t, double> pending_t0_;
    int writers_closed_ = 0;
    std::uint64_t next_step_ = 0;  // next step to assemble and queue
    std::unique_ptr<util::BoundedQueue<StepData>> queue_;
    // Durable step log (StreamOptions::durable).  Opened before either side
    // attaches and never replaced, so the prefetcher and submit paths read
    // the pointer without mu_ once streaming began.  The log serializes
    // internally.
    std::unique_ptr<durable::Log> log_;
    // Steps of the recovered history dropped from the reader sequence
    // (quarantined under Skip, or lost to frame resync), ascending; later
    // steps occupy a cursor shifted down by the preceding skips.
    std::vector<std::uint64_t> recovery_skipped_;
    bool cold_source_replay_ = false;  // see set_cold_source_replay()
    double liveness_s_ = 0.0;  // resolved liveness timeout; 0 = disabled
    // Replay suppression for restarted sources: per writer rank, how many
    // leading re-submissions (the deterministic regeneration of steps the
    // stream already assembled) to drop without assigning them a step.
    std::vector<std::uint64_t> replay_drop_;

    // Writer-layout tracking for StepData::layout_gen, doubling as the
    // assemble-side sorted-order cache: in steady state (same partitioning
    // every step) assemble_locked places each block by an O(log n) index
    // lookup instead of re-sorting, and the generation provably cannot have
    // changed.  `index` maps a block's box to its position in the sorted
    // order; duplicate boxes would collapse it, so such a var marks the
    // cache unusable and always takes the sort path.
    struct BoxLess {
        bool operator()(const util::Box& a, const util::Box& b) const {
            return std::tie(a.offset, a.count) < std::tie(b.offset, b.count);
        }
    };
    struct VarLayoutCache {
        util::NdShape shape;
        std::vector<util::Box> sorted_boxes;
        std::map<util::Box, std::size_t, BoxLess> index;
        bool usable = true;
    };
    std::uint64_t layout_gen_ = 0;
    std::map<std::string, VarLayoutCache> layout_cache_;
    std::vector<Block> scratch_blocks_;  // reused per-var reorder buffer

    // Reader group: a bounded window of in-flight steps instead of a
    // single-step rendezvous.  window_ holds consecutive steps (front =
    // oldest cursor); each entry retires when every reader rank has
    // released it, and retirement is always in cursor order because each
    // rank releases its cursors in order.
    struct InFlight {
        std::uint64_t cursor = 0;  // reader-sequence index of this step
        std::shared_ptr<StepData> data;
        int released = 0;  // reader ranks that released this step
        /// False while the step's blocks are still parked in the log
        /// (retention mode defers the reload until a reader reattaches).
        bool loaded = true;
    };
    int reader_size_ = 0;  // 0 until attached
    std::deque<InFlight> window_;
    std::uint64_t window_base_ = 0;  // cursor of window_.front() (live even when empty)
    std::size_t window_payloads_ = 0;  // entries holding in-memory block data
    bool reader_detached_ = false;     // retention mode (between detach/reattach)
    double detach_t0_ = 0.0;           // when the reader detached (trace slice)
    std::size_t read_ahead_ = 0;   // resolved window depth; 0 until attach_writer
    std::uint64_t next_fetch_ = 0; // cursor the prefetcher fetches next
    std::uint64_t demand_ = 0;     // 1 + highest cursor any rank has asked for
    std::uint64_t lost_steps_ = 0; // steps dropped under the data-loss policy
    bool eos_ = false;             // queue drained: no step at cursor >= next_fetch_
    bool aborted_ = false;
    bool shutdown_ = false;        // destructor tearing the prefetcher down
    std::exception_ptr prefetch_error_;  // fatal prefetch failure, rethrown in acquire

    // Background prefetcher: pops the next step from the bounded queue and
    // reloads logged blocks *off* mu_, then publishes the step into the
    // window.  Started once both sides are attached; exits at EOS, abort,
    // or stream destruction.  Demand-driven: it never fetches past
    // (highest demanded cursor) + read_ahead - 1, so read_ahead=1
    // reproduces the seed's on-demand lockstep fetch.
    std::thread prefetcher_;
    bool prefetcher_started_ = false;
    void start_prefetcher_locked();
    void prefetch_loop();

    void open_durable_locked(const StreamOptions& opts);
    void merge_locked(Contribution& dst, Contribution&& c);
    StepData assemble_locked(std::uint64_t step);
    /// Drops retained data (detached mode, retention bound hit) per the
    /// data-loss policy until an in-memory payload slot is free.
    void shed_retained_locked();
    /// Loads `item`'s blocks back from the durable log.  Runs off mu_
    /// (prefetcher only); throws SpoolError on a missing or corrupt frame.
    void load_logged(StepData& item, bool instr);

    // Observability instruments, resolved once per stream (label stream=name)
    // from the global registry in the constructor; the registry guarantees
    // pointer stability, so the hot path touches only atomics.  See
    // docs/OBSERVABILITY.md for the metric reference.
    struct Instruments {
        obs::Counter* steps_assembled = nullptr;
        obs::Counter* steps_retired = nullptr;
        obs::Counter* steps_replayed = nullptr;
        obs::Counter* steps_skipped = nullptr;
        obs::Counter* replay_suppressed = nullptr;
        obs::Counter* aborts = nullptr;
        obs::Gauge* queue_depth = nullptr;
        obs::Gauge* blocked_push_seconds = nullptr;
        obs::Gauge* blocked_pushes = nullptr;
        obs::Gauge* blocked_pop_seconds = nullptr;
        obs::Gauge* read_ahead_depth = nullptr;
        obs::Histogram* backpressure_wait = nullptr;
        obs::Histogram* acquire_wait = nullptr;
        obs::Histogram* prefetch_wait = nullptr;
        obs::Histogram* spool_read_seconds = nullptr;
    };
    Instruments ins_;
};

/// Process-wide registry of streams by name.  A workflow owns one Fabric;
/// components receive it through their run context (the reproduction's
/// stand-in for the EVPath connection manager).
class Fabric {
public:
    Fabric() = default;
    Fabric(const Fabric&) = delete;
    Fabric& operator=(const Fabric&) = delete;

    /// Returns the stream named `name`, creating it on first use (from
    /// either the writer or the reader side — launch-order independence).
    std::shared_ptr<Stream> get(const std::string& name);

    /// Names of all streams ever opened (diagnostics).
    std::vector<std::string> stream_names() const;

    /// Aborts every stream (see Stream::abort), including any first opened
    /// afterwards: a component that opens its stream only after a peer
    /// failed must unwind, not wait for a reader that will never come.
    void abort_all();

private:
    mutable std::mutex mu_;
    std::map<std::string, std::shared_ptr<Stream>> streams_;
    bool aborted_ = false;  // guarded by mu_
};

}  // namespace sb::flexpath
