#include "flexpath/stream.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <tuple>

#include "check/mutex.hpp"
#include "check/waits.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace sb::flexpath {

namespace {

/// Stalls shorter than this are aggregated into the histograms but not
/// worth an individual slice in the timeline view.
constexpr double kStallSliceSeconds = 10e-6;

constexpr std::size_t kDefaultReadAhead = 2;

}  // namespace

std::size_t resolve_read_ahead(const StreamOptions& opts) {
    if (opts.read_ahead > 0) return opts.read_ahead;
    const char* v = std::getenv("SB_READ_AHEAD");
    if (!v) return kDefaultReadAhead;
    const std::string s(v);
    if (s == "off" || s == "0" || s == "false") return 1;
    char* end = nullptr;
    const unsigned long n = std::strtoul(s.c_str(), &end, 10);
    if (end != s.c_str() && *end == '\0' && n > 0) return static_cast<std::size_t>(n);
    return kDefaultReadAhead;
}

double resolve_liveness_seconds(const StreamOptions& opts) {
    if (opts.liveness_ms >= 0.0) return opts.liveness_ms / 1e3;
    const char* v = std::getenv("SB_LIVENESS_MS");
    if (!v) return 0.0;
    const std::string s(v);
    if (s == "off" || s == "0" || s == "false") return 0.0;
    char* end = nullptr;
    const double ms = std::strtod(s.c_str(), &end);
    if (end != s.c_str() && *end == '\0' && ms > 0.0) return ms / 1e3;
    return 0.0;
}

const StepMeta& StepData::decoded_meta() const {
    const std::lock_guard lock(meta_cache_->mu);
    if (!meta_cache_->decoded) {
        meta_cache_->meta = decode_step_meta(meta);
        meta_cache_->decoded = true;
    }
    return meta_cache_->meta;
}

// ---- step metadata <-> FFS wire format -----------------------------------

ffs::Bytes encode_step_meta(const StepMeta& m) {
    ffs::Record rec(ffs::TypeDescriptor{"smartblock.step_meta", {}});
    rec.add_scalar<std::uint64_t>("step", m.step);

    std::vector<std::string> var_names;
    var_names.reserve(m.vars.size());
    for (const auto& [name, decl] : m.vars) {
        var_names.push_back(name);
        rec.add_scalar<std::int32_t>("v." + name + ".kind",
                                     static_cast<std::int32_t>(decl.kind));
        rec.add_array<std::uint64_t>("v." + name + ".shape",
                                     decl.global_shape.dims(),
                                     {decl.global_shape.ndim()});
        rec.add_strings("v." + name + ".labels", decl.dim_labels);
    }
    rec.add_strings("vars", std::move(var_names));

    std::vector<std::string> sattr_names;
    for (const auto& [name, vals] : m.string_attrs) {
        sattr_names.push_back(name);
        rec.add_strings("as." + name, vals);
    }
    rec.add_strings("sattrs", std::move(sattr_names));

    std::vector<std::string> dattr_names;
    for (const auto& [name, val] : m.double_attrs) {
        dattr_names.push_back(name);
        rec.add_scalar<double>("ad." + name, val);
    }
    rec.add_strings("dattrs", std::move(dattr_names));

    return ffs::encode(rec);
}

StepMeta decode_step_meta(std::span<const std::byte> wire) {
    const ffs::Record rec = ffs::decode(wire);
    StepMeta m;
    m.step = rec.get_scalar<std::uint64_t>("step");
    for (const std::string& name : rec.get_strings("vars")) {
        VarDecl d;
        d.name = name;
        d.kind = static_cast<DataKind>(rec.get_scalar<std::int32_t>("v." + name + ".kind"));
        d.global_shape = util::NdShape(rec.get_array<std::uint64_t>("v." + name + ".shape"));
        d.dim_labels = rec.get_strings("v." + name + ".labels");
        m.vars.emplace(name, std::move(d));
    }
    for (const std::string& name : rec.get_strings("sattrs")) {
        m.string_attrs.emplace(name, rec.get_strings("as." + name));
    }
    for (const std::string& name : rec.get_strings("dattrs")) {
        m.double_attrs.emplace(name, rec.get_scalar<double>("ad." + name));
    }
    return m;
}

// ---- step block encoding (durable-log frame payload) -----------------------

namespace {

/// Builds the spool record *borrowing* every block payload: the record holds
/// spans into the blocks, so `blocks` must outlive it.  No payload is copied
/// until (unless) the record is actually serialized.
ffs::Record make_spool_record(const std::map<std::string, std::vector<Block>>& blocks) {
    ffs::Record rec(ffs::TypeDescriptor{"smartblock.spool", {}});
    std::uint64_t i = 0;
    for (const auto& [var, blks] : blocks) {
        for (const Block& b : blks) {
            const std::string p = "b" + std::to_string(i++);
            rec.add_strings(p + ".var", {var});
            rec.add_array<std::uint64_t>(p + ".offset", b.box.offset,
                                         {b.box.offset.size()});
            rec.add_array<std::uint64_t>(p + ".count", b.box.count,
                                         {b.box.count.size()});
            rec.add_borrowed(p + ".data", ffs::Kind::Byte, {b.data->size()}, *b.data);
        }
    }
    rec.add_scalar<std::uint64_t>("nblocks", i);
    return rec;
}

}  // namespace

ffs::Bytes encode_step_blocks(const std::map<std::string, std::vector<Block>>& blocks) {
    return ffs::encode(make_spool_record(blocks));
}

std::map<std::string, std::vector<Block>> decode_step_blocks(
    std::span<const std::byte> wire) {
    ffs::Record rec = ffs::decode(wire);
    std::map<std::string, std::vector<Block>> out;
    const std::uint64_t n = rec.get_scalar<std::uint64_t>("nblocks");
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::string p = "b" + std::to_string(i);
        Block b;
        b.box.offset = rec.get_array<std::uint64_t>(p + ".offset");
        b.box.count = rec.get_array<std::uint64_t>(p + ".count");
        // Adopt the decoded payload: one copy from the wire total, instead
        // of wire -> record -> block.
        b.data = std::make_shared<const std::vector<std::byte>>(
            rec.take_bytes(p + ".data"));
        out[rec.get_strings(p + ".var").at(0)].push_back(std::move(b));
    }
    return out;
}

// ---- Stream ----------------------------------------------------------------

Stream::Stream(std::string name)
    : name_(std::move(name)), mu_("flexpath.Stream('" + name_ + "').mu") {
    auto& reg = obs::Registry::global();
    const obs::Labels labels{{"stream", name_}};
    ins_.steps_assembled = &reg.counter("flexpath.steps_assembled", labels);
    ins_.steps_retired = &reg.counter("flexpath.steps_retired", labels);
    ins_.steps_replayed = &reg.counter("flexpath.steps_replayed", labels);
    ins_.steps_skipped = &reg.counter("flexpath.steps_skipped", labels);
    ins_.replay_suppressed = &reg.counter("flexpath.replay_suppressed", labels);
    ins_.aborts = &reg.counter("flexpath.aborts", labels);
    ins_.queue_depth = &reg.gauge("flexpath.queue_depth", labels);
    ins_.blocked_push_seconds = &reg.gauge("flexpath.queue_blocked_push_seconds", labels);
    ins_.blocked_pushes = &reg.gauge("flexpath.queue_blocked_pushes", labels);
    ins_.blocked_pop_seconds = &reg.gauge("flexpath.queue_blocked_pop_seconds", labels);
    ins_.read_ahead_depth = &reg.gauge("flexpath.read_ahead_depth", labels);
    ins_.backpressure_wait = &reg.histogram("flexpath.backpressure_wait_seconds", labels);
    ins_.acquire_wait = &reg.histogram("flexpath.acquire_wait_seconds", labels);
    ins_.prefetch_wait = &reg.histogram("flexpath.prefetch_wait_seconds", labels);
    ins_.spool_read_seconds = &reg.histogram("flexpath.spool_read_seconds", labels);
}

Stream::~Stream() {
    {
        std::lock_guard lock(mu_);
        shutdown_ = true;
        if (queue_) queue_->close();
        prefetch_cv_.notify_all();
        reader_cv_.notify_all();
    }
    if (prefetcher_.joinable()) prefetcher_.join();
}

void Stream::open_durable(const StreamOptions& opts) {
    std::lock_guard lock(mu_);
    open_durable_locked(opts);
}

void Stream::open_durable_locked(const StreamOptions& opts) {
    if (log_ || opts.durable.dir.empty()) return;
    auto log = std::make_unique<durable::Log>(name_, opts.durable);
    // Recovered state is only installed into a pristine stream (nothing
    // assembled or fetched yet) — the cold-restart / late-join paths.  A
    // stream already streaming keeps its live state and just starts
    // appending.
    const bool pristine = next_step_ == 0 && next_fetch_ == 0 &&
                          window_.empty() && pending_.empty();
    if (pristine && (log->next_step() > 0 || log->complete())) {
        next_step_ = log->next_step();
        layout_gen_ = log->max_layout_gen();
        const std::uint64_t base =
            opts.durable.replay_history ? 0 : log->acked();
        window_base_ = base;
        demand_ = base;
        // A step whose frame was quarantined (or lost entirely) goes
        // through the same data-loss policy as a warm-path shed.
        const auto drop = [&](std::uint64_t step, std::uint64_t layout_gen,
                              const ffs::Bytes* meta) {
            if (opts.on_data_loss == OnDataLoss::ZeroFill && meta != nullptr) {
                auto data = std::make_shared<StepData>();
                data->step = step;
                data->meta = *meta;
                data->layout_gen = layout_gen;
                data->lossy = true;
                window_.push_back(InFlight{window_base_ + window_.size(),
                                           std::move(data), 0, true});
                ++lost_steps_;
                ins_.steps_skipped->inc();
                return;
            }
            if (opts.on_data_loss == OnDataLoss::Fail) {
                // An unloaded entry whose reload throws the frame's
                // SpoolError: the poisoned-prefetch machinery surfaces it
                // from acquire(), exactly like any failed reload.
                auto data = std::make_shared<StepData>();
                data->step = step;
                data->layout_gen = layout_gen;
                data->in_log = true;
                window_.push_back(InFlight{window_base_ + window_.size(),
                                           std::move(data), 0, false});
                return;
            }
            // Skip (or ZeroFill with no surviving metadata): the step
            // vacates its reader cursor.
            recovery_skipped_.push_back(step);
            ++lost_steps_;
            ins_.steps_skipped->inc();
        };
        std::uint64_t expect = base;
        for (const durable::RecoveredStep& rs : log->recovered()) {
            while (expect < rs.step) {  // frame lost entirely (resync gap)
                drop(expect, layout_gen_, nullptr);
                ++expect;
            }
            if (rs.state == durable::RecoveredStep::State::Ok) {
                auto data = std::make_shared<StepData>();
                data->step = rs.step;
                data->layout_gen = rs.layout_gen;
                data->in_log = true;
                window_.push_back(InFlight{window_base_ + window_.size(),
                                           std::move(data), 0, false});
            } else {
                drop(rs.step, rs.layout_gen, &rs.meta);
            }
            ++expect;
        }
        while (expect < next_step_) {  // lost after the last surviving frame
            drop(expect, layout_gen_, nullptr);
            ++expect;
        }
        next_fetch_ = window_base_ + window_.size();
        if (log->complete()) eos_ = true;
        SB_LOG(Info) << "stream " << name_ << ": durable recovery installed "
                     << window_.size() << " step(s) at cursor " << window_base_
                     << " (next step " << next_step_ << ", "
                     << recovery_skipped_.size() << " skipped"
                     << (eos_ ? ", complete)" : ")");
    }
    log_ = std::move(log);
}

durable::Log* Stream::durable_log() const {
    std::lock_guard lock(mu_);
    return log_.get();
}

void Stream::set_cold_source_replay() {
    std::lock_guard lock(mu_);
    cold_source_replay_ = true;
}

std::uint64_t Stream::reader_cursor_for_step(std::uint64_t step) const {
    std::lock_guard lock(mu_);
    std::uint64_t skipped = 0;
    for (const std::uint64_t s : recovery_skipped_) {
        if (s < step) ++skipped;
    }
    return step - skipped;
}

void Stream::attach_writer(int nranks, const StreamOptions& opts) {
    if (nranks <= 0) throw std::invalid_argument("attach_writer: nranks must be positive");
    std::lock_guard lock(mu_);
    if (writer_size_ == 0) {
        open_durable_locked(opts);  // no-op when Workflow already opened it
        writer_size_ = nranks;
        opts_ = opts;
        read_ahead_ = resolve_read_ahead(opts);
        liveness_s_ = resolve_liveness_seconds(opts);
        // A relaunched process resumes submitting at the durable frontier
        // (next_step_ is 0 on a fresh stream, reproducing the seed).
        rank_submits_.assign(static_cast<std::size_t>(nranks), next_step_);
        if (cold_source_replay_) {
            // A restarted source regenerates from step 0; the log already
            // holds the first next_step_ of them.
            replay_drop_.assign(static_cast<std::size_t>(nranks), next_step_);
            cold_source_replay_ = false;
        }
        queue_ = std::make_unique<util::BoundedQueue<StepData>>(opts.queue_capacity,
                                                                name_);
        // Readers blocked in acquire() are woken by the prefetcher once it
        // delivers a step; the prefetcher itself may already be idling
        // (attach_reader ran first), so hand it the new queue.
        start_prefetcher_locked();
        prefetch_cv_.notify_all();
    } else if (writer_size_ != nranks) {
        throw std::logic_error("stream '" + name_ +
                               "': writer ranks disagree on group size");
    }
}

void Stream::merge_locked(Contribution& dst, Contribution&& c) {
    for (auto& [name, decl] : c.var_decls) {
        auto [it, inserted] = dst.var_decls.try_emplace(name, decl);
        if (!inserted && !(it->second == decl)) {
            throw std::logic_error("stream '" + name_ + "': writer ranks disagree on variable '" +
                                   name + "' declaration");
        }
    }
    for (auto& [name, blks] : c.blocks) {
        auto& dstblks = dst.blocks[name];
        for (auto& b : blks) {
            if (!b.box.empty()) dstblks.push_back(std::move(b));
        }
    }
    for (auto& [name, vals] : c.string_attrs) {
        auto [it, inserted] = dst.string_attrs.try_emplace(name, vals);
        if (!inserted && it->second != vals) {
            throw std::logic_error("stream '" + name_ +
                                   "': writer ranks disagree on attribute '" + name + "'");
        }
    }
    for (auto& [name, val] : c.double_attrs) {
        auto [it, inserted] = dst.double_attrs.try_emplace(name, val);
        if (!inserted && it->second != val) {
            throw std::logic_error("stream '" + name_ +
                                   "': writer ranks disagree on attribute '" + name + "'");
        }
    }
}

StepData Stream::assemble_locked(std::uint64_t step) {
    Contribution pending = std::move(pending_.at(step));
    pending_.erase(step);
    pending_counts_.erase(step);

    StepMeta meta;
    meta.step = step;
    meta.vars = pending.var_decls;
    meta.string_attrs = pending.string_attrs;
    meta.double_attrs = pending.double_attrs;

    // Validate blocks against declarations.
    for (const auto& [name, blks] : pending.blocks) {
        const auto it = meta.vars.find(name);
        if (it == meta.vars.end()) {
            throw std::logic_error("stream '" + name_ + "': data for undeclared variable '" +
                                   name + "'");
        }
        for (const Block& b : blks) {
            if (!b.box.within(it->second.global_shape)) {
                throw std::logic_error("stream '" + name_ + "': block " + b.box.to_string() +
                                       " outside global shape " +
                                       it->second.global_shape.to_string() +
                                       " of variable '" + name + "'");
            }
        }
    }

    StepData sd;
    sd.step = step;
    sd.meta = encode_step_meta(meta);
    sd.blocks = std::move(pending.blocks);

    // Deterministic block order: contributions arrive in rank-arrival order,
    // which varies step to step; sorting by box makes "same layout" mean
    // "same block at the same index", which is what lets reader-side copy
    // plans reference blocks by index across steps of one generation.
    //
    // Fast path: when every var matches the cached layout (same var set,
    // shape, block count, every box known), each block is *placed* at its
    // cached sorted position instead of re-sorted, and by construction the
    // layout is unchanged — layout_gen_ stays put without building and
    // comparing a full layout signature every step.
    bool cache_hit = layout_gen_ != 0 && sd.blocks.size() == layout_cache_.size();
    if (cache_hit) {
        for (auto& [name, blks] : sd.blocks) {
            const auto it = layout_cache_.find(name);
            if (it == layout_cache_.end() || !it->second.usable ||
                it->second.sorted_boxes.size() != blks.size() ||
                !(it->second.shape == meta.vars.at(name).global_shape)) {
                cache_hit = false;
                break;
            }
        }
    }
    if (cache_hit) {
        for (auto& [name, blks] : sd.blocks) {
            const VarLayoutCache& cache = layout_cache_.at(name);
            scratch_blocks_.clear();
            scratch_blocks_.resize(blks.size());
            bool placed_all = true;
            for (Block& b : blks) {
                const auto pos = cache.index.find(b.box);
                if (pos == cache.index.end() ||
                    scratch_blocks_[pos->second].data != nullptr) {
                    placed_all = false;
                    break;
                }
                scratch_blocks_[pos->second] = std::move(b);
            }
            if (!placed_all) {
                // Partitioning changed (or this step duplicates a box).
                // Move the blocks already in the scratch back into the
                // vacated slots (data == nullptr marks moved-from; order is
                // irrelevant, the sort path below canonicalizes everything).
                std::size_t si = 0;
                for (Block& slot : blks) {
                    if (slot.data != nullptr) continue;
                    while (si < scratch_blocks_.size() &&
                           scratch_blocks_[si].data == nullptr) {
                        ++si;
                    }
                    if (si == scratch_blocks_.size()) break;
                    slot = std::move(scratch_blocks_[si++]);
                }
                cache_hit = false;
                break;
            }
            blks.swap(scratch_blocks_);
        }
    }
    if (!cache_hit) {
        for (auto& [name, blks] : sd.blocks) {
            std::sort(blks.begin(), blks.end(), [](const Block& a, const Block& b) {
                return std::tie(a.box.offset, a.box.count) <
                       std::tie(b.box.offset, b.box.count);
            });
        }
        // Layout generation: bump when any variable's shape or block
        // partitioning differs from the previous step, and rebuild the
        // sorted-order cache to match.
        bool same = layout_gen_ != 0 && sd.blocks.size() == layout_cache_.size();
        if (same) {
            for (const auto& [name, blks] : sd.blocks) {
                const auto it = layout_cache_.find(name);
                if (it == layout_cache_.end() ||
                    !(it->second.shape == meta.vars.at(name).global_shape) ||
                    it->second.sorted_boxes.size() != blks.size()) {
                    same = false;
                    break;
                }
                for (std::size_t i = 0; i < blks.size(); ++i) {
                    if (!(blks[i].box == it->second.sorted_boxes[i])) {
                        same = false;
                        break;
                    }
                }
                if (!same) break;
            }
        }
        if (!same) {
            ++layout_gen_;
            layout_cache_.clear();
            for (const auto& [name, blks] : sd.blocks) {
                VarLayoutCache& cache = layout_cache_[name];
                cache.shape = meta.vars.at(name).global_shape;
                cache.sorted_boxes.reserve(blks.size());
                for (std::size_t i = 0; i < blks.size(); ++i) {
                    cache.sorted_boxes.push_back(blks[i].box);
                    if (!cache.index.emplace(blks[i].box, i).second) {
                        cache.usable = false;  // duplicate box: always sort
                    }
                }
            }
        }
    }
    sd.layout_gen = layout_gen_;
    return sd;
}

void Stream::abort() {
    std::lock_guard lock(mu_);
    if (aborted_) return;
    aborted_ = true;
    ins_.aborts->inc();
    if (queue_) queue_->close();
    reader_cv_.notify_all();
    prefetch_cv_.notify_all();
}

void Stream::submit(int rank, Contribution c) {
    fault::hit("flexpath.publish", name_);
    std::optional<StepData> completed;
    double assemble_t0 = 0.0;
    durable::Log* log = nullptr;
    {
        std::lock_guard lock(mu_);
        log = log_.get();
        if (aborted_) throw StreamAborted(name_);
        if (writer_size_ == 0) {
            throw std::logic_error("stream '" + name_ + "': submit before attach_writer");
        }
        if (rank < 0 || rank >= writer_size_) {
            throw std::out_of_range("stream '" + name_ + "': bad writer rank");
        }
        // Replay suppression: a restarted source regenerates its
        // deterministic sequence from step 0, but the stream already
        // assembled the first writer_resume_step() of them — drop those
        // re-submissions without assigning them a step.
        if (!replay_drop_.empty() &&
            replay_drop_[static_cast<std::size_t>(rank)] > 0) {
            --replay_drop_[static_cast<std::size_t>(rank)];
            ins_.replay_suppressed->inc();
            return;
        }
        // This rank's n-th submit always belongs to step n, regardless of
        // how far ahead of its peers the rank is running.
        const std::uint64_t step = rank_submits_[static_cast<std::size_t>(rank)]++;
        if (obs::enabled() && !pending_counts_.count(step)) {
            pending_t0_[step] = obs::steady_seconds();  // assembly window opens
        }
        merge_locked(pending_[step], std::move(c));
        if (++pending_counts_[step] == writer_size_) {
            // Every rank submits steps in order, so steps complete in
            // order: this must be the next step to queue.
            if (step != next_step_) {
                throw std::logic_error("stream '" + name_ + "': step " +
                                       std::to_string(step) +
                                       " completed out of order");
            }
            ++next_step_;
            completed = assemble_locked(step);
            const auto pt = pending_t0_.find(step);
            if (pt != pending_t0_.end()) {
                assemble_t0 = pt->second;
                pending_t0_.erase(pt);
            }
        }
    }
    if (completed) {
        const bool instr = obs::enabled();
        ins_.steps_assembled->inc();
        if (instr && assemble_t0 > 0.0) {
            // Step span: first contribution -> fully assembled.  The actor
            // is the producing component instance (the submitting thread's
            // ScopedActor label, set by the workflow).
            obs::SpanStore::global().record(name_, completed->step,
                                            obs::SegmentKind::Assemble,
                                            assemble_t0, obs::steady_seconds(),
                                            rank);
        }
        // Durable log: park the step's data on disk so deep buffers stay
        // memory-bounded; readers load it back on acquire.  The record
        // borrows the block payloads and encode_segments splices them into
        // the stream of header bytes, so the bulk data goes record -> disk
        // with no intermediate packet copy — byte-identical to the
        // contiguous encode_step_blocks() packet.
        if (log != nullptr) {
            const ffs::Record spool_rec = make_spool_record(completed->blocks);
            const ffs::EncodedSegments segs = ffs::encode_segments(spool_rec);
            log->append_step(completed->step, completed->layout_gen,
                             completed->meta, segs);
            completed->blocks.clear();
            completed->in_log = true;
        }
        // Pushed outside mu_ so other ranks can begin the next step while
        // this (last-arriving) rank blocks on a full queue — backpressure
        // lands exactly where FlexPath's bounded writer-side buffer puts it.
        SB_LOG(Debug) << "stream " << name_ << ": step " << completed->step << " queued";
        const std::uint64_t step_id = completed->step;
        const double push_t0 = instr ? obs::steady_seconds() : 0.0;
        // The queue-residency span opens at push start, so it includes any
        // backpressure wait (documented in StepData::t_enqueued; the
        // critical-path analyzer never uses Queue, so no double count).
        completed->t_enqueued = push_t0;
        try {
            if (liveness_s_ > 0.0) {
                if (!queue_->try_push_for(*completed, liveness_s_)) {
                    // No consumer progress for the whole liveness interval:
                    // presume the reader group hung/died rather than block
                    // this writer forever.
                    throw PeerLivenessError(
                        "stream '" + name_ + "': no reader progress within " +
                        std::to_string(liveness_s_ * 1e3) +
                        " ms (queue full at step " +
                        std::to_string(completed->step) + ")");
                }
            } else {
                queue_->push(std::move(*completed));
            }
        } catch (const util::QueueAborted&) {
            // The queue only closes on abort (writers close after their
            // last submit, never during one).
            throw StreamAborted(name_);
        }
        if (instr) {
            const double push_t1 = obs::steady_seconds();
            const double waited = push_t1 - push_t0;
            ins_.backpressure_wait->observe(waited);
            ins_.queue_depth->set(static_cast<double>(queue_->size()));
            ins_.blocked_push_seconds->set(queue_->blocked_push_seconds());
            ins_.blocked_pushes->set(static_cast<double>(queue_->blocked_pushes()));
            auto& tl = obs::TraceLog::global();
            tl.counter("queue depth", name_, static_cast<double>(queue_->size()));
            if (waited >= kStallSliceSeconds) {
                tl.slice("backpressure", name_, "backpressure", push_t0, push_t1,
                         step_id);
            }
            obs::SpanStore::global().record(name_, step_id,
                                            obs::SegmentKind::BackpressureOut,
                                            push_t0, push_t1, rank);
        }
    }
}

void Stream::close_writer(int rank) {
    std::lock_guard lock(mu_);
    if (aborted_) return;  // nothing left to signal
    if (writer_size_ == 0 || rank < 0 || rank >= writer_size_) {
        throw std::logic_error("stream '" + name_ + "': close_writer before attach");
    }
    if (++writers_closed_ == writer_size_) {
        if (!pending_.empty()) {
            throw std::logic_error("stream '" + name_ +
                                   "': writer group closed with " +
                                   std::to_string(pending_.size()) +
                                   " incomplete step(s)");
        }
        queue_->close();
        // Durably mark the clean close, so a replayed reader of the
        // recovered log terminates instead of waiting for a writer.
        if (log_) log_->append_eos();
        SB_LOG(Debug) << "stream " << name_ << ": writer group closed";
    }
}

void Stream::detach_writer(bool source_replays_from_zero) {
    std::lock_guard lock(mu_);
    if (writer_size_ == 0) return;
    if (!pending_.empty()) {
        SB_LOG(Warn) << "stream " << name_ << ": discarding " << pending_.size()
                     << " partial step(s) from a dead writer incarnation";
    }
    // Roll back to the assembly frontier: everything short of a fully
    // assembled step is regenerated by the relaunched incarnation.
    pending_.clear();
    pending_counts_.clear();
    pending_t0_.clear();
    for (auto& s : rank_submits_) s = next_step_;
    writers_closed_ = 0;
    if (source_replays_from_zero) {
        replay_drop_.assign(static_cast<std::size_t>(writer_size_), next_step_);
    }
}

std::uint64_t Stream::writer_resume_step() const {
    std::lock_guard lock(mu_);
    return next_step_;
}

std::uint64_t Stream::attach_reader(int nranks) {
    if (nranks <= 0) throw std::invalid_argument("attach_reader: nranks must be positive");
    std::lock_guard lock(mu_);
    if (reader_size_ == 0) {
        reader_size_ = nranks;
        start_prefetcher_locked();
    } else if (reader_detached_) {
        // A replacement group reattaches; it may be a different size (the
        // supervisor relaunches with the same count today, but the stream
        // does not care — acknowledgement counts were voided on detach).
        reader_size_ = nranks;
        reader_detached_ = false;
        if (!window_.empty()) {
            ins_.steps_replayed->add(window_.size());
            SB_LOG(Info) << "stream " << name_ << ": reader reattached, replaying "
                         << window_.size() << " retained step(s) from cursor "
                         << window_base_;
            if (obs::enabled()) {
                obs::TraceLog::global().slice("replay", name_, "restart",
                                              detach_t0_, obs::steady_seconds(),
                                              window_base_);
            }
        }
        demand_ = window_base_;
        prefetch_cv_.notify_all();  // deferred log reloads may now proceed
    } else if (reader_size_ != nranks) {
        throw std::logic_error("stream '" + name_ +
                               "': reader ranks disagree on group size");
    }
    return window_base_;
}

void Stream::detach_reader() {
    std::lock_guard lock(mu_);
    if (reader_size_ == 0 || reader_detached_ || aborted_) return;
    reader_detached_ = true;
    detach_t0_ = obs::steady_seconds();
    // Void partial acknowledgements: a step not released by *every* rank of
    // the dead incarnation is replayed in full to the replacement group.
    for (auto& e : window_) e.released = 0;
    demand_ = window_base_;
    prefetch_cv_.notify_all();  // switch the prefetcher into retention mode
    SB_LOG(Info) << "stream " << name_ << ": reader detached with "
                 << window_.size() << " step(s) retained (cursor "
                 << window_base_ << ")";
}

void Stream::skip_reader_to(std::uint64_t cursor) {
    durable::Log* log = nullptr;
    std::uint64_t ack_step = 0;
    {
        std::lock_guard lock(mu_);
        if (cursor <= window_base_) return;
        if (cursor > window_base_ + window_.size()) {
            throw std::logic_error(
                "stream '" + name_ + "': skip_reader_to(" + std::to_string(cursor) +
                ") beyond fetched window [" + std::to_string(window_base_) + ", " +
                std::to_string(window_base_ + window_.size()) + ")");
        }
        while (window_base_ < cursor) {
            InFlight& front = window_.front();
            if (front.loaded && front.data && !front.data->lossy &&
                !front.data->blocks.empty()) {
                --window_payloads_;
            }
            if (front.data) {
                log = log_.get();
                ack_step = front.data->step + 1;
            }
            window_.pop_front();
            ++window_base_;
            ins_.steps_retired->inc();
        }
        demand_ = std::max(demand_, window_base_);
        prefetch_cv_.notify_all();
    }
    // Acknowledge off mu_ (the log serializes internally; recovery takes
    // the max frontier, so interleaved acks are harmless).
    if (log != nullptr) {
        log->append_ack(ack_step);
        log->collect(ack_step);
    }
}

void Stream::start_prefetcher_locked() {
    // Needs both sides: the reader group size bounds retirement, the queue
    // exists once a writer attached.  Whichever attach completes the pair
    // starts the thread.  A recovered durable log substitutes for the
    // writer side: its installed window entries still need reloading even
    // if no writer ever attaches (a late-joining reader of a finished
    // stream).
    if (prefetcher_started_ || reader_size_ == 0 || (!queue_ && !log_)) return;
    if (aborted_ || shutdown_) return;
    prefetcher_started_ = true;
    prefetcher_ = std::thread([this] { prefetch_loop(); });
}

namespace {

/// Whether a window entry holds in-memory block data (counts against the
/// retention bound).
bool entry_has_payload(const Stream&, const std::shared_ptr<StepData>& data,
                       bool loaded) {
    return loaded && data && !data->lossy && !data->blocks.empty();
}

}  // namespace

void Stream::shed_retained_locked() {
    // Log-backed streams park on disk instead of dropping; Fail never drops.
    if (opts_.on_data_loss == OnDataLoss::Fail || log_) return;
    while (window_payloads_ >= read_ahead_ + opts_.retain_steps) {
        if (opts_.on_data_loss == OnDataLoss::Skip) {
            if (window_.empty()) break;
            InFlight& front = window_.front();
            if (entry_has_payload(*this, front.data, front.loaded)) {
                --window_payloads_;
            }
            SB_LOG(Warn) << "stream " << name_ << ": retention exhausted, skipping "
                         << "step at cursor " << front.cursor;
            window_.pop_front();
            ++window_base_;
            ++lost_steps_;
            ins_.steps_skipped->inc();
        } else {  // ZeroFill: the oldest payload-bearing step loses its data
            bool found = false;
            for (auto& e : window_) {
                if (!entry_has_payload(*this, e.data, e.loaded)) continue;
                SB_LOG(Warn) << "stream " << name_
                             << ": retention exhausted, zero-filling step at cursor "
                             << e.cursor;
                e.data->blocks.clear();
                e.data->lossy = true;
                --window_payloads_;
                ++lost_steps_;
                ins_.steps_skipped->inc();
                found = true;
                break;
            }
            if (!found) break;
        }
    }
}

void Stream::prefetch_loop() {
    check::ThreadLabel label("prefetch:" + name_);
    std::unique_lock lock(mu_);
    for (;;) {
        // Oldest log-parked window entry a reader wants soon; reloads are
        // deferred entirely while the reader group is detached.
        const auto reload_index = [&]() -> std::ptrdiff_t {
            if (reader_detached_) return -1;
            for (std::size_t i = 0; i < window_.size(); ++i) {
                if (window_[i].loaded) continue;
                if (window_[i].cursor < demand_ + read_ahead_) {
                    return static_cast<std::ptrdiff_t>(i);
                }
                return -1;  // entries are cursor-ordered
            }
            return -1;
        };
        const auto unloaded_any = [&] {
            for (const auto& e : window_) {
                if (!e.loaded) return true;
            }
            return false;
        };
        const auto can_fetch = [&] {
            if (eos_) return false;
            if (!queue_) return false;  // no writer yet (log-only replay)
            if (!reader_detached_) {
                return window_.size() < read_ahead_ &&
                       next_fetch_ < demand_ + (read_ahead_ - 1);
            }
            // Retention mode: keep draining the writer.  Log-backed streams
            // park further steps on disk, so only in-memory payloads count
            // against the retention bound; past it the data-loss policy
            // decides whether to shed (Fail = stop fetching, apply
            // backpressure to the writer instead).
            if (log_) return true;
            if (window_payloads_ < read_ahead_ + opts_.retain_steps) return true;
            return opts_.on_data_loss != OnDataLoss::Fail;
        };
        const auto ready = [&] {
            return shutdown_ || aborted_ || reload_index() >= 0 || can_fetch() ||
                   (eos_ && !unloaded_any());
        };
        if (!ready()) {
            // Idle (window full, or no demand yet at read_ahead=1): list the
            // wait in the wait-for table so stall dumps explain the pipeline
            // state, but never report it as a stall itself — an idle
            // prefetcher is readers not draining, not blocked progress.
            if (check::enabled()) {
                const check::ScopedWait wait(
                    check::WaitKind::StreamPrefetch,
                    "stream '" + name_ + "' prefetch cursor=" +
                        std::to_string(next_fetch_) + " window=" +
                        std::to_string(window_.size()) + "/" +
                        std::to_string(read_ahead_) + " demand=" +
                        std::to_string(demand_));
                prefetch_cv_.wait(lock, ready);
            } else {
                prefetch_cv_.wait(lock, ready);
            }
        }
        if (shutdown_ || aborted_) return;
        if (eos_ && !unloaded_any()) return;  // drained and fully loaded
        const bool instr = obs::enabled();

        // Log reload of a window entry whose data was deferred while the
        // reader group was detached (the I/O runs off mu_, like a fetch).
        const std::ptrdiff_t ri = reload_index();
        if (ri >= 0) {
            // Held by shared_ptr: the entry cannot vanish under us (release
            // only retires *loaded* steps, and we are attached, so no shed).
            std::shared_ptr<StepData> data =
                window_[static_cast<std::size_t>(ri)].data;
            const std::uint64_t cursor =
                window_[static_cast<std::size_t>(ri)].cursor;
            lock.unlock();
            try {
                load_logged(*data, instr);
            } catch (...) {
                lock.lock();
                prefetch_error_ = std::current_exception();
                aborted_ = true;
                if (queue_) queue_->close();
                reader_cv_.notify_all();
                return;
            }
            lock.lock();
            if (shutdown_ || aborted_) return;
            // Re-find by cursor: skip_reader_to may have advanced the base.
            if (cursor >= window_base_ && cursor < window_base_ + window_.size()) {
                InFlight& e = window_[static_cast<std::size_t>(cursor - window_base_)];
                e.loaded = true;
                if (entry_has_payload(*this, e.data, e.loaded)) ++window_payloads_;
                reader_cv_.notify_all();
            }
            continue;
        }
        if (!can_fetch()) continue;  // woken for a reload that got skipped

        // Log reloads of freshly popped steps are deferred while detached:
        // retained data stays parked on disk until a replacement group
        // reattaches and actually demands it.
        const bool defer_reload = reader_detached_;
        util::BoundedQueue<StepData>* queue = queue_.get();
        lock.unlock();

        // Both the (blocking) queue pop and the log reload run off mu_:
        // reader ranks keep acquiring/releasing window steps while the next
        // step is fetched and decoded.
        const double pop_t0 = instr ? obs::steady_seconds() : 0.0;
        std::optional<StepData> item = queue->pop();  // blocks, own cv
        if (instr) {
            const double pop_t1 = obs::steady_seconds();
            const double waited = pop_t1 - pop_t0;
            ins_.prefetch_wait->observe(waited);
            ins_.queue_depth->set(static_cast<double>(queue->size()));
            ins_.blocked_pop_seconds->set(queue->blocked_pop_seconds());
            auto& tl = obs::TraceLog::global();
            tl.counter("queue depth", name_, static_cast<double>(queue->size()));
            if (waited >= kStallSliceSeconds) {
                tl.slice("prefetch wait", name_, "prefetch", pop_t0, pop_t1,
                         item ? item->step : 0);
            }
            if (item && item->t_enqueued > 0.0) {
                obs::SpanStore::global().record(name_, item->step,
                                                obs::SegmentKind::Queue,
                                                item->t_enqueued, pop_t1);
            }
        }
        bool loaded = true;
        if (item && item->in_log) {
            if (defer_reload) {
                loaded = false;
            } else {
                try {
                    load_logged(*item, instr);
                } catch (...) {
                    // A fetch failure poisons the stream: readers rethrow the
                    // original error from acquire(), writers unwind through
                    // the closed queue.
                    lock.lock();
                    prefetch_error_ = std::current_exception();
                    aborted_ = true;
                    if (queue_) queue_->close();
                    reader_cv_.notify_all();
                    return;
                }
            }
        }

        lock.lock();
        if (shutdown_ || aborted_) return;
        if (!item) {
            eos_ = true;  // queue closed and drained: no step >= next_fetch_
            reader_cv_.notify_all();
            // Not done yet: deferred log reloads may still be pending for
            // a reattached reader — loop until the window is fully loaded.
            continue;
        }
        if (reader_detached_) shed_retained_locked();
        auto data = std::make_shared<StepData>(std::move(*item));
        const bool payload = entry_has_payload(*this, data, loaded);
        window_.push_back(InFlight{next_fetch_, std::move(data), 0, loaded});
        if (payload) ++window_payloads_;
        ++next_fetch_;
        if (instr) {
            ins_.read_ahead_depth->set(static_cast<double>(window_.size()));
        }
        reader_cv_.notify_all();
    }
}

void Stream::load_logged(StepData& item, bool instr) {
    const double sp_t0 = instr ? obs::steady_seconds() : 0.0;
    fault::hit("flexpath.spool_reload", name_);
    // Load the frame back by step index (both checksums re-verified; throws
    // SpoolError with file/offset/step context for a quarantined or
    // corrupted frame).  The frame stays in the log for crash recovery
    // until collected; the blocks decode straight from the loaded frame.
    const durable::LoadedStep loaded = log_->load_step(item.step);
    if (item.meta.empty()) item.meta.assign(loaded.meta.begin(), loaded.meta.end());
    item.layout_gen = loaded.layout_gen;
    item.blocks = decode_step_blocks(loaded.payload);
    if (instr) {
        const double sp_t1 = obs::steady_seconds();
        ins_.spool_read_seconds->observe(sp_t1 - sp_t0);
        if (sp_t1 - sp_t0 >= kStallSliceSeconds) {
            obs::TraceLog::global().slice("spool reload", name_, "prefetch",
                                          sp_t0, sp_t1);
        }
    }
}

std::shared_ptr<const StepData> Stream::acquire(std::uint64_t cursor) {
    fault::hit("flexpath.acquire", name_);
    std::unique_lock lock(mu_);
    if (reader_size_ == 0) {
        throw std::logic_error("stream '" + name_ + "': acquire before attach_reader");
    }
    if (cursor < window_base_) {
        // A correctly restarted reader resumes at attach_reader()'s cursor;
        // anything below the window base was already retired or skipped.
        throw std::logic_error("stream '" + name_ + "': acquire cursor " +
                               std::to_string(cursor) + " behind window base " +
                               std::to_string(window_base_) +
                               " (stale reader incarnation?)");
    }
    if (cursor + 1 > demand_) {
        // Demand drives the prefetcher: at read_ahead=1 it fetches only
        // cursors a rank has actually asked for (the seed's on-demand
        // lockstep protocol); deeper windows fetch read_ahead-1 beyond.
        demand_ = cursor + 1;
        prefetch_cv_.notify_one();
    }
    const bool instr = obs::enabled();
    double wait_t0 = 0.0;
    const auto note_wait_end = [&] {
        if (wait_t0 == 0.0) return;
        const double t1 = obs::steady_seconds();
        ins_.acquire_wait->observe(t1 - wait_t0);
        if (t1 - wait_t0 >= kStallSliceSeconds) {
            obs::TraceLog::global().slice("acquire wait", name_, "acquire",
                                          wait_t0, t1);
        }
    };
    const auto in_window = [&] {
        return cursor >= window_base_ && cursor < window_base_ + window_.size() &&
               window_[static_cast<std::size_t>(cursor - window_base_)].loaded;
    };
    for (;;) {
        if (aborted_) {
            if (prefetch_error_) std::rethrow_exception(prefetch_error_);
            throw StreamAborted(name_);
        }
        if (in_window()) {
            std::shared_ptr<const StepData> data =
                window_[static_cast<std::size_t>(cursor - window_base_)].data;
            note_wait_end();
            return data;
        }
        if (eos_ && cursor >= next_fetch_) {
            note_wait_end();
            return nullptr;
        }
        if (instr && wait_t0 == 0.0) wait_t0 = obs::steady_seconds();
        // Waiting for the prefetcher to deliver this cursor's step — which
        // may in turn be waiting on window space (slow peers) or on the
        // writer group.
        std::string what;
        if (check::enabled()) {
            what = "stream '" + name_ + "' acquire cursor=" + std::to_string(cursor) +
                   " window=" + std::to_string(window_.size()) + "/" +
                   std::to_string(read_ahead_) +
                   " queued=" + std::to_string(queue_ ? queue_->size() : 0) +
                   (writer_size_ == 0 ? " (no writer attached)" : "");
        }
        const auto pred = [&] {
            return aborted_ || in_window() || (eos_ && cursor >= next_fetch_);
        };
        if (liveness_s_ > 0.0) {
            if (!check::wait_checked_for(reader_cv_, lock,
                                         check::WaitKind::StreamAcquire, what,
                                         pred, liveness_s_)) {
                note_wait_end();
                // No writer progress for the whole liveness interval:
                // presume the writer group hung/died rather than block this
                // reader forever.
                throw PeerLivenessError(
                    "stream '" + name_ + "': no step at cursor " +
                    std::to_string(cursor) + " within " +
                    std::to_string(liveness_s_ * 1e3) + " ms" +
                    (writer_size_ == 0 ? " (no writer attached)" : ""));
            }
        } else {
            check::wait_checked(reader_cv_, lock, check::WaitKind::StreamAcquire,
                                what, pred);
        }
    }
}

void Stream::release(std::uint64_t cursor) {
    durable::Log* log = nullptr;
    std::uint64_t ack_step = 0;
    {
        std::lock_guard lock(mu_);
        if (aborted_) return;
        // A rank of a detached (dead) incarnation racing its own teardown must
        // not acknowledge steps the replacement group still needs.
        if (reader_detached_) return;
        if (cursor < window_base_ || cursor >= window_base_ + window_.size()) {
            throw std::logic_error("stream '" + name_ + "': release without matching acquire");
        }
        ++window_[static_cast<std::size_t>(cursor - window_base_)].released;
        bool retired = false;
        // Ranks release their cursors in order, so fully-released steps form a
        // prefix of the window and retirement stays in cursor order.
        while (!window_.empty() && window_.front().released >= reader_size_) {
            InFlight& front = window_.front();
            if (entry_has_payload(*this, front.data, front.loaded)) {
                --window_payloads_;
            }
            if (front.data) {
                log = log_.get();
                ack_step = front.data->step + 1;
            }
            window_.pop_front();
            ++window_base_;
            ins_.steps_retired->inc();
            retired = true;
        }
        if (retired) {
            if (obs::enabled()) {
                ins_.read_ahead_depth->set(static_cast<double>(window_.size()));
            }
            prefetch_cv_.notify_one();  // window space freed; only the prefetcher cares
        }
    }
    // The durable acknowledgement (and any retention GC) runs off mu_: the
    // log serializes internally, and recovery takes the max frontier, so
    // out-of-order appends from racing ranks are harmless.
    if (log != nullptr) {
        log->append_ack(ack_step);
        log->collect(ack_step);
    }
}

bool Stream::reader_detached() const {
    std::lock_guard lock(mu_);
    return reader_detached_;
}

std::uint64_t Stream::steps_lost() const {
    std::lock_guard lock(mu_);
    return lost_steps_;
}

std::size_t Stream::queued_steps() const {
    std::lock_guard lock(mu_);
    return queue_ ? queue_->size() : 0;
}

bool Stream::writer_attached() const {
    std::lock_guard lock(mu_);
    return writer_size_ > 0;
}

std::size_t Stream::read_ahead() const {
    std::lock_guard lock(mu_);
    return read_ahead_;
}

std::size_t Stream::in_flight_steps() const {
    std::lock_guard lock(mu_);
    return window_.size();
}

// ---- Fabric ----------------------------------------------------------------

std::shared_ptr<Stream> Fabric::get(const std::string& name) {
    std::shared_ptr<Stream> s;
    bool born_aborted = false;
    {
        std::lock_guard lock(mu_);
        auto it = streams_.find(name);
        if (it == streams_.end()) {
            it = streams_.emplace(name, std::make_shared<Stream>(name)).first;
            born_aborted = aborted_;
        }
        s = it->second;
    }
    if (born_aborted) s->abort();  // outside mu_, like abort_all
    return s;
}

void Fabric::abort_all() {
    std::vector<std::shared_ptr<Stream>> snapshot;
    {
        std::lock_guard lock(mu_);
        aborted_ = true;
        for (auto& [name, s] : streams_) snapshot.push_back(s);
    }
    for (auto& s : snapshot) s->abort();
}

std::vector<std::string> Fabric::stream_names() const {
    std::lock_guard lock(mu_);
    std::vector<std::string> out;
    out.reserve(streams_.size());
    for (const auto& [name, s] : streams_) out.push_back(name);
    return out;
}

}  // namespace sb::flexpath
