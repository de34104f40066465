#include "flexpath/reader.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "check/lifetime.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace sb::flexpath {

ReaderPort::ReaderPort(Fabric& fabric, const std::string& stream_name, int rank,
                       int nranks)
    : stream_(fabric.get(stream_name)), rank_(rank) {
    // Resume cursor: 0 on a fresh stream, or the oldest un-acknowledged
    // step when this port belongs to a restarted component incarnation
    // replacing a detached reader group (replay).
    cursor_ = stream_->attach_reader(nranks);
    auto& reg = obs::Registry::global();
    const obs::Labels labels{{"stream", stream_->name()},
                             {"rank", std::to_string(rank)}};
    bytes_read_ = &reg.counter("flexpath.bytes_read", labels);
    reads_ = &reg.counter("flexpath.reads", labels);
    plan_hits_ = &reg.counter("flexpath.plan_hits", labels);
    plan_misses_ = &reg.counter("flexpath.plan_misses", labels);
    zero_copy_reads_ = &reg.counter("flexpath.zero_copy_reads", labels);
    plan_compile_seconds_ = &reg.histogram("flexpath.plan_compile_seconds", labels);
}

ReaderPort::~ReaderPort() {
    // Views cannot outlive their port; drop them from the guard entirely.
    check::forget_views(this);
}

bool ReaderPort::begin_step() {
    if (current_) {
        if (check::enabled()) {
            check::report(check::Kind::Usage,
                          "begin_step with a step already in progress on stream '" +
                              stream_->name() + "' rank " + std::to_string(rank_));
        }
        throw std::logic_error("begin_step: step already in progress");
    }
    const bool instr = obs::enabled();
    const double t0 = instr ? obs::steady_seconds() : 0.0;
    current_ = stream_->acquire(cursor_);
    if (!current_) return false;
    if (instr) {
        // Step span: how long this consumer rank waited for the step to be
        // deliverable (prefetch + upstream supply, everything behind
        // acquire).  The actor is the consuming component instance.
        obs::SpanStore::global().record(stream_->name(), current_->step,
                                        obs::SegmentKind::WaitIn, t0,
                                        obs::steady_seconds(), rank_);
    }
    meta_ = &current_->decoded_meta();
    return true;
}

const StepMeta& ReaderPort::meta() const {
    if (!current_) throw std::logic_error("meta: no step in progress");
    return *meta_;
}

const VarDecl& ReaderPort::var(const std::string& var) const {
    const StepMeta& m = meta();
    const auto it = m.vars.find(var);
    if (it == m.vars.end()) {
        throw std::runtime_error("stream '" + stream_->name() + "' step " +
                                 std::to_string(m.step) + " has no variable '" +
                                 var + "'");
    }
    return it->second;
}

ReaderPort::CachedPlan ReaderPort::compile_plan(const std::vector<Block>* blocks,
                                                const std::string& var,
                                                const util::Box& box,
                                                std::size_t elem) {
    CachedPlan plan;
    std::uint64_t covered = 0;
    if (blocks) {
        for (std::size_t i = 0; i < blocks->size(); ++i) {
            const Block& b = (*blocks)[i];
            const auto region = util::intersect(b.box, box);
            if (!region) continue;
            plan.blocks.push_back(
                {i, util::compile_copy_plan(b.box, box, *region, elem)});
            covered += region->volume();
        }
    }
    if (covered != box.volume()) {
        throw std::runtime_error("read '" + var + "': selection " + box.to_string() +
                                 " only covered by " + std::to_string(covered) + "/" +
                                 std::to_string(box.volume()) + " elements");
    }
    return plan;
}

const ReaderPort::CachedPlan& ReaderPort::plan_for(const std::string& var,
                                                   const VarDecl& decl,
                                                   const util::Box& box,
                                                   std::size_t elem) const {
    (void)decl;
    // Transparent probe: no string/vector copies on the (overwhelmingly
    // common) cache-hit path.
    const PlanKeyView key{var, box.offset, box.count};
    auto it = plans_.find(key);
    if (it != plans_.end() && it->second.layout_gen == current_->layout_gen) {
        plan_hits_->inc();
        return it->second;
    }

    const bool instr = obs::enabled();
    const double t0 = instr ? obs::steady_seconds() : 0.0;
    const auto bit = current_->blocks.find(var);
    CachedPlan plan = compile_plan(
        bit == current_->blocks.end() ? nullptr : &bit->second, var, box, elem);
    plan.layout_gen = current_->layout_gen;
    if (instr) plan_compile_seconds_->observe(obs::steady_seconds() - t0);
    plan_misses_->inc();

    if (it == plans_.end()) {
        // A new key into a full cache: drop plans from dead generations
        // first (a layout change strands every previously compiled plan).
        // If live plans still fill more than half the cache, the working
        // set exceeds the bound: start over.  Either way at least
        // kMaxPlans / 2 inserts pass before the next scan, so a miss costs
        // amortised O(1) map work.
        if (plans_.size() >= kMaxPlans) {
            std::erase_if(plans_, [&](const auto& kv) {
                return kv.second.layout_gen != current_->layout_gen;
            });
            if (plans_.size() > kMaxPlans / 2) plans_.clear();
        }
        it = plans_.emplace(PlanKey{var, box.offset, box.count}, std::move(plan))
                 .first;
    } else {
        it->second = std::move(plan);
    }
    return it->second;
}

void ReaderPort::read_bytes(const std::string& var, const util::Box& box,
                            std::span<std::byte> dest) const {
    const VarDecl& decl = this->var(var);
    const std::size_t elem = ffs::kind_size(decl.kind);
    if (box.ndim() != decl.global_shape.ndim()) {
        throw std::invalid_argument("read '" + var + "': selection rank " +
                                    std::to_string(box.ndim()) + " != variable rank " +
                                    std::to_string(decl.global_shape.ndim()));
    }
    if (!box.within(decl.global_shape)) {
        throw std::invalid_argument("read '" + var + "': selection " + box.to_string() +
                                    " outside global shape " +
                                    decl.global_shape.to_string());
    }
    if (dest.size() < box.volume() * elem) {
        throw std::invalid_argument("read '" + var + "': destination too small");
    }
    if (box.empty()) return;
    if (current_->lossy) {
        // ZeroFill degradation: the step's data was shed while the reader
        // group was detached — metadata survives, the payload reads as
        // zeros (step_lossy() lets components tell).
        std::fill_n(dest.begin(), box.volume() * elem, std::byte{0});
        bytes_read_->add(box.volume() * elem);
        reads_->inc();
        return;
    }

    // MxN assembly: replay the cached copy plan (compiled on first touch of
    // this (var, box) under the current writer layout).
    const auto bit = current_->blocks.find(var);
    const std::vector<Block>* blocks =
        bit == current_->blocks.end() ? nullptr : &bit->second;
    const CachedPlan& plan = plan_for(var, decl, box, elem);
    for (const auto& br : plan.blocks) {
        const Block& b = (*blocks)[br.block];
        util::execute_copy_plan(std::span<const std::byte>(*b.data), dest, br.runs);
    }
    bytes_read_->add(box.volume() * elem);
    reads_->inc();
}

std::optional<std::span<const std::byte>>
ReaderPort::try_read_view_bytes(const std::string& var, const util::Box& box) const {
    const VarDecl& decl = this->var(var);
    const std::size_t elem = ffs::kind_size(decl.kind);
    if (box.ndim() != decl.global_shape.ndim() || !box.within(decl.global_shape) ||
        box.empty()) {
        return std::nullopt;
    }
    if (current_->lossy) return std::nullopt;  // no payload to view; read_bytes zero-fills
    const auto bit = current_->blocks.find(var);
    if (bit == current_->blocks.end()) return std::nullopt;

    // Exact-block probe: the stream sorts each var's blocks by (offset,
    // count), so one binary search answers "is this box one writer block?"
    // without compiling (or caching) a copy plan the caller may never run.
    const std::vector<Block>& blocks = bit->second;
    const auto at = std::lower_bound(
        blocks.begin(), blocks.end(), box, [](const Block& b, const util::Box& key) {
            return std::tie(b.box.offset, b.box.count) < std::tie(key.offset, key.count);
        });
    if (at == blocks.end() || !(at->box == box)) return std::nullopt;
    const Block* exact = &*at;
    zero_copy_reads_->inc();
    bytes_read_->add(box.volume() * elem);
    reads_->inc();
    const auto view =
        std::span<const std::byte>(*exact->data).first(box.volume() * elem);
    if (check::enabled()) {
        // Lifetime guard: the view dies at this rank's end_step; register it
        // with the payload as keep-alive so a later read through the stale
        // span is caught and attributed to this var/box.
        check::register_view(this, view.data(), view.size(),
                             "stream '" + stream_->name() + "' var '" + var +
                                 "' box " + box.to_string() + " step " +
                                 std::to_string(meta_->step) + " rank " +
                                 std::to_string(rank_),
                             exact->data);
    }
    return view;
}

void ReaderPort::end_step() {
    if (!current_) {
        if (check::enabled()) {
            check::report(check::Kind::Usage,
                          "end_step without a step in progress (double end_step?) "
                          "on stream '" +
                              stream_->name() + "' rank " + std::to_string(rank_));
        }
        throw std::logic_error("end_step: no step in progress");
    }
    // Expire this rank's zero-copy views before the step can be retired:
    // from here on, any read through one of them is use-after-end_step.
    check::expire_views(this);
    current_.reset();
    meta_ = nullptr;
    stream_->release(cursor_);
    ++cursor_;
}

std::uint64_t ReaderPort::current_step() const {
    if (!current_) throw std::logic_error("current_step: no step in progress");
    return meta_->step;
}

bool ReaderPort::step_lossy() const {
    if (!current_) throw std::logic_error("step_lossy: no step in progress");
    return current_->lossy;
}

}  // namespace sb::flexpath
