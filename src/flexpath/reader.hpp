// Per-rank reader handle on a FlexPath stream.
//
// One ReaderPort lives on each rank of the consuming component.  begin_step
// blocks until the step at this rank's *cursor* (its count of completed
// steps) is available (or returns false at end of stream); the rank then
// inspects the decoded self-describing metadata, reads any bounding boxes it
// wants (the MxN redistribution happens here: the requested box is assembled
// from whichever writer blocks intersect it), and calls end_step to retire
// the step for this rank.  Ranks of one reader group need not stay in
// lockstep: the stream holds up to StreamOptions::read_ahead consecutive
// steps in flight, so this rank may run ahead of slow peers by the window
// depth (see docs/PERFORMANCE.md, "Reader-side step pipelining").
//
// Redistribution fast path: the first read of a (var, box) resolves the
// writer-block intersections into a flat copy plan of contiguous runs,
// cached and replayed on subsequent steps for as long as the writer layout
// generation (StepData::layout_gen) is unchanged.  The cache holds at most
// kMaxPlans plans (see plan_for).  When the requested box
// coincides exactly with a single writer block, try_read_view returns a
// zero-copy span pinned by the step's shared payload instead; that probe
// is a binary search of the step's sorted block list and compiles no plan.
#pragma once

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "flexpath/stream.hpp"

namespace sb::obs {
class Histogram;
}  // namespace sb::obs

namespace sb::flexpath {

class ReaderPort {
public:
    ReaderPort(Fabric& fabric, const std::string& stream_name, int rank, int nranks);
    ~ReaderPort();

    ReaderPort(const ReaderPort&) = delete;
    ReaderPort& operator=(const ReaderPort&) = delete;

    /// Blocks until the next step is available; false at end of stream.
    bool begin_step();

    /// Decoded metadata of the current step (shared with the other reader
    /// ranks of the step — decoded once, not once per rank).
    const StepMeta& meta() const;

    /// The declaration of variable `var` in the current step.
    const VarDecl& var(const std::string& var) const;

    /// Reads the hyperslab `box` (global coordinates) of `var` into `dest`,
    /// which receives box.volume() elements row-major.  Throws if any part
    /// of the box was not covered by writer blocks.
    void read_bytes(const std::string& var, const util::Box& box,
                    std::span<std::byte> dest) const;

    template <typename T>
    std::vector<T> read(const std::string& var, const util::Box& box) const {
        static_assert(std::is_trivially_copyable_v<T>);
        if (ffs::kind_size(this->var(var).kind) != sizeof(T)) {
            throw std::runtime_error("read '" + var + "': element size mismatch");
        }
        std::vector<T> out(box.volume());
        read_bytes(var, box,
                   std::span<std::byte>(reinterpret_cast<std::byte*>(out.data()),
                                        out.size() * sizeof(T)));
        return out;
    }

    /// Zero-copy read: when `box` coincides exactly with a single writer
    /// block, returns a view of that block's payload (box.volume() elements
    /// row-major) without copying; empty optional otherwise.  The view is
    /// pinned by the step's shared payload and stays valid until this
    /// rank's end_step().
    std::optional<std::span<const std::byte>>
    try_read_view_bytes(const std::string& var, const util::Box& box) const;

    template <typename T>
    std::optional<std::span<const T>> try_read_view(const std::string& var,
                                                    const util::Box& box) const {
        static_assert(std::is_trivially_copyable_v<T>);
        if (ffs::kind_size(this->var(var).kind) != sizeof(T)) {
            throw std::runtime_error("read '" + var + "': element size mismatch");
        }
        const auto raw = try_read_view_bytes(var, box);
        if (!raw) return std::nullopt;
        return std::span<const T>(reinterpret_cast<const T*>(raw->data()),
                                  raw->size() / sizeof(T));
    }

    /// Retires the current step for this rank.
    void end_step();

    /// Step index of the currently acquired step.
    std::uint64_t current_step() const;

    /// True when the current step's data was dropped under
    /// OnDataLoss::ZeroFill: metadata is intact but every read returns
    /// zeros (see docs/RESILIENCE.md).
    bool step_lossy() const;

    const std::string& stream_name() const noexcept { return stream_->name(); }

    int rank() const noexcept { return rank_; }

    /// Upper bound on the cached copy plans.  A steady-state workflow
    /// re-requests the same boxes every step, so its live plans number
    /// (vars x boxes per rank), far below the bound.
    static constexpr std::size_t kMaxPlans = 1024;

    /// Number of copy plans currently cached (never more than kMaxPlans).
    std::size_t plan_cache_size() const noexcept { return plans_.size(); }

private:
    /// A (var, box) read resolved against one writer layout generation:
    /// per intersecting block, the compiled runs into the destination.
    struct CachedPlan {
        std::uint64_t layout_gen = 0;
        struct BlockRuns {
            std::size_t block = 0;  // index into the step's sorted block list
            util::CopyPlan runs;
        };
        std::vector<BlockRuns> blocks;
    };
    /// Owning cache key (stored in the map)…
    struct PlanKey {
        std::string var;
        std::vector<std::uint64_t> offset;
        std::vector<std::uint64_t> count;
    };
    /// …and its borrowing twin for lookups: the hot path (cache hit every
    /// step of a steady-state workflow) probes with views over the caller's
    /// var name and box, allocating nothing; an owning key is built only on
    /// a miss.
    struct PlanKeyView {
        std::string_view var;
        std::span<const std::uint64_t> offset;
        std::span<const std::uint64_t> count;
    };
    struct PlanKeyLess {
        using is_transparent = void;
        template <typename X, typename Y>
        static int cmp_seq(const X& x, const Y& y) {
            const std::size_t n = std::min(x.size(), y.size());
            for (std::size_t i = 0; i < n; ++i) {
                if (x[i] != y[i]) return x[i] < y[i] ? -1 : 1;
            }
            if (x.size() == y.size()) return 0;
            return x.size() < y.size() ? -1 : 1;
        }
        template <typename A, typename B>
        bool operator()(const A& a, const B& b) const {
            if (a.var != b.var) return a.var < b.var;
            if (const int c = cmp_seq(a.offset, b.offset)) return c < 0;
            return cmp_seq(a.count, b.count) < 0;
        }
    };

    const CachedPlan& plan_for(const std::string& var, const VarDecl& decl,
                               const util::Box& box, std::size_t elem) const;
    static CachedPlan compile_plan(const std::vector<Block>* blocks,
                                   const std::string& var, const util::Box& box,
                                   std::size_t elem);

    std::shared_ptr<Stream> stream_;
    std::shared_ptr<const StepData> current_;
    const StepMeta* meta_ = nullptr;  // points into current_'s shared cache
    std::uint64_t cursor_ = 0;  // steps completed by this rank
    int rank_ = 0;
    mutable std::map<PlanKey, CachedPlan, PlanKeyLess> plans_;
    obs::Counter* bytes_read_ = nullptr;   // flexpath.bytes_read{rank=,stream=}
    obs::Counter* reads_ = nullptr;        // flexpath.reads{rank=,stream=}
    obs::Counter* plan_hits_ = nullptr;    // flexpath.plan_hits{rank=,stream=}
    obs::Counter* plan_misses_ = nullptr;  // flexpath.plan_misses{rank=,stream=}
    obs::Counter* zero_copy_reads_ = nullptr;  // flexpath.zero_copy_reads{...}
    obs::Histogram* plan_compile_seconds_ = nullptr;
};

}  // namespace sb::flexpath
