#include "core/fusion.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "adios/reader.hpp"
#include "adios/writer.hpp"
#include "core/dim_reduce.hpp"
#include "core/histogram.hpp"
#include "core/kernels.hpp"
#include "core/moments.hpp"
#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/pool.hpp"
#include "util/timer.hpp"

namespace sb::core {

bool fusion_enabled_from_env() {
    static const bool enabled = [] {
        const char* v = std::getenv("SB_FUSE");
        if (v == nullptr) return true;
        const std::string s(v);
        return !(s == "off" || s == "0" || s == "false");
    }();
    return enabled;
}

bool fusion_enabled(FusionMode mode) {
    switch (mode) {
        case FusionMode::On:
            return true;
        case FusionMode::Off:
            return false;
        case FusionMode::Auto:
            break;
    }
    return fusion_enabled_from_env();
}

std::size_t FusionPlan::chain_of(std::size_t i) const {
    for (std::size_t c = 0; c < chains.size(); ++c) {
        for (const FusedStage& st : chains[c].stages) {
            if (st.instance == i) return c;
        }
    }
    return npos;
}

// ---- planner --------------------------------------------------------------

namespace {

using Kind = FusedStage::Kind;

bool is_sink(Kind k) { return k == Kind::Histogram || k == Kind::Moments; }

/// The candidate's stage when it can fuse: a registered component with a
/// stage and well-formed arguments.  Anything else stays unfused, and its
/// standalone run raises the error.
std::optional<FusedStage> fusible_stage(const FusionCandidate& c, std::size_t index) {
    std::optional<FusedStage> st;
    try {
        st = make_component(c.component)->stage(c.args);
    } catch (const std::exception&) {
        return std::nullopt;  // unknown component or missing arguments
    }
    if (!st || !st->arg_errors.empty()) return std::nullopt;
    st->instance = index;
    return st;
}

}  // namespace

FusionPlan plan_fusion(const std::vector<FusionCandidate>& candidates,
                       const std::set<std::string>& barrier_streams) {
    FusionPlan plan;
    const std::size_t n = candidates.size();

    // An opaque component could open any stream, so single-reader /
    // single-writer cannot be proven for anything: no fusion at all.
    for (const FusionCandidate& c : candidates) {
        if (!c.ports.known) {
            plan.notes.push_back("fusion disabled: component '" + c.component +
                                 "' has undeclared ports");
            return plan;
        }
    }

    // Stream endpoint maps over *all* instances (including unfusible ones):
    // a Fork or a second Histogram tapping a stream is a fusion boundary.
    std::map<std::string, std::vector<std::size_t>> writers;
    std::map<std::string, std::vector<std::size_t>> readers;
    for (std::size_t i = 0; i < n; ++i) {
        for (const std::string& s : candidates[i].ports.outputs) writers[s].push_back(i);
        for (const std::string& s : candidates[i].ports.inputs) readers[s].push_back(i);
    }

    std::vector<std::optional<FusedStage>> stage(n);
    for (std::size_t i = 0; i < n; ++i) stage[i] = fusible_stage(candidates[i], i);

    // succ[i] = the unique fusible downstream stage of i, when legal.
    std::vector<std::optional<std::size_t>> succ(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (!stage[i] || is_sink(stage[i]->kind)) continue;
        const std::string& s = stage[i]->out_stream;
        const auto wit = writers.find(s);
        if (wit == writers.end() || wit->second.size() != 1 || wit->second[0] != i) {
            plan.notes.push_back("stream '" + s + "' has multiple writers: not fused");
            continue;
        }
        const auto rit = readers.find(s);
        if (rit == readers.end() || rit->second.empty()) continue;  // dangling
        if (rit->second.size() != 1) {
            plan.notes.push_back("stream '" + s + "' fans out to " +
                                 std::to_string(rit->second.size()) +
                                 " readers: not fused");
            continue;
        }
        const std::size_t j = rit->second[0];
        if (j == i || !stage[j]) continue;
        if (stage[j]->in_stream != s) continue;
        if (barrier_streams.count(s)) {
            plan.notes.push_back("stream '" + s +
                                 "' has durable history to replay: not fused");
            continue;
        }
        if (candidates[i].nprocs != candidates[j].nprocs) {
            plan.notes.push_back("stream '" + s + "': " +
                                 std::to_string(candidates[i].nprocs) + " -> " +
                                 std::to_string(candidates[j].nprocs) +
                                 " ranks re-distribute: not fused");
            continue;
        }
        if (stage[j]->in_array != stage[i]->out_array) {
            plan.notes.push_back("stream '" + s + "': reader wants array '" +
                                 stage[j]->in_array + "', writer publishes '" +
                                 stage[i]->out_array + "': not fused");
            continue;
        }
        succ[i] = j;
    }

    std::vector<bool> has_pred(n, false);
    for (std::size_t i = 0; i < n; ++i) {
        if (succ[i]) has_pred[*succ[i]] = true;
    }

    std::vector<bool> claimed(n, false);
    for (std::size_t i = 0; i < n; ++i) {
        if (!stage[i] || is_sink(stage[i]->kind) || has_pred[i] || !succ[i]) continue;
        std::vector<std::size_t> members{i};
        bool all_magnitude = stage[i]->kind == Kind::Magnitude;
        std::size_t cur = i;
        while (succ[cur]) {
            const std::size_t j = *succ[cur];
            if (claimed[j]) break;
            const FusedStage& sj = *stage[j];
            if (sj.kind == Kind::Moments && !all_magnitude) {
                // Moments' floating-point sums are partition-order-sensitive;
                // only an all-Magnitude prefix reproduces the unfused
                // partitioning bit for bit (fusion.hpp).
                plan.notes.push_back("moments after non-magnitude stages: not fused");
                break;
            }
            members.push_back(j);
            if (is_sink(sj.kind)) break;
            all_magnitude = all_magnitude && sj.kind == Kind::Magnitude;
            cur = j;
        }
        if (members.size() < 2) continue;
        FusedChain chain;
        for (const std::size_t m : members) {
            chain.stages.push_back(*stage[m]);
            claimed[m] = true;
        }
        plan.chains.push_back(std::move(chain));
    }
    return plan;
}

// ---- executor -------------------------------------------------------------

namespace {

/// A rank's share of one intermediate array.  `box` may be partial along at
/// most the single dimension `partial` (full extent everywhere else); that
/// invariant is rank-uniform by construction, so every gather/repartition
/// decision is taken by all ranks together without a collective.  After
/// Threshold the boxes are rank-ordered ragged intervals of dimension 0 —
/// still "partial in 0".
struct Slab {
    util::NdShape shape;
    util::Box box;
    adios::DataKind kind = adios::DataKind::Float64;
    std::vector<std::string> dim_labels;
    std::size_t partial = 0;
    util::PooledBytes owned;          // pooled backing unless a transport view
    std::span<const std::byte> data;  // always valid while the step is open

    std::span<const double> doubles() const {
        return {reinterpret_cast<const double*>(data.data()),
                data.size() / sizeof(double)};
    }
};

std::string label_or_empty(const std::vector<std::string>& labels, std::size_t d) {
    return d < labels.size() ? labels[d] : std::string{};
}

/// Gathers `rows` rows along dimension `dim` of a dense row-major block of
/// extents `src_count` (elements of `elem` bytes) into `dst`, which has the
/// same extents except `rows` along `dim`: destination row j is source row
/// `row_of(j)`.  One memcpy per row and outer index, fixed-size when a row
/// is one 8-byte element (a 1-D double array).
template <typename RowOf>
void gather_rows(std::span<const std::byte> src, const std::vector<std::uint64_t>& src_count,
                 std::size_t dim, std::size_t elem, std::uint64_t rows, RowOf row_of,
                 std::span<std::byte> dst) {
    std::size_t outer = 1;
    for (std::size_t d = 0; d < dim; ++d) outer *= src_count[d];
    std::size_t row_bytes = elem;
    for (std::size_t d = dim + 1; d < src_count.size(); ++d) row_bytes *= src_count[d];
    if (outer == 0 || rows == 0 || row_bytes == 0) return;
    const std::size_t src_block = src_count[dim] * row_bytes;
    const std::size_t dst_block = rows * row_bytes;
    for (std::size_t o = 0; o < outer; ++o) {
        const std::byte* s = src.data() + o * src_block;
        std::byte* d = dst.data() + o * dst_block;
        if (row_bytes == sizeof(double)) {
            for (std::uint64_t j = 0; j < rows; ++j) {
                std::memcpy(d + j * sizeof(double), s + row_of(j) * sizeof(double),
                            sizeof(double));
            }
        } else {
            for (std::uint64_t j = 0; j < rows; ++j) {
                std::memcpy(d + j * row_bytes, s + row_of(j) * row_bytes, row_bytes);
            }
        }
    }
}

/// One rank of one fused chain, head stream to tail endpoint.
class ChainRun {
public:
    ChainRun(RunContext& ctx, const FusedChain& chain,
             const std::vector<FusedStageHooks>& hooks)
        : ctx_(ctx),
          chain_(chain),
          hooks_(hooks),
          rank_(ctx.comm.rank()),
          size_(ctx.comm.size()),
          reader_(ctx.fabric, chain.head().in_stream, rank_, size_),
          // Only a stage after the head can need a gather, so one-stage
          // runs register no counter.
          gathers_(chain.stages.size() > 1
                       ? &obs::Registry::global().counter(
                             "fusion.gather_fallbacks", {{"chain", hooks.front().instance}})
                       : nullptr) {
        stage_ctx_.reserve(chain.stages.size());
        for (std::size_t k = 0; k < chain.stages.size(); ++k) {
            RunContext sc(ctx.fabric, ctx.comm, hooks[k].stats, ctx.stream_options);
            // The head runs under the unit's own fault scope (the head's
            // component in a workflow, "" for a bare standalone run).
            sc.component = k == 0 ? ctx.component : chain.stages[k].component;
            sc.instance = hooks[k].instance;
            sc.attempt = ctx.attempt;
            sc.resume = ctx.resume;
            stage_ctx_.push_back(std::move(sc));
        }
    }

    void run() {
        const FusedStage& tail = chain_.tail();
        if (!chain_.tail_writes_stream() && rank_ == 0) {
            // A restarted (warm or cold) incarnation appends and skips steps
            // whose rows the previous incarnation already wrote — an input
            // ack lost in the crash makes the replay at-least-once, never
            // duplicated output.
            const bool append = ctx_.attempt > 0 || ctx_.resume;
            if (tail.kind == Kind::Histogram) {
                if (append) sink_written_ = last_histogram_step(tail.out_file);
                sink_out_.open(tail.out_file,
                               append ? std::ios::app : std::ios::trunc);
                if (!sink_out_) {
                    throw std::runtime_error("histogram: cannot write '" +
                                             tail.out_file + "'");
                }
            } else {
                if (append) sink_written_ = last_moments_step(tail.out_file);
                std::error_code ec;
                const bool has_prior =
                    append &&
                    std::filesystem::file_size(tail.out_file, ec) > 0 && !ec;
                sink_out_.open(tail.out_file,
                               append ? std::ios::app : std::ios::trunc);
                if (!sink_out_) {
                    throw std::runtime_error("moments: cannot write '" +
                                             tail.out_file + "'");
                }
                if (!has_prior) {
                    sink_out_ << "# step count mean variance skewness min max\n";
                }
            }
        }

        for (;;) {
            bool more = false;
            {
                const obs::ScopedActor actor(hooks_.front().instance);
                more = reader_.begin_step();
            }
            if (!more) break;
            const std::uint64_t step = reader_.step();
            attrs_ = AttrSet{reader_.string_attributes(), reader_.double_attributes()};
            slab_ = Slab{};
            for (std::size_t k = 0; k < chain_.stages.size(); ++k) {
                util::WallTimer timer;
                std::uint64_t bytes_in = 0;
                std::uint64_t bytes_out = 0;
                if (k == 0) {
                    // Head reads are attributed to the head instance, so flow
                    // arrows into the chain name the original component.
                    const obs::ScopedActor actor(hooks_.front().instance);
                    apply_stage(k, step, bytes_in, bytes_out);
                } else {
                    apply_stage(k, step, bytes_in, bytes_out);
                }
                record_step(stage_ctx_[k], step, timer.seconds(), bytes_in, bytes_out);
            }
            {
                const obs::ScopedActor actor(hooks_.front().instance);
                reader_.end_step();
            }
        }

        if (chain_.tail_writes_stream()) {
            const obs::ScopedActor actor(hooks_.back().instance);
            if (!writer_) {
                // Empty input stream: the group must still attach and close so
                // end-of-stream propagates downstream.
                writer_.emplace(ctx_.fabric, tail.out_stream,
                                output_group(tail.component, tail.out_array, {}),
                                rank_, size_, ctx_.stream_options);
            }
            writer_->close();
        }
    }

private:
    // ---- data movement ----------------------------------------------------

    /// Assembles the full intermediate on every rank (the executor's escape
    /// hatch when a stage needs data the current partitioning splits).
    void gather_full(Slab& s) {
        const std::size_t elem = ffs::kind_size(s.kind);
        const std::size_t nd = s.shape.ndim();
        // One message: [ndim][offset...][count...][payload].
        mpi::Bytes msg((1 + 2 * nd) * sizeof(std::uint64_t) + s.data.size());
        const auto put_u64 = [&msg](std::size_t slot, std::uint64_t v) {
            std::memcpy(msg.data() + slot * sizeof(std::uint64_t), &v, sizeof(v));
        };
        put_u64(0, nd);
        for (std::size_t d = 0; d < nd; ++d) {
            put_u64(1 + d, s.box.offset[d]);
            put_u64(1 + nd + d, s.box.count[d]);
        }
        if (!s.data.empty()) {
            std::memcpy(msg.data() + (1 + 2 * nd) * sizeof(std::uint64_t),
                        s.data.data(), s.data.size());
        }

        const std::vector<mpi::Bytes> all = ctx_.comm.allgather_bytes(std::move(msg));

        // Peer boxes may not tile the whole shape (ragged Threshold output),
        // so the recycled buffer must be zeroed for bit-identity with a
        // fresh allocation.
        util::PooledBytes full = util::acquire_bytes(s.shape.volume() * elem);
        std::fill(full->begin(), full->end(), std::byte{0});
        const util::Box whole = util::Box::whole(s.shape);
        for (const mpi::Bytes& m : all) {
            std::uint64_t peer_nd = 0;
            std::memcpy(&peer_nd, m.data(), sizeof(peer_nd));
            util::Box b;
            b.offset.resize(peer_nd);
            b.count.resize(peer_nd);
            for (std::size_t d = 0; d < peer_nd; ++d) {
                std::memcpy(&b.offset[d], m.data() + (1 + d) * sizeof(std::uint64_t),
                            sizeof(std::uint64_t));
                std::memcpy(&b.count[d],
                            m.data() + (1 + peer_nd + d) * sizeof(std::uint64_t),
                            sizeof(std::uint64_t));
            }
            if (b.volume() == 0) continue;
            const std::span<const std::byte> payload(
                m.data() + (1 + 2 * peer_nd) * sizeof(std::uint64_t),
                m.size() - (1 + 2 * peer_nd) * sizeof(std::uint64_t));
            util::copy_box(payload, b, *full, whole, b, elem);
        }
        s.owned = std::move(full);
        s.data = *s.owned;
        s.box = whole;
        gathers_->inc();
    }

    /// Re-partitions the slab along `dim` (collective: every rank calls this
    /// under the same rank-uniform condition).
    void repartition(Slab& s, std::size_t dim) {
        gather_full(s);
        const std::size_t elem = ffs::kind_size(s.kind);
        const util::Box box = util::partition_along(s.shape, dim, rank_, size_);
        util::PooledBytes sub = util::acquire_bytes(box.volume() * elem);
        if (box.volume() != 0) util::copy_box(s.data, s.box, *sub, box, box, elem);
        s.owned = std::move(sub);
        s.data = *s.owned;
        s.box = box;
        s.partial = dim;
    }

    /// Reads `box` of the head array: straight off the transport payload
    /// when the box lines up with one writer block, else copied into pooled
    /// storage that `owned` keeps alive.
    std::span<const std::byte> read_box(const std::string& array, const util::Box& box,
                                        adios::DataKind kind, util::PooledBytes& owned) {
        if (const auto view = reader_.try_read_view_bytes(array, box)) return *view;
        owned = util::acquire_bytes(box.volume() * ffs::kind_size(kind));
        reader_.read_bytes(array, box, *owned);
        return *owned;
    }

    /// Head ingest for the slab-reading stages: this rank's partition along
    /// `pdim`.
    void read_head(const FusedStage& st, std::size_t pdim, std::uint64_t& bytes_in) {
        const adios::VarInfo info = reader_.inq_var(st.in_array);
        Slab s;
        s.shape = info.shape;
        s.kind = info.kind;
        s.dim_labels = info.dim_labels;
        s.box = util::partition_along(info.shape, pdim, rank_, size_);
        s.partial = pdim;
        s.data = read_box(st.in_array, s.box, info.kind, s.owned);
        bytes_in = s.data.size();
        slab_ = std::move(s);
    }

    /// The stage's input slab for the element-wise kinds: the head reads its
    /// partition along dimension 0; later stages take the upstream slab.
    /// Either way the array must be `ndim`-D double precision.
    void ingest(const FusedStage& st, bool head, std::size_t ndim,
                std::uint64_t& bytes_in) {
        const auto check = [&](const util::NdShape& shape, adios::DataKind kind) {
            if (shape.ndim() != ndim) {
                throw std::runtime_error(st.component + ": '" + st.in_array + "' must be " +
                                         std::to_string(ndim) + "-D, got " +
                                         shape.to_string());
            }
            if (kind != adios::DataKind::Float64) {
                throw std::runtime_error(st.component + ": '" + st.in_array +
                                         "' must be double-precision");
            }
        };
        if (head) {
            const adios::VarInfo info = reader_.inq_var(st.in_array);
            check(info.shape, info.kind);
            read_head(st, 0, bytes_in);
        } else {
            check(slab_.shape, slab_.kind);
            bytes_in = slab_.data.size();
        }
    }

    // ---- stages -----------------------------------------------------------

    void apply_stage(std::size_t k, std::uint64_t step, std::uint64_t& bytes_in,
                     std::uint64_t& bytes_out) {
        const FusedStage& st = chain_.stages[k];
        const bool head = k == 0;
        switch (st.kind) {
            case Kind::Select:
                stage_select(st, head, bytes_in);
                break;
            case Kind::Magnitude:
                stage_magnitude(st, head, bytes_in);
                break;
            case Kind::Threshold:
                stage_threshold(st, head, bytes_in);
                break;
            case Kind::DimReduce:
                stage_dim_reduce(st, head, bytes_in);
                break;
            case Kind::Downsample:
                stage_downsample(st, head, bytes_in);
                break;
            case Kind::Histogram:
                stage_histogram(st, head, step, bytes_in, bytes_out);
                return;
            case Kind::Moments:
                stage_moments(st, head, step, bytes_in, bytes_out);
                return;
        }
        bytes_out = slab_.data.size();
        if (k + 1 == chain_.stages.size()) emit_tail(st);
    }

    std::vector<std::uint64_t> select_rows(const FusedStage& st,
                                           const util::NdShape& shape) const {
        const auto hit = attrs_.strings.find(header_attr_key(st.in_array, st.dim));
        if (hit == attrs_.strings.end()) {
            throw std::runtime_error(
                "select: stream '" + st.in_stream + "' carries no header for dimension " +
                std::to_string(st.dim) + " of '" + st.in_array + "' (attribute '" +
                header_attr_key(st.in_array, st.dim) + "')");
        }
        const std::vector<std::string>& header = hit->second;
        if (header.size() != shape[st.dim]) {
            throw std::runtime_error("select: header length " +
                                     std::to_string(header.size()) +
                                     " != dimension extent " +
                                     std::to_string(shape[st.dim]));
        }
        std::vector<std::uint64_t> rows;
        rows.reserve(st.wanted.size());
        for (const std::string& w : st.wanted) {
            const auto it = std::find(header.begin(), header.end(), w);
            if (it == header.end()) {
                std::string avail;
                for (const auto& h : header) avail += (avail.empty() ? "" : ", ") + h;
                throw std::runtime_error("select: no row named '" + w +
                                         "' in dimension " + std::to_string(st.dim) +
                                         " (available: " + avail + ")");
            }
            rows.push_back(static_cast<std::uint64_t>(it - header.begin()));
        }
        return rows;
    }

    void stage_select(const FusedStage& st, bool head, std::uint64_t& bytes_in) {
        const std::size_t dim = st.dim;
        if (head) {
            // The head describes its input first; it reads only once every
            // check below has passed.
            const adios::VarInfo info = reader_.inq_var(st.in_array);
            slab_.shape = info.shape;
            slab_.kind = info.kind;
            slab_.dim_labels = info.dim_labels;
        }
        if (dim >= slab_.shape.ndim()) {
            throw std::runtime_error("select: dimension-index " + std::to_string(dim) +
                                     " out of range for " + slab_.shape.to_string());
        }
        const std::vector<std::uint64_t> rows = select_rows(st, slab_.shape);
        const std::size_t elem = ffs::kind_size(slab_.kind);
        const bool multi_dim = slab_.shape.ndim() > 1;
        if (!head) {
            bytes_in = slab_.data.size();
        } else if (multi_dim) {
            // One read of this rank's partition along another dimension: a
            // zero-copy view when it lines up with a writer block, else a
            // copy of only the span of selected rows (a copy of the whole
            // partition would also move every unselected row).
            slab_.partial = pick_partition_dim(slab_.shape, {dim});
            slab_.box = util::partition_along(slab_.shape, slab_.partial, rank_, size_);
            if (const auto view = reader_.try_read_view_bytes(st.in_array, slab_.box)) {
                slab_.data = *view;
            } else {
                const auto [lo, hi] = std::minmax_element(rows.begin(), rows.end());
                slab_.box.offset[dim] = *lo;
                slab_.box.count[dim] = *hi - *lo + 1;
                slab_.owned = util::acquire_bytes(slab_.box.volume() * elem);
                reader_.read_bytes(st.in_array, slab_.box, *slab_.owned);
                slab_.data = *slab_.owned;
            }
        } else {
            // Rank-1 input is header-sized: every rank reads it whole.
            slab_.box = util::Box::whole(slab_.shape);
            slab_.data = read_box(st.in_array, slab_.box, slab_.kind, slab_.owned);
        }
        Slab out;
        out.kind = slab_.kind;
        out.dim_labels = slab_.dim_labels;
        if (multi_dim) {
            // Selected rows must be whole: re-partition away from `dim`
            // when the stream used to provide that re-distribution.
            if (slab_.partial == dim) {
                repartition(slab_, pick_partition_dim(slab_.shape, {dim}));
            }
            out.shape = slab_.shape;
            out.shape[dim] = rows.size();
            out.box = slab_.box;
            out.box.offset[dim] = 0;
            out.box.count[dim] = rows.size();
            out.partial = slab_.partial;
            const std::uint64_t first = slab_.box.offset[dim];  // 0 unless a narrowed copy
            bool in_order = slab_.owned && slab_.box.count[dim] == rows.size();
            for (std::size_t j = 0; in_order && j < rows.size(); ++j) {
                in_order = rows[j] == first + j;
            }
            if (in_order) {
                out.owned = std::move(slab_.owned);  // the slab is the selection
            } else {
                out.owned = util::acquire_bytes(out.box.volume() * elem);
                gather_rows(slab_.data, slab_.box.count, dim, elem, rows.size(),
                            [&](std::uint64_t j) { return rows[j] - first; }, *out.owned);
            }
        } else {
            // Rank-1: every rank needs the whole array to take its share of
            // the selection; the head read it whole already.
            if (!head && size_ > 1) gather_full(slab_);
            const auto [j_begin, j_count] = util::partition_range(rows.size(), rank_, size_);
            out.shape = util::NdShape({static_cast<std::uint64_t>(rows.size())});
            out.box = util::Box({j_begin}, {j_count});
            out.partial = 0;
            out.owned = util::acquire_bytes(j_count * elem);
            gather_rows(slab_.data, slab_.box.count, 0, elem, j_count,
                        [&](std::uint64_t j) { return rows[j_begin + j]; }, *out.owned);
        }
        // The head's StepStats count the selected bytes, not the slab read.
        if (head) bytes_in = out.owned->size();
        out.data = *out.owned;
        slab_ = std::move(out);
        attrs_ = apply_attr_rules(attrs_, AttrRules{st.in_array, st.out_array, {}, {dim}});
        attrs_.strings[header_attr_key(st.out_array, dim)] = st.wanted;
    }

    void stage_magnitude(const FusedStage& st, bool head, std::uint64_t& bytes_in) {
        ingest(st, head, 2, bytes_in);
        // Every point's component vector must be whole.
        if (slab_.partial != 0) repartition(slab_, 0);

        const std::uint64_t local_n = slab_.box.count[0];
        const std::uint64_t ncomp = slab_.shape[1];
        Slab out;
        out.shape = util::NdShape({slab_.shape[0]});
        out.kind = adios::DataKind::Float64;
        out.dim_labels = {label_or_empty(slab_.dim_labels, 0)};
        out.box = util::Box({slab_.box.offset[0]}, {local_n});
        out.partial = 0;
        out.owned = util::acquire_bytes(local_n * sizeof(double));
        kernels::magnitude(slab_.doubles().data(), local_n, ncomp,
                           reinterpret_cast<double*>(out.owned->data()),
                           kernels::active_schedule());
        out.data = *out.owned;
        attrs_ = apply_attr_rules(attrs_, AttrRules{st.in_array, st.out_array, {0}, {1}});
        slab_ = std::move(out);
    }

    void stage_threshold(const FusedStage& st, bool head, std::uint64_t& bytes_in) {
        ingest(st, head, 1, bytes_in);
        const std::span<const double> local = slab_.doubles();
        // Compacts straight into pooled storage sized for the whole slab.
        util::PooledBytes kept = util::acquire_bytes(local.size() * sizeof(double));
        const auto n = static_cast<std::uint64_t>(kernels::threshold_compact(
            local, st.tmode, st.lo, st.hi, reinterpret_cast<double*>(kept->data()),
            kernels::active_schedule()));
        // Global layout: ragged rank-ordered intervals (exscan offsets,
        // allreduce total).  Concatenation order equals global index order
        // under any of the executor's partitionings, so the composed output
        // is bit-identical to the unfused chain's.
        const std::uint64_t offset = ctx_.comm.exscan(n, mpi::ReduceOp::Sum);
        const std::uint64_t total = ctx_.comm.allreduce(n, mpi::ReduceOp::Sum);

        Slab out;
        out.shape = util::NdShape({total});
        out.kind = adios::DataKind::Float64;
        out.dim_labels = {label_or_empty(slab_.dim_labels, 0)};
        out.box = util::Box({offset}, {n});
        out.partial = 0;
        kept->resize(n * sizeof(double));  // shrink only: the pool keys on capacity
        out.owned = std::move(kept);
        out.data = *out.owned;
        attrs_ = apply_attr_rules(attrs_, AttrRules{st.in_array, st.out_array, {0}, {}});
        attrs_.doubles[st.out_array + ".count"] = static_cast<double>(total);
        slab_ = std::move(out);
    }

    void stage_dim_reduce(const FusedStage& st, bool head, std::uint64_t& bytes_in) {
        if (head) {
            const adios::VarInfo info = reader_.inq_var(st.in_array);
            (void)dim_reduce_shape(info.shape, st.remove, st.grow);  // validate first
            read_head(st, st.grow, bytes_in);
        } else {
            bytes_in = slab_.data.size();
            (void)dim_reduce_shape(slab_.shape, st.remove, st.grow);
            // The removed dimension must be whole on every rank.
            if (slab_.partial == st.remove) repartition(slab_, st.grow);
        }
        const util::NdShape out_shape = dim_reduce_shape(slab_.shape, st.remove, st.grow);
        const std::size_t elem = ffs::kind_size(slab_.kind);
        const std::size_t grow_out = st.grow - (st.remove < st.grow ? 1 : 0);

        Slab out;
        out.shape = out_shape;
        out.kind = slab_.kind;
        out.box = util::Box::whole(out_shape);
        {
            std::size_t j = 0;
            for (std::size_t d = 0; d < slab_.shape.ndim(); ++d) {
                if (d == st.remove) continue;
                if (d == st.grow) {
                    out.box.offset[j] = slab_.box.offset[d] * slab_.shape[st.remove];
                    out.box.count[j] = slab_.box.count[d] * slab_.shape[st.remove];
                } else {
                    out.box.offset[j] = slab_.box.offset[d];
                    out.box.count[j] = slab_.box.count[d];
                }
                out.dim_labels.push_back(label_or_empty(slab_.dim_labels, d));
                ++j;
            }
        }
        out.partial = slab_.partial == st.grow
                          ? grow_out
                          : slab_.partial - (st.remove < slab_.partial ? 1 : 0);
        out.owned = util::acquire_bytes(slab_.data.size());
        dim_reduce_copy(slab_.data, util::NdShape(slab_.box.count), st.remove, st.grow,
                        *out.owned, elem);
        out.data = *out.owned;

        std::vector<std::size_t> dim_map;
        for (std::size_t d = 0; d < slab_.shape.ndim(); ++d) {
            if (d != st.remove) dim_map.push_back(d);
        }
        attrs_ = apply_attr_rules(
            attrs_, AttrRules{st.in_array, st.out_array, dim_map, {st.remove, st.grow}});
        slab_ = std::move(out);
    }

    void stage_downsample(const FusedStage& st, bool head, std::uint64_t& bytes_in) {
        const std::size_t dim = st.dim;
        if (head) {
            const adios::VarInfo info = reader_.inq_var(st.in_array);
            const util::NdShape shape = info.shape;
            if (dim >= shape.ndim()) {
                throw std::runtime_error("downsample: dimension-index " +
                                         std::to_string(dim) + " out of range for " +
                                         shape.to_string());
            }
            const std::uint64_t kept = (shape[dim] + st.stride - 1) / st.stride;
            const auto [k_off, k_cnt] = util::partition_range(kept, rank_, size_);
            const std::size_t elem = ffs::kind_size(info.kind);
            util::NdShape out_shape = shape;
            out_shape[dim] = kept;
            util::Box out_box = util::Box::whole(out_shape);
            out_box.offset[dim] = k_off;
            out_box.count[dim] = k_cnt;
            Slab out;
            out.shape = out_shape;
            out.kind = info.kind;
            out.dim_labels = info.dim_labels;
            out.box = out_box;
            out.partial = dim;
            out.owned = util::acquire_bytes(out_box.volume() * elem);
            if (k_cnt > 0) {
                // One read of the slab spanning this rank's kept rows, which
                // are its rows 0, stride, 2*stride, ...
                util::Box in_box = util::Box::whole(shape);
                in_box.offset[dim] = k_off * st.stride;
                in_box.count[dim] = (k_cnt - 1) * st.stride + 1;
                util::PooledBytes buf;
                const auto in = read_box(st.in_array, in_box, info.kind, buf);
                gather_rows(in, in_box.count, dim, elem, k_cnt,
                            [&](std::uint64_t j) { return j * st.stride; }, *out.owned);
            }
            bytes_in = out.owned->size();
            out.data = *out.owned;
            slab_ = std::move(out);
        } else {
            bytes_in = slab_.data.size();
            if (dim >= slab_.shape.ndim()) {
                throw std::runtime_error("downsample: dimension-index " +
                                         std::to_string(dim) + " out of range for " +
                                         slab_.shape.to_string());
            }
            const std::uint64_t kept = (slab_.shape[dim] + st.stride - 1) / st.stride;
            const std::size_t elem = ffs::kind_size(slab_.kind);
            // Sampled indices k with off <= k*stride < off+cnt: exact for any
            // tiling, so consecutive ranks' kept ranges tile [0, kept).
            const std::uint64_t off = slab_.box.offset[dim];
            const std::uint64_t cnt = slab_.box.count[dim];
            const std::uint64_t k_lo = (off + st.stride - 1) / st.stride;
            const std::uint64_t k_hi = cnt == 0 ? k_lo : (off + cnt - 1) / st.stride + 1;
            util::NdShape out_shape = slab_.shape;
            out_shape[dim] = kept;
            util::Box out_box = slab_.box;
            out_box.offset[dim] = k_lo;
            out_box.count[dim] = k_hi - k_lo;
            Slab out;
            out.shape = out_shape;
            out.kind = slab_.kind;
            out.dim_labels = slab_.dim_labels;
            out.box = out_box;
            out.partial = slab_.partial;
            out.owned = util::acquire_bytes(out_box.volume() * elem);
            const std::uint64_t first = k_lo * st.stride - off;  // slab row of k_lo
            gather_rows(slab_.data, slab_.box.count, dim, elem, k_hi - k_lo,
                        [&](std::uint64_t j) { return first + j * st.stride; },
                        *out.owned);
            out.data = *out.owned;
            slab_ = std::move(out);
        }
        // The sampled dimension's header shrinks to the kept rows (computed
        // from the input attributes before the rules consume them).
        std::optional<std::vector<std::string>> filtered;
        const auto hit = attrs_.strings.find(header_attr_key(st.in_array, dim));
        if (hit != attrs_.strings.end()) {
            filtered.emplace();
            for (std::uint64_t i = 0; i < hit->second.size(); i += st.stride) {
                filtered->push_back(hit->second[i]);
            }
        }
        attrs_ = apply_attr_rules(attrs_, AttrRules{st.in_array, st.out_array, {}, {dim}});
        if (filtered) {
            attrs_.strings[header_attr_key(st.out_array, dim)] = *filtered;
        }
    }

    void stage_histogram(const FusedStage& st, bool head, std::uint64_t step,
                         std::uint64_t& bytes_in, std::uint64_t& bytes_out) {
        ingest(st, head, 1, bytes_in);
        const HistogramResult h =
            distributed_histogram(ctx_.comm, slab_.doubles(), st.bins, step);
        if (rank_ == 0 && !(sink_written_ && step <= *sink_written_)) {
            write_histogram(sink_out_, h);
            sink_out_.flush();
        }
        bytes_out = rank_ == 0 ? h.counts.size() * sizeof(std::uint64_t) : 0;
    }

    void stage_moments(const FusedStage& st, bool head, std::uint64_t step,
                       std::uint64_t& bytes_in, std::uint64_t& bytes_out) {
        ingest(st, head, 1, bytes_in);
        const MomentsResult m = distributed_moments(ctx_.comm, slab_.doubles(), step);
        if (rank_ == 0 && !(sink_written_ && step <= *sink_written_)) {
            write_moments(sink_out_, m);
            sink_out_.flush();
        }
        bytes_out = rank_ == 0 ? sizeof(MomentsResult) : 0;
    }

    /// Publishes the tail stage's slab on its output stream under the tail
    /// component's group definition, with its dimensions and attributes.
    void emit_tail(const FusedStage& st) {
        const obs::ScopedActor actor(hooks_.back().instance);
        if (!writer_) {
            // An unlabelled input still needs one dimension variable per
            // dimension; output_group names the empty labels "d<i>".
            std::vector<std::string> labels = slab_.dim_labels;
            labels.resize(slab_.shape.ndim());
            writer_.emplace(ctx_.fabric, st.out_stream,
                            output_group(st.component, st.out_array, labels, slab_.kind),
                            rank_, size_, ctx_.stream_options);
        }
        writer_->begin_step();
        const auto& dim_names = writer_->group().find(st.out_array)->dimensions;
        for (std::size_t d = 0; d < slab_.shape.ndim(); ++d) {
            writer_->set_dimension(dim_names[d], slab_.shape[d]);
        }
        for (const auto& [key, values] : attrs_.strings) {
            writer_->write_attribute(key, values);
        }
        for (const auto& [key, value] : attrs_.doubles) {
            writer_->write_attribute(key, value);
        }
        if (slab_.owned && slab_.owned->data() == slab_.data.data() &&
            slab_.owned->size() == slab_.data.size()) {
            // The slab's pooled storage itself becomes the published step
            // buffer: the stream retires it to the pool once every reader
            // releases the step.  Zero copy on the tail publish.
            writer_->write_raw(st.out_array, slab_.box, std::move(slab_.owned));
            slab_.data = {};
        } else {
            util::PooledBytes buf = util::acquire_bytes(slab_.data.size());
            if (!slab_.data.empty()) {
                std::memcpy(buf->data(), slab_.data.data(), slab_.data.size());
            }
            writer_->write_raw(st.out_array, slab_.box, std::move(buf));
        }
        writer_->end_step();
    }

    RunContext& ctx_;
    const FusedChain& chain_;
    const std::vector<FusedStageHooks>& hooks_;
    int rank_;
    int size_;
    adios::Reader reader_;
    std::optional<adios::Writer> writer_;
    std::ofstream sink_out_;
    std::optional<std::uint64_t> sink_written_;  // newest step already on disk
    std::vector<RunContext> stage_ctx_;
    obs::Counter* gathers_;
    AttrSet attrs_;
    Slab slab_;
};

}  // namespace

void run_fused_chain(RunContext& ctx, const FusedChain& chain,
                     const std::vector<FusedStageHooks>& hooks) {
    ChainRun(ctx, chain, hooks).run();
}

}  // namespace sb::core
