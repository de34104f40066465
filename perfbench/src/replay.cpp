#include "replay.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/kernels.hpp"
#include "core/launch_script.hpp"
#include "durable/log.hpp"
#include "flexpath/reader.hpp"
#include "flexpath/writer.hpp"
#include "lint/lint.hpp"
#include "obs/metrics.hpp"
#include "source.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace pb {

namespace core = sb::core;
namespace fp = sb::flexpath;
namespace util = sb::util;
namespace kernels = sb::core::kernels;

namespace {

constexpr int kReps = 9;

double now() { return sb::obs::steady_seconds(); }

/// Median seconds of `reps` calls of `f`.
template <typename F>
double median_seconds(int reps, F&& f) {
    std::vector<double> t;
    t.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const double t0 = now();
        f();
        t.push_back(now() - t0);
    }
    return median(std::move(t));
}

/// The workload's source step as the stream carries it: metadata plus one
/// block per source rank.
struct SourceStep {
    fp::StepMeta meta;
    std::map<std::string, std::vector<fp::Block>> blocks;
    std::uint64_t payload_bytes = 0;
};

SourceStep source_step(const Workload& w, const Field& field) {
    SourceStep s;
    fp::VarDecl decl{w.array, fp::DataKind::Float64, w.shape, w.dim_names};
    s.meta.vars[w.array] = decl;
    for (const std::string& d : w.dim_names) {
        s.meta.vars[d] = fp::VarDecl{d, fp::DataKind::UInt64, util::NdShape{}, {}};
    }
    s.meta.string_attrs[w.array + ".header." + std::to_string(w.shape.ndim() - 1)] = w.header;
    for (int r = 0; r < kSourceRanks; ++r) {
        const util::Box box = util::partition_along(w.shape, w.partition_dim, r, kSourceRanks);
        auto payload = std::make_shared<std::vector<std::byte>>(box.volume() * sizeof(double));
        fill_block(field, w, 0, box, reinterpret_cast<double*>(payload->data()));
        s.payload_bytes += payload->size();
        s.blocks[w.array].push_back(fp::Block{box, std::move(payload)});
    }
    return s;
}

void replay_reads(const Workload& w, std::map<std::string, LayerValue>& out) {
    constexpr std::uint64_t kSteps = 6;
    const Hop hop = w.replay_hop();
    fp::Fabric fabric;
    const fp::StreamOptions opts(kSteps + 1);
    fp::WriterPort w0(fabric, "replay.fp", 0, 2, opts);
    fp::WriterPort w1(fabric, "replay.fp", 1, 2, opts);
    fp::ReaderPort reader(fabric, "replay.fp", 0, 1);
    for (std::uint64_t t = 0; t < kSteps; ++t) {
        int r = 0;
        for (fp::WriterPort* port : {&w0, &w1}) {
            const util::Box box = util::partition_along(hop.shape, hop.split_dim, r++, 2);
            port->declare(fp::VarDecl{"v", fp::DataKind::Float64, hop.shape, {}});
            port->put("v", box,
                      std::make_shared<const std::vector<std::byte>>(box.volume() * 8));
            port->end_step();
        }
    }
    std::uint64_t max_volume = 0;
    for (const util::Box& b : hop.reads) max_volume = std::max(max_volume, b.volume());
    std::vector<std::byte> dest(max_volume * 8);
    std::vector<double> per_read;  // seconds per read, one entry per step
    for (std::uint64_t t = 0; t < kSteps; ++t) {
        if (!reader.begin_step()) break;
        const double t0 = now();
        for (const util::Box& b : hop.reads) {
            reader.read_bytes("v", b, std::span(dest).first(b.volume() * 8));
        }
        per_read.push_back((now() - t0) / static_cast<double>(hop.reads.size()));
        reader.end_step();
    }
    w0.close();
    w1.close();
    const std::string boxes = std::to_string(hop.reads.size()) + " boxes/step";
    out["flexpath.read_cold_us"] = {per_read.at(0) * 1e6, "us",
                                    "first step, empty plan cache, " + boxes};
    out["flexpath.read_warm_us"] = {median({per_read.begin() + 1, per_read.end()}) * 1e6, "us",
                                    "median of steps 1.." + std::to_string(kSteps - 1) + ", " +
                                        boxes};
}

void replay_ffs(const SourceStep& s, std::map<std::string, LayerValue>& out) {
    constexpr int kCalls = 200;
    sb::ffs::Bytes wire;
    const double enc = median_seconds(kReps, [&] {
        for (int i = 0; i < kCalls; ++i) wire = fp::encode_step_meta(s.meta);
    });
    const double dec = median_seconds(kReps, [&] {
        for (int i = 0; i < kCalls; ++i) (void)fp::decode_step_meta(wire);
    });
    out["ffs.meta_encode_us"] = {enc / kCalls * 1e6, "us", "per encode_step_meta call"};
    out["ffs.meta_decode_us"] = {dec / kCalls * 1e6, "us", "per decode_step_meta call"};

    sb::ffs::Bytes packet;
    const double benc = median_seconds(kReps, [&] { packet = fp::encode_step_blocks(s.blocks); });
    const double bdec = median_seconds(kReps, [&] { (void)fp::decode_step_blocks(packet); });
    const double mb = static_cast<double>(s.payload_bytes) / 1e6;
    out["ffs.blocks_encode_mb_s"] = {mb / benc, "MB/s", "encode_step_blocks, source step"};
    out["ffs.blocks_decode_mb_s"] = {mb / bdec, "MB/s", "decode_step_blocks, source step"};
}

void replay_kernels(const Workload& w, const Field& field,
                    std::map<std::string, LayerValue>& out) {
    const kernels::Schedule sched = kernels::active_schedule();
    const std::uint64_t n = w.rows();
    std::vector<double> vecs(n * 3);
    for (std::uint64_t r = 0; r < n; ++r) {
        for (std::uint64_t c = 0; c < 3; ++c) vecs[r * 3 + c] = field.at(0, r, c);
    }
    std::vector<double> mags(n);
    const double nd = static_cast<double>(n);
    const double t_mag = median_seconds(kReps, [&] {
        kernels::magnitude(vecs.data(), n, 3, mags.data(), sched);
    });

    const double lo = w.analysis.above.value_or(median(mags));
    std::vector<double> kept(n);
    std::size_t passed = 0;
    const double t_thr = median_seconds(kReps, [&] {
        passed = kernels::threshold_compact(mags, kernels::ThresholdOp::Above, lo, 0.0,
                                            kept.data(), sched);
    });

    const std::vector<double> values = reference_values(field, w.analysis, 0);
    const auto [mn, mx] = std::minmax_element(values.begin(), values.end());
    std::vector<std::uint64_t> counts(w.analysis.bins);
    const double t_hist = median_seconds(kReps, [&] {
        std::fill(counts.begin(), counts.end(), 0);
        kernels::histogram_accumulate(values, *mn, *mx, counts, sched);
    });

    const std::uint64_t cols = w.shape[w.shape.ndim() - 1];
    std::vector<double> scattered(n * cols);
    const double t_scat = median_seconds(kReps, [&] {
        kernels::scatter_strided(reinterpret_cast<const std::byte*>(mags.data()),
                                 reinterpret_cast<std::byte*>(scattered.data()), n,
                                 cols, sizeof(double), sched);
    });

    const double hn = static_cast<double>(values.size());
    const double pass = nd > 0 ? static_cast<double>(passed) / nd : 0.0;
    const std::string sched_name = sched == kernels::Schedule::Simd ? "simd" : "scalar";
    const auto kernel = [&](const std::string& k, double secs, double count, double ops,
                            double bytes, const std::string& shape) {
        out["kernels." + k + "_ns_per_elem"] = {secs / count * 1e9, "ns",
                                                sched_name + " schedule, " + shape};
        out["kernels." + k + "_ops_per_elem"] = {ops, "ops", "computed, not measured"};
        out["kernels." + k + "_bytes_per_elem"] = {bytes, "B", "computed, not measured"};
    };
    const std::string rows = std::to_string(n) + " rows";
    // Magnitude: 3 mul + 2 add + sqrt; reads 3 doubles, writes 1.
    kernel("magnitude", t_mag, nd, 6, 32, rows + " x 3");
    // Histogram: subtract, divide, two range tests, increment; reads 1 double.
    kernel("histogram", t_hist, hn, 5, 8, std::to_string(values.size()) + " values");
    // Threshold: one compare; reads 1 double, writes the passing share.
    kernel("threshold", t_thr, nd, 1, 8 + 8 * pass, rows);
    // Scatter: no arithmetic; reads and writes 1 double.
    kernel("scatter_strided", t_scat, nd, 0, 16, rows + ", stride " + std::to_string(cols));
}

void replay_durable(const SourceStep& s, const std::filesystem::path& dir,
                    std::map<std::string, LayerValue>& out) {
    constexpr std::uint64_t kSteps = 16;
    sb::durable::Options o;
    o.dir = (dir / "log").string();
    o.fsync = sb::durable::FsyncPolicy::Never;
    o.segment_bytes = 1u << 20;
    const sb::ffs::Bytes meta = fp::encode_step_meta(s.meta);
    const sb::ffs::Bytes packet = fp::encode_step_blocks(s.blocks);
    sb::ffs::EncodedSegments payload;
    payload.segments.emplace_back(packet);
    payload.total = packet.size();
    std::vector<double> append_s;
    std::vector<double> load_s;
    {
        sb::durable::Log log("replay.fp", o);
        for (std::uint64_t t = 0; t < kSteps; ++t) {
            const double t0 = now();
            log.append_step(t, 0, meta, payload);
            append_s.push_back(now() - t0);
        }
        for (std::uint64_t t = 0; t < kSteps; ++t) {
            const double t0 = now();
            (void)log.load_step(t);
            load_s.push_back(now() - t0);
        }
    }
    std::filesystem::remove_all(dir / "log");
    out["durable.append_us"] = {median(append_s) * 1e6, "us",
                                "Log::append_step, fsync never, source step"};
    out["durable.load_us"] = {median(load_s) * 1e6, "us", "Log::load_step, source step"};
}

void replay_planning(const Workload& w, std::uint64_t seed,
                     std::map<std::string, LayerValue>& out) {
    constexpr int kCalls = 20;
    const std::vector<core::LaunchEntry> entries =
        launch_entries(w, seed, 1, 0.0, "replay_hist.txt");
    const double t_lint = median_seconds(kReps, [&] {
        for (int i = 0; i < kCalls; ++i) (void)sb::lint::lint_entries(entries);
    });
    fp::Fabric fabric;
    core::Workflow wf(fabric);
    for (const core::LaunchEntry& e : entries) wf.add(e.component, e.nprocs, e.args);
    const double t_plan = median_seconds(kReps, [&] {
        for (int i = 0; i < kCalls; ++i) (void)wf.fusion_plan();
    });
    out["lint.analyze_ms"] = {t_lint / kCalls * 1e3, "ms", "lint_entries on the workload"};
    out["workflow.fusion_plan_ms"] = {t_plan / kCalls * 1e3, "ms", "Workflow::fusion_plan"};
}

}  // namespace

std::map<std::string, LayerValue> replay_layers(const Workload& w, const Field& field,
                                                std::uint64_t seed,
                                                const std::filesystem::path& dir) {
    std::filesystem::create_directories(dir);
    std::map<std::string, LayerValue> out;
    const SourceStep step = source_step(w, field);
    {
        const ScopedSpan span("replay.flexpath");
        replay_reads(w, out);
    }
    {
        const ScopedSpan span("replay.ffs");
        replay_ffs(step, out);
    }
    {
        const ScopedSpan span("replay.kernels");
        replay_kernels(w, field, out);
    }
    {
        const ScopedSpan span("replay.durable");
        replay_durable(step, dir, out);
    }
    {
        const ScopedSpan span("replay.planning");
        replay_planning(w, seed, out);
    }
    std::filesystem::remove_all(dir);
    return out;
}

}  // namespace pb
