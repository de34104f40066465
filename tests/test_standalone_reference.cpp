// Standalone runs of the seven fusible components against references
// computed here with plain loops, independent of the chain executor that
// now runs them: each component runs alone in a Workflow at 1, 2 and 3
// ranks (downsample at 1-5), fed seeded arrays by a WriterPort source, and
// its output must match the reference bit for bit (moments: to a
// closed-form tolerance).  Downsample also runs fused after magnitude,
// select fused after downsample, and the standalone select and downsample
// read counts are pinned.
//
// The second half pins argument handling: Workflow::run raises the same
// util::ArgError text for malformed arguments, ports() throws only for
// missing arguments, and value errors surface as contract().param_errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "adios/reader.hpp"
#include "core/histogram.hpp"
#include "core/moments.hpp"
#include "core/registry.hpp"
#include "core/workflow.hpp"
#include "flexpath/writer.hpp"
#include "obs/metrics.hpp"

namespace a = sb::adios;
namespace core = sb::core;
namespace fp = sb::flexpath;
namespace u = sb::util;

namespace {

constexpr std::uint64_t kSteps = 3;

/// What "ref-source" publishes on "in.fp": seeded steps of array "x".
struct Feed {
    u::NdShape shape;
    std::vector<std::vector<std::string>> headers;  // row names per dimension ({}: none)
    std::vector<std::vector<double>> steps;
};
Feed g_feed;

/// Seeds g_feed with kSteps arrays of `shape`, values uniform in [-4, 4).
void seed_feed(u::NdShape shape, std::vector<std::vector<std::string>> headers = {}) {
    std::mt19937_64 rng(20170529);
    std::uniform_real_distribution<double> dist(-4.0, 4.0);
    g_feed.shape = shape;
    g_feed.headers = std::move(headers);
    g_feed.steps.assign(kSteps, std::vector<double>(shape.volume()));
    for (auto& step : g_feed.steps) {
        for (double& v : step) v = dist(rng);
    }
}

class RefSource final : public core::Component {
public:
    std::string name() const override { return "ref-source"; }
    std::string usage() const override { return "ref-source out-stream-name"; }
    core::Ports ports(const u::ArgList& args) const override {
        args.require_at_least(1, usage());
        return core::Ports{{}, {args.str(0, "out-stream-name")}};
    }
    void run(core::RunContext& ctx, const u::ArgList& args) override {
        fp::WriterPort port(ctx.fabric, args.str(0, "out-stream-name"), ctx.comm.rank(),
                            ctx.comm.size(), ctx.stream_options);
        for (const std::vector<double>& data : g_feed.steps) {
            port.declare(fp::VarDecl{"x", fp::DataKind::Float64, g_feed.shape, {}});
            for (std::size_t d = 0; d < g_feed.headers.size(); ++d) {
                if (!g_feed.headers[d].empty()) {
                    port.put_attr(core::header_attr_key("x", d), g_feed.headers[d]);
                }
            }
            port.put<double>("x", u::Box::whole(g_feed.shape), data);
            port.end_step();
        }
        port.close();
    }
};

void register_source() {
    if (!core::component_registered("ref-source")) {
        core::register_component("ref-source", [] { return std::make_unique<RefSource>(); });
    }
}

struct Stage {
    std::string component;
    std::vector<std::string> args;
};

/// Runs ref-source -> `stages` (each at `nprocs`) and returns every step of
/// `out_array` on "out.fp" as a full array.  File-endpoint components pass
/// an empty `out_array`.  A single stage runs alone; several run fused.
std::vector<std::vector<double>> run_stages(const std::vector<Stage>& stages, int nprocs,
                                            const std::string& out_array) {
    register_source();
    fp::Fabric fabric;
    core::Workflow wf(fabric);
    wf.add("ref-source", 1, {"in.fp"});
    for (const Stage& st : stages) wf.add(st.component, nprocs, st.args);
    if (stages.size() > 1) wf.set_fusion(core::FusionMode::On);
    for (std::size_t i = 1; i <= stages.size(); ++i) {
        EXPECT_EQ(wf.fusion_plan().fused(i), stages.size() > 1);
    }

    std::vector<std::vector<double>> out;
    std::jthread reader;
    if (!out_array.empty()) {
        reader = std::jthread([&] {
            a::Reader r(fabric, "out.fp", 0, 1);
            while (r.begin_step()) {
                const a::VarInfo info = r.inq_var(out_array);
                out.push_back(r.read<double>(out_array, u::Box::whole(info.shape)));
                r.end_step();
            }
        });
    }
    wf.run();
    if (reader.joinable()) reader.join();
    return out;
}

/// Runs ref-source -> `component` alone at `nprocs`; see run_stages.
std::vector<std::vector<double>> run_alone(const std::string& component, int nprocs,
                                           std::vector<std::string> args,
                                           const std::string& out_array = "") {
    return run_stages({{component, std::move(args)}}, nprocs, out_array);
}

/// Row names "<prefix>0", "<prefix>1", ... for a dimension of extent `n`.
std::vector<std::string> row_names(const std::string& prefix, std::uint64_t n) {
    std::vector<std::string> names;
    for (std::uint64_t i = 0; i < n; ++i) names.push_back(prefix + std::to_string(i));
    return names;
}

/// Plain-loop select: rows `rows` (in that order) along `dim` of `in`.
std::vector<double> select_ref(const std::vector<double>& in, const u::NdShape& shape,
                               std::size_t dim, const std::vector<std::uint64_t>& rows) {
    std::uint64_t outer = 1;
    std::uint64_t inner = 1;
    for (std::size_t d = 0; d < dim; ++d) outer *= shape[d];
    for (std::size_t d = dim + 1; d < shape.ndim(); ++d) inner *= shape[d];
    std::vector<double> out;
    for (std::uint64_t o = 0; o < outer; ++o) {
        for (const std::uint64_t r : rows) {
            for (std::uint64_t i = 0; i < inner; ++i) {
                out.push_back(in[(o * shape[dim] + r) * inner + i]);
            }
        }
    }
    return out;
}

/// Plain-loop downsample: every `stride`-th index along `dim` of `in`.
std::vector<double> downsample_ref(const std::vector<double>& in, const u::NdShape& shape,
                                   std::size_t dim, std::uint64_t stride) {
    std::uint64_t outer = 1;
    std::uint64_t inner = 1;
    for (std::size_t d = 0; d < dim; ++d) outer *= shape[d];
    for (std::size_t d = dim + 1; d < shape.ndim(); ++d) inner *= shape[d];
    std::vector<double> out;
    for (std::uint64_t o = 0; o < outer; ++o) {
        for (std::uint64_t r = 0; r < shape[dim]; r += stride) {
            for (std::uint64_t i = 0; i < inner; ++i) {
                out.push_back(in[(o * shape[dim] + r) * inner + i]);
            }
        }
    }
    return out;
}

std::string tmp(const std::string& name) { return ::testing::TempDir() + "/sb_ref_" + name; }

}  // namespace

// ---- references ------------------------------------------------------------

// 2-D along the last dimension, 3-D along each dimension and rank-1, with
// unordered and repeated rows, and in-order runs of rows (one row, as the
// GTCP select takes).  At one rank a multi-dimensional select reads its
// partition as a zero-copy view of the source's single block; at 2 and 3
// ranks it copies the span of selected rows.  The rank-1 case selects two
// rows, so at 3 ranks one rank keeps none.
TEST(StandaloneReference, Select) {
    struct Case {
        u::NdShape shape;
        std::size_t dim;
        std::vector<std::uint64_t> rows;
    };
    const std::vector<Case> cases = {
        {u::NdShape{7, 5}, 1, {3, 0, 3}},       {u::NdShape{4, 6, 3}, 0, {2, 0, 2, 3}},
        {u::NdShape{4, 6, 3}, 1, {5, 1, 1, 4}}, {u::NdShape{4, 6, 3}, 2, {2, 0, 2}},
        {u::NdShape{4, 6, 3}, 1, {2, 3, 4}},    {u::NdShape{4, 6, 3}, 2, {1}},
        {u::NdShape{5}, 0, {3, 1}},
    };
    for (const Case& c : cases) {
        std::vector<std::vector<std::string>> headers;
        for (std::size_t d = 0; d < c.shape.ndim(); ++d) {
            headers.push_back(row_names("d" + std::to_string(d) + "r", c.shape[d]));
        }
        seed_feed(c.shape, headers);
        std::vector<std::string> args = {"in.fp", "x", std::to_string(c.dim), "out.fp", "s"};
        for (const std::uint64_t r : c.rows) args.push_back(headers[c.dim][r]);
        for (const int np : {1, 2, 3}) {
            SCOPED_TRACE(c.shape.to_string() + " dim " + std::to_string(c.dim) + " nprocs " +
                         std::to_string(np));
            const auto got = run_alone("select", np, args, "s");
            ASSERT_EQ(got.size(), kSteps);
            for (std::uint64_t t = 0; t < kSteps; ++t) {
                EXPECT_EQ(got[t], select_ref(g_feed.steps[t], c.shape, c.dim, c.rows));
            }
        }
    }
}

// A standalone select reads its input once per rank per step, not once per
// selected row: a view of its partition when that is a writer block (at
// one rank), else a copy of the selected rows' span (at three).  Probing
// for the view compiles no copy plan, so a copying rank compiles exactly
// one per writer layout.
TEST(StandaloneReference, SelectReadsOneSlabPerRankPerStep) {
    seed_feed(u::NdShape{40, 5}, {{}, {"a", "b", "c", "d", "e"}});
    auto& reg = sb::obs::Registry::global();
    const auto count = [&](const std::string& name, int rank) {
        return reg.counter(name, {{"stream", "in.fp"}, {"rank", std::to_string(rank)}})
            .value();
    };
    for (const int np : {1, 3}) {
        SCOPED_TRACE("nprocs " + std::to_string(np));
        std::vector<std::uint64_t> reads;
        std::vector<std::uint64_t> views;
        std::vector<std::uint64_t> misses;
        for (int r = 0; r < np; ++r) {
            reads.push_back(count("flexpath.reads", r));
            views.push_back(count("flexpath.zero_copy_reads", r));
            misses.push_back(count("flexpath.plan_misses", r));
        }
        const auto got =
            run_alone("select", np, {"in.fp", "x", "1", "out.fp", "s", "d", "a", "c"}, "s");
        ASSERT_EQ(got.size(), kSteps);
        for (int r = 0; r < np; ++r) {
            EXPECT_EQ(count("flexpath.reads", r) - reads[r], kSteps) << "rank " << r;
            // One writer layout: a rank that copies compiles its plan once;
            // the view probe compiles none (1 rank reads a view, so no plan).
            EXPECT_EQ(count("flexpath.plan_misses", r) - misses[r], np == 1 ? 0u : 1u)
                << "rank " << r;
        }
        if (np == 1) {
            EXPECT_EQ(count("flexpath.zero_copy_reads", 0) - views[0], kSteps);
        }
    }
}

TEST(StandaloneReference, Magnitude) {
    seed_feed(u::NdShape{11, 3});
    for (const int np : {1, 2, 3}) {
        SCOPED_TRACE("nprocs " + std::to_string(np));
        const auto got = run_alone("magnitude", np, {"in.fp", "x", "out.fp", "m"}, "m");
        ASSERT_EQ(got.size(), kSteps);
        for (std::uint64_t t = 0; t < kSteps; ++t) {
            std::vector<double> want;
            for (std::uint64_t i = 0; i < 11; ++i) {
                double s = 0.0;
                for (std::uint64_t c = 0; c < 3; ++c) {
                    const double v = g_feed.steps[t][i * 3 + c];
                    s += v * v;
                }
                want.push_back(std::sqrt(s));
            }
            EXPECT_EQ(got[t], want);
        }
    }
}

TEST(StandaloneReference, Threshold) {
    seed_feed(u::NdShape{23});
    for (const int np : {1, 2, 3}) {
        SCOPED_TRACE("nprocs " + std::to_string(np));
        const auto got = run_alone("threshold", np,
                                   {"in.fp", "x", "band", "-1", "2.5", "out.fp", "t"}, "t");
        ASSERT_EQ(got.size(), kSteps);
        for (std::uint64_t t = 0; t < kSteps; ++t) {
            std::vector<double> want;
            for (const double v : g_feed.steps[t]) {
                if (v >= -1.0 && v <= 2.5) want.push_back(v);
            }
            EXPECT_EQ(got[t], want);
        }
    }
}

TEST(StandaloneReference, DimReduce) {
    seed_feed(u::NdShape{4, 5, 3});
    for (const int np : {1, 2, 3}) {
        SCOPED_TRACE("nprocs " + std::to_string(np));
        // Absorb dimension 2 into 1: out[a][b * 3 + c] = in[a][b][c].
        const auto got = run_alone("dim-reduce", np,
                                   {"in.fp", "x", "2", "1", "out.fp", "r"}, "r");
        ASSERT_EQ(got.size(), kSteps);
        for (std::uint64_t t = 0; t < kSteps; ++t) {
            std::vector<double> want(4 * 15);
            for (std::uint64_t i = 0; i < 4; ++i) {
                for (std::uint64_t b = 0; b < 5; ++b) {
                    for (std::uint64_t c = 0; c < 3; ++c) {
                        want[i * 15 + b * 3 + c] = g_feed.steps[t][(i * 5 + b) * 3 + c];
                    }
                }
            }
            EXPECT_EQ(got[t], want);
        }
    }
}

// 2-D along dim 0, 3-D along a middle and the last dimension, stride 1
// (the whole array) and stride > extent (one row); with more ranks than
// kept rows, some ranks keep none.
TEST(StandaloneReference, Downsample) {
    struct Case {
        u::NdShape shape;
        std::size_t dim;
        std::uint64_t stride;
    };
    const std::vector<Case> cases = {
        {u::NdShape{10, 4}, 0, 3}, {u::NdShape{3, 7, 5}, 1, 2},
        {u::NdShape{3, 7, 5}, 2, 3}, {u::NdShape{3, 7, 5}, 1, 1},
        {u::NdShape{3, 7, 5}, 2, 9},
    };
    for (const Case& c : cases) {
        seed_feed(c.shape);
        for (const int np : {1, 2, 3, 4, 5}) {
            SCOPED_TRACE(c.shape.to_string() + " dim " + std::to_string(c.dim) + " stride " +
                         std::to_string(c.stride) + " nprocs " + std::to_string(np));
            const auto got = run_alone("downsample", np,
                                       {"in.fp", "x", std::to_string(c.dim),
                                        std::to_string(c.stride), "out.fp", "d"},
                                       "d");
            ASSERT_EQ(got.size(), kSteps);
            for (std::uint64_t t = 0; t < kSteps; ++t) {
                EXPECT_EQ(got[t], downsample_ref(g_feed.steps[t], c.shape, c.dim, c.stride));
            }
        }
    }
}

// A standalone downsample reads its input once per rank per step: one slab
// covering the rank's kept rows, not one read per row.
TEST(StandaloneReference, DownsampleReadsOneSlabPerRankPerStep) {
    seed_feed(u::NdShape{40, 3});
    constexpr int kRanks = 3;  // 14 kept rows: every rank keeps some
    auto& reg = sb::obs::Registry::global();
    const auto reads = [&](int rank) {
        return reg.counter("flexpath.reads",
                           {{"stream", "in.fp"}, {"rank", std::to_string(rank)}})
            .value();
    };
    std::vector<std::uint64_t> before;
    for (int r = 0; r < kRanks; ++r) before.push_back(reads(r));
    const auto got =
        run_alone("downsample", kRanks, {"in.fp", "x", "0", "3", "out.fp", "d"}, "d");
    ASSERT_EQ(got.size(), kSteps);
    for (int r = 0; r < kRanks; ++r) {
        EXPECT_EQ(reads(r) - before[r], kSteps) << "rank " << r;
    }
}

// Fused magnitude -> downsample at 3 ranks: the magnitude slabs of 10 rows
// start at rows 0, 4 and 7, so the third is not aligned to the stride of 4.
TEST(StandaloneReference, FusedMagnitudeDownsample) {
    seed_feed(u::NdShape{10, 3});
    const auto got = run_stages({{"magnitude", {"in.fp", "x", "mid.fp", "m"}},
                                 {"downsample", {"mid.fp", "m", "0", "4", "out.fp", "d"}}},
                                3, "d");
    ASSERT_EQ(got.size(), kSteps);
    for (std::uint64_t t = 0; t < kSteps; ++t) {
        std::vector<double> want;
        for (std::uint64_t i = 0; i < 10; i += 4) {
            double s = 0.0;
            for (std::uint64_t c = 0; c < 3; ++c) {
                const double v = g_feed.steps[t][i * 3 + c];
                s += v * v;
            }
            want.push_back(std::sqrt(s));
        }
        EXPECT_EQ(got[t], want);
    }
}

// Fused downsample -> select at 2 ranks: the select takes the upstream slab
// mid-chain, with a leading run of rows, all rows in order, and an unordered
// repeated list.
TEST(StandaloneReference, FusedDownsampleSelect) {
    const u::NdShape shape{9, 4};
    seed_feed(shape, {{}, {"a", "b", "c", "d"}});
    const std::vector<std::vector<std::uint64_t>> selections = {
        {0, 1}, {0, 1, 2, 3}, {3, 0, 3}};
    for (const auto& rows : selections) {
        std::vector<std::string> args = {"mid.fp", "d", "1", "out.fp", "s"};
        for (const std::uint64_t r : rows) args.push_back(g_feed.headers[1][r]);
        SCOPED_TRACE(::testing::PrintToString(rows));
        const auto got = run_stages(
            {{"downsample", {"in.fp", "x", "0", "2", "mid.fp", "d"}}, {"select", args}}, 2,
            "s");
        ASSERT_EQ(got.size(), kSteps);
        for (std::uint64_t t = 0; t < kSteps; ++t) {
            EXPECT_EQ(got[t], select_ref(downsample_ref(g_feed.steps[t], shape, 0, 2),
                                         u::NdShape{5, 4}, 1, rows));
        }
    }
}

TEST(StandaloneReference, Histogram) {
    seed_feed(u::NdShape{29});
    const std::size_t bins = 6;
    for (const int np : {1, 2, 3}) {
        SCOPED_TRACE("nprocs " + std::to_string(np));
        const std::string file = tmp("hist_" + std::to_string(np) + ".txt");
        run_alone("histogram", np, {"in.fp", "x", std::to_string(bins), file});
        const auto got = core::read_histogram_file(file);
        ASSERT_EQ(got.size(), kSteps);
        for (std::uint64_t t = 0; t < kSteps; ++t) {
            const std::vector<double>& v = g_feed.steps[t];
            const double lo = *std::min_element(v.begin(), v.end());
            const double hi = *std::max_element(v.begin(), v.end());
            const double width = (hi - lo) / static_cast<double>(bins);
            std::vector<std::uint64_t> counts(bins, 0);
            for (const double x : v) {
                const double pos = (x - lo) / width;
                const std::size_t b =
                    pos >= static_cast<double>(bins) ? bins - 1 : static_cast<std::size_t>(pos);
                ++counts[b];
            }
            EXPECT_EQ(got[t].step, t);
            EXPECT_EQ(got[t].min, lo);
            EXPECT_EQ(got[t].max, hi);
            EXPECT_EQ(got[t].counts, counts);
        }
    }
}

TEST(StandaloneReference, Moments) {
    seed_feed(u::NdShape{31});
    for (const int np : {1, 2, 3}) {
        SCOPED_TRACE("nprocs " + std::to_string(np));
        const std::string file = tmp("moments_" + std::to_string(np) + ".txt");
        run_alone("moments", np, {"in.fp", "x", file});
        const auto got = core::read_moments_file(file);
        ASSERT_EQ(got.size(), kSteps);
        for (std::uint64_t t = 0; t < kSteps; ++t) {
            const std::vector<double>& v = g_feed.steps[t];
            const double n = static_cast<double>(v.size());
            double mean = 0.0;
            for (const double x : v) mean += x / n;
            double m2 = 0.0;
            double m3 = 0.0;
            for (const double x : v) {
                m2 += (x - mean) * (x - mean) / n;
                m3 += (x - mean) * (x - mean) * (x - mean) / n;
            }
            EXPECT_EQ(got[t].step, t);
            EXPECT_EQ(got[t].count, v.size());
            EXPECT_NEAR(got[t].mean, mean, 1e-12);
            EXPECT_NEAR(got[t].variance, m2, 1e-12 * m2);
            EXPECT_NEAR(got[t].skewness, m3 / std::pow(m2, 1.5), 1e-9);
            EXPECT_EQ(got[t].min, *std::min_element(v.begin(), v.end()));
            EXPECT_EQ(got[t].max, *std::max_element(v.begin(), v.end()));
        }
    }
}

// ---- argument parity --------------------------------------------------------

namespace {

/// The util::ArgError text Workflow::run raises for `component args`, fed
/// by ref-source; "" when the run does not throw one.
std::string run_error(const std::string& component, std::vector<std::string> args) {
    register_source();
    seed_feed(u::NdShape{8});
    fp::Fabric fabric;
    core::Workflow wf(fabric);
    wf.add("ref-source", 1, {"in.fp"});
    wf.add(component, 2, std::move(args));
    try {
        wf.run();
    } catch (const u::ArgError& e) {
        return e.what();
    }
    return "";
}

struct BadArgs {
    std::string component;
    std::vector<std::string> args;
    std::string error;
    bool ports_throw;  // missing arguments; otherwise a param_error
};

std::vector<BadArgs> bad_args() {
    return {
        {"select", {"in.fp", "x", "0"}, "expected at least 6 arguments, got 3\nusage: "
         "select input-stream-name input-array-name dimension-index "
         "output-stream-name output-array-name name1 [name2 ...]", true},
        {"downsample", {"in.fp", "x", "0", "0", "out.fp", "d"},
         "downsample: stride must be positive", false},
        {"histogram", {"in.fp", "x", "0", tmp("bins0.txt")},
         "histogram: num-bins must be positive", false},
        {"threshold", {"in.fp", "x", "over", "1", "out.fp", "t"},
         "threshold: mode must be above|below|band, got 'over'", false},
        {"threshold", {"in.fp", "x", "band", "2", "1", "out.fp", "t"},
         "threshold: band requires lo <= hi", false},
    };
}

}  // namespace

TEST(ArgumentParity, WorkflowRunRaisesTheArgError) {
    for (const BadArgs& b : bad_args()) {
        SCOPED_TRACE(b.component + " " + b.error);
        EXPECT_EQ(run_error(b.component, b.args), b.error);
    }
}

TEST(ArgumentParity, PortsThrowOnlyForMissingArguments) {
    for (const BadArgs& b : bad_args()) {
        SCOPED_TRACE(b.component + " " + b.error);
        const auto c = core::make_component(b.component);
        const u::ArgList args(b.args);
        if (b.ports_throw) {
            EXPECT_THROW((void)c->ports(args), u::ArgError);
            EXPECT_THROW((void)c->contract(args), u::ArgError);
        } else {
            const core::Ports p = c->ports(args);
            EXPECT_TRUE(p.known);
            EXPECT_EQ(p.inputs, (std::vector<std::string>{"in.fp"}));
            const core::Contract k = c->contract(args);
            EXPECT_TRUE(k.known);
            EXPECT_EQ(k.param_errors, (std::vector<std::string>{b.error}));
        }
    }
}
