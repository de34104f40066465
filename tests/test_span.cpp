// Tests for the step-provenance layer: the SpanStore and its bounds, the
// critical-path analyzer against hand-computed references, the time-series
// sampler, and — through a real 3-component pipeline — the workflow-level
// joins (Workflow::critical_path, producer->consumer flow events in
// write_trace, and the "timeseries"/"critical_path" blocks of
// write_metrics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "core/workflow.hpp"
#include "flexpath/stream.hpp"
#include "json_test_util.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/source_component.hpp"

namespace obs = sb::obs;
namespace core = sb::core;
namespace fp = sb::flexpath;
using jsonutil::JsonParser;
using jsonutil::JsonValue;
using jsonutil::parse_json_file;

namespace {

std::string tmp(const std::string& name) { return ::testing::TempDir() + "/" + name; }

struct EnabledGuard {
    ~EnabledGuard() { obs::set_enabled(true); }
};

// ---- SpanStore -------------------------------------------------------------

TEST(SpanStore, RecordsTimelinesAndFiltersByEpoch) {
    auto& store = obs::SpanStore::global();
    obs::set_enabled(true);
    const double t0 = obs::steady_seconds();
    store.record("span.basic", 3, obs::SegmentKind::WaitIn, t0, t0 + 0.002, 1);
    store.record("span.basic", 3, obs::SegmentKind::Consume, t0, t0 + 0.003, 1);
    store.record("span.basic", 4, obs::SegmentKind::Queue, t0 + 0.001, t0 + 0.004);

    const auto timelines = store.timelines("span.basic", t0);
    ASSERT_EQ(timelines.size(), 2u);
    EXPECT_EQ(timelines[0].step, 3u);
    EXPECT_EQ(timelines[0].scope, "span.basic");
    ASSERT_EQ(timelines[0].segments.size(), 2u);
    EXPECT_EQ(timelines[0].segments[0].kind, obs::SegmentKind::WaitIn);
    EXPECT_EQ(timelines[0].segments[0].rank, 1);
    EXPECT_NEAR(timelines[0].segments[0].seconds(), 0.002, 1e-12);
    EXPECT_EQ(timelines[1].step, 4u);
    EXPECT_EQ(timelines[1].segments[0].rank, -1);

    // A later epoch filters everything out; steps left empty are omitted.
    EXPECT_TRUE(store.timelines("span.basic", obs::steady_seconds() + 1.0).empty());

    const auto scopes = store.scopes();
    EXPECT_NE(std::find(scopes.begin(), scopes.end(), "span.basic"), scopes.end());
    store.clear();
    EXPECT_TRUE(store.timelines("span.basic").empty());
}

TEST(SpanStore, DisabledIsANoOp) {
    EnabledGuard guard;
    auto& store = obs::SpanStore::global();
    obs::set_enabled(false);
    store.record("span.disabled", 0, obs::SegmentKind::Compute, 1.0, 2.0);
    EXPECT_TRUE(store.timelines("span.disabled").empty());
    obs::set_enabled(true);
    store.record("span.disabled", 0, obs::SegmentKind::Compute, 1.0, 2.0);
    EXPECT_EQ(store.timelines("span.disabled").size(), 1u);
    store.clear();
}

TEST(SpanStore, ScopedActorLabelsSegmentsAndNests) {
    auto& store = obs::SpanStore::global();
    obs::set_enabled(true);
    EXPECT_EQ(obs::ScopedActor::current(), "");
    {
        const obs::ScopedActor outer("magnitude#1");
        EXPECT_EQ(obs::ScopedActor::current(), "magnitude#1");
        {
            const obs::ScopedActor inner("histogram#2");
            store.record("span.actor", 0, obs::SegmentKind::WaitIn, 1.0, 2.0, 0);
        }
        EXPECT_EQ(obs::ScopedActor::current(), "magnitude#1");
    }
    EXPECT_EQ(obs::ScopedActor::current(), "");
    const auto timelines = store.timelines("span.actor");
    ASSERT_EQ(timelines.size(), 1u);
    EXPECT_EQ(timelines[0].segments.at(0).actor, "histogram#2");
    store.clear();
}

TEST(SpanStore, EvictsOldestStepsPastTheScopeBound) {
    auto& store = obs::SpanStore::global();
    obs::set_enabled(true);
    store.clear();
    const std::size_t extra = 40;
    for (std::size_t s = 0; s < obs::SpanStore::kMaxStepsPerScope + extra; ++s) {
        store.record("span.bound_steps", s, obs::SegmentKind::Compute, 1.0, 2.0);
    }
    const auto timelines = store.timelines("span.bound_steps");
    ASSERT_EQ(timelines.size(), obs::SpanStore::kMaxStepsPerScope);
    // The retained window is the most recent steps: the oldest were evicted.
    EXPECT_EQ(timelines.front().step, extra);
    EXPECT_EQ(timelines.back().step,
              obs::SpanStore::kMaxStepsPerScope + extra - 1);
    store.clear();
}

TEST(SpanStore, DropsAndCountsSegmentsPastTheStepBound) {
    auto& store = obs::SpanStore::global();
    obs::set_enabled(true);
    store.clear();
    const std::uint64_t dropped0 = store.dropped();
    const std::size_t extra = 10;
    for (std::size_t i = 0; i < obs::SpanStore::kMaxSegmentsPerStep + extra; ++i) {
        store.record("span.bound_segs", 7, obs::SegmentKind::Compute, 1.0, 2.0,
                     static_cast<int>(i));
    }
    const auto timelines = store.timelines("span.bound_segs");
    ASSERT_EQ(timelines.size(), 1u);
    EXPECT_EQ(timelines[0].segments.size(), obs::SpanStore::kMaxSegmentsPerStep);
    EXPECT_EQ(store.dropped() - dropped0, extra);
    store.clear();
}

TEST(SpanStore, SegmentKindNamesAreStable) {
    EXPECT_STREQ(obs::segment_kind_name(obs::SegmentKind::Compute), "compute");
    EXPECT_STREQ(obs::segment_kind_name(obs::SegmentKind::WaitIn), "wait-in");
    EXPECT_STREQ(obs::segment_kind_name(obs::SegmentKind::BackpressureOut),
                 "backpressure-out");
}

// ---- critical-path analyzer (hand-computed reference) ----------------------

// A synthetic 3-stage pipeline sim#0 -> (a) -> mid#1 -> (b) -> sink#2 with
// per-step observations chosen so every branch of the walk is exercised,
// checked against the verdicts computed by hand in the comments.
std::vector<obs::InstanceSteps> synthetic_pipeline() {
    obs::InstanceSteps sim;
    sim.instance = "sim#0";
    sim.outputs = {"a"};
    obs::InstanceSteps mid;
    mid.instance = "mid#1";
    mid.inputs = {"a"};
    mid.outputs = {"b"};
    obs::InstanceSteps sink;
    sink.instance = "sink#2";
    sink.inputs = {"b"};

    using Step = obs::InstanceSteps::Step;
    // Step 0 — source-bound: sink waits on b (10ms) -> mid waits on a (9ms)
    // -> sim computes 9ms >= 1ms bp: limiter sim#0, compute, 9ms.
    sim.steps.push_back(Step{0, 0.009, {}, {{"a", 0.001}}});
    mid.steps.push_back(Step{0, 0.001, {{"a", 0.009}}, {{"b", 0.001}}});
    sink.steps.push_back(Step{0, 0.001, {{"b", 0.010}}, {}});
    // Step 1 — middle-bound: sink waits on b (9ms) -> mid computes 8ms,
    // which dominates its 1ms wait and 1ms bp: limiter mid#1, compute, 8ms.
    sim.steps.push_back(Step{1, 0.001, {}, {{"a", 0.010}}});
    mid.steps.push_back(Step{1, 0.008, {{"a", 0.001}}, {{"b", 0.001}}});
    sink.steps.push_back(Step{1, 0.001, {{"b", 0.009}}, {}});
    // Step 2 — backpressure terminal: sink waits on b (6ms) -> mid's
    // dominant segment is 7ms bp on b, but b's consumer (sink) was already
    // visited: limiter mid#1, backpressure-out, 7ms.
    sim.steps.push_back(Step{2, 0.001, {}, {{"a", 0.001}}});
    mid.steps.push_back(Step{2, 0.001, {{"a", 0.001}}, {{"b", 0.007}}});
    sink.steps.push_back(Step{2, 0.001, {{"b", 0.006}}, {}});
    // Step 3 — wait-in terminal: only the sink has data, so its 5ms wait on
    // b cannot be followed upstream: limiter sink#2, wait-in, 5ms.
    sink.steps.push_back(Step{3, 0.001, {{"b", 0.005}}, {}});

    return {sim, mid, sink};
}

TEST(CriticalPath, WalkMatchesHandComputedReference) {
    const auto summary = obs::analyze_critical_path(synthetic_pipeline());
    ASSERT_EQ(summary.steps, 4u);
    ASSERT_EQ(summary.per_step.size(), 4u);

    EXPECT_EQ(summary.per_step[0].step, 0u);
    EXPECT_EQ(summary.per_step[0].limiter, "sim#0");
    EXPECT_EQ(summary.per_step[0].segment, obs::SegmentKind::Compute);
    EXPECT_NEAR(summary.per_step[0].seconds, 0.009, 1e-12);

    EXPECT_EQ(summary.per_step[1].limiter, "mid#1");
    EXPECT_EQ(summary.per_step[1].segment, obs::SegmentKind::Compute);
    EXPECT_NEAR(summary.per_step[1].seconds, 0.008, 1e-12);

    EXPECT_EQ(summary.per_step[2].limiter, "mid#1");
    EXPECT_EQ(summary.per_step[2].segment, obs::SegmentKind::BackpressureOut);
    EXPECT_NEAR(summary.per_step[2].seconds, 0.007, 1e-12);

    EXPECT_EQ(summary.per_step[3].limiter, "sink#2");
    EXPECT_EQ(summary.per_step[3].segment, obs::SegmentKind::WaitIn);
    EXPECT_NEAR(summary.per_step[3].seconds, 0.005, 1e-12);

    // Aggregation: mid#1 limits 2 steps (median of 8ms/7ms = 7.5ms); ties
    // between sim#0 and sink#2 break by name.
    ASSERT_EQ(summary.by_instance.size(), 3u);
    EXPECT_EQ(summary.by_instance[0].instance, "mid#1");
    EXPECT_EQ(summary.by_instance[0].steps_limiting, 2u);
    EXPECT_NEAR(summary.by_instance[0].median_seconds, 0.0075, 1e-12);
    EXPECT_EQ(summary.by_instance[1].instance, "sim#0");
    EXPECT_EQ(summary.by_instance[2].instance, "sink#2");
}

TEST(CriticalPath, EmptyInputYieldsEmptySummary) {
    const auto summary = obs::analyze_critical_path({});
    EXPECT_EQ(summary.steps, 0u);
    EXPECT_TRUE(summary.per_step.empty());
    EXPECT_TRUE(summary.by_instance.empty());
    EXPECT_NE(obs::format_critical_path(summary).find("no step timelines"),
              std::string::npos);
}

TEST(CriticalPath, FormatAndJsonRenderTheSummary) {
    const auto summary = obs::analyze_critical_path(synthetic_pipeline());

    const std::string text = obs::format_critical_path(summary);
    EXPECT_NE(text.find("critical path over 4 step(s)"), std::string::npos);
    EXPECT_NE(text.find("mid#1"), std::string::npos);
    EXPECT_NE(text.find("limits   2/4 steps"), std::string::npos);
    EXPECT_NE(text.find("backpressure-out"), std::string::npos);

    const JsonValue doc = JsonParser(obs::critical_path_to_json(summary)).parse();
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    EXPECT_EQ(doc.find("steps")->number, 4.0);
    const JsonValue* by = doc.find("by_instance");
    ASSERT_NE(by, nullptr);
    ASSERT_EQ(by->arr.size(), 3u);
    EXPECT_EQ(by->arr[0].find("instance")->str, "mid#1");
    EXPECT_DOUBLE_EQ(by->arr[0].find("fraction")->number, 0.5);
    const JsonValue* per_step = doc.find("per_step");
    ASSERT_NE(per_step, nullptr);
    ASSERT_EQ(per_step->arr.size(), 4u);
    EXPECT_EQ(per_step->arr[3].find("segment")->str, "wait-in");
}

// ---- time series -----------------------------------------------------------

TEST(TimeSeries, RingOverwritesOldestAndDerivesRates) {
    obs::TimeSeries ts(4);
    EXPECT_EQ(ts.rate(), 0.0);  // empty
    ts.push(0.0, 0.0);
    EXPECT_EQ(ts.rate(), 0.0);  // single sample
    for (int i = 1; i <= 5; ++i) {
        ts.push(static_cast<double>(i), 2.0 * i);
    }
    EXPECT_EQ(ts.size(), 4u);
    EXPECT_EQ(ts.capacity(), 4u);
    const auto samples = ts.samples();
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_EQ(samples.front().t, 2.0);  // oldest retained, in order
    EXPECT_EQ(samples.back().t, 5.0);
    EXPECT_DOUBLE_EQ(ts.last(), 10.0);
    EXPECT_DOUBLE_EQ(ts.rate(), 2.0);  // dv/dt over the window
}

TEST(TimeSeries, DegenerateTimeSpanHasZeroRate) {
    obs::TimeSeries ts(4);
    ts.push(1.0, 3.0);
    ts.push(1.0, 9.0);  // same timestamp
    EXPECT_EQ(ts.rate(), 0.0);
}

TEST(Sampler, SnapshotsSelectedCountersAndGauges) {
    auto& reg = obs::Registry::global();
    obs::set_enabled(true);
    obs::Counter& c = reg.counter("test.ts.steps", {{"stream", "s"}});
    obs::Gauge& g = reg.gauge("test.ts.depth");
    reg.histogram("test.ts.hist").observe(1.0);  // histograms are not sampled
    c.reset();

    obs::SamplerOptions opts;
    opts.include = {"test.ts.steps", "test.ts.depth"};
    obs::Sampler sampler(reg, opts);
    c.add(2);
    g.set(5.0);
    sampler.sample_now();
    c.add(3);
    g.set(7.0);
    sampler.sample_now();

    const auto series = sampler.snapshot();
    ASSERT_EQ(series.size(), 2u) << "include filter must drop everything else";
    for (const auto& s : series) {
        EXPECT_EQ(s.name.compare(0, 8, "test.ts."), 0);
        ASSERT_EQ(s.samples.size(), 2u);
        if (s.name == "test.ts.steps") {
            EXPECT_FALSE(s.is_gauge);
            EXPECT_DOUBLE_EQ(s.samples[0].v, 2.0);
            EXPECT_DOUBLE_EQ(s.last, 5.0);
            EXPECT_GT(s.rate, 0.0);
        } else {
            EXPECT_EQ(s.name, "test.ts.depth");
            EXPECT_TRUE(s.is_gauge);
            EXPECT_DOUBLE_EQ(s.last, 7.0);
        }
    }
    EXPECT_GE(sampler.elapsed_seconds(), 0.0);
}

TEST(Sampler, StopFlushesAFinalSample) {
    auto& reg = obs::Registry::global();
    obs::set_enabled(true);
    obs::Counter& c = reg.counter("test.ts.flush");
    c.reset();

    obs::SamplerOptions opts;
    opts.include = {"test.ts.flush"};
    opts.interval_ms = 3600000.0;  // only the initial tick fires on its own
    obs::Sampler sampler(reg, opts);
    sampler.start();
    EXPECT_TRUE(sampler.running());
    c.add(42);
    sampler.stop();  // joins the thread, then takes one final sample
    EXPECT_FALSE(sampler.running());

    const auto series = sampler.snapshot();
    ASSERT_EQ(series.size(), 1u);
    // A run shorter than the interval still ends with the counter's final
    // value captured: the flush sample must see the post-increment value.
    // (The background thread's own tick may or may not have fired first,
    // so only the flush sample is guaranteed.)
    EXPECT_DOUBLE_EQ(series[0].last, 42.0);
    EXPECT_GE(series[0].samples.size(), 1u);
}

TEST(Sampler, TimeseriesJsonIsWellFormed) {
    auto& reg = obs::Registry::global();
    obs::set_enabled(true);
    reg.counter("test.ts.json", {{"k", "v\"w"}}).inc();
    obs::SamplerOptions opts;
    opts.include = {"test.ts.json"};
    obs::Sampler sampler(reg, opts);
    sampler.sample_now();
    sampler.sample_now();

    const std::string json = obs::timeseries_to_json(sampler.snapshot(), 250.0);
    const JsonValue doc = JsonParser(json).parse();
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    EXPECT_EQ(doc.find("interval_ms")->number, 250.0);
    const JsonValue* series = doc.find("series");
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->arr.size(), 1u);
    const JsonValue& s = series->arr[0];
    EXPECT_EQ(s.find("name")->str, "test.ts.json");
    EXPECT_EQ(s.find("labels")->find("k")->str, "v\"w");
    EXPECT_EQ(s.find("type")->str, "counter");
    ASSERT_EQ(s.find("samples")->arr.size(), 2u);
    EXPECT_EQ(s.find("samples")->arr[0].find("v")->number, 1.0);
}

// ---- end-to-end: a real 3-component pipeline -------------------------------

// gromacs -> magnitude -> histogram with a deliberately heavy source (many
// substeps) and a queue deep enough that nothing backpressures: the source's
// kernel is the limiter, so the sink's wait-in walks upstream to gromacs#0
// and the verdict is "compute".
class SpanPipeline : public ::testing::Test {
protected:
    void SetUp() override { run(4, 24); }

    /// Runs the pipeline afresh: a new fabric, span store and trace.
    void run(std::uint64_t steps, std::uint64_t substeps) {
        sb::sim::register_simulations();
        obs::set_enabled(true);
        obs::SpanStore::global().clear();
        obs::TraceLog::global().clear();

        fp::StreamOptions opts;
        opts.queue_capacity = 64;
        wf_.reset();
        fabric_.emplace();
        wf_.emplace(*fabric_, opts);
        // These tests assert the *unfused* transport topology (a span
        // timeline per stream, a flow arrow per hop); pin fusion off so
        // magnitude -> histogram keeps materializing m.fp.
        wf_->set_fusion(core::FusionMode::Off);
        wf_->add("gromacs", 1,
                 {"atoms=16384", "steps=" + std::to_string(steps),
                  "substeps=" + std::to_string(substeps)});
        wf_->add("magnitude", 1, {"gmx.fp", "coords", "m.fp", "r"});
        wf_->add("histogram", 1, {"m.fp", "r", "8", tmp("span_hist.txt")});
        wf_->run();
    }

    std::optional<fp::Fabric> fabric_;
    std::optional<core::Workflow> wf_;
};

TEST_F(SpanPipeline, CriticalPathNamesTheHeavySourceAsLimiter) {
    // A consumer limits a step only when a stall longer than the source's
    // whole step period lets it fall behind (its wait-in then drops to ~0).
    // So the source here is 4x heavier than the fixture's (tens of ms per
    // step, well past scheduler timeslices on a loaded host) and the
    // verdict is taken over 16 steps, not 4.
    constexpr std::uint64_t kSteps = 16;
    run(kSteps, 96);
    const obs::CriticalPathSummary cp = wf_->critical_path();
    ASSERT_EQ(cp.steps, kSteps);
    ASSERT_FALSE(cp.by_instance.empty());
    // With a source 2-3 orders of magnitude heavier than the analysis stages
    // and no backpressure, every walk must end at gromacs#0/compute; allow
    // a quarter of the steps to scheduler noise before calling it a failure.
    EXPECT_EQ(cp.by_instance[0].instance, "gromacs#0");
    EXPECT_EQ(cp.by_instance[0].segment, obs::SegmentKind::Compute);
    EXPECT_GE(cp.by_instance[0].steps_limiting, kSteps * 3 / 4);
    EXPECT_GT(cp.by_instance[0].median_seconds, 0.0);
    for (const obs::CriticalPathEntry& e : cp.per_step) {
        EXPECT_FALSE(e.limiter.empty());
        EXPECT_GT(e.seconds, 0.0);
    }

    const std::string report = wf_->report();
    EXPECT_NE(report.find("gromacs#0"), std::string::npos);
    EXPECT_NE(report.find("compute"), std::string::npos);

    const std::string summary = wf_->metrics_summary();
    EXPECT_NE(summary.find("workflow.critical_path"), std::string::npos);
    EXPECT_NE(summary.find("uptime"), std::string::npos);
}

TEST_F(SpanPipeline, SpanStoreHoldsEveryTransportAndComputeSegment) {
    auto& store = obs::SpanStore::global();
    // Transport scopes: both streams; compute scopes: all three instances.
    for (const char* scope : {"gmx.fp", "m.fp"}) {
        const auto timelines = store.timelines(scope);
        ASSERT_EQ(timelines.size(), 4u) << scope;
        for (const auto& tl : timelines) {
            bool produce = false, wait_in = false, consume = false;
            for (const auto& seg : tl.segments) {
                if (seg.kind == obs::SegmentKind::Produce) produce = true;
                if (seg.kind == obs::SegmentKind::WaitIn) wait_in = true;
                if (seg.kind == obs::SegmentKind::Consume) consume = true;
                EXPECT_GE(seg.seconds(), 0.0);
            }
            EXPECT_TRUE(produce) << scope << " step " << tl.step;
            EXPECT_TRUE(wait_in) << scope << " step " << tl.step;
            EXPECT_TRUE(consume) << scope << " step " << tl.step;
        }
    }
    for (std::size_t i = 0; i < wf_->size(); ++i) {
        const auto timelines = store.timelines(wf_->instance_label(i));
        EXPECT_EQ(timelines.size(), 4u) << wf_->instance_label(i);
        for (const auto& tl : timelines) {
            ASSERT_FALSE(tl.segments.empty());
            EXPECT_EQ(tl.segments[0].kind, obs::SegmentKind::Compute);
        }
    }
    // The reader threads ran under a ScopedActor: wait-in segments on the
    // first stream carry the consuming instance's label.
    bool labelled = false;
    for (const auto& tl : store.timelines("gmx.fp")) {
        for (const auto& seg : tl.segments) {
            if (seg.kind == obs::SegmentKind::WaitIn &&
                seg.actor == "magnitude#1") {
                labelled = true;
            }
        }
    }
    EXPECT_TRUE(labelled);
}

TEST_F(SpanPipeline, FlowEventsConnectProducerToConsumerPerStep) {
    const std::string trace_path = tmp("span_trace.json");
    wf_->write_trace(trace_path);
    const JsonValue trace = parse_json_file(trace_path);
    ASSERT_EQ(trace.kind, JsonValue::Kind::Array);

    struct Slice {
        double pid, tid, t0, t1;
    };
    struct Flow {
        double pid, tid, ts, id;
    };
    std::vector<Slice> slices;
    std::vector<Flow> starts, finishes;
    for (const JsonValue& ev : trace.arr) {
        const JsonValue* ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->str == "X") {
            slices.push_back(Slice{ev.find("pid")->number, ev.find("tid")->number,
                                   ev.find("ts")->number,
                                   ev.find("ts")->number + ev.find("dur")->number});
        } else if (ph->str == "s" || ph->str == "f") {
            ASSERT_EQ(ev.find("cat")->str, "step-flow");
            const Flow f{ev.find("pid")->number, ev.find("tid")->number,
                         ev.find("ts")->number, ev.find("id")->number};
            if (ph->str == "s") {
                starts.push_back(f);
            } else {
                EXPECT_EQ(ev.find("bp")->str, "e");
                finishes.push_back(f);
            }
        }
    }

    // One flow arrow per (stream, step): 2 streams x 4 steps.
    ASSERT_EQ(starts.size(), 8u);
    ASSERT_EQ(finishes.size(), 8u);
    const auto inside_slice = [&](const Flow& f) {
        for (const Slice& s : slices) {
            if (s.pid == f.pid && s.tid == f.tid && f.ts >= s.t0 - 0.5 &&
                f.ts <= s.t1 + 0.5) {
                return true;
            }
        }
        return false;
    };
    for (std::size_t i = 0; i < starts.size(); ++i) {
        // Chrome binds an "s" to the "f" with the same id; every id pairs
        // exactly once, and the arrow crosses between two distinct tracks.
        std::size_t matches = 0, match = 0;
        for (std::size_t j = 0; j < finishes.size(); ++j) {
            if (finishes[j].id == starts[i].id) {
                ++matches;
                match = j;
            }
        }
        ASSERT_EQ(matches, 1u) << "flow id " << starts[i].id;
        EXPECT_NE(starts[i].pid, finishes[match].pid);
        EXPECT_LE(starts[i].ts, finishes[match].ts)
            << "a step cannot be consumed before it was published";
        // Both endpoints land inside a slice on their own track, so the
        // arrow attaches to the publish / acquire boxes in the viewer.
        EXPECT_TRUE(inside_slice(starts[i])) << "flow id " << starts[i].id;
        EXPECT_TRUE(inside_slice(finishes[match])) << "flow id " << starts[i].id;
    }
}

TEST_F(SpanPipeline, MetricsJsonEmbedsCriticalPathAndTimeseries) {
    obs::SamplerOptions opts;
    opts.include = {"adios.", "flexpath."};
    obs::Sampler sampler(obs::Registry::global(), opts);
    sampler.sample_now();
    sampler.sample_now();
    wf_->attach_sampler(&sampler);

    const std::string path = tmp("span_metrics.json");
    wf_->write_metrics(path);
    wf_->attach_sampler(nullptr);

    const JsonValue doc = parse_json_file(path);
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    ASSERT_NE(doc.find("metrics"), nullptr);

    const JsonValue* cp = doc.find("critical_path");
    ASSERT_NE(cp, nullptr) << "write_metrics must embed the critical_path block";
    EXPECT_EQ(cp->find("steps")->number, 4.0);
    ASSERT_FALSE(cp->find("by_instance")->arr.empty());
    EXPECT_EQ(cp->find("by_instance")->arr[0].find("instance")->str, "gromacs#0");

    const JsonValue* ts = doc.find("timeseries");
    ASSERT_NE(ts, nullptr) << "an attached sampler must embed the timeseries block";
    ASSERT_NE(ts->find("series"), nullptr);
    EXPECT_FALSE(ts->find("series")->arr.empty());
}

// With SB_METRICS off the span layer records nothing and the analyzer says
// so instead of inventing a path.
TEST(SpanPipelineOff, DisabledMetricsYieldEmptyCriticalPath) {
    EnabledGuard guard;
    sb::sim::register_simulations();
    obs::set_enabled(false);
    obs::SpanStore::global().clear();

    fp::Fabric fabric;
    core::Workflow wf(fabric);
    wf.add("gromacs", 1, {"atoms=1024", "steps=2", "substeps=1"});
    wf.add("magnitude", 1, {"gmx.fp", "coords", "m.fp", "r"});
    wf.add("histogram", 1, {"m.fp", "r", "8", tmp("span_hist_off.txt")});
    wf.run();

    const obs::CriticalPathSummary cp = wf.critical_path();
    EXPECT_EQ(cp.steps, 0u);
    EXPECT_NE(wf.report().find("no step timelines"), std::string::npos);
    EXPECT_TRUE(obs::SpanStore::global().timelines("gmx.fp").empty());
}

}  // namespace
