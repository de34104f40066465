// Tests for sb::obs: the instrument primitives, the registry, the trace
// log, and — through a real 2-writer/3-reader workflow — the end-to-end
// exporters (Workflow::write_trace / write_metrics).  The shared JSON
// parser (json_test_util.hpp) validates that the exported files are
// well-formed documents, not just grep-able text.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/workflow.hpp"
#include "flexpath/stream.hpp"
#include "json_test_util.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/source_component.hpp"

namespace obs = sb::obs;
using jsonutil::JsonParser;
using jsonutil::JsonValue;
using jsonutil::parse_json_file;

namespace {

// Re-enables metrics when a test that disables them exits (other tests in
// this binary rely on the instruments being live).
struct EnabledGuard {
    ~EnabledGuard() { obs::set_enabled(true); }
};

// ---- instrument primitives -------------------------------------------------

TEST(ObsCounter, AccumulatesAndResets) {
    obs::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, DisabledIsNoOp) {
    EnabledGuard guard;
    obs::Counter c;
    obs::set_enabled(false);
    c.add(5);
    EXPECT_EQ(c.value(), 0u);
    obs::set_enabled(true);
    c.add(5);
    EXPECT_EQ(c.value(), 5u);
}

TEST(ObsGauge, TracksHighWaterMark) {
    obs::Gauge g;
    g.set(3.0);
    g.set(7.0);
    g.set(2.0);
    EXPECT_EQ(g.value(), 2.0);
    EXPECT_EQ(g.high_water(), 7.0);
    g.reset();
    EXPECT_EQ(g.value(), 0.0);
    EXPECT_EQ(g.high_water(), 0.0);
}

TEST(ObsHistogram, CountSumMinMax) {
    obs::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0.0);  // empty
    EXPECT_EQ(h.max(), 0.0);
    h.observe(0.5);
    h.observe(2.0);
    h.observe(0.25);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 2.75);
    EXPECT_DOUBLE_EQ(h.min(), 0.25);
    EXPECT_DOUBLE_EQ(h.max(), 2.0);
}

TEST(ObsHistogram, BucketIndexing) {
    using H = obs::Histogram;
    EXPECT_EQ(H::bucket_index(0.0), 0);    // underflow
    EXPECT_EQ(H::bucket_index(-1.0), 0);
    EXPECT_EQ(H::bucket_index(1.0), -H::kMinExp + 1);  // ilogb(1.0) == 0
    EXPECT_EQ(H::bucket_index(1e300), H::kBuckets - 1);  // overflow
    // Each finite bucket's upper bound contains values just below it.
    for (int i = 2; i < H::kBuckets - 1; ++i) {
        const double ub = H::bucket_upper_bound(i);
        EXPECT_EQ(H::bucket_index(std::nextafter(ub, 0.0)), i) << "bucket " << i;
        EXPECT_EQ(H::bucket_index(ub), i + 1) << "bucket " << i;
    }
}

TEST(ObsHistogram, ReservoirKeepsEarlySamples) {
    obs::Histogram h;
    for (int i = 1; i <= 10; ++i) h.observe(static_cast<double>(i));
    const auto samples = h.reservoir();
    ASSERT_EQ(samples.size(), 10u);
    EXPECT_EQ(samples.front(), 1.0);
    EXPECT_EQ(samples.back(), 10.0);
}

// Percentile correctness regression: the reservoir is a *uniform* sample of
// the whole observation sequence.  A keep-the-first-K reservoir fed a
// monotonically increasing series would report a median near kReservoir/2
// instead of N/2.
TEST(ObsHistogram, ReservoirIsUniformOverAscendingSeries) {
    obs::Histogram h;
    constexpr int kN = 20000;
    for (int i = 1; i <= kN; ++i) h.observe(static_cast<double>(i));
    std::vector<double> samples = h.reservoir();
    ASSERT_EQ(samples.size(), obs::Histogram::kReservoir);
    std::sort(samples.begin(), samples.end());
    const double median = samples[samples.size() / 2];
    EXPECT_GT(median, kN * 0.40) << "reservoir is biased toward early samples";
    EXPECT_LT(median, kN * 0.60) << "reservoir is biased toward late samples";
    // Both tails of the run are represented.
    EXPECT_LT(samples.front(), kN * 0.20);
    EXPECT_GT(samples.back(), kN * 0.80);
}

// ---- registry --------------------------------------------------------------

TEST(ObsRegistry, LabelsAddressDistinctInstruments) {
    auto& reg = obs::Registry::global();
    obs::Counter& a = reg.counter("test.labels", {{"stream", "a"}});
    obs::Counter& b = reg.counter("test.labels", {{"stream", "b"}});
    EXPECT_NE(&a, &b);
    // Label order is canonicalized: same set, same instrument.
    obs::Counter& c1 = reg.counter("test.two", {{"x", "1"}, {"y", "2"}});
    obs::Counter& c2 = reg.counter("test.two", {{"y", "2"}, {"x", "1"}});
    EXPECT_EQ(&c1, &c2);
}

TEST(ObsRegistry, ResetZeroesButKeepsIdentity) {
    auto& reg = obs::Registry::global();
    obs::Counter& c = reg.counter("test.reset");
    c.add(9);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(&reg.counter("test.reset"), &c);  // same instrument after reset
}

TEST(ObsRegistry, TotalSumsAcrossLabelSets) {
    auto& reg = obs::Registry::global();
    reg.counter("test.total", {{"s", "1"}}).add(2);
    reg.counter("test.total", {{"s", "2"}}).add(3);
    const double before = reg.total("test.total");
    reg.counter("test.total", {{"s", "1"}}).add(1);
    EXPECT_DOUBLE_EQ(reg.total("test.total") - before, 1.0);
    reg.histogram("test.total_h").observe(1.5);
    EXPECT_DOUBLE_EQ(reg.total("test.total_h"), 1.5);
}

TEST(ObsRegistry, SnapshotCarriesHistogramStats) {
    auto& reg = obs::Registry::global();
    obs::Histogram& h = reg.histogram("test.snap_h", {{"k", "v"}});
    h.reset();
    for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
    bool found = false;
    for (const auto& m : reg.snapshot()) {
        if (m.name != "test.snap_h") continue;
        found = true;
        EXPECT_EQ(m.type, obs::MetricSnapshot::Type::Histogram);
        ASSERT_EQ(m.labels.size(), 1u);
        EXPECT_EQ(m.labels[0].first, "k");
        EXPECT_EQ(m.count, 100u);
        EXPECT_DOUBLE_EQ(m.sum, 5050.0);
        EXPECT_DOUBLE_EQ(m.min, 1.0);
        EXPECT_DOUBLE_EQ(m.max, 100.0);
        EXPECT_NEAR(m.p50, 50.0, 2.0);
        EXPECT_NEAR(m.p95, 95.0, 2.0);
        EXPECT_FALSE(m.buckets.empty());
    }
    EXPECT_TRUE(found);
}

// All three observability sinks — registry instruments, the trace log, and
// the span store — are written from every component rank concurrently.
// Hammer them from N threads (TSan turns any missed synchronization in the
// hot paths into a hard failure) and check the totals are exact.
TEST(ObsRegistry, ConcurrentHammerAcrossSinks) {
    auto& reg = obs::Registry::global();
    auto& tl = obs::TraceLog::global();
    auto& spans = obs::SpanStore::global();
    obs::set_enabled(true);
    tl.clear();
    spans.clear();

    constexpr int kThreads = 8;
    constexpr int kIters = 2000;
    obs::Counter& shared = reg.counter("test.hammer.shared");
    shared.reset();
    reg.histogram("test.hammer.h").reset();
    const double epoch = obs::steady_seconds();

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const obs::ScopedActor actor("hammer#" + std::to_string(t));
            obs::Counter& mine =
                reg.counter("test.hammer.per", {{"t", std::to_string(t)}});
            obs::Histogram& h = reg.histogram("test.hammer.h");
            for (int i = 0; i < kIters; ++i) {
                shared.inc();
                mine.inc();
                h.observe(static_cast<double>(i));
                if (i % 256 == 0) {
                    const double now = obs::steady_seconds();
                    tl.counter("hammer depth", "hammer.fp", static_cast<double>(i));
                    spans.record("hammer.fp", static_cast<std::uint64_t>(i),
                                 obs::SegmentKind::Compute, now, now, t);
                }
                if (i % 512 == 0) (void)reg.snapshot();  // concurrent readers
            }
        });
    }
    for (auto& th : threads) th.join();

    EXPECT_EQ(shared.value(), static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_DOUBLE_EQ(reg.total("test.hammer.per"),
                     static_cast<double>(kThreads) * kIters);
    EXPECT_EQ(reg.histogram("test.hammer.h").count(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_GE(tl.events_after(epoch).size(), static_cast<std::size_t>(kThreads));
    // Every thread recorded step 0; the per-step segment list holds all 8.
    const auto timelines = spans.timelines("hammer.fp", epoch);
    ASSERT_FALSE(timelines.empty());
    EXPECT_EQ(timelines.front().step, 0u);
    EXPECT_EQ(timelines.front().segments.size(), static_cast<std::size_t>(kThreads));
    spans.clear();
}

// ---- json helpers ----------------------------------------------------------

TEST(ObsJson, EscapesControlAndQuoteCharacters) {
    EXPECT_EQ(obs::json_escape("plain"), "plain");
    EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::json_escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(obs::json_escape(std::string_view("\x01", 1)), "\\u0001");
    // Round-trips through the test parser.
    const std::string doc = "\"" + obs::json_escape("x\"\\\n\t\x02y") + "\"";
    const JsonValue v = JsonParser(doc).parse();
    EXPECT_EQ(v.str, "x\"\\\n\t\x02y");
}

TEST(ObsJson, NumbersAreAlwaysValidJson) {
    EXPECT_EQ(obs::json_number(0.0), "0");
    EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "0");
    EXPECT_EQ(obs::json_number(std::nan("")), "0");
    const double v = 0.1234567890123;
    EXPECT_DOUBLE_EQ(std::stod(obs::json_number(v)), v);
}

// The exporter must stay valid JSON no matter what ends up in metric names
// and label values — stream names come from user launch scripts and can
// carry quotes, backslashes, newlines, and control bytes.
TEST(ObsJson, PathologicalMetricNamesRoundTripThroughExporter) {
    auto& reg = obs::Registry::global();
    const std::string name = "test.patho.\"quoted\"\\back\nslash";
    const std::string label_val = "a\"b\\c\nd\te\x01f";
    reg.counter(name, {{"stream", label_val}}).add(7);
    reg.gauge("test.patho.gauge", {{"k\"ey", "v\\al"}}).set(1.5);

    std::ostringstream os;
    obs::write_metrics_json(os, reg.snapshot());
    const JsonValue doc = JsonParser(os.str()).parse();  // throws if malformed
    const JsonValue* metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    bool found = false;
    for (const JsonValue& m : metrics->arr) {
        const JsonValue* n = m.find("name");
        ASSERT_NE(n, nullptr);
        if (n->str != name) continue;
        found = true;
        const JsonValue* labels = m.find("labels");
        ASSERT_NE(labels, nullptr);
        ASSERT_NE(labels->find("stream"), nullptr);
        EXPECT_EQ(labels->find("stream")->str, label_val);
        EXPECT_EQ(m.find("value")->number, 7.0);
    }
    EXPECT_TRUE(found) << "pathological name lost in export";

    // The aligned table must not crash on them either.
    const std::string table = obs::format_metrics_table(reg.snapshot());
    EXPECT_NE(table.find("test.patho."), std::string::npos);
}

// ---- trace log -------------------------------------------------------------

TEST(ObsTraceLog, RecordsAndFiltersByEpoch) {
    auto& tl = obs::TraceLog::global();
    tl.clear();
    const double epoch = obs::steady_seconds();
    tl.counter("queue depth", "s1", 2.0);
    tl.slice("backpressure", "s1", "backpressure", epoch, epoch + 0.001);
    const auto all = tl.events_after(epoch);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].kind, obs::TraceEvent::Kind::Counter);
    EXPECT_EQ(all[0].stream, "s1");
    EXPECT_EQ(all[1].kind, obs::TraceEvent::Kind::Slice);
    EXPECT_EQ(all[1].category, "backpressure");
    // A later epoch filters everything out.
    EXPECT_TRUE(tl.events_after(obs::steady_seconds() + 1.0).empty());
    tl.clear();
    EXPECT_TRUE(tl.events_after(0.0).empty());
}

TEST(ObsTraceLog, DisabledRecordsNothing) {
    EnabledGuard guard;
    auto& tl = obs::TraceLog::global();
    tl.clear();
    obs::set_enabled(false);
    tl.counter("queue depth", "s1", 1.0);
    tl.slice("backpressure", "s1", "backpressure", 0.0, 1.0);
    EXPECT_TRUE(tl.events_after(0.0).empty());
}

// ---- end-to-end export -----------------------------------------------------

TEST(ObsExport, RendezvousStreamsShowBackpressureAndTraceStalls) {
    sb::sim::register_simulations();
    obs::set_enabled(true);
    obs::TraceLog::global().clear();
    auto& reg = obs::Registry::global();

    sb::flexpath::Fabric fabric;
    sb::flexpath::StreamOptions opts;
    opts.queue_capacity = 0;  // rendezvous: every push blocks until popped
    sb::core::Workflow wf(fabric, opts);
    wf.add("gromacs", 2, {"atoms=16384", "steps=6", "substeps=2"});
    wf.add("magnitude", 3, {"gmx.fp", "coords", "m.fp", "r"});
    wf.add("histogram", 1, {"m.fp", "r", "8", "/tmp/sb_test_obs_hist.txt"});

    const double bp0 = reg.total("flexpath.backpressure_wait_seconds");
    wf.run();
    const double bp = reg.total("flexpath.backpressure_wait_seconds") - bp0;
    EXPECT_GT(bp, 0.0) << "rendezvous pushes must accumulate backpressure wait";

    // -- trace file: valid JSON, queue-depth counter track, >= 1 stall slice
    const std::string trace_path = "/tmp/sb_test_obs_trace.json";
    wf.write_trace(trace_path);
    const JsonValue trace = parse_json_file(trace_path);
    ASSERT_EQ(trace.kind, JsonValue::Kind::Array);
    ASSERT_FALSE(trace.arr.empty());

    bool transport_track = false, queue_depth_counter = false, stall_slice = false;
    bool step_slice = false;
    for (const JsonValue& ev : trace.arr) {
        ASSERT_EQ(ev.kind, JsonValue::Kind::Object);
        const JsonValue* ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->str == "M") {
            const JsonValue* args = ev.find("args");
            if (args && args->find("name") &&
                args->find("name")->str == "transport") {
                transport_track = true;
            }
        } else if (ph->str == "C") {
            const JsonValue* name = ev.find("name");
            if (name && name->str.find("queue depth") != std::string::npos) {
                queue_depth_counter = true;
                EXPECT_NE(ev.find("ts"), nullptr);
                ASSERT_NE(ev.find("args"), nullptr);
                EXPECT_NE(ev.find("args")->find("value"), nullptr);
            }
        } else if (ph->str == "b") {
            const JsonValue* cat = ev.find("cat");
            if (cat && (cat->str == "backpressure" || cat->str == "acquire")) {
                stall_slice = true;
            }
        } else if (ph->str == "X") {
            step_slice = true;
        }
    }
    EXPECT_TRUE(transport_track);
    EXPECT_TRUE(queue_depth_counter);
    EXPECT_TRUE(stall_slice) << "expected at least one backpressure/acquire slice";
    EXPECT_TRUE(step_slice);

    // -- metrics file: valid JSON carrying the stream-labelled instruments
    const std::string metrics_path = "/tmp/sb_test_obs_metrics.json";
    wf.write_metrics(metrics_path);
    const JsonValue doc = parse_json_file(metrics_path);
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    ASSERT_NE(doc.find("version"), nullptr);
    EXPECT_EQ(doc.find("version")->number, 1.0);
    const JsonValue* metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_EQ(metrics->kind, JsonValue::Kind::Array);

    double bp_sum = 0.0;
    bool saw_steps = false, saw_adios = false, saw_mpi = false;
    for (const JsonValue& m : metrics->arr) {
        const JsonValue* name = m.find("name");
        ASSERT_NE(name, nullptr);
        if (name->str == "flexpath.backpressure_wait_seconds") {
            const JsonValue* labels = m.find("labels");
            ASSERT_NE(labels, nullptr);
            EXPECT_NE(labels->find("stream"), nullptr);
            bp_sum += m.find("sum")->number;
        }
        if (name->str == "flexpath.steps_assembled") saw_steps = true;
        if (name->str == "adios.steps_written") saw_adios = true;
        if (name->str == "mpi.collective_wait_seconds") saw_mpi = true;
    }
    EXPECT_GT(bp_sum, 0.0);
    EXPECT_TRUE(saw_steps);
    EXPECT_TRUE(saw_adios);
    EXPECT_TRUE(saw_mpi);

    // -- summary table mentions the key instruments
    const std::string table = wf.metrics_summary();
    EXPECT_NE(table.find("flexpath.backpressure_wait_seconds"), std::string::npos);
    EXPECT_NE(table.find("stream=gmx.fp"), std::string::npos);
}

TEST(ObsExport, LargeQueueShowsFarLessBackpressureThanRendezvous) {
    sb::sim::register_simulations();
    obs::set_enabled(true);
    auto& reg = obs::Registry::global();

    // Publishes that blocked on a full queue, summed over both streams (the
    // gauges republish each queue's own count after every publish).
    const auto blocked = [&] {
        return reg.gauge("flexpath.queue_blocked_pushes", {{"stream", "gmx.fp"}}).value() +
               reg.gauge("flexpath.queue_blocked_pushes", {{"stream", "m.fp"}}).value();
    };
    const auto run_with_capacity = [&](std::size_t cap) {
        sb::flexpath::Fabric fabric;
        sb::flexpath::StreamOptions opts;
        opts.queue_capacity = cap;
        sb::core::Workflow wf(fabric, opts);
        wf.add("gromacs", 2, {"atoms=16384", "steps=6", "substeps=2"});
        wf.add("magnitude", 3, {"gmx.fp", "coords", "m.fp", "r"});
        wf.add("histogram", 1, {"m.fp", "r", "8", "/tmp/sb_test_obs_hist2.txt"});
        for (const char* stream : {"gmx.fp", "m.fp"}) {
            reg.gauge("flexpath.queue_blocked_pushes", {{"stream", stream}}).reset();
        }
        wf.run();
        return blocked();
    };

    // A rendezvous publish always waits for its consumer; a queue deeper
    // than the whole run never fills.  Counts, unlike wait seconds, do not
    // stretch or shrink with host load.
    EXPECT_GT(run_with_capacity(0), 0.0);
    EXPECT_EQ(run_with_capacity(64), 0.0);
}

TEST(ObsExport, TraceIsValidJsonWithMetricsDisabled) {
    EnabledGuard guard;
    sb::sim::register_simulations();
    obs::set_enabled(false);  // no trace events, no metrics recorded

    sb::flexpath::Fabric fabric;
    sb::core::Workflow wf(fabric);
    wf.add("gromacs", 1, {"atoms=1024", "steps=2", "substeps=1"});
    wf.add("magnitude", 1, {"gmx.fp", "coords", "m.fp", "r"});
    wf.add("histogram", 1, {"m.fp", "r", "8", "/tmp/sb_test_obs_hist3.txt"});
    wf.run();

    const std::string trace_path = "/tmp/sb_test_obs_trace_off.json";
    wf.write_trace(trace_path);
    const JsonValue trace = parse_json_file(trace_path);
    ASSERT_EQ(trace.kind, JsonValue::Kind::Array);
    // The per-instance metadata is always present; no transport track.
    for (const JsonValue& ev : trace.arr) {
        const JsonValue* args = ev.find("args");
        if (args && args->find("name")) {
            EXPECT_NE(args->find("name")->str, "transport");
        }
    }

    const std::string metrics_path = "/tmp/sb_test_obs_metrics_off.json";
    wf.write_metrics(metrics_path);
    const JsonValue doc = parse_json_file(metrics_path);
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
}

// A steady multi-step pipeline exercises the redistribution fast path: the
// plan cache hits from the second step on, the writer-aligned pass-through
// reads go zero-copy, and the exported counters carry rank= labels.
TEST(ObsExport, FastPathCountersInSteadyWorkflow) {
    sb::sim::register_simulations();
    obs::set_enabled(true);
    auto& reg = obs::Registry::global();

    const double hits0 = reg.total("flexpath.plan_hits");
    const double zc0 = reg.total("flexpath.zero_copy_reads");

    // Magnitude's two ranks line up with the two writer blocks (views); the
    // one histogram rank reads across both of magnitude's blocks (a plan).
    sb::flexpath::Fabric fabric;
    sb::core::Workflow wf(fabric);
    wf.add("gromacs", 2, {"atoms=4096", "steps=4", "substeps=1"});
    wf.add("magnitude", 2, {"gmx.fp", "coords", "m.fp", "r"});
    wf.add("histogram", 1, {"m.fp", "r", "8", "/tmp/sb_test_obs_hist4.txt"});
    wf.run();

    EXPECT_GT(reg.total("flexpath.plan_hits") - hits0, 0.0)
        << "repeated (var, box) reads must replay cached plans";
    EXPECT_GT(reg.total("flexpath.zero_copy_reads") - zc0, 0.0)
        << "writer-aligned boxes must read zero-copy";

    const std::string metrics_path = "/tmp/sb_test_obs_metrics_fastpath.json";
    wf.write_metrics(metrics_path);
    const JsonValue doc = parse_json_file(metrics_path);
    const JsonValue* metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    bool saw_plan_hits = false;
    for (const JsonValue& m : metrics->arr) {
        const JsonValue* name = m.find("name");
        if (name && name->str == "flexpath.plan_hits") {
            saw_plan_hits = true;
            const JsonValue* labels = m.find("labels");
            ASSERT_NE(labels, nullptr);
            EXPECT_NE(labels->find("stream"), nullptr);
            EXPECT_NE(labels->find("rank"), nullptr);
        }
    }
    EXPECT_TRUE(saw_plan_hits);
}

}  // namespace
