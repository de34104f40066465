// Additional integration and edge-case coverage: out-of-lockstep writer
// ranks (regression for per-step contribution tracking), rendezvous
// workflows, attribute propagation of doubles, deep pipelines under tiny
// buffers, select-all and duplicate selections, and sim XML overrides.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "adios/reader.hpp"
#include "adios/writer.hpp"
#include "core/histogram.hpp"
#include "core/launch_script.hpp"
#include "core/registry.hpp"
#include "core/workflow.hpp"
#include "durable/log.hpp"
#include "mpi/runtime.hpp"
#include "sim/source_component.hpp"

namespace core = sb::core;
namespace sim = sb::sim;
namespace fp = sb::flexpath;
namespace a = sb::adios;
namespace u = sb::util;

namespace {
std::string tmp(const std::string& name) { return ::testing::TempDir() + "/" + name; }
}

// Regression: writer ranks of one group running far out of lockstep must
// not mix contributions across steps (each rank's n-th submit is step n).
TEST(FlexpathRegression, WriterRanksOutOfLockstep) {
    fp::Fabric fabric;
    const u::NdShape shape{6, 2};
    constexpr std::uint64_t kSteps = 8;

    std::jthread writers([&] {
        sb::mpi::run_ranks(3, [&](sb::mpi::Communicator& c) {
            fp::WriterPort port(fabric, "skew", c.rank(), c.size(),
                                fp::StreamOptions{4});
            for (std::uint64_t t = 0; t < kSteps; ++t) {
                // Rank 2 lags behind every step; ranks 0/1 race ahead.
                if (c.rank() == 2) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(3));
                }
                port.declare(fp::VarDecl{"x", fp::DataKind::Float64, shape, {}});
                const u::Box box = u::partition_along(shape, 0, c.rank(), c.size());
                std::vector<double> data(box.volume(),
                                         static_cast<double>(t * 100 + c.rank()));
                port.put<double>("x", box, data);
                port.end_step();
            }
            port.close();
        });
    });

    fp::ReaderPort reader(fabric, "skew", 0, 1);
    std::uint64_t t = 0;
    while (reader.begin_step()) {
        EXPECT_EQ(reader.current_step(), t);
        const auto data = reader.read<double>("x", u::Box::whole(shape));
        // Rows 0-1 from writer rank 0, 2-3 from rank 1, 4-5 from rank 2.
        for (std::uint64_t row = 0; row < 6; ++row) {
            const double want = static_cast<double>(t * 100 + row / 2);
            EXPECT_EQ(data[row * 2], want) << "row " << row << " step " << t;
        }
        reader.end_step();
        ++t;
    }
    EXPECT_EQ(t, kSteps);
}

// A full workflow where *every* stream is a rendezvous (queue capacity 0):
// the graph must still drain (this exercises the synchronous-handoff path
// end to end, the ablation's baseline).
TEST(WorkflowOptions, RendezvousStreamsComplete) {
    sim::register_simulations();
    fp::Fabric fabric;
    fp::StreamOptions opts;
    opts.queue_capacity = 0;
    core::Workflow wf(fabric, opts);
    wf.add("gromacs", 2, {"atoms=40", "steps=3"});
    wf.add("magnitude", 2, {"gmx.fp", "coords", "m.fp", "r"});
    wf.add("histogram", 1, {"m.fp", "r", "4", tmp("rendezvous_hist.txt")});
    wf.run();
    EXPECT_EQ(core::read_histogram_file(tmp("rendezvous_hist.txt")).size(), 3u);
}

// A five-stage pipeline under a depth-1 buffer with skewed process counts:
// a stress test of step ordering and backpressure through a deep graph.
TEST(WorkflowStress, DeepPipelineTinyBuffers) {
    sim::register_simulations();
    fp::Fabric fabric;
    fp::StreamOptions opts;
    opts.queue_capacity = 1;
    core::Workflow wf(fabric, opts);
    wf.add("gtcp", 3, {"slices=4", "gridpoints=30", "steps=6"});
    wf.add("select", 2,
           {"gtcp.fp", "field3d", "2", "p.fp", "pp", "perpendicular_pressure",
            "density"});
    wf.add("select", 3, {"p.fp", "pp", "2", "q.fp", "qq", "perpendicular_pressure"});
    wf.add("dim-reduce", 2, {"q.fp", "qq", "2", "1", "f1.fp", "x1"});
    wf.add("dim-reduce", 1, {"f1.fp", "x1", "0", "1", "f2.fp", "x2"});
    wf.add("histogram", 2, {"f2.fp", "x2", "8", tmp("deep_hist.txt")});
    wf.run();
    const auto hists = core::read_histogram_file(tmp("deep_hist.txt"));
    ASSERT_EQ(hists.size(), 6u);
    for (const auto& h : hists) EXPECT_EQ(h.total(), 4u * 30);
}

// Double attributes must propagate (and be renamed) through components.
TEST(AttributePropagation, DoubleAttributesSurviveSelect) {
    fp::Fabric fabric;
    std::jthread writer([&] {
        a::GroupDef def = core::output_group("src", "arr", {"n", "q"});
        a::Writer w(fabric, "in.fp", def, 0, 1);
        w.begin_step();
        w.set_dimension("n", 2);
        w.set_dimension("q", 2);
        w.write_attribute("arr.header.1", {"p", "r"});
        w.write_attribute("arr.dt", 0.125);       // array-scoped: renamed
        w.write_attribute("sim_time", 7.5);       // global: passes through
        const std::vector<double> data = {1, 2, 3, 4};
        w.write<double>("arr", data, u::Box({0, 0}, {2, 2}));
        w.end_step();
        w.close();
    });
    std::jthread select([&] {
        sb::mpi::run_ranks(1, [&](sb::mpi::Communicator& c) {
            auto comp = core::make_component("select");
            core::RunContext ctx{fabric, c, nullptr, {}};
            comp->run(ctx, u::ArgList({"in.fp", "arr", "1", "out.fp", "sel", "p"}));
        });
    });
    a::Reader r(fabric, "out.fp", 0, 1);
    ASSERT_TRUE(r.begin_step());
    EXPECT_EQ(r.attribute_double("sel.dt"), 0.125);
    EXPECT_EQ(r.attribute_double("sim_time"), 7.5);
    EXPECT_FALSE(r.attribute_double("arr.dt").has_value());
    r.end_step();
    EXPECT_FALSE(r.begin_step());
}

// Selecting every name reproduces the input; selecting a name twice
// duplicates its row.
TEST(SelectEdgeCases, SelectAllAndDuplicates) {
    fp::Fabric fabric;
    std::jthread writer([&] {
        a::GroupDef def = core::output_group("src", "m", {"rows", "cols"});
        a::Writer w(fabric, "in.fp", def, 0, 1);
        w.begin_step();
        w.set_dimension("rows", 2);
        w.set_dimension("cols", 3);
        w.write_attribute("m.header.1", {"a", "b", "c"});
        const std::vector<double> data = {1, 2, 3, 4, 5, 6};
        w.write<double>("m", data, u::Box({0, 0}, {2, 3}));
        w.end_step();
        w.close();
    });
    std::jthread select([&] {
        sb::mpi::run_ranks(2, [&](sb::mpi::Communicator& c) {
            auto comp = core::make_component("select");
            core::RunContext ctx{fabric, c, nullptr, {}};
            comp->run(ctx, u::ArgList({"in.fp", "m", "1", "out.fp", "s",
                                       "a", "b", "c", "b"}));
        });
    });
    a::Reader r(fabric, "out.fp", 0, 1);
    ASSERT_TRUE(r.begin_step());
    EXPECT_EQ(r.inq_var("s").shape, (u::NdShape{2, 4}));
    EXPECT_EQ(r.read<double>("s", u::Box({0, 0}, {2, 4})),
              (std::vector<double>{1, 2, 3, 2, 4, 5, 6, 5}));
    r.end_step();
}

// Magnitude on 1-component vectors is |x|.
TEST(MagnitudeEdgeCases, SingleComponentVectors) {
    fp::Fabric fabric;
    std::jthread writer([&] {
        a::GroupDef def = core::output_group("src", "v", {"n", "k"});
        a::Writer w(fabric, "in.fp", def, 0, 1);
        w.begin_step();
        w.set_dimension("n", 4);
        w.set_dimension("k", 1);
        const std::vector<double> data = {-3, 0, 2.5, -1};
        w.write<double>("v", data, u::Box({0, 0}, {4, 1}));
        w.end_step();
        w.close();
    });
    std::jthread mag([&] {
        sb::mpi::run_ranks(1, [&](sb::mpi::Communicator& c) {
            auto comp = core::make_component("magnitude");
            core::RunContext ctx{fabric, c, nullptr, {}};
            comp->run(ctx, u::ArgList({"in.fp", "v", "out.fp", "m"}));
        });
    });
    a::Reader r(fabric, "out.fp", 0, 1);
    ASSERT_TRUE(r.begin_step());
    EXPECT_EQ(r.read<double>("m", u::Box({0}, {4})),
              (std::vector<double>{3, 0, 2.5, 1}));
    r.end_step();
}

// The sims accept an external ADIOS XML config (the deck's xml= key) —
// the paper's "~25-line XML file" integration path.
TEST(SimXmlOverride, LammpsUsesConfigFile) {
    sim::register_simulations();
    const std::string xml_path = tmp("lammps_override.xml");
    std::ofstream(xml_path) << R"(<adios-config>
  <adios-group name="particle_dump">
    <var name="natoms" type="unsigned long"/>
    <var name="nquantities" type="unsigned long"/>
    <var name="atoms" type="double" dimensions="natoms,nquantities"/>
    <attribute name="atoms.header.1" value="ID,Type,vx,vy,vz"/>
    <attribute name="provenance" value="override-config"/>
  </adios-group>
  <transport group="particle_dump" method="FLEXPATH"/>
</adios-config>)";

    fp::Fabric fabric;
    core::Workflow wf(fabric);
    wf.add("lammps", 2, {"rows=6", "cols=4", "steps=1", "xml=" + xml_path});

    std::jthread driver([&] { wf.run(); });
    a::Reader r(fabric, "dump.custom.fp", 0, 1);
    ASSERT_TRUE(r.begin_step());
    EXPECT_EQ(r.attribute_strings("provenance"),
              (std::vector<std::string>{"override-config"}));
    r.end_step();
    while (r.begin_step()) r.end_step();
}

// The histogram component's default output file name.
TEST(HistogramDefaults, DefaultFileName) {
    sim::register_simulations();
    fp::Fabric fabric;
    core::Workflow wf(fabric);
    wf.add("gromacs", 1, {"atoms=8", "steps=1"});
    wf.add("magnitude", 1, {"gmx.fp", "coords", "m.fp", "spread"});
    wf.add("histogram", 1, {"m.fp", "spread", "4"});
    wf.run();
    const auto hists = core::read_histogram_file("histogram_spread.txt");
    ASSERT_EQ(hists.size(), 1u);
    EXPECT_EQ(hists[0].total(), 8u);
    std::remove("histogram_spread.txt");
}

// Empty byte payloads and mismatched receive sizes in the runtime.
TEST(MpiEdgeCases, EmptyPayloadAndSizeMismatch) {
    sb::mpi::run_ranks(2, [](sb::mpi::Communicator& c) {
        if (c.rank() == 0) {
            c.send_bytes(1, 0, {});
            c.send_bytes(1, 1, sb::mpi::Bytes(3));  // 3 bytes: not a double
        } else {
            EXPECT_TRUE(c.recv_bytes(0, 0).empty());
            EXPECT_THROW((void)c.recv<double>(0, 1), std::runtime_error);
        }
    });
}

// Stream introspection used by the benches.
TEST(StreamIntrospection, QueuedStepsAndWriterAttached) {
    fp::Fabric fabric;
    auto s = fabric.get("intro");
    EXPECT_FALSE(s->writer_attached());
    EXPECT_EQ(s->queued_steps(), 0u);
    fp::WriterPort port(fabric, "intro", 0, 1, fp::StreamOptions{4});
    EXPECT_TRUE(s->writer_attached());
    port.declare(fp::VarDecl{"x", fp::DataKind::Float64, u::NdShape{1}, {}});
    const std::vector<double> v = {1.0};
    port.put<double>("x", u::Box({0}, {1}), v);
    port.end_step();
    EXPECT_EQ(s->queued_steps(), 1u);
    port.close();
}

// A launch-script workflow whose components have wildly mismatched
// process counts in both directions (expanding and contracting).
TEST(WorkflowStress, ExpandingAndContractingParallelism) {
    sim::register_simulations();
    fp::Fabric fabric;
    core::Workflow wf = core::build_workflow(
        fabric,
        "aprun -n 1 gromacs atoms=60 steps=2 &\n"
        "aprun -n 7 magnitude gmx.fp coords m.fp r &\n"
        "aprun -n 2 all-pairs m.fp r ap.fp d &\n"
        "aprun -n 5 dim-reduce ap.fp d 1 0 flat.fp f &\n"
        "aprun -n 3 histogram flat.fp f 6 " + tmp("expand_hist.txt") + " &\n");
    wf.run();
    const auto hists = core::read_histogram_file(tmp("expand_hist.txt"));
    ASSERT_EQ(hists.size(), 2u);
    EXPECT_EQ(hists[0].total(), 3600u);  // 60^2 pairwise distances
}

// ---- buffered steps parked in the durable log --------------------------------

TEST(SpoolEncoding, BlocksRoundTrip) {
    std::map<std::string, std::vector<fp::Block>> blocks;
    auto buf = std::make_shared<const std::vector<std::byte>>(
        std::vector<std::byte>{std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4},
                               std::byte{5}, std::byte{6}, std::byte{7}, std::byte{8}});
    blocks["a"].push_back(fp::Block{u::Box({0}, {1}), buf});
    blocks["a"].push_back(fp::Block{u::Box({1}, {1}), buf});
    blocks["b"].push_back(fp::Block{u::Box({2, 0}, {1, 1}), buf});

    const auto wire = fp::encode_step_blocks(blocks);
    const auto back = fp::decode_step_blocks(wire);
    ASSERT_EQ(back.size(), 2u);
    ASSERT_EQ(back.at("a").size(), 2u);
    EXPECT_EQ(back.at("a")[0].box, (u::Box({0}, {1})));
    EXPECT_EQ(back.at("a")[1].box, (u::Box({1}, {1})));
    EXPECT_EQ(*back.at("b")[0].data, *buf);
}

namespace {

/// Step frames on disk in `dir`'s one stream log.
std::uint64_t logged_steps(const std::string& dir) {
    const auto reports = sb::durable::scan_dir(dir);
    return reports.empty() ? 0 : reports.at(0).steps_recovered;
}

}  // namespace

TEST(Spool, BufferedStepsParkOnDiskAndLoadBack) {
    const std::string dir = tmp("spool_test");
    std::filesystem::remove_all(dir);

    fp::Fabric fabric;
    fp::StreamOptions opts;
    opts.queue_capacity = 8;
    opts.durable.dir = dir;
    opts.durable.segment_bytes = 1;  // one frame per segment
    opts.durable.retain_steps = 1;
    {
        fp::WriterPort port(fabric, "spooled", 0, 1, opts);
        for (std::uint64_t t = 0; t < 3; ++t) {
            port.declare(fp::VarDecl{"x", fp::DataKind::Float64, u::NdShape{4}, {}});
            std::vector<double> v(4, static_cast<double>(t));
            port.put<double>("x", u::Box({0}, {4}), v);
            port.end_step();
        }
        // All three steps are buffered: their data must live on disk now.
        EXPECT_EQ(logged_steps(dir), 3u);
        port.close();
    }

    fp::ReaderPort reader(fabric, "spooled", 0, 1);
    std::uint64_t t = 0;
    while (reader.begin_step()) {
        const auto v = reader.read<double>("x", u::Box({0}, {4}));
        for (const double x : v) EXPECT_EQ(x, static_cast<double>(t));
        reader.end_step();
        ++t;
    }
    EXPECT_EQ(t, 3u);
    // Acknowledged segments are collected as steps retire, down to the one
    // retained step.
    EXPECT_EQ(logged_steps(dir), 1u);
}

TEST(Spool, WorkflowProducesIdenticalResults) {
    sim::register_simulations();
    const std::string dir = tmp("spool_wf");
    std::filesystem::remove_all(dir);  // no history: a fresh run, not a resume

    const auto run_with = [&](const fp::StreamOptions& opts, const std::string& file) {
        fp::Fabric fabric;
        core::Workflow wf(fabric, opts);
        wf.add("gromacs", 2, {"atoms=64", "steps=4"});
        wf.add("magnitude", 2, {"gmx.fp", "coords", "m.fp", "r"});
        wf.add("histogram", 1, {"m.fp", "r", "8", file});
        wf.run();
    };
    fp::StreamOptions mem;
    run_with(mem, tmp("spool_mem_hist.txt"));
    fp::StreamOptions disk;
    disk.queue_capacity = 4;
    disk.durable.dir = dir;
    run_with(disk, tmp("spool_disk_hist.txt"));
    EXPECT_EQ(logged_steps(dir), 4u);  // the disk run went through the log

    const auto slurp = [](const std::string& path) {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    const std::string mem_bytes = slurp(tmp("spool_mem_hist.txt"));
    ASSERT_FALSE(mem_bytes.empty());
    EXPECT_EQ(mem_bytes, slurp(tmp("spool_disk_hist.txt")));
}

// ---- workflow timeline trace ----------------------------------------------------

TEST(WorkflowTrace, ChromeTraceEventsWritten) {
    sim::register_simulations();
    fp::Fabric fabric;
    core::Workflow wf(fabric);
    wf.add("gromacs", 1, {"atoms=16", "steps=2"});
    wf.add("magnitude", 2, {"gmx.fp", "coords", "m.fp", "r"});
    wf.add("histogram", 1, {"m.fp", "r", "4", tmp("trace_hist.txt")});
    EXPECT_THROW(wf.write_trace(tmp("never.json")), std::logic_error);  // before run
    wf.run();

    const std::string path = tmp("trace.json");
    wf.write_trace(path);
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("magnitude x2"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"bytes_in\""), std::string::npos);
    // Magnitude ran 2 steps on 2 ranks: at least 4 slices plus histogram's.
    std::size_t slices = 0;
    for (std::size_t pos = 0; (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos;
         ++pos) {
        ++slices;
    }
    EXPECT_GE(slices, 6u);
}
