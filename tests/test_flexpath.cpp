// Tests for the FlexPath-like transport: MxN redistribution across writer
// and reader group size combinations, launch-order independence, writer-side
// buffering/backpressure, end-of-stream, metadata self-description, and
// abort propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "durable/log.hpp"
#include "fault/fault.hpp"
#include "flexpath/reader.hpp"
#include "flexpath/stream.hpp"
#include "flexpath/writer.hpp"
#include "mpi/runtime.hpp"
#include "obs/metrics.hpp"
#include "util/ndarray.hpp"
#include "util/pool.hpp"

namespace fp = sb::flexpath;
namespace u = sb::util;

namespace {

/// Value stamped at global coordinates (i, j) of an (n x m) test array.
double stamp(std::uint64_t i, std::uint64_t j) {
    return static_cast<double>(i) * 10000.0 + static_cast<double>(j);
}

/// Runs a writer group and a reader group concurrently over `steps`
/// timesteps of an (n x m) array partitioned arbitrarily on both sides, and
/// verifies every reader sees exactly the stamped values in its box.
void run_mxn(int writers, int readers, std::uint64_t n, std::uint64_t m,
             std::uint64_t steps, std::size_t queue_capacity = 2) {
    fp::Fabric fabric;
    const u::NdShape shape{n, m};

    std::jthread writer_group([&] {
        sb::mpi::run_ranks(writers, [&](sb::mpi::Communicator& c) {
            fp::WriterPort port(fabric, "s", c.rank(), c.size(),
                                fp::StreamOptions{queue_capacity});
            for (std::uint64_t t = 0; t < steps; ++t) {
                fp::VarDecl decl;
                decl.name = "a";
                decl.kind = fp::DataKind::Float64;
                decl.global_shape = shape;
                decl.dim_labels = {"rows", "cols"};
                port.declare(decl);
                // Writers partition along dim 0.
                const u::Box box = u::partition_along(shape, 0, c.rank(), c.size());
                std::vector<double> data(box.volume());
                std::size_t k = 0;
                for (std::uint64_t i = box.offset[0]; i < box.offset[0] + box.count[0];
                     ++i) {
                    for (std::uint64_t j = 0; j < m; ++j) {
                        data[k++] = stamp(i, j) + static_cast<double>(t);
                    }
                }
                port.put<double>("a", box, data);
                port.put_attr("a.header.1", {"c0", "c1"});
                port.end_step();
            }
            port.close();
        });
    });

    sb::mpi::run_ranks(readers, [&](sb::mpi::Communicator& c) {
        fp::ReaderPort port(fabric, "s", c.rank(), c.size());
        std::uint64_t t = 0;
        while (port.begin_step()) {
            EXPECT_EQ(port.current_step(), t);
            const fp::VarDecl& decl = port.var("a");
            EXPECT_EQ(decl.global_shape, shape);
            EXPECT_EQ(decl.dim_labels, (std::vector<std::string>{"rows", "cols"}));
            // Readers partition along dim 1 — deliberately mismatched with
            // the writers to exercise the MxN intersection engine.
            const u::Box box = u::partition_along(shape, 1, c.rank(), c.size());
            const std::vector<double> data = port.read<double>("a", box);
            std::size_t k = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                for (std::uint64_t j = box.offset[1]; j < box.offset[1] + box.count[1];
                     ++j) {
                    ASSERT_EQ(data[k++], stamp(i, j) + static_cast<double>(t))
                        << "at (" << i << "," << j << ") step " << t;
                }
            }
            port.end_step();
            ++t;
        }
        EXPECT_EQ(t, steps);
    });
}

}  // namespace

class MxN : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MxN, RedistributesExactly) {
    const auto [w, r] = GetParam();
    run_mxn(w, r, 12, 7, 3);
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, MxN,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5),
                                            ::testing::Values(1, 2, 4, 7)));

TEST(Flexpath, ManyStepsThroughSmallQueue) { run_mxn(2, 3, 8, 4, 12, 1); }

TEST(Flexpath, RendezvousQueue) { run_mxn(2, 2, 8, 4, 5, 0); }

TEST(Flexpath, ReaderFirstLaunchOrder) {
    // The reader group starts first and blocks until the writer appears —
    // assembly property 2 of paper §IV.
    fp::Fabric fabric;
    std::atomic<bool> got{false};

    std::jthread reader([&] {
        fp::ReaderPort port(fabric, "late", 0, 1);
        ASSERT_TRUE(port.begin_step());
        EXPECT_EQ(port.read<double>("x", u::Box({0}, {2})),
                  (std::vector<double>{5.0, 6.0}));
        got.store(true);
        port.end_step();
        EXPECT_FALSE(port.begin_step());
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(got.load());  // reader must still be blocked

    fp::WriterPort port(fabric, "late", 0, 1);
    port.declare(fp::VarDecl{"x", fp::DataKind::Float64, u::NdShape{2}, {}});
    const std::vector<double> v = {5.0, 6.0};
    port.put<double>("x", u::Box({0}, {2}), v);
    port.end_step();
    port.close();
}

TEST(Flexpath, WriterRunsAheadUpToQueueCapacity) {
    fp::Fabric fabric;
    auto stream = fabric.get("buffered");
    fp::WriterPort port(fabric, "buffered", 0, 1, fp::StreamOptions{3});
    const std::vector<double> v = {1.0};
    for (int t = 0; t < 3; ++t) {
        port.declare(fp::VarDecl{"x", fp::DataKind::Float64, u::NdShape{1}, {}});
        port.put<double>("x", u::Box({0}, {1}), v);
        port.end_step();  // no reader yet: all three steps buffer
    }
    EXPECT_EQ(stream->queued_steps(), 3u);

    // A fourth step would exceed the buffer: the writer must block until a
    // reader drains one step (backpressure).
    std::atomic<bool> fourth_done{false};
    std::jthread ahead([&] {
        port.declare(fp::VarDecl{"x", fp::DataKind::Float64, u::NdShape{1}, {}});
        port.put<double>("x", u::Box({0}, {1}), v);
        port.end_step();
        fourth_done.store(true);
        port.close();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(fourth_done.load());

    fp::ReaderPort reader(fabric, "buffered", 0, 1);
    for (int t = 0; t < 4; ++t) {
        ASSERT_TRUE(reader.begin_step());
        reader.end_step();
    }
    EXPECT_FALSE(reader.begin_step());
}

TEST(Flexpath, EndOfStreamAfterDraining) {
    fp::Fabric fabric;
    {
        fp::WriterPort port(fabric, "eos", 0, 1);
        const std::vector<double> v = {1.0, 2.0};
        for (int t = 0; t < 2; ++t) {
            port.declare(fp::VarDecl{"x", fp::DataKind::Float64, u::NdShape{2}, {}});
            port.put<double>("x", u::Box({0}, {2}), v);
            port.end_step();
        }
    }  // destructor closes the writer group
    fp::ReaderPort reader(fabric, "eos", 0, 1);
    EXPECT_TRUE(reader.begin_step());
    reader.end_step();
    EXPECT_TRUE(reader.begin_step());
    reader.end_step();
    EXPECT_FALSE(reader.begin_step());
    EXPECT_FALSE(reader.begin_step());  // stays at end of stream
}

TEST(Flexpath, EmptyStreamDeliversEosOnly) {
    fp::Fabric fabric;
    {
        fp::WriterPort port(fabric, "never", 0, 1);
        port.close();
    }
    fp::ReaderPort reader(fabric, "never", 0, 1);
    EXPECT_FALSE(reader.begin_step());
}

TEST(Flexpath, MultipleVariablesAndAttributesPerStep) {
    fp::Fabric fabric;
    std::jthread writer([&] {
        fp::WriterPort port(fabric, "multi", 0, 1);
        port.declare(fp::VarDecl{"a", fp::DataKind::Float64, u::NdShape{3}, {"i"}});
        port.declare(fp::VarDecl{"n", fp::DataKind::UInt64, u::NdShape{}, {}});
        const std::vector<double> a = {1, 2, 3};
        const std::uint64_t n = 3;
        port.put<double>("a", u::Box({0}, {3}), a);
        port.put<std::uint64_t>("n", u::Box{}, std::span<const std::uint64_t>(&n, 1));
        port.put_attr("a.header.0", {"x", "y", "z"});
        port.put_attr("note", {"hello"});
        port.put_attr("dt", 0.25);
        port.end_step();
        port.close();
    });

    fp::ReaderPort reader(fabric, "multi", 0, 1);
    ASSERT_TRUE(reader.begin_step());
    const fp::StepMeta& meta = reader.meta();
    EXPECT_EQ(meta.vars.size(), 2u);
    EXPECT_EQ(meta.vars.at("a").dim_labels, (std::vector<std::string>{"i"}));
    EXPECT_EQ(meta.string_attrs.at("a.header.0"),
              (std::vector<std::string>{"x", "y", "z"}));
    EXPECT_EQ(meta.string_attrs.at("note"), (std::vector<std::string>{"hello"}));
    EXPECT_DOUBLE_EQ(meta.double_attrs.at("dt"), 0.25);
    EXPECT_EQ(reader.read<std::uint64_t>("n", u::Box{}).at(0), 3u);
    EXPECT_EQ(reader.read<double>("a", u::Box({1}, {2})),
              (std::vector<double>{2.0, 3.0}));
    reader.end_step();
    EXPECT_FALSE(reader.begin_step());
}

TEST(Flexpath, ReadErrors) {
    fp::Fabric fabric;
    std::jthread writer([&] {
        fp::WriterPort port(fabric, "errs", 0, 1);
        port.declare(fp::VarDecl{"a", fp::DataKind::Float64, u::NdShape{4, 4}, {}});
        // Only half the array is written: reads outside must fail coverage.
        std::vector<double> half(8, 1.0);
        port.put<double>("a", u::Box({0, 0}, {2, 4}), half);
        port.end_step();
        port.close();
    });

    fp::ReaderPort reader(fabric, "errs", 0, 1);
    ASSERT_TRUE(reader.begin_step());
    EXPECT_THROW((void)reader.read<double>("missing", u::Box({0}, {1})),
                 std::runtime_error);
    // Wrong selection rank.
    EXPECT_THROW((void)reader.read<double>("a", u::Box({0}, {2})),
                 std::invalid_argument);
    // Out of bounds.
    EXPECT_THROW((void)reader.read<double>("a", u::Box({0, 0}, {5, 4})),
                 std::invalid_argument);
    // Uncovered region.
    EXPECT_THROW((void)reader.read<double>("a", u::Box({0, 0}, {4, 4})),
                 std::runtime_error);
    // Covered region reads fine.
    EXPECT_EQ(reader.read<double>("a", u::Box({1, 0}, {1, 4})),
              std::vector<double>(4, 1.0));
    reader.end_step();
}

TEST(Flexpath, WritersMustAgreeOnDeclarations) {
    fp::Fabric fabric;
    EXPECT_THROW(
        sb::mpi::run_ranks(2,
                           [&](sb::mpi::Communicator& c) {
                               fp::WriterPort port(fabric, "disagree", c.rank(),
                                                   c.size());
                               // Rank-dependent global shape: must be rejected.
                               port.declare(fp::VarDecl{
                                   "a", fp::DataKind::Float64,
                                   u::NdShape{4 + static_cast<std::uint64_t>(c.rank())},
                                   {}});
                               const std::vector<double> v = {1.0};
                               port.put<double>("a", u::Box({0}, {1}), v);
                               port.end_step();
                               port.close();
                           }),
        std::logic_error);
}

TEST(Flexpath, BlockOutsideGlobalShapeRejected) {
    fp::Fabric fabric;
    fp::WriterPort port(fabric, "oob", 0, 1);
    port.declare(fp::VarDecl{"a", fp::DataKind::Float64, u::NdShape{4}, {}});
    const std::vector<double> v = {1.0, 2.0};
    port.put<double>("a", u::Box({3}, {2}), v);
    EXPECT_THROW(port.end_step(), std::logic_error);
}

TEST(Flexpath, PutSizeValidation) {
    fp::Fabric fabric;
    fp::WriterPort port(fabric, "size", 0, 1);
    port.declare(fp::VarDecl{"a", fp::DataKind::Float64, u::NdShape{4}, {}});
    const std::vector<double> v = {1.0, 2.0, 3.0};
    EXPECT_THROW(port.put<double>("a", u::Box({0}, {2}), v), std::invalid_argument);
    EXPECT_THROW(port.put<double>("undeclared", u::Box({0}, {3}), v),
                 std::logic_error);
}

TEST(Flexpath, StepMetaWireRoundTrip) {
    fp::StepMeta m;
    m.step = 42;
    m.vars["a"] = fp::VarDecl{"a", fp::DataKind::Float64, u::NdShape{3, 4}, {"r", "c"}};
    m.vars["n"] = fp::VarDecl{"n", fp::DataKind::UInt64, u::NdShape{}, {}};
    m.string_attrs["a.header.1"] = {"p", "q", "r", "s"};
    m.double_attrs["dt"] = 0.5;

    const auto wire = fp::encode_step_meta(m);
    const fp::StepMeta back = fp::decode_step_meta(wire);
    EXPECT_EQ(back.step, 42u);
    EXPECT_EQ(back.vars.at("a"), m.vars.at("a"));
    EXPECT_EQ(back.vars.at("n"), m.vars.at("n"));
    EXPECT_EQ(back.string_attrs, m.string_attrs);
    EXPECT_EQ(back.double_attrs, m.double_attrs);
}

TEST(Flexpath, AbortWakesBlockedReader) {
    fp::Fabric fabric;
    auto stream = fabric.get("aborted");
    std::jthread aborter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        fabric.abort_all();
    });
    fp::ReaderPort reader(fabric, "aborted", 0, 1);
    EXPECT_THROW((void)reader.begin_step(), fp::StreamAborted);
}

TEST(Flexpath, AbortFailsSubsequentSubmit) {
    fp::Fabric fabric;
    fp::WriterPort port(fabric, "aborted2", 0, 1);
    fabric.get("aborted2")->abort();
    port.declare(fp::VarDecl{"a", fp::DataKind::Float64, u::NdShape{1}, {}});
    const std::vector<double> v = {1.0};
    port.put<double>("a", u::Box({0}, {1}), v);
    EXPECT_THROW(port.end_step(), fp::StreamAborted);
}

// A stream first opened after abort_all is aborted too: a writer that
// attaches only after a peer failed unwinds instead of waiting for a
// reader that will never come.
TEST(Flexpath, AbortAllAbortsStreamsOpenedLater) {
    fp::Fabric fabric;
    fabric.abort_all();
    const auto publish = [&] {
        fp::WriterPort port(fabric, "late", 0, 1);
        port.declare(fp::VarDecl{"a", fp::DataKind::Float64, u::NdShape{1}, {}});
        const std::vector<double> v = {1.0};
        port.put<double>("a", u::Box({0}, {1}), v);
        port.end_step();
    };
    EXPECT_THROW(publish(), fp::StreamAborted);
}

TEST(Flexpath, FabricRegistryByName) {
    fp::Fabric fabric;
    auto a = fabric.get("one");
    auto b = fabric.get("two");
    auto a2 = fabric.get("one");
    EXPECT_EQ(a.get(), a2.get());
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(fabric.stream_names(), (std::vector<std::string>{"one", "two"}));
}

TEST(Flexpath, GroupSizeDisagreementRejected) {
    fp::Fabric fabric;
    auto s = fabric.get("sz");
    s->attach_writer(2, {});
    EXPECT_THROW(s->attach_writer(3, {}), std::logic_error);
    s->attach_reader(4);
    EXPECT_THROW(s->attach_reader(1), std::logic_error);
    EXPECT_THROW(s->attach_writer(0, {}), std::invalid_argument);
}

// Readers of the same group observe identical step sequences even when they
// proceed at different speeds.
TEST(Flexpath, ReaderGroupLockstep) {
    fp::Fabric fabric;
    constexpr std::uint64_t kSteps = 6;

    std::jthread writer([&] {
        fp::WriterPort port(fabric, "lockstep", 0, 1, fp::StreamOptions{1});
        for (std::uint64_t t = 0; t < kSteps; ++t) {
            port.declare(fp::VarDecl{"x", fp::DataKind::Float64, u::NdShape{4}, {}});
            std::vector<double> v(4, static_cast<double>(t));
            port.put<double>("x", u::Box({0}, {4}), v);
            port.end_step();
        }
        port.close();
    });

    sb::mpi::run_ranks(3, [&](sb::mpi::Communicator& c) {
        fp::ReaderPort port(fabric, "lockstep", c.rank(), c.size());
        std::uint64_t expected = 0;
        while (port.begin_step()) {
            EXPECT_EQ(port.current_step(), expected);
            // Stagger the ranks to stress the acquire/release protocol.
            if (c.rank() == 1) {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
            const auto v = port.read<double>(
                "x", u::partition_along(u::NdShape{4}, 0, c.rank(), c.size()));
            for (double x : v) EXPECT_EQ(x, static_cast<double>(expected));
            port.end_step();
            ++expected;
        }
        EXPECT_EQ(expected, kSteps);
    });
}

// ---- redistribution fast path --------------------------------------------

namespace {

double counter_total(const std::string& name) {
    return sb::obs::Registry::global().total(name);
}

/// Writes one step of an (8 x 8) array as `writers` row-slabs.
void put_row_slabs(fp::WriterPort& port, const u::NdShape& shape, int writers,
                   double base) {
    port.declare(fp::VarDecl{"a", fp::DataKind::Float64, shape, {}});
    for (int w = 0; w < writers; ++w) {
        const u::Box b = u::partition_along(shape, 0, w, writers);
        std::vector<double> data(b.volume());
        for (std::size_t k = 0; k < data.size(); ++k) {
            // Stamp by global coordinate, so values are layout-independent.
            const std::uint64_t i = b.offset[0] + k / shape[1];
            const std::uint64_t j = k % shape[1];
            data[k] = base + static_cast<double>(i) * 1000.0 +
                      static_cast<double>(j);
        }
        port.put<double>("a", b, data);
    }
    port.end_step();
}

}  // namespace

// Plans compiled on the first step replay on later steps of the same writer
// layout, and are recompiled — with correct results — when the writer
// repartitions mid-stream.
TEST(Flexpath, PlanCacheInvalidatedOnRepartition) {
    fp::Fabric fabric;
    const u::NdShape shape{8, 8};

    std::jthread writer([&] {
        fp::WriterPort port(fabric, "plans", 0, 1, fp::StreamOptions{4});
        // Two steps as 2 row-slabs, then two steps as 4 — a layout change.
        put_row_slabs(port, shape, 2, 0.0);
        put_row_slabs(port, shape, 2, 1.0);
        put_row_slabs(port, shape, 4, 2.0);
        put_row_slabs(port, shape, 4, 3.0);
        port.close();
    });

    const double hits0 = counter_total("flexpath.plan_hits");
    const double misses0 = counter_total("flexpath.plan_misses");

    fp::ReaderPort reader(fabric, "plans", 0, 1);
    const u::Box box({1, 2}, {6, 4});  // cuts across every writer block
    std::vector<std::vector<double>> seen;
    while (reader.begin_step()) {
        seen.push_back(reader.read<double>("a", box));
        reader.end_step();
    }
    ASSERT_EQ(seen.size(), 4u);
    // Steps of one layout agree modulo the per-step base stamp; the reads
    // across the layout change agree the same way — the recompiled plan
    // assembled the identical region.
    for (std::size_t s = 1; s < 4; ++s) {
        ASSERT_EQ(seen[s].size(), seen[0].size());
        for (std::size_t k = 0; k < seen[0].size(); ++k) {
            EXPECT_EQ(seen[s][k] - seen[0][k], static_cast<double>(s))
                << "step " << s << " element " << k;
        }
    }
    // Steps 0 and 2 compiled (first touch, then the repartition); 1 and 3 hit.
    EXPECT_EQ(counter_total("flexpath.plan_misses") - misses0, 2.0);
    EXPECT_EQ(counter_total("flexpath.plan_hits") - hits0, 2.0);
}

// A box that coincides exactly with one writer block reads zero-copy; any
// other box declines the view and the copying read still works.
TEST(Flexpath, ZeroCopyViewOnAlignedBox) {
    fp::Fabric fabric;
    const u::NdShape shape{8, 8};

    std::jthread writer([&] {
        fp::WriterPort port(fabric, "views", 0, 1, fp::StreamOptions{2});
        put_row_slabs(port, shape, 2, 0.0);
        port.close();
    });

    const double zc0 = counter_total("flexpath.zero_copy_reads");
    fp::ReaderPort reader(fabric, "views", 0, 1);
    ASSERT_TRUE(reader.begin_step());

    const u::Box block0 = u::partition_along(shape, 0, 0, 2);
    const auto view = reader.try_read_view<double>("a", block0);
    ASSERT_TRUE(view.has_value());
    ASSERT_EQ(view->size(), block0.volume());
    EXPECT_EQ(counter_total("flexpath.zero_copy_reads") - zc0, 1.0);

    // The view matches a copying read of the same box...
    const auto copied = reader.read<double>("a", block0);
    for (std::size_t k = 0; k < copied.size(); ++k) {
        EXPECT_EQ((*view)[k], copied[k]);
    }
    // ...and stays valid (same bytes, same address) after further reads of
    // other boxes — it is pinned by the step, not by the last read call.
    const double first = (*view)[0];
    const auto other = reader.read<double>("a", u::Box({0, 0}, {8, 8}));
    EXPECT_EQ((*view)[0], first);
    EXPECT_EQ(other[0], first);

    // Misaligned boxes decline the view.
    EXPECT_FALSE(reader.try_read_view<double>("a", u::Box({0, 0}, {3, 8})));
    EXPECT_FALSE(reader.try_read_view<double>("a", u::Box({0, 0}, {8, 8})));
    // Element-size mismatch throws rather than reinterpreting.
    EXPECT_THROW(reader.try_read_view<float>("a", block0), std::runtime_error);

    reader.end_step();
}

// The step's FFS metadata packet is decoded once and shared: every reader
// rank of a step sees the same StepMeta instance.
TEST(Flexpath, StepMetaDecodedOncePerStep) {
    fp::Fabric fabric;
    const u::NdShape shape{4, 4};

    std::jthread writer([&] {
        fp::WriterPort port(fabric, "shared-meta", 0, 1, fp::StreamOptions{2});
        put_row_slabs(port, shape, 1, 0.0);
        port.close();
    });

    fp::ReaderPort a(fabric, "shared-meta", 0, 2);
    fp::ReaderPort b(fabric, "shared-meta", 1, 2);
    ASSERT_TRUE(a.begin_step());
    ASSERT_TRUE(b.begin_step());
    EXPECT_EQ(&a.meta(), &b.meta());
    a.end_step();
    b.end_step();
}

// The cached read of a cross-cut box equals assembling it from a copy plan
// compiled afresh per writer block (util::compile_copy_plan +
// execute_copy_plan over zero-copy views of the blocks), on the step that
// compiles the plan and on the step that replays it.
TEST(Flexpath, FreshlyCompiledPlanMatchesCachedRead) {
    fp::Fabric fabric;
    const u::NdShape shape{8, 8};

    std::jthread writer([&] {
        fp::WriterPort port(fabric, "fresh-plan", 0, 1, fp::StreamOptions{2});
        put_row_slabs(port, shape, 2, 0.0);
        put_row_slabs(port, shape, 2, 1.0);
        port.close();
    });

    const double hits0 = counter_total("flexpath.plan_hits");
    const double misses0 = counter_total("flexpath.plan_misses");
    fp::ReaderPort reader(fabric, "fresh-plan", 0, 1);
    const u::Box box({1, 1}, {6, 6});
    std::uint64_t t = 0;
    while (reader.begin_step()) {
        const auto cached = reader.read<double>("a", box);
        std::vector<double> fresh(box.volume(), -1.0);
        for (int w = 0; w < 2; ++w) {
            const u::Box b = u::partition_along(shape, 0, w, 2);
            const auto view = reader.try_read_view_bytes("a", b);
            ASSERT_TRUE(view.has_value());
            const auto region = u::intersect(b, box);
            ASSERT_TRUE(region.has_value());
            u::execute_copy_plan(*view, std::as_writable_bytes(std::span(fresh)),
                                 u::compile_copy_plan(b, box, *region, sizeof(double)));
        }
        EXPECT_EQ(cached, fresh) << "step " << t;
        reader.end_step();
        ++t;
    }
    EXPECT_EQ(t, 2u);
    // Step 1 replayed the box's plan from step 0; the block views compile
    // no plan at all.
    EXPECT_EQ(counter_total("flexpath.plan_hits") - hits0, 1.0);
    EXPECT_EQ(counter_total("flexpath.plan_misses") - misses0, 1.0);
}

// The copy-plan cache never holds more than kMaxPlans plans, however many
// distinct boxes one step reads, and a live set that fits the bound still
// hits on every read once compiled.
TEST(Flexpath, PlanCacheStaysBounded) {
    constexpr std::size_t kMax = fp::ReaderPort::kMaxPlans;
    constexpr std::uint64_t n = 4 * kMax;
    fp::Fabric fabric;

    std::jthread writer([&] {
        fp::WriterPort port(fabric, "bounded-plans", 0, 1, fp::StreamOptions{2});
        std::vector<double> data(n);
        for (std::uint64_t i = 0; i < n; ++i) data[i] = static_cast<double>(i);
        for (int t = 0; t < 4; ++t) {
            port.declare(fp::VarDecl{"a", fp::DataKind::Float64, u::NdShape{n}, {}});
            port.put<double>("a", u::Box({0}, {n}), data);
            port.end_step();
        }
        port.close();
    });

    auto& reg = sb::obs::Registry::global();
    const sb::obs::Labels labels{{"stream", "bounded-plans"}, {"rank", "0"}};
    const auto lookups = [&] {
        return std::pair{reg.counter("flexpath.plan_hits", labels).value(),
                         reg.counter("flexpath.plan_misses", labels).value()};
    };

    fp::ReaderPort reader(fabric, "bounded-plans", 0, 1);
    double v = 0.0;
    // Step 0: 3 x kMaxPlans distinct one-element boxes.
    ASSERT_TRUE(reader.begin_step());
    for (std::uint64_t i = 0; i < 3 * kMax; ++i) {
        reader.read_bytes("a", u::Box({i}, {1}), std::as_writable_bytes(std::span(&v, 1)));
        ASSERT_EQ(v, static_cast<double>(i));
        ASSERT_LE(reader.plan_cache_size(), kMax) << "after read " << i;
    }
    reader.end_step();

    // Steps 1-3: the same kMaxPlans boxes each step, every third box of
    // step 0's.  Step 1 compiles them all; steps 2 and 3 replay every one.
    for (std::uint64_t t = 1; t < 4; ++t) {
        ASSERT_TRUE(reader.begin_step());
        const auto [hits0, misses0] = lookups();
        for (std::uint64_t i = 0; i < kMax; ++i) {
            const std::uint64_t off = 3 * i;
            reader.read_bytes("a", u::Box({off}, {1}),
                              std::as_writable_bytes(std::span(&v, 1)));
            ASSERT_EQ(v, static_cast<double>(off));
            ASSERT_LE(reader.plan_cache_size(), kMax);
        }
        const auto [hits1, misses1] = lookups();
        if (t == 1) {
            EXPECT_EQ(misses1 - misses0, std::uint64_t{kMax});
        } else {
            EXPECT_EQ(hits1 - hits0, std::uint64_t{kMax}) << "step " << t;
            EXPECT_EQ(misses1 - misses0, 0u) << "step " << t;
        }
        reader.end_step();
    }
}

// ---- reader-side step pipelining ------------------------------------------

namespace {

/// Restores an environment variable to its prior state on scope exit.
class EnvVarGuard {
public:
    explicit EnvVarGuard(const char* name) : name_(name) {
        if (const char* v = std::getenv(name)) saved_ = v;
    }
    ~EnvVarGuard() {
        if (saved_) {
            ::setenv(name_, saved_->c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }
    EnvVarGuard(const EnvVarGuard&) = delete;
    EnvVarGuard& operator=(const EnvVarGuard&) = delete;

private:
    const char* name_;
    std::optional<std::string> saved_;
};

/// Single-rank writer: `steps` steps of a 4-element var "x" valued t, then
/// close.
void write_simple_steps(fp::Fabric& fabric, const std::string& stream,
                        std::uint64_t steps, const fp::StreamOptions& opts) {
    fp::WriterPort port(fabric, stream, 0, 1, opts);
    for (std::uint64_t t = 0; t < steps; ++t) {
        port.declare(fp::VarDecl{"x", fp::DataKind::Float64, u::NdShape{4}, {}});
        const std::vector<double> v(4, static_cast<double>(t));
        port.put<double>("x", u::Box({0}, {4}), v);
        port.end_step();
    }
    port.close();
}

/// Options for a stream of queue `capacity` that parks every step in a
/// durable log under `dir` (emptied first): one frame per segment and one
/// acknowledged step retained, so released history is collected.
fp::StreamOptions logged_options(const std::filesystem::path& dir,
                                 std::size_t capacity) {
    std::filesystem::remove_all(dir);
    fp::StreamOptions opts(capacity);
    opts.durable.dir = dir.string();
    opts.durable.segment_bytes = 1;
    opts.durable.retain_steps = 1;
    return opts;
}

/// Step frames still on disk in `dir`'s one stream log.
std::uint64_t logged_steps(const std::filesystem::path& dir) {
    const auto reports = sb::durable::scan_dir(dir.string());
    return reports.empty() ? 0 : reports.at(0).steps_recovered;
}

template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

}  // namespace

TEST(Pipeline, ReadAheadResolution) {
    const EnvVarGuard guard("SB_READ_AHEAD");
    fp::StreamOptions opts;
    ::unsetenv("SB_READ_AHEAD");
    EXPECT_EQ(fp::resolve_read_ahead(opts), 2u);
    ::setenv("SB_READ_AHEAD", "off", 1);
    EXPECT_EQ(fp::resolve_read_ahead(opts), 1u);
    ::setenv("SB_READ_AHEAD", "0", 1);
    EXPECT_EQ(fp::resolve_read_ahead(opts), 1u);
    ::setenv("SB_READ_AHEAD", "false", 1);
    EXPECT_EQ(fp::resolve_read_ahead(opts), 1u);
    ::setenv("SB_READ_AHEAD", "4", 1);
    EXPECT_EQ(fp::resolve_read_ahead(opts), 4u);
    ::setenv("SB_READ_AHEAD", "banana", 1);
    EXPECT_EQ(fp::resolve_read_ahead(opts), 2u);
    // An explicit option always wins over the environment, so tests that
    // pin a window keep their semantics under the SB_READ_AHEAD=off CI leg.
    opts.read_ahead = 3;
    ::setenv("SB_READ_AHEAD", "off", 1);
    EXPECT_EQ(fp::resolve_read_ahead(opts), 3u);
}

TEST(Pipeline, StreamReportsResolvedWindow) {
    fp::Fabric fabric;
    auto s = fabric.get("window-depth");
    EXPECT_EQ(s->read_ahead(), 0u);  // unresolved until a writer attaches
    fp::StreamOptions opts(4);
    opts.read_ahead = 3;
    s->attach_writer(1, opts);
    EXPECT_EQ(s->read_ahead(), 3u);
    EXPECT_EQ(s->in_flight_steps(), 0u);
}

// A fast reader rank advances into step N+1 while a slow peer still holds
// step N — the point of the window.  The handshake is deterministic: rank 1
// refuses to finish step 0 until rank 0 proves it is inside step 1.
TEST(Pipeline, FastRankRunsAheadWithinWindow) {
    fp::Fabric fabric;
    constexpr std::uint64_t kSteps = 4;
    fp::StreamOptions opts(8);
    opts.read_ahead = 2;

    std::jthread writer([&] { write_simple_steps(fabric, "skew", kSteps, opts); });

    std::atomic<bool> rank0_inside_step1{false};
    sb::mpi::run_ranks(2, [&](sb::mpi::Communicator& c) {
        fp::ReaderPort port(fabric, "skew", c.rank(), c.size());
        std::uint64_t t = 0;
        while (port.begin_step()) {
            EXPECT_EQ(port.current_step(), t);
            if (c.rank() == 0 && t == 1) {
                // Rank 1 still holds step 0 (it is spinning on the flag set
                // below), and this rank holds step 1: two steps in flight.
                EXPECT_EQ(fabric.get("skew")->in_flight_steps(), 2u);
                rank0_inside_step1.store(true, std::memory_order_release);
            }
            if (c.rank() == 1 && t == 0) {
                EXPECT_TRUE(wait_until(
                    [&] {
                        return rank0_inside_step1.load(std::memory_order_acquire);
                    },
                    std::chrono::seconds(10)))
                    << "rank 0 never reached step 1 while rank 1 held step 0";
            }
            const auto v = port.read<double>("x", u::Box({0}, {4}));
            for (const double x : v) EXPECT_EQ(x, static_cast<double>(t));
            port.end_step();
            ++t;
        }
        EXPECT_EQ(t, kSteps);
    });

    auto& reg = sb::obs::Registry::global();
    EXPECT_GE(reg.gauge("flexpath.read_ahead_depth", {{"stream", "skew"}})
                  .high_water(),
              2.0);
    EXPECT_GT(reg.histogram("flexpath.prefetch_wait_seconds", {{"stream", "skew"}})
                  .count(),
              0u);
}

// With the window pinned to 1 the seed's lockstep protocol is reproduced:
// no rank enters step N+1 until every rank has released step N.
TEST(Pipeline, ReadAheadOneForcesLockstep) {
    fp::Fabric fabric;
    constexpr std::uint64_t kSteps = 3;
    fp::StreamOptions opts(8);
    opts.read_ahead = 1;

    std::jthread writer([&] { write_simple_steps(fabric, "lock1", kSteps, opts); });

    std::atomic<bool> rank0_entered_step1{false};
    sb::mpi::run_ranks(2, [&](sb::mpi::Communicator& c) {
        fp::ReaderPort port(fabric, "lock1", c.rank(), c.size());
        std::uint64_t t = 0;
        while (port.begin_step()) {
            if (c.rank() == 0 && t == 1) {
                rank0_entered_step1.store(true, std::memory_order_release);
            }
            if (c.rank() == 1 && t == 0) {
                EXPECT_EQ(fabric.get("lock1")->read_ahead(), 1u);
                // Give rank 0 ample opportunity to (incorrectly) run ahead.
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
                EXPECT_FALSE(rank0_entered_step1.load(std::memory_order_acquire))
                    << "rank 0 entered step 1 while rank 1 still held step 0";
                EXPECT_LE(fabric.get("lock1")->in_flight_steps(), 1u);
            }
            const auto v = port.read<double>("x", u::Box({0}, {4}));
            for (const double x : v) EXPECT_EQ(x, static_cast<double>(t));
            port.end_step();
            ++t;
        }
        EXPECT_EQ(t, kSteps);
    });
}

// The full ctest suite also runs under SB_READ_AHEAD=off in CI; this keeps
// a direct in-suite check that the env gate preserves MxN correctness.
TEST(Pipeline, EnvOffReproducesSeedSemantics) {
    const EnvVarGuard guard("SB_READ_AHEAD");
    ::setenv("SB_READ_AHEAD", "off", 1);
    run_mxn(2, 3, 8, 4, 6, 2);
}

TEST(Pipeline, EosAfterDrainingDeepWindow) {
    fp::Fabric fabric;
    fp::StreamOptions opts(8);
    opts.read_ahead = 4;
    write_simple_steps(fabric, "deep-eos", 3, opts);

    fp::ReaderPort reader(fabric, "deep-eos", 0, 1);
    std::uint64_t t = 0;
    while (reader.begin_step()) {
        reader.end_step();
        ++t;
    }
    EXPECT_EQ(t, 3u);
    EXPECT_FALSE(reader.begin_step());  // stays at end of stream
}

// Tearing a stream down while the prefetcher has staged steps the reader
// never consumed must join the prefetcher cleanly (no hang; the ASan/TSan
// legs verify no leak/race).
TEST(Pipeline, TeardownWithPartiallyConsumedWindow) {
    fp::Fabric fabric;
    fp::StreamOptions opts(8);
    opts.read_ahead = 4;
    write_simple_steps(fabric, "partial", 3, opts);

    auto stream = fabric.get("partial");
    fp::ReaderPort reader(fabric, "partial", 0, 1);
    ASSERT_TRUE(reader.begin_step());  // consume step 0 only
    reader.end_step();
    // The prefetcher stages the remaining steps behind our back.
    EXPECT_TRUE(wait_until([&] { return stream->in_flight_steps() == 2; },
                           std::chrono::seconds(10)));
    // Scope exit destroys the port, fabric, and stream with steps 1..2
    // still in flight.
}

TEST(Pipeline, AbortWithPartiallyConsumedWindow) {
    fp::Fabric fabric;
    fp::StreamOptions opts(8);
    opts.read_ahead = 3;
    write_simple_steps(fabric, "abort-win", 3, opts);

    auto stream = fabric.get("abort-win");
    fp::ReaderPort reader(fabric, "abort-win", 0, 1);
    ASSERT_TRUE(reader.begin_step());  // hold step 0
    EXPECT_TRUE(wait_until([&] { return stream->in_flight_steps() >= 2; },
                           std::chrono::seconds(10)));
    fabric.abort_all();
    reader.end_step();  // releasing into an aborted stream is a no-op
    EXPECT_THROW((void)reader.begin_step(), fp::StreamAborted);
}

TEST(Pipeline, SpoolReloadInteractsWithReadAhead) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "sb_test_spool_ra";

    fp::Fabric fabric;
    fp::StreamOptions opts = logged_options(dir, 8);
    opts.read_ahead = 3;
    const double read0 = counter_total("durable.bytes_read");
    const double collected0 = counter_total("durable.segments_collected");
    write_simple_steps(fabric, "spool-ra", 5, opts);
    // All five steps are parked on disk before the reader attaches.
    EXPECT_EQ(logged_steps(dir), 5u);

    fp::ReaderPort reader(fabric, "spool-ra", 0, 1);
    std::uint64_t t = 0;
    while (reader.begin_step()) {
        const auto v = reader.read<double>("x", u::Box({0}, {4}));
        for (const double x : v) EXPECT_EQ(x, static_cast<double>(t));
        reader.end_step();
        ++t;
    }
    EXPECT_EQ(t, 5u);
    EXPECT_GT(counter_total("durable.bytes_read") - read0, 0.0);
    // Acknowledged segments are collected as steps retire: only the one
    // retained step (the last) is left on disk.
    EXPECT_EQ(counter_total("durable.segments_collected") - collected0, 4.0);
    EXPECT_EQ(logged_steps(dir), 1u);
    fs::remove_all(dir);
}

// A prefetch failure (log segment vanished) poisons the stream and surfaces
// as the original error on the next acquire instead of hanging the reader.
TEST(Pipeline, PrefetchFailurePropagatesToAcquire) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "sb_test_spool_gone";

    fp::Fabric fabric;
    fp::StreamOptions opts = logged_options(dir, 8);
    opts.read_ahead = 2;
    write_simple_steps(fabric, "spool-gone", 2, opts);
    for (const auto& f : fs::directory_iterator(dir)) fs::remove(f);

    fp::ReaderPort reader(fabric, "spool-gone", 0, 1);
    try {
        (void)reader.begin_step();
        FAIL() << "expected the prefetch failure to propagate";
    } catch (const fp::SpoolError& e) {
        EXPECT_NE(std::string(e.what()).find("durable log"), std::string::npos)
            << e.what();
    }
    fs::remove_all(dir);
}

// Satellite bugfix: writer ranks disagreeing on a double attribute is an
// error, exactly like the string-attribute path (the seed silently kept the
// first value).
TEST(Pipeline, WritersMustAgreeOnDoubleAttrs) {
    fp::Fabric fabric;
    EXPECT_THROW(
        sb::mpi::run_ranks(2,
                           [&](sb::mpi::Communicator& c) {
                               fp::WriterPort port(fabric, "dattr", c.rank(),
                                                   c.size());
                               port.declare(fp::VarDecl{
                                   "a", fp::DataKind::Float64, u::NdShape{2}, {}});
                               const std::vector<double> v = {1.0};
                               port.put<double>(
                                   "a",
                                   u::Box({static_cast<std::uint64_t>(c.rank())},
                                          {1}),
                                   v);
                               // Rank-dependent value: must be rejected.
                               port.put_attr("dt",
                                             0.25 * (1.0 + c.rank()));
                               port.end_step();
                               port.close();
                           }),
        std::logic_error);
}

// ---- resilience: detach/reattach, retention, replay, liveness --------------

namespace {

/// Single-rank, single-variable contribution: 4 doubles valued `val`.
fp::Contribution simple_contrib(double val) {
    fp::Contribution c;
    c.var_decls["x"] = fp::VarDecl{"x", fp::DataKind::Float64, u::NdShape{4}, {}};
    auto data = std::make_shared<std::vector<std::byte>>(4 * sizeof(double));
    for (int k = 0; k < 4; ++k) {
        std::memcpy(data->data() + k * sizeof(double), &val, sizeof(double));
    }
    c.blocks["x"].push_back(fp::Block{u::Box({0}, {4}), std::move(data)});
    return c;
}

/// Disarms every injected fault on scope exit (test isolation).
struct FaultGuard {
    ~FaultGuard() { sb::fault::Registry::global().disarm_all(); }
};

}  // namespace

// A reader incarnation dies after acknowledging two steps; the replacement
// group replays every un-acknowledged step from the retained window with no
// data loss.
TEST(Resilience, DetachReattachReplaysUnacknowledged) {
    fp::Fabric fabric;
    fp::StreamOptions opts(16);
    opts.read_ahead = 2;
    opts.retain_steps = 8;
    write_simple_steps(fabric, "replay", 10, opts);

    auto stream = fabric.get("replay");
    {
        fp::ReaderPort reader(fabric, "replay", 0, 1);
        for (std::uint64_t t = 0; t < 2; ++t) {
            ASSERT_TRUE(reader.begin_step());
            const auto v = reader.read<double>("x", u::Box({0}, {4}));
            for (const double x : v) EXPECT_EQ(x, static_cast<double>(t));
            reader.end_step();
        }
    }  // the incarnation dies; steps 2..9 were never acknowledged
    stream->detach_reader();
    EXPECT_TRUE(stream->reader_detached());
    // Retention mode keeps draining the writer: all eight remaining steps
    // fit within read_ahead + retain_steps, so nothing is dropped.
    ASSERT_TRUE(wait_until([&] { return stream->in_flight_steps() == 8; },
                           std::chrono::seconds(10)));

    const double replayed0 = counter_total("flexpath.steps_replayed");
    fp::ReaderPort reader(fabric, "replay", 0, 1);
    std::uint64_t t = 2;  // resumes from the oldest un-acknowledged step
    while (reader.begin_step()) {
        const auto v = reader.read<double>("x", u::Box({0}, {4}));
        for (const double x : v) EXPECT_EQ(x, static_cast<double>(t));
        reader.end_step();
        ++t;
    }
    EXPECT_EQ(t, 10u);
    EXPECT_EQ(counter_total("flexpath.steps_replayed") - replayed0, 8.0);
    EXPECT_EQ(stream->steps_lost(), 0u);
    EXPECT_FALSE(stream->reader_detached());
}

// OnDataLoss::Skip: when the retention bound is exhausted the oldest
// retained steps are dropped, the replacement group resumes past them, and
// the loss is counted exactly.
TEST(Resilience, SkipPolicyDropsOldestRetained) {
    fp::Fabric fabric;
    fp::StreamOptions opts(16);
    opts.read_ahead = 2;
    opts.retain_steps = 2;  // in-memory bound: 4 payloads
    opts.on_data_loss = fp::OnDataLoss::Skip;
    write_simple_steps(fabric, "shed-skip", 10, opts);

    auto stream = fabric.get("shed-skip");
    {
        fp::ReaderPort reader(fabric, "shed-skip", 0, 1);
        for (std::uint64_t t = 0; t < 2; ++t) {
            ASSERT_TRUE(reader.begin_step());
            reader.end_step();
        }
    }
    const double skipped0 = counter_total("flexpath.steps_skipped");
    stream->detach_reader();
    // Eight steps remain; four fit in memory, so exactly four are skipped.
    ASSERT_TRUE(wait_until([&] { return stream->steps_lost() == 4; },
                           std::chrono::seconds(10)));
    ASSERT_TRUE(wait_until([&] { return stream->in_flight_steps() == 4; },
                           std::chrono::seconds(10)));
    EXPECT_EQ(counter_total("flexpath.steps_skipped") - skipped0, 4.0);

    fp::ReaderPort reader(fabric, "shed-skip", 0, 1);
    std::uint64_t t = 6;  // steps 2..5 were sacrificed
    while (reader.begin_step()) {
        EXPECT_FALSE(reader.step_lossy());
        const auto v = reader.read<double>("x", u::Box({0}, {4}));
        for (const double x : v) EXPECT_EQ(x, static_cast<double>(t));
        reader.end_step();
        ++t;
    }
    EXPECT_EQ(t, 10u);
    EXPECT_EQ(stream->steps_lost(), 4u);
}

// OnDataLoss::ZeroFill: dropped steps keep their metadata and position in
// the sequence; reads return zeros and the step is flagged lossy.
TEST(Resilience, ZeroFillPolicyKeepsMetadata) {
    fp::Fabric fabric;
    fp::StreamOptions opts(16);
    opts.read_ahead = 2;
    opts.retain_steps = 2;
    opts.on_data_loss = fp::OnDataLoss::ZeroFill;
    write_simple_steps(fabric, "shed-zero", 10, opts);

    auto stream = fabric.get("shed-zero");
    {
        fp::ReaderPort reader(fabric, "shed-zero", 0, 1);
        for (std::uint64_t t = 0; t < 2; ++t) {
            ASSERT_TRUE(reader.begin_step());
            reader.end_step();
        }
    }
    stream->detach_reader();
    ASSERT_TRUE(wait_until([&] { return stream->steps_lost() == 4; },
                           std::chrono::seconds(10)));
    ASSERT_TRUE(wait_until([&] { return stream->in_flight_steps() == 8; },
                           std::chrono::seconds(10)));

    fp::ReaderPort reader(fabric, "shed-zero", 0, 1);
    std::uint64_t t = 2;  // every step is still delivered, some without data
    while (reader.begin_step()) {
        const bool lossy = reader.step_lossy();
        EXPECT_EQ(lossy, t < 6) << "step " << t;
        // Metadata survives the data loss: the variable is fully described.
        EXPECT_EQ(reader.var("x").global_shape, u::NdShape{4});
        const auto v = reader.read<double>("x", u::Box({0}, {4}));
        for (const double x : v) {
            EXPECT_EQ(x, lossy ? 0.0 : static_cast<double>(t)) << "step " << t;
        }
        if (lossy) {
            EXPECT_FALSE(
                reader.try_read_view<double>("x", u::Box({0}, {4})).has_value());
        }
        reader.end_step();
        ++t;
    }
    EXPECT_EQ(t, 10u);
    EXPECT_EQ(stream->steps_lost(), 4u);
}

// A log-backed stream parks retained steps on disk instead of shedding
// them: detach/reattach replays everything with no in-memory retention.
TEST(Resilience, SpooledRetentionParksReplayOnDisk) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "sb_test_spool_retain";

    fp::Fabric fabric;
    fp::StreamOptions opts = logged_options(dir, 16);
    opts.read_ahead = 2;
    opts.retain_steps = 0;  // irrelevant: the log holds replay material
    opts.on_data_loss = fp::OnDataLoss::Skip;
    write_simple_steps(fabric, "spool-retain", 6, opts);

    auto stream = fabric.get("spool-retain");
    {
        fp::ReaderPort reader(fabric, "spool-retain", 0, 1);
        for (std::uint64_t t = 0; t < 2; ++t) {
            ASSERT_TRUE(reader.begin_step());
            reader.end_step();
        }
    }
    stream->detach_reader();
    ASSERT_TRUE(wait_until([&] { return stream->in_flight_steps() == 4; },
                           std::chrono::seconds(10)));
    // Retained data is parked on disk, not held in memory or dropped.
    EXPECT_GE(logged_steps(dir), 4u);
    EXPECT_EQ(stream->steps_lost(), 0u);

    fp::ReaderPort reader(fabric, "spool-retain", 0, 1);
    std::uint64_t t = 2;
    while (reader.begin_step()) {
        EXPECT_FALSE(reader.step_lossy());
        const auto v = reader.read<double>("x", u::Box({0}, {4}));
        for (const double x : v) EXPECT_EQ(x, static_cast<double>(t));
        reader.end_step();
        ++t;
    }
    EXPECT_EQ(t, 6u);
    EXPECT_EQ(stream->steps_lost(), 0u);
    EXPECT_EQ(logged_steps(dir), 1u);  // replayed history was collected
    fs::remove_all(dir);
}

// detach_writer discards partial per-rank submissions: the relaunched
// incarnation resubmits the whole step and readers never see torn data.
TEST(Resilience, WriterDetachDiscardsPartialSteps) {
    fp::Fabric fabric;
    auto stream = fabric.get("wdetach");
    fp::StreamOptions opts(4);
    stream->attach_writer(2, opts);

    const auto half = [](int rank, double val) {
        fp::Contribution c;
        c.var_decls["x"] =
            fp::VarDecl{"x", fp::DataKind::Float64, u::NdShape{2}, {}};
        auto data = std::make_shared<std::vector<std::byte>>(sizeof(double));
        std::memcpy(data->data(), &val, sizeof(double));
        c.blocks["x"].push_back(fp::Block{
            u::Box({static_cast<std::uint64_t>(rank)}, {1}), std::move(data)});
        return c;
    };
    stream->submit(0, half(0, 5.0));  // rank 1 dies before contributing
    EXPECT_EQ(stream->writer_resume_step(), 0u);
    stream->detach_writer(/*source_replays_from_zero=*/false);
    EXPECT_EQ(stream->writer_resume_step(), 0u);

    // The relaunched incarnation regenerates step 0 from both ranks.
    stream->submit(0, half(0, 7.0));
    stream->submit(1, half(1, 8.0));
    stream->close_writer(0);
    stream->close_writer(1);

    fp::ReaderPort reader(fabric, "wdetach", 0, 1);
    ASSERT_TRUE(reader.begin_step());
    const auto v = reader.read<double>("x", u::Box({0}, {2}));
    EXPECT_EQ(v[0], 7.0);  // the dead incarnation's 5.0 was discarded
    EXPECT_EQ(v[1], 8.0);
    reader.end_step();
    EXPECT_FALSE(reader.begin_step());
}

// A restarted deterministic source regenerates its sequence from step 0;
// the stream suppresses the re-submissions of steps it already assembled,
// so readers see each step exactly once.
TEST(Resilience, SourceReplayIsSuppressed) {
    fp::Fabric fabric;
    auto stream = fabric.get("sredo");
    stream->attach_writer(1, fp::StreamOptions{8});
    stream->submit(0, simple_contrib(0.0));
    stream->submit(0, simple_contrib(1.0));
    EXPECT_EQ(stream->writer_resume_step(), 2u);
    stream->detach_writer(/*source_replays_from_zero=*/true);

    const double sup0 = counter_total("flexpath.replay_suppressed");
    for (int t = 0; t < 4; ++t) {
        stream->submit(0, simple_contrib(static_cast<double>(t)));
    }
    stream->close_writer(0);
    EXPECT_EQ(counter_total("flexpath.replay_suppressed") - sup0, 2.0);

    fp::ReaderPort reader(fabric, "sredo", 0, 1);
    std::uint64_t t = 0;
    while (reader.begin_step()) {
        const auto v = reader.read<double>("x", u::Box({0}, {4}));
        for (const double x : v) EXPECT_EQ(x, static_cast<double>(t));
        reader.end_step();
        ++t;
    }
    EXPECT_EQ(t, 4u);  // steps 0..3, none duplicated
}

// A submit blocked on a full queue longer than the liveness timeout throws
// PeerLivenessError instead of hanging the writer on a dead reader forever.
TEST(Resilience, WriterLivenessConvertsStuckReaderIntoError) {
    fp::Fabric fabric;
    auto stream = fabric.get("live-w");
    fp::StreamOptions opts(1);
    opts.liveness_ms = 100.0;
    stream->attach_writer(1, opts);
    stream->submit(0, simple_contrib(0.0));  // fills the queue; nobody drains
    EXPECT_THROW(stream->submit(0, simple_contrib(1.0)), fp::PeerLivenessError);
}

// An acquire blocked on a silent writer group longer than the liveness
// timeout throws PeerLivenessError instead of waiting forever.
TEST(Resilience, ReaderLivenessConvertsSilentWriterIntoError) {
    fp::Fabric fabric;
    auto stream = fabric.get("live-r");
    fp::StreamOptions opts(4);
    opts.liveness_ms = 100.0;
    stream->attach_writer(1, opts);  // attaches but never submits
    fp::ReaderPort reader(fabric, "live-r", 0, 1);
    EXPECT_THROW((void)reader.begin_step(), fp::PeerLivenessError);
}

// ---- abort-path edge cases -------------------------------------------------

// Aborting while the prefetcher is inside a (slow) log reload must not
// hang or crash: the reader unwinds with StreamAborted and the prefetcher
// notices the abort when the reload returns.
TEST(Resilience, AbortDuringSpoolReload) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "sb_test_spool_abort";

    const FaultGuard guard;
    auto& faults = sb::fault::Registry::global();
    faults.arm_from_env("flexpath.spool_reload=delay:80");

    fp::Fabric fabric;
    fp::StreamOptions opts = logged_options(dir, 8);
    opts.read_ahead = 2;
    write_simple_steps(fabric, "spool-abort", 3, opts);

    fp::ReaderPort reader(fabric, "spool-abort", 0, 1);
    // The prefetcher is now inside the delayed reload (off the stream lock).
    ASSERT_TRUE(wait_until(
        [&] { return faults.hits("flexpath.spool_reload") >= 1; },
        std::chrono::seconds(10)));
    fabric.abort_all();
    EXPECT_THROW((void)reader.begin_step(), fp::StreamAborted);
    // Scope exit joins the prefetcher mid-reload: must not hang (the test
    // timeout and the TSan/ASan legs enforce it).
    fs::remove_all(dir);
}

// Abort with a partially-acknowledged in-flight window: one rank released
// the step, its peer still holds it.  Both unwind; the late release of the
// dead step is a no-op.
TEST(Resilience, AbortWithPartialAcknowledgements) {
    fp::Fabric fabric;
    fp::StreamOptions opts(8);
    opts.read_ahead = 2;
    write_simple_steps(fabric, "abort-ack", 3, opts);

    const double aborts0 = counter_total("flexpath.aborts");
    std::atomic<bool> aborted{false};
    sb::mpi::run_ranks(2, [&](sb::mpi::Communicator& c) {
        fp::ReaderPort port(fabric, "abort-ack", c.rank(), c.size());
        ASSERT_TRUE(port.begin_step());
        c.barrier();  // both ranks hold step 0 before anyone aborts
        if (c.rank() == 0) {
            port.end_step();  // rank 0 acknowledged step 0; rank 1 holds it
            fabric.abort_all();
            aborted.store(true);
        } else {
            ASSERT_TRUE(wait_until([&] { return aborted.load(); },
                                   std::chrono::seconds(10)));
            port.end_step();  // releasing into an aborted stream: no-op
        }
        EXPECT_THROW((void)port.begin_step(), fp::StreamAborted);
    });
    EXPECT_EQ(counter_total("flexpath.aborts") - aborts0, 1.0);
}

// abort() is idempotent: the second call neither throws nor double-counts.
TEST(Resilience, DoubleAbortIsIdempotent) {
    fp::Fabric fabric;
    auto stream = fabric.get("dabort");
    stream->attach_writer(1, fp::StreamOptions{2});
    const double aborts0 = counter_total("flexpath.aborts");
    stream->abort();
    stream->abort();
    EXPECT_EQ(counter_total("flexpath.aborts") - aborts0, 1.0);
    EXPECT_THROW(stream->submit(0, simple_contrib(0.0)), fp::StreamAborted);
}

// ---- zero-copy write path (put_view + BufferPool) --------------------------

namespace {

/// Pins the pool on (or off) for one scope and isolates it behind
/// generation bumps on both sides.
struct PoolGuard {
    explicit PoolGuard(bool on) : was(sb::util::pool_enabled()) {
        sb::util::set_pool_enabled(on);
        sb::util::BufferPool::global().bump_generation();
    }
    ~PoolGuard() {
        sb::util::BufferPool::global().bump_generation();
        sb::util::set_pool_enabled(was);
    }
    bool was;
};

/// run_mxn's writer loop, but filling the transport's pooled buffer in
/// place via put_view instead of staging + put<double>.
void run_mxn_view(int writers, int readers, std::uint64_t n, std::uint64_t m,
                  std::uint64_t steps) {
    fp::Fabric fabric;
    const u::NdShape shape{n, m};

    std::jthread writer_group([&] {
        sb::mpi::run_ranks(writers, [&](sb::mpi::Communicator& c) {
            fp::WriterPort port(fabric, "sv", c.rank(), c.size(),
                                fp::StreamOptions{2});
            for (std::uint64_t t = 0; t < steps; ++t) {
                port.declare(fp::VarDecl{"a", fp::DataKind::Float64, shape,
                                         {"rows", "cols"}});
                const u::Box box = u::partition_along(shape, 0, c.rank(), c.size());
                const std::span<std::byte> raw = port.put_view("a", box);
                ASSERT_EQ(raw.size(), box.volume() * sizeof(double));
                const std::span<double> data{
                    reinterpret_cast<double*>(raw.data()), box.volume()};
                std::size_t k = 0;
                for (std::uint64_t i = box.offset[0];
                     i < box.offset[0] + box.count[0]; ++i) {
                    for (std::uint64_t j = 0; j < m; ++j) {
                        data[k++] = stamp(i, j) + static_cast<double>(t);
                    }
                }
                port.end_step();
            }
            port.close();
        });
    });

    sb::mpi::run_ranks(readers, [&](sb::mpi::Communicator& c) {
        fp::ReaderPort port(fabric, "sv", c.rank(), c.size());
        std::uint64_t t = 0;
        while (port.begin_step()) {
            const u::Box box = u::partition_along(shape, 1, c.rank(), c.size());
            const std::vector<double> data = port.read<double>("a", box);
            std::size_t k = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                for (std::uint64_t j = box.offset[1];
                     j < box.offset[1] + box.count[1]; ++j) {
                    ASSERT_EQ(data[k++], stamp(i, j) + static_cast<double>(t))
                        << "at (" << i << "," << j << ") step " << t;
                }
            }
            port.end_step();
            ++t;
        }
        EXPECT_EQ(t, steps);
    });
}

}  // namespace

TEST(WritePath, PutViewRedistributesExactlyPooled) {
    const PoolGuard pool(true);
    run_mxn_view(2, 3, 12, 7, 6);
}

TEST(WritePath, PutViewRedistributesExactlyUnpooled) {
    const PoolGuard pool(false);
    run_mxn_view(2, 3, 12, 7, 6);
}

// Steady-state publishing recycles: after the first step's buffer retires,
// subsequent put_views are pool hits, and close() leaves the storage parked
// rather than leaked outstanding.
TEST(WritePath, StepBuffersRecycleAcrossSteps) {
    if (!sb::obs::enabled()) GTEST_SKIP() << "SB_METRICS=off";
    const PoolGuard pool(true);
    auto& reg = sb::obs::Registry::global();
    const std::uint64_t hits0 = reg.counter("pool.hits", {}).value();

    fp::Fabric fabric;
    const u::NdShape shape{512};
    {
        fp::WriterPort port(fabric, "recycle", 0, 1, fp::StreamOptions{1});
        fp::ReaderPort reader(fabric, "recycle", 0, 1);
        for (std::uint64_t t = 0; t < 6; ++t) {
            port.declare(fp::VarDecl{"x", fp::DataKind::Float64, shape, {}});
            const std::span<std::byte> raw =
                port.put_view("x", u::Box::whole(shape));
            const std::span<double> xs{reinterpret_cast<double*>(raw.data()), 512};
            for (std::size_t i = 0; i < xs.size(); ++i) {
                xs[i] = static_cast<double>(t * 1000 + i);
            }
            port.end_step();
            ASSERT_TRUE(reader.begin_step());
            const auto v = reader.read<double>("x", u::Box::whole(shape));
            for (std::size_t i = 0; i < v.size(); ++i) {
                ASSERT_EQ(v[i], static_cast<double>(t * 1000 + i));
            }
            reader.end_step();  // releases the step: its buffer retires
        }
        port.close();
    }
    // Lockstep cadence: every step after the first reuses the retired
    // buffer of its predecessor.
    EXPECT_GE(reg.counter("pool.hits", {}).value() - hits0, 5u);
    EXPECT_GT(sb::util::BufferPool::global().free_buffers(), 0u);
}

// The alias-safety acceptance for SB_FAULT replay: steps retained for a
// future reader incarnation pin their pooled payloads (ordinary shared_ptr
// refcounting), so the writer recycling buffers step after step can never
// scribble over a replayable step.  The replacement reader must see every
// replayed value exactly as written.
TEST(Resilience, RetiredBuffersNeverAliasRetainedSteps) {
    const PoolGuard pool(true);
    fp::Fabric fabric;
    fp::StreamOptions opts(16);
    opts.read_ahead = 2;
    opts.retain_steps = 8;

    const u::NdShape shape{64};
    {
        fp::WriterPort port(fabric, "replay-pool", 0, 1, opts);
        for (std::uint64_t t = 0; t < 10; ++t) {
            port.declare(fp::VarDecl{"x", fp::DataKind::Float64, shape, {}});
            const std::span<std::byte> raw =
                port.put_view("x", u::Box::whole(shape));
            const std::span<double> xs{reinterpret_cast<double*>(raw.data()), 64};
            for (std::size_t i = 0; i < xs.size(); ++i) {
                xs[i] = static_cast<double>(t) + static_cast<double>(i) * 0.5;
            }
            port.end_step();
        }
        port.close();
    }

    auto stream = fabric.get("replay-pool");
    {
        fp::ReaderPort reader(fabric, "replay-pool", 0, 1);
        for (std::uint64_t t = 0; t < 2; ++t) {
            ASSERT_TRUE(reader.begin_step());
            reader.end_step();
        }
    }  // incarnation dies; steps 2..9 stay retained, pinning their payloads
    stream->detach_reader();
    ASSERT_TRUE(wait_until([&] { return stream->in_flight_steps() == 8; },
                           std::chrono::seconds(10)));

    fp::ReaderPort reader(fabric, "replay-pool", 0, 1);
    std::uint64_t t = 2;
    while (reader.begin_step()) {
        const auto v = reader.read<double>("x", u::Box::whole(shape));
        for (std::size_t i = 0; i < v.size(); ++i) {
            ASSERT_EQ(v[i],
                      static_cast<double>(t) + static_cast<double>(i) * 0.5)
                << "replayed step " << t << " index " << i
                << " was corrupted by buffer recycling";
        }
        reader.end_step();
        ++t;
    }
    EXPECT_EQ(t, 10u);
    EXPECT_EQ(stream->steps_lost(), 0u);
}
