// Self-tests of the benchmark's own helpers: medians, the tail rule,
// ratios with their base, the reference-histogram oracle, and the launch
// entries every workflow of a workload is built from.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/histogram.hpp"
#include "oracle.hpp"
#include "source.hpp"
#include "stats.hpp"

namespace {

TEST(Median, OddAndEvenCounts) {
    EXPECT_DOUBLE_EQ(pb::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(pb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(pb::median({7.0}), 7.0);
    EXPECT_THROW(pb::median({}), std::invalid_argument);
}

TEST(Tail, LeavesExactlyTenSamplesBeyond) {
    std::vector<double> v;
    for (int i = 1; i <= 200; ++i) v.push_back(i);
    const pb::Tail t = pb::tail(v);
    EXPECT_EQ(t.n, 200u);
    EXPECT_DOUBLE_EQ(t.value, 190.0);
    EXPECT_DOUBLE_EQ(t.percentile, 95.0);
    std::size_t beyond = 0;
    for (const double x : v) beyond += x > t.value;
    EXPECT_EQ(beyond, pb::Tail::kBeyond);
}

TEST(Tail, OrderIndependentAndNeedsElevenSamples) {
    std::vector<double> v = {5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 11};
    const pb::Tail t = pb::tail(v);
    EXPECT_DOUBLE_EQ(t.value, 1.0);  // the only sample with ten beyond it
    EXPECT_NEAR(t.percentile, 100.0 / 11.0, 1e-12);
    v.pop_back();
    EXPECT_THROW(pb::tail(v), std::invalid_argument);
}

TEST(Ratio, CarriesItsBase) {
    const pb::Ratio r{30.0, 40.0};
    EXPECT_DOUBLE_EQ(r.value(), 0.75);
    EXPECT_DOUBLE_EQ(r.base, 40.0);
    EXPECT_DOUBLE_EQ((pb::Ratio{0.0, 0.0}.value()), 0.0);
}

TEST(ReferenceHistogram, BinsClosedLastEdgeAndDropsNan) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> v = {0.0, 1.0, 2.0, 3.0, 4.0, nan};
    const auto h = pb::reference_histogram(v, 4, 9);
    EXPECT_EQ(h.step, 9u);
    EXPECT_DOUBLE_EQ(h.min, 0.0);
    EXPECT_DOUBLE_EQ(h.max, 4.0);
    EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{1, 1, 1, 2}));
}

TEST(ReferenceHistogram, DegenerateAndEmptyInputs) {
    const std::vector<double> same = {2.5, 2.5, 2.5};
    EXPECT_EQ(pb::reference_histogram(same, 3, 0).counts,
              (std::vector<std::uint64_t>{3, 0, 0}));
    const auto empty = pb::reference_histogram({}, 3, 0);
    EXPECT_EQ(empty.total(), 0u);
    EXPECT_DOUBLE_EQ(empty.min, 0.0);
    EXPECT_DOUBLE_EQ(empty.max, 0.0);
}

TEST(ReferenceHistogram, MatchesTheRuntimeBinningOnSeededData) {
    const pb::Field field(pb::Kind::Md, 42, 5000, 3);
    pb::Analysis a;
    a.columns = {0, 1, 2};
    a.magnitude = true;
    a.stride = 3;
    a.bins = 17;
    const std::vector<double> v = pb::reference_values(field, a, 7);
    ASSERT_EQ(v.size(), 1667u);
    const auto ref = pb::reference_histogram(v, a.bins, 7);
    const auto [mn, mx] = std::minmax_element(v.begin(), v.end());
    EXPECT_EQ(ref.counts, sb::core::histogram_counts(v, *mn, *mx, a.bins));
    EXPECT_EQ(ref.total(), v.size());
}

TEST(Field, DependsOnlyOnSeedStepRowColumn) {
    const pb::Field a(pb::Kind::Gtcp, 5, 64, 7);
    const pb::Field b(pb::Kind::Gtcp, 5, 64, 7);
    const pb::Field c(pb::Kind::Gtcp, 6, 64, 7);
    EXPECT_EQ(a.at(3, 20, 2), b.at(3, 20, 2));
    EXPECT_NE(a.at(3, 20, 2), c.at(3, 20, 2));
    std::vector<double> block(64 * 7);
    a.fill(3, 0, 64, block.data());
    for (std::uint64_t r = 0; r < 64; ++r) {
        for (std::uint64_t col = 0; col < 7; ++col) ASSERT_EQ(block[r * 7 + col], a.at(3, r, col));
    }
}

TEST(Field, StepsSharingABankEntryStillDiffer) {
    const pb::Field f(pb::Kind::Md, 1, 256, 3);
    pb::Analysis a;
    a.columns = {0, 1, 2};
    a.magnitude = true;
    a.stride = 4;
    a.bins = 8;
    const auto h0 = pb::reference_histogram(pb::reference_values(f, a, 0), a.bins, 0);
    const auto h8 = pb::reference_histogram(pb::reference_values(f, a, pb::Field::kBank),
                                            a.bins, 0);
    EXPECT_NE(h0.max, h8.max);
}

TEST(Verify, CountsMissingDifferingAndUnexpectedSteps) {
    const pb::Field field(pb::Kind::Crack, 1, 1000, 5);
    pb::Analysis a;
    a.columns = {2, 3, 4};
    a.magnitude = true;
    a.stride = 2;
    a.above = 1.0;
    a.bins = 8;
    std::vector<sb::core::HistogramResult> got;
    for (std::uint64_t t = 0; t < 4; ++t) {
        got.push_back(pb::reference_histogram(pb::reference_values(field, a, t), a.bins, t));
    }
    EXPECT_EQ(pb::verify(got, 4, field, a).failed(), 0u);

    auto broken = got;
    broken[1].counts[0] += 1;         // differs
    broken.erase(broken.begin() + 2);  // step 2 missing
    broken.push_back(got[3]);          // step 3 repeated
    const pb::Verdict v = pb::verify(broken, 4, field, a);
    EXPECT_EQ(v.missing, 1u);
    EXPECT_EQ(v.differing, 2u);
    EXPECT_EQ(v.published, 4u);
}

TEST(LaunchEntries, SourceThenTheWorkloadStages) {
    for (const std::string& name : pb::workload_names()) {
        const pb::Workload& w = pb::workload(name);
        const auto entries = pb::launch_entries(w, 3, 10, 50.0, "h.txt");
        const auto stages = w.stages("h.txt");
        ASSERT_EQ(entries.size(), stages.size() + 1) << name;
        EXPECT_EQ(entries[0].component, "pb-source");
        EXPECT_EQ(entries[0].nprocs, pb::kSourceRanks);
        for (std::size_t i = 0; i < stages.size(); ++i) {
            EXPECT_EQ(entries[i + 1].component, stages[i].component) << name;
            EXPECT_EQ(entries[i + 1].nprocs, stages[i].nprocs) << name;
            EXPECT_EQ(entries[i + 1].args, stages[i].args) << name;
        }
        EXPECT_EQ(stages.back().component, "histogram") << name;
        EXPECT_EQ(stages.back().args.back(), "h.txt") << name;
    }
}

}  // namespace
