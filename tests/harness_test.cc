/**
 * @file
 * Tests for the experiment harness: workload/pre-pass caching, run
 * plumbing, and the aggregation helpers every bench binary relies on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "harness/harness.hh"

namespace cwsim
{
namespace
{

using harness::Runner;

TEST(GeomeanTest, Basics)
{
    EXPECT_DOUBLE_EQ(harness::geomean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(harness::geomean({1.0, 4.0}), 2.0);
    EXPECT_NEAR(harness::geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    // Order independence.
    EXPECT_NEAR(harness::geomean({0.5, 8.0}), harness::geomean({8.0, 0.5}),
                1e-12);
}

TEST(GeomeanTest, SkipsAndCountsUnusableEntries)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();

    // Failed runs (NaN metrics) and degenerate values are dropped
    // from the mean but reported via warn() so a half-failed sweep is
    // visible; the usable entries still average correctly.
    EXPECT_DOUBLE_EQ(harness::geomean({nan, 4.0}), 4.0);
    EXPECT_DOUBLE_EQ(harness::geomean({-1.0, 0.0, 2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(harness::geomean({inf, 9.0}), 9.0);

    // Nothing usable at all: NaN, not a crash and not a fake average.
    EXPECT_TRUE(std::isnan(harness::geomean({})));
    EXPECT_TRUE(std::isnan(harness::geomean({nan, nan})));
    EXPECT_TRUE(std::isnan(harness::geomean({0.0, -3.0})));
}

TEST(FormatTest, Speedups)
{
    EXPECT_EQ(harness::formatSpeedup(1.123), "+12.3%");
    EXPECT_EQ(harness::formatSpeedup(0.955), "-4.5%");
    EXPECT_EQ(harness::formatSpeedup(1.0), "+0.0%");
}

TEST(FormatTest, Percentages)
{
    EXPECT_EQ(harness::formatPct(0.0123, 2), "1.23%");
    EXPECT_EQ(harness::formatPct(0.5), "50.0%");
    EXPECT_EQ(harness::formatPct(0.000012, 4), "0.0012%");
}

TEST(FormatTest, MeanSpeedupAcrossKeys)
{
    std::map<std::string, double> num{{"a", 2.0}, {"b", 8.0}};
    std::map<std::string, double> den{{"a", 1.0}, {"b", 2.0}};
    // Ratios 2 and 4 -> geomean sqrt(8).
    EXPECT_NEAR(harness::meanSpeedup(num, den, {"a", "b"}),
                std::sqrt(8.0), 1e-12);
}

TEST(RunnerTest, CachesWorkloadAndPrepass)
{
    Runner runner(10'000);
    const Workload &w1 = runner.workload("132.ijpeg");
    const Workload &w2 = runner.workload("132.ijpeg");
    EXPECT_EQ(&w1, &w2);
    const PrepassResult &p1 = runner.prepass("132.ijpeg");
    const PrepassResult &p2 = runner.prepass("132.ijpeg");
    EXPECT_EQ(&p1, &p2);
    EXPECT_TRUE(p1.halted);
}

TEST(RunnerTest, RunProducesConsistentResult)
{
    Runner runner(10'000);
    harness::RunResult r = runner.run(
        "132.ijpeg",
        withPolicy(makeW128Config(), LsqModel::NAS, SpecPolicy::Naive));
    EXPECT_EQ(r.workload, "132.ijpeg");
    EXPECT_EQ(r.config, "NAS/NAV");
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.commits, 5'000u);
    EXPECT_GT(r.committedLoads, 0u);
    EXPECT_GT(r.ipc(), 0.1);
    // Commits must equal the functional instruction count.
    EXPECT_EQ(r.commits, runner.prepass("132.ijpeg").instCount);
}

TEST(RunnerTest, RunsAreDeterministic)
{
    Runner runner(10'000);
    SimConfig cfg =
        withPolicy(makeW128Config(), LsqModel::NAS, SpecPolicy::Naive);
    harness::RunResult a = runner.run("129.compress", cfg);
    harness::RunResult b = runner.run("129.compress", cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
}

TEST(RunnerTest, ArenaReuseAcrossRunsIsBitIdentical)
{
    // Three consecutive runs of one config on one worker must be
    // bit-identical: nothing a run leaves behind on its thread (heap
    // reuse, thread-local state) may leak into the next run's stats.
    // Use a policy that exercises the store buffer's synonym lists
    // and replay machinery.
    Runner runner(10'000);
    SimConfig cfg =
        withPolicy(makeW128Config(), LsqModel::NAS, SpecPolicy::SpecSync);
    harness::RunResult a = runner.run("126.gcc", cfg);
    harness::RunResult b = runner.run("126.gcc", cfg);
    harness::RunResult c = runner.run("126.gcc", cfg);
    ASSERT_TRUE(a.ok);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(b.cycles, c.cycles);
    EXPECT_EQ(a.violations, c.violations);
    EXPECT_EQ(a.replays, c.replays);
    EXPECT_EQ(a.squashedInsts, c.squashedInsts);
    EXPECT_EQ(a.branchMispredicts, c.branchMispredicts);
    for (size_t i = 0; i < a.cpiSlots.size(); ++i)
        EXPECT_EQ(a.cpiSlots[i], c.cpiSlots[i]) << "cpi slot " << i;
}

TEST(RunnerTest, ShortNamesWork)
{
    Runner runner(10'000);
    harness::RunResult r = runner.run(
        "107", withPolicy(makeW128Config(), LsqModel::NAS,
                          SpecPolicy::No));
    EXPECT_EQ(r.workload, "107");
    EXPECT_GT(r.falseDepLoads, 0u);
}

TEST(RunnerTest, BenchScaleDefault)
{
    // Without the env var, the default applies.
    unsetenv("CWSIM_SCALE");
    EXPECT_EQ(harness::benchScale(), 80'000u);
    setenv("CWSIM_SCALE", "123456", 1);
    EXPECT_EQ(harness::benchScale(), 123'456u);
    setenv("CWSIM_SCALE", "12", 1); // too small: ignored
    EXPECT_EQ(harness::benchScale(), 80'000u);
    unsetenv("CWSIM_SCALE");
}

} // anonymous namespace
} // namespace cwsim
