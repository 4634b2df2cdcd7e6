/**
 * @file
 * Tests for the --isolate sweep executor: a fault storm of injected
 * host crashes, hangs, and allocation storms across the workload suite
 * must be contained and classified while every surviving run stays
 * bit-identical to a clean serial sweep. Lives apart from sweep_test
 * because these tests fork(), which the tsan test shard must not.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "harness/harness.hh"
#include "mdp/dep_profile.hh"
#include "obs/depprof.hh"
#include "sweep/report.hh"
#include "sweep/run_cache.hh"
#include "sweep/sweep.hh"
#include "workloads/workload.hh"

// RLIMIT_AS-based OOM containment cannot run under AddressSanitizer:
// ASan reserves terabytes of shadow address space up front, so any cap
// small enough to stop the allocation storm kills the child at startup
// instead.
#if defined(__SANITIZE_ADDRESS__)
#define CWSIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CWSIM_ASAN 1
#endif
#endif

namespace cwsim
{
namespace
{

using harness::FailKind;
using harness::RunResult;
using harness::Runner;
using sweep::SweepEngine;
using sweep::SweepOptions;
using sweep::SweepPlan;

struct ScratchDir
{
    explicit ScratchDir(const std::string &tag)
        : path(tag + "." + std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~ScratchDir() { std::filesystem::remove_all(path); }

    std::string path;
};

SimConfig
baseConfig()
{
    return withPolicy(makeW128Config(), LsqModel::NAS,
                      SpecPolicy::Naive);
}

void
expectSameSimResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.failKind, b.failKind);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.committedLoads, b.committedLoads);
    EXPECT_EQ(a.committedStores, b.committedStores);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.replays, b.replays);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.squashedInsts, b.squashedInsts);
    EXPECT_EQ(a.falseDepLoads, b.falseDepLoads);
    EXPECT_EQ(a.falseDepLatency, b.falseDepLatency);
    EXPECT_EQ(a.commitWidth, b.commitWidth);
    for (size_t i = 0; i < obs::num_cpi_causes; ++i)
        EXPECT_EQ(a.cpiSlots[i], b.cpiSlots[i]);
}

/**
 * The flagship containment scenario: every workload runs clean except
 * three singled out for a host crash, a hang, and (outside ASan) an
 * allocation storm, each firing on the first simulated cycle (rate 1).
 */
TEST(IsolateContainment, FaultStormAcrossTheSuite)
{
    const std::vector<std::string> names = workloads::allNames();
    ASSERT_GE(names.size(), 18u);

    const std::string crasher = names[2];
    const std::string hanger = names[7];
#ifndef CWSIM_ASAN
    const std::string alloc = names[11];
#else
    const std::string alloc; // OOM containment untestable under ASan
#endif

    SweepPlan plan;
    for (const std::string &name : names) {
        SimConfig cfg = baseConfig();
        if (name == crasher)
            cfg.check.faults.hostCrashRate = 1.0;
        else if (name == hanger)
            cfg.check.faults.hostHangRate = 1.0;
        else if (!alloc.empty() && name == alloc)
            cfg.check.faults.hostAllocRate = 1.0;
        plan.add(name, cfg);
    }

    // Clean serial reference: same plan, no faults, no isolation.
    SweepPlan cleanPlan;
    for (const std::string &name : names)
        cleanPlan.add(name, baseConfig());
    Runner cleanRunner(3000);
    SweepOptions cleanOpts;
    cleanOpts.jobs = 1;
    cleanOpts.useCache = false;
    auto cleanResults =
        SweepEngine(cleanRunner, cleanOpts).run(cleanPlan);

    Runner runner(3000);
    SweepOptions opts;
    opts.jobs = 4;
    opts.useCache = false;
    opts.isolate = true;
    opts.timeoutSec = 2.0;
#ifndef CWSIM_ASAN
    // The cap exists only to contain the alloc-storm case. Under ASan
    // that case is skipped, and the cap would kill every child at
    // startup: ASan cannot map its shadow memory under it ("Failed to
    // mmap").
    opts.memLimitMb = 2048;
#endif
    opts.retries = 0; // injected faults are deterministic; don't retry
    auto results = SweepEngine(runner, opts).run(plan);

    ASSERT_EQ(results.size(), names.size());
    for (size_t i = 0; i < names.size(); ++i) {
        SCOPED_TRACE(names[i]);
        const RunResult &r = results[i];
        if (names[i] == crasher) {
            EXPECT_FALSE(r.ok);
            EXPECT_EQ(r.failKind, FailKind::Crash);
            EXPECT_EQ(r.failDetail, "SIGABRT");
            EXPECT_TRUE(r.injectedHostFault);
        } else if (names[i] == hanger) {
            EXPECT_FALSE(r.ok);
            EXPECT_EQ(r.failKind, FailKind::Timeout);
            EXPECT_TRUE(r.injectedHostFault);
        } else if (!alloc.empty() && names[i] == alloc) {
            EXPECT_FALSE(r.ok);
            EXPECT_EQ(r.failKind, FailKind::Oom);
            EXPECT_TRUE(r.injectedHostFault);
        } else {
            // Survivor: bit-identical to the clean serial sweep.
            EXPECT_TRUE(r.ok);
            EXPECT_EQ(r.failKind, FailKind::None);
            expectSameSimResult(cleanResults[i], r);
        }
    }

    // Every failure was an armed fault doing its job: the FAILED RUNS
    // table lists them, but the campaign still exits 0.
    size_t faulted = alloc.empty() ? 2u : 3u;
    EXPECT_EQ(runner.failures().size(), faulted);
    EXPECT_EQ(sweep::reportFailures(runner), 0u);
}

TEST(IsolateContainment, SimErrorsPassThroughUnchanged)
{
    // An in-process SimError must classify as sim_error with the exact
    // same error text under isolation as without it — and it counts as
    // a real campaign failure (not an injected, contained one).
    SimConfig doomed = baseConfig();
    doomed.maxCycles = 50;

    SweepPlan plan;
    plan.add("129.compress", doomed);

    Runner direct(3000);
    RunResult expected = direct.run("129.compress", doomed);
    ASSERT_FALSE(expected.ok);
    ASSERT_EQ(expected.failKind, FailKind::SimError);

    Runner runner(3000);
    SweepOptions opts;
    opts.jobs = 1;
    opts.useCache = false;
    opts.isolate = true;
    opts.timeoutSec = 30.0;
    auto results = SweepEngine(runner, opts).run(plan);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].failKind, FailKind::SimError);
    EXPECT_EQ(results[0].error, expected.error);
    EXPECT_EQ(results[0].diagnostic, expected.diagnostic);
    EXPECT_FALSE(results[0].injectedHostFault);
    EXPECT_EQ(sweep::reportFailures(runner), 1u);
}

TEST(IsolateContainment, HostFailuresRetryUpToBudget)
{
    // A deterministic injected crash exhausts the retry budget; the
    // final error text records how many attempts were burned.
    SimConfig cfg = baseConfig();
    cfg.check.faults.hostCrashRate = 1.0;

    SweepPlan plan;
    plan.add("130.li", cfg);

    Runner runner(3000);
    SweepOptions opts;
    opts.jobs = 1;
    opts.useCache = false;
    opts.isolate = true;
    opts.retries = 2;
    auto results = SweepEngine(runner, opts).run(plan);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].failKind, FailKind::Crash);
    EXPECT_NE(results[0].error.find("after 3 attempt(s)"),
              std::string::npos)
        << results[0].error;
}

TEST(IsolateContainment, IsolatedCleanSweepMatchesDirectSweep)
{
    // No faults armed: isolation must be invisible in the results.
    SweepPlan plan;
    for (const char *name : {"129.compress", "102.swim", "099.go"})
        plan.add(name, baseConfig());

    Runner directRunner(3000);
    SweepOptions directOpts;
    directOpts.jobs = 1;
    directOpts.useCache = false;
    auto direct = SweepEngine(directRunner, directOpts).run(plan);

    Runner isoRunner(3000);
    SweepOptions isoOpts;
    isoOpts.jobs = 2;
    isoOpts.useCache = false;
    isoOpts.isolate = true;
    isoOpts.timeoutSec = 60.0;
    auto isolated = SweepEngine(isoRunner, isoOpts).run(plan);

    ASSERT_EQ(direct.size(), isolated.size());
    for (size_t i = 0; i < direct.size(); ++i) {
        SCOPED_TRACE(plan.jobs()[i].workload);
        expectSameSimResult(direct[i], isolated[i]);
    }
    EXPECT_TRUE(isoRunner.failures().empty());
}

TEST(IsolateContainment, DepProfilesSurviveIsolationBitIdentical)
{
    // With profiling on, forked workers inherit the profiling state,
    // write their blocks into the shared file, and ship the dep_*
    // summary back over the result pipe — all of it bit-identical to
    // an inline sweep, across the whole suite under both recovery
    // models.
    SweepPlan plan;
    for (const auto &name : workloads::allNames()) {
        SimConfig squash = baseConfig();
        plan.add(name, squash);
        SimConfig selective = squash;
        selective.mdp.recovery = RecoveryModel::Selective;
        plan.add(name, selective);
    }

    ScratchDir dir("isolate_depprof_test");
    auto guard = [](const std::string &path) {
        obs::DepProfManager::instance().resetForTesting();
        obs::DepProfManager::instance().enable(path);
    };

    guard(dir.path + "/direct.depprof.jsonl");
    Runner directRunner(3000);
    SweepOptions directOpts;
    directOpts.jobs = 1;
    directOpts.useCache = false;
    auto direct = SweepEngine(directRunner, directOpts).run(plan);

    guard(dir.path + "/isolated.depprof.jsonl");
    Runner isoRunner(3000);
    SweepOptions isoOpts;
    isoOpts.jobs = 4;
    isoOpts.useCache = false;
    isoOpts.isolate = true;
    isoOpts.timeoutSec = 60.0;
    auto isolated = SweepEngine(isoRunner, isoOpts).run(plan);
    obs::DepProfManager::instance().resetForTesting();

    ASSERT_EQ(direct.size(), plan.size());
    ASSERT_EQ(isolated.size(), plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        SCOPED_TRACE(plan.jobs()[i].workload);
        expectSameSimResult(direct[i], isolated[i]);
        EXPECT_TRUE(isolated[i].depProfiled);
        EXPECT_EQ(direct[i].depLoads, isolated[i].depLoads);
        EXPECT_EQ(direct[i].depStores, isolated[i].depStores);
        EXPECT_EQ(direct[i].depEdges, isolated[i].depEdges);
        EXPECT_EQ(direct[i].depHotEdges, isolated[i].depHotEdges);
    }
    EXPECT_TRUE(isoRunner.failures().empty());

    // Both profile files validate whole: concurrent forked appenders
    // must land complete blocks, never interleaved lines.
    mdp::DepProfileFile df, isof;
    std::string err;
    ASSERT_TRUE(df.load(dir.path + "/direct.depprof.jsonl", &err))
        << err;
    ASSERT_TRUE(isof.load(dir.path + "/isolated.depprof.jsonl", &err))
        << err;
    EXPECT_TRUE(df.valid());
    EXPECT_TRUE(isof.valid());
    EXPECT_EQ(df.runs().size(), plan.size());
    EXPECT_EQ(isof.runs().size(), plan.size());
}

TEST(IsolateContainment, IsolatedResultsLandInTheRunCache)
{
    // Results produced by forked children must persist like any other:
    // a second, non-isolated sweep is served entirely from the cache.
    ScratchDir dir("isolate_cache_test");
    SweepPlan plan;
    plan.add("124.m88ksim", baseConfig());
    plan.add("129.compress", baseConfig());

    SweepOptions opts;
    opts.jobs = 1;
    opts.cacheDir = dir.path;
    opts.isolate = true;
    Runner cold(3000);
    SweepEngine coldEngine(cold, opts);
    auto coldResults = coldEngine.run(plan);
    ASSERT_TRUE(coldResults[0].ok);
    ASSERT_TRUE(coldResults[1].ok);
    EXPECT_EQ(coldEngine.timingRuns(), 2u);
    // With one slot the second run waits for the first, and the pool
    // stamps that wait into the result, apart from wallMs.
    EXPECT_GT(coldResults[1].queueMs, 0.0);

    opts.isolate = false;
    Runner warm(3000);
    SweepEngine warmEngine(warm, opts);
    auto warmResults = warmEngine.run(plan);
    EXPECT_EQ(warmEngine.timingRuns(), 0u);
    EXPECT_EQ(warmEngine.cacheHits(), 2u);
    for (size_t i = 0; i < plan.size(); ++i) {
        expectSameSimResult(coldResults[i], warmResults[i]);
        EXPECT_EQ(coldResults[i].queueMs, warmResults[i].queueMs);
    }
}

TEST(RunCacheConcurrency, TwoProcessesAppendWithoutCorruption)
{
    // A parent and a forked child hammer the same cache file through
    // independent RunCache instances (separate open file descriptions,
    // so only O_APPEND atomicity and flock protect the bytes). Every
    // record from both writers must survive, parseable, no torn lines.
    ScratchDir dir("isolate_flock_test");
    constexpr uint64_t per_side = 50;

    auto hammer = [&](uint64_t fpBase) {
        sweep::RunCache cache(dir.path);
        RunResult r;
        r.workload = "129.compress";
        r.config = "NAS/NAV W128";
        // A fat diagnostic makes each record big enough that a torn
        // interleave could not be mistaken for luck.
        r.diagnostic = std::string(2048, 'x');
        for (uint64_t i = 0; i < per_side; ++i) {
            r.cycles = fpBase + i;
            cache.append(fpBase + i, 3000, r);
        }
    };

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        hammer(1'000'000);
        _exit(0);
    }
    hammer(2'000'000);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    sweep::CacheFsckReport rep = sweep::fsckRunCache(dir.path);
    EXPECT_TRUE(rep.clean());
    EXPECT_FALSE(rep.tornTail);
    EXPECT_EQ(rep.valid, 2 * per_side);
    EXPECT_EQ(rep.duplicates, 0u);

    sweep::RunCache reload(dir.path);
    EXPECT_EQ(reload.size(), 2 * per_side);
    RunResult out;
    ASSERT_TRUE(reload.lookup(1'000'000 + 7, out));
    EXPECT_EQ(out.cycles, 1'000'000u + 7);
    ASSERT_TRUE(reload.lookup(2'000'000 + 49, out));
    EXPECT_EQ(out.cycles, 2'000'000u + 49);
}

TEST(ReportFailureTally, InjectedFaultsAreNotCampaignFailures)
{
    Runner runner(3000);

    RunResult injected;
    injected.workload = "130.li";
    injected.config = "NAS/NAV W128";
    injected.ok = false;
    injected.failKind = FailKind::Crash;
    injected.failDetail = "SIGABRT";
    injected.injectedHostFault = true;
    injected.error = "isolated run died: crash(SIGABRT)";
    runner.recordFailure(injected);
    EXPECT_EQ(sweep::reportFailures(runner), 0u);

    RunResult real = injected;
    real.workload = "126.gcc";
    real.injectedHostFault = false;
    runner.recordFailure(real);
    EXPECT_EQ(sweep::reportFailures(runner), 1u);
}

} // anonymous namespace
} // namespace cwsim
