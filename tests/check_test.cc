/**
 * @file
 * Tests for the checked-simulation subsystem: the flight recorder,
 * forward-progress watchdog, fault injector, error-trap machinery, the
 * fail-soft harness, and — most importantly — the end-to-end property
 * that a processor stormed with injected misspeculations still commits
 * architectural state identical to the functional pre-pass under both
 * recovery models.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "base/sim_error.hh"
#include "base/str.hh"
#include "check/equivalence.hh"
#include "check/fault_injector.hh"
#include "check/flight_recorder.hh"
#include "check/watchdog.hh"
#include "cpu/processor.hh"
#include "harness/harness.hh"
#include "sweep/report.hh"
#include "mdp/mdp_table.hh"
#include "mdp/oracle.hh"
#include "sim/config.hh"
#include "sim/config_parse.hh"
#include "workloads/workload.hh"

namespace cwsim
{
namespace
{

// ---------------------------------------------------------------- //
// Flight recorder                                                  //
// ---------------------------------------------------------------- //

TEST(FlightRecorder, FillsThenWrapsOldestFirst)
{
    check::FlightRecorder frec(4);
    ASSERT_TRUE(frec.enabled());
    for (Tick c = 0; c < 10; ++c)
        frec.record(c, check::EventKind::Retire, c + 100, 4 * c);

    EXPECT_EQ(frec.total(), 10u);
    auto events = frec.events();
    ASSERT_EQ(events.size(), 4u);
    // The four newest events, oldest of those first.
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].cycle, 6 + i);
        EXPECT_EQ(events[i].seq, 106 + i);
        EXPECT_EQ(events[i].pc, 4 * (6 + i));
    }
}

TEST(FlightRecorder, PartialFillKeepsInsertionOrder)
{
    check::FlightRecorder frec(8);
    frec.record(1, check::EventKind::Violation, 5, 0x40, 0x80);
    frec.record(2, check::EventKind::Squash, 4, 0x44, 17);
    frec.record(3, check::EventKind::Retire, 6, 0x48);

    auto events = frec.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, check::EventKind::Violation);
    EXPECT_EQ(events[0].arg, 0x80u);
    EXPECT_EQ(events[1].kind, check::EventKind::Squash);
    EXPECT_EQ(events[1].arg, 17u);
    EXPECT_EQ(events[2].kind, check::EventKind::Retire);

    std::string dump = frec.dumpString();
    EXPECT_NE(dump.find("violation"), std::string::npos);
    EXPECT_NE(dump.find("squash"), std::string::npos);
    EXPECT_NE(dump.find("retire"), std::string::npos);
}

TEST(FlightRecorder, ZeroCapacityDisablesRecording)
{
    check::FlightRecorder frec(0);
    EXPECT_FALSE(frec.enabled());
    frec.record(1, check::EventKind::Retire);
    EXPECT_EQ(frec.total(), 0u);
    EXPECT_TRUE(frec.events().empty());
}

// ---------------------------------------------------------------- //
// Watchdog                                                         //
// ---------------------------------------------------------------- //

TEST(Watchdog, TripsOnlyAfterQuietPeriod)
{
    check::Watchdog wdog(100);
    EXPECT_FALSE(wdog.expired(0));
    EXPECT_FALSE(wdog.expired(100));
    EXPECT_TRUE(wdog.expired(101));

    wdog.progress(90);
    EXPECT_FALSE(wdog.expired(150));
    EXPECT_FALSE(wdog.expired(190));
    EXPECT_TRUE(wdog.expired(191));
    EXPECT_EQ(wdog.lastProgressAt(), 90u);
}

TEST(Watchdog, ZeroIntervalNeverTrips)
{
    check::Watchdog wdog(0);
    EXPECT_FALSE(wdog.expired(1'000'000'000));
}

// ---------------------------------------------------------------- //
// Error trap                                                       //
// ---------------------------------------------------------------- //

TEST(SimErrorTrap, FatalThrowsTypedErrorUnderTrap)
{
    EXPECT_FALSE(errorTrapActive());
    SimConfig cfg = makeW128Config();
    try {
        ScopedErrorTrap trap;
        ASSERT_TRUE(errorTrapActive());
        applyConfigOption(cfg, "no.such.key=1");
        FAIL() << "bad config key should have thrown under the trap";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Fatal);
        EXPECT_NE(e.summary().find("no.such.key"), std::string::npos);
    }
    EXPECT_FALSE(errorTrapActive());
}

TEST(SimErrorTrap, TrapsNest)
{
    ScopedErrorTrap outer;
    {
        ScopedErrorTrap inner;
        EXPECT_TRUE(errorTrapActive());
    }
    EXPECT_TRUE(errorTrapActive());
}

// ---------------------------------------------------------------- //
// Fault injector                                                   //
// ---------------------------------------------------------------- //

TEST(FaultInjector, DisabledWhenAllRatesZero)
{
    FaultConfig cfg;
    check::FaultInjector inj(cfg);
    EXPECT_FALSE(inj.enabled());
    EXPECT_FALSE(inj.injectSpuriousViolation());
    EXPECT_EQ(inj.injectStoreAddrDelay(), 0u);
}

TEST(FaultInjector, DeterministicForAGivenSeed)
{
    FaultConfig cfg;
    cfg.seed = 1234;
    cfg.spuriousViolationRate = 0.25;
    cfg.storeAddrDelayRate = 0.25;

    check::FaultInjector a(cfg), b(cfg);
    ASSERT_TRUE(a.enabled());
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.injectSpuriousViolation(),
                  b.injectSpuriousViolation());
        EXPECT_EQ(a.injectStoreAddrDelay(), b.injectStoreAddrDelay());
    }
}

// ---------------------------------------------------------------- //
// MDPT fault hooks                                                 //
// ---------------------------------------------------------------- //

TEST(MdpTableFaults, DropAndCorruptPreserveSanity)
{
    MdpConfig cfg;
    MdpTable table(cfg);
    Random rng(7);

    // Nothing to fault in an empty table.
    EXPECT_FALSE(table.dropRandomEntry(rng));
    EXPECT_FALSE(table.corruptRandomEntry(rng));

    for (Addr pc = 0x100; pc < 0x200; pc += 8)
        table.pair(pc, pc + 4);
    size_t valid = table.validEntries();
    ASSERT_GT(valid, 0u);
    EXPECT_EQ(table.sanityCheck(), "");

    EXPECT_TRUE(table.dropRandomEntry(rng));
    EXPECT_EQ(table.validEntries(), valid - 1);
    EXPECT_EQ(table.sanityCheck(), "");

    // Corruption scrambles prediction state but never breaks sanity.
    for (int i = 0; i < 200; ++i)
        EXPECT_TRUE(table.corruptRandomEntry(rng));
    EXPECT_EQ(table.sanityCheck(), "");
}

// ---------------------------------------------------------------- //
// Oracle equivalence checker                                       //
// ---------------------------------------------------------------- //

TEST(Equivalence, ReportsDivergenceAndOnlyDivergence)
{
    const Workload w = workloads::build("129.compress", 5'000);
    PrepassResult golden = runPrepass(w.program);
    ASSERT_TRUE(golden.halted);

    EXPECT_EQ(check::compareWithGolden(golden.finalState,
                                       golden.memFingerprint,
                                       golden.instCount, golden),
              "");

    ArchState bad = golden.finalState;
    bad.regs[5] ^= 0xdead;
    std::string report = check::compareWithGolden(
        bad, golden.memFingerprint ^ 1, golden.instCount + 2, golden);
    EXPECT_NE(report.find("commit"), std::string::npos);
    EXPECT_NE(report.find("fingerprint"), std::string::npos);
    EXPECT_NE(report.find("reg 5"), std::string::npos);
}

// ---------------------------------------------------------------- //
// Watchdog trips on a livelocked pipeline                          //
// ---------------------------------------------------------------- //

TEST(WatchdogTrip, LivelockedCoreRaisesStructuredDiagnostic)
{
    const Workload w = workloads::build("129.compress", 5'000);
    PrepassResult pre = runPrepass(w.program);
    ASSERT_TRUE(pre.halted);

    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    cfg.core.commitWidth = 0; // deliberately livelocked: never retires
    cfg.check.watchdogInterval = 2'000;

    try {
        ScopedErrorTrap trap;
        Processor proc(cfg, w.program, &pre.deps);
        proc.run();
        FAIL() << "livelocked run should have tripped the watchdog";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Watchdog);
        EXPECT_NE(e.message().find("livelock"), std::string::npos);
        // The diagnostic carries machine state + flight recorder.
        EXPECT_NE(e.diagnostic().find("cycle"), std::string::npos);
        EXPECT_NE(e.diagnostic().find("watchdog"), std::string::npos);
    }
}

TEST(WatchdogTrip, HealthyRunNeverTrips)
{
    const Workload w = workloads::build("129.compress", 5'000);
    PrepassResult pre = runPrepass(w.program);

    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    cfg.check.watchdogInterval = 2'000;
    cfg.check.level = 2; // heavy invariants on, for coverage

    ScopedErrorTrap trap;
    Processor proc(cfg, w.program, &pre.deps);
    EXPECT_NO_THROW(proc.run());
    EXPECT_TRUE(proc.halted());
    EXPECT_GT(proc.flightRecorder().total(), 0u);
}

// ---------------------------------------------------------------- //
// Window churn keeps the level-2 indexes coherent                  //
// ---------------------------------------------------------------- //

TEST(WindowChurn, Level2InvariantsSurviveFillSquashRefill)
{
    // Hammer the window through fill/squash/refill churn under both
    // recovery models with the level-2 checker on: a small window
    // keeps constant fill pressure, and a high spurious-violation
    // rate storms the recovery machinery. Every cycle the heavy
    // invariants rebuild the pending-issue bitmap, the loadBytes
    // index, the consumer lists and the store buffer's indexes from
    // the window and compare, so an update that a squash or replay
    // misses fails the run here.
    harness::Runner runner(20'000);
    for (RecoveryModel recovery :
         {RecoveryModel::Squash, RecoveryModel::Selective}) {
        SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                                   SpecPolicy::Naive);
        cfg.core.windowSize = 32;
        cfg.mdp.recovery = recovery;
        cfg.check.level = 2;
        cfg.check.faults.seed = 0xc4a11;
        cfg.check.faults.spuriousViolationRate = 0.50;

        harness::RunResult r = runner.run("126.gcc", cfg);
        ASSERT_TRUE(r.ok) << r.config << ": " << r.error;
        EXPECT_GE(r.injectedViolations, 100u) << r.config;
        EXPECT_GT(r.squashedInsts + r.replays, 0u) << r.config;
    }
    EXPECT_TRUE(runner.failures().empty());
}

// ---------------------------------------------------------------- //
// Fault-injected runs still commit the oracle's state              //
// ---------------------------------------------------------------- //

class FaultedEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FaultedEquivalence, SquashAndSelectiveSurviveInjection)
{
    harness::Runner runner(20'000);
    for (RecoveryModel recovery :
         {RecoveryModel::Squash, RecoveryModel::Selective}) {
        SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                                   SpecPolicy::Naive);
        cfg.mdp.recovery = recovery;
        cfg.check.level = 2;
        cfg.check.faults.seed = 0xfa111;
        cfg.check.faults.spuriousViolationRate = 0.30;
        cfg.check.faults.storeAddrDelayRate = 0.10;
        cfg.check.faults.storeAddrDelay = 6;

        harness::RunResult r = runner.run(GetParam(), cfg);
        // Runner::run already proved commit-state equivalence against
        // the functional pre-pass (check.level > 0) — a failure would
        // have been recorded as !ok.
        ASSERT_TRUE(r.ok) << GetParam() << " [" << r.config
                          << "]: " << r.error;
        EXPECT_GE(r.injectedViolations, 100u)
            << GetParam() << ": too few induced misspeculations to "
            << "exercise " << (recovery == RecoveryModel::Squash
                               ? "squash" : "selective")
            << " recovery";
    }
    EXPECT_TRUE(runner.failures().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, FaultedEquivalence,
    ::testing::ValuesIn(workloads::allNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = "k" + info.param.substr(0, 3);
        return name;
    });

TEST(FaultedEquivalence, MdptFaultsAreHarmlessUnderSync)
{
    // SYNC leans hardest on the MDPT (synonym pairing), so storm its
    // table: dropped entries lose predictions, corrupted entries skew
    // confidence/synonyms — neither may affect architectural state.
    harness::Runner runner(20'000);
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::SpecSync);
    cfg.check.level = 2;
    cfg.check.faults.seed = 0x5eed5;
    cfg.check.faults.mdptDropRate = 0.01;
    cfg.check.faults.mdptCorruptRate = 0.01;

    for (const char *name : {"129.compress", "102.swim", "099.go"}) {
        harness::RunResult r = runner.run(name, cfg);
        ASSERT_TRUE(r.ok) << name << ": " << r.error;
    }
    EXPECT_TRUE(runner.failures().empty());
}

// ---------------------------------------------------------------- //
// Fail-soft sweeps                                                 //
// ---------------------------------------------------------------- //

TEST(FailSoftSweep, PoisonedConfigIsRecordedAndSweepContinues)
{
    harness::Runner runner(5'000);

    SimConfig good = withPolicy(makeW128Config(), LsqModel::NAS,
                                SpecPolicy::Naive);
    SimConfig poisoned = good;
    poisoned.core.commitWidth = 0; // livelock -> watchdog SimError
    poisoned.check.watchdogInterval = 2'000;

    const char *names[] = {"129.compress", "101.tomcatv"};
    std::vector<double> ipcs;
    for (const char *name : names) {
        harness::RunResult g = runner.run(name, good);
        EXPECT_TRUE(g.ok) << g.error;
        ipcs.push_back(g.ipc());

        harness::RunResult p = runner.run(name, poisoned);
        EXPECT_FALSE(p.ok);
        EXPECT_NE(p.error.find("watchdog"), std::string::npos);
        EXPECT_TRUE(std::isnan(p.ipc()));
        ipcs.push_back(p.ipc());
    }

    // Both poisoned runs recorded, both good runs unaffected. Each
    // failure carries its flight-recorder tail so the FAILED RUNS
    // report is self-diagnosing.
    ASSERT_EQ(runner.failures().size(), 2u);
    for (const auto &f : runner.failures()) {
        EXPECT_EQ(f.config, poisoned.name());
        EXPECT_FALSE(f.diagnostic.empty());
        EXPECT_NE(f.diagnostic.find("cycle"), std::string::npos);
        EXPECT_LE(split(f.diagnostic, '\n').size(), 8u);
    }
    EXPECT_EQ(sweep::reportFailures(runner), 2u);

    // Aggregation over the mixed sweep skips the NaN cells.
    double gm = harness::geomean(ipcs);
    EXPECT_TRUE(std::isfinite(gm));
    EXPECT_GT(gm, 0.0);
}

TEST(FailSoftSweep, EquivalenceFailureIsTyped)
{
    // A prepass mismatch must raise SimErrorKind::Equivalence; build
    // one artificially by comparing against a perturbed golden state.
    const Workload w = workloads::build("126.gcc", 5'000);
    PrepassResult golden = runPrepass(w.program);
    PrepassResult tampered = runPrepass(w.program);
    tampered.finalState.regs[3] += 1;
    std::string diff = check::compareWithGolden(
        tampered.finalState, tampered.memFingerprint,
        tampered.instCount, golden);
    EXPECT_NE(diff.find("reg 3"), std::string::npos);
}

// ---------------------------------------------------------------- //
// NaN-tolerant aggregation helpers                                 //
// ---------------------------------------------------------------- //

TEST(Aggregation, GeomeanSkipsUnusableValues)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(std::isnan(harness::geomean({})));
    EXPECT_TRUE(std::isnan(harness::geomean({nan, 0.0, -3.0})));
    EXPECT_DOUBLE_EQ(harness::geomean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(harness::geomean({nan, 2.0, 8.0, nan}), 4.0);
}

TEST(Aggregation, FormattersRenderNaNAsNA)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(harness::formatSpeedup(nan), "n/a");
    EXPECT_EQ(harness::formatPct(nan), "n/a");
    EXPECT_EQ(harness::formatSpeedup(1.123), "+12.3%");
    EXPECT_EQ(harness::formatPct(0.0123, 2), "1.23%");
}

TEST(Aggregation, MeanSpeedupToleratesMissingKeys)
{
    std::map<std::string, double> num{{"a", 2.0}, {"b", 4.0}};
    std::map<std::string, double> den{{"a", 1.0}};
    // "b" is missing from den (its run failed before recording).
    EXPECT_DOUBLE_EQ(harness::meanSpeedup(num, den, {"a", "b"}), 2.0);
}

// ---------------------------------------------------------------- //
// Config plumbing for the check/fault knobs                        //
// ---------------------------------------------------------------- //

TEST(CheckConfig, ParsesAllKnobs)
{
    SimConfig cfg = makeW128Config();
    applyConfigOption(cfg, "check.level=2");
    applyConfigOption(cfg, "check.watchdogInterval=12345");
    applyConfigOption(cfg, "check.flightRecorderSize=64");
    applyConfigOption(cfg, "check.faults.seed=99");
    applyConfigOption(cfg, "check.faults.spuriousViolationRate=0.25");
    applyConfigOption(cfg, "check.faults.storeAddrDelayRate=0.5");
    applyConfigOption(cfg, "check.faults.storeAddrDelay=16");
    applyConfigOption(cfg, "check.faults.mdptDropRate=0.125");
    applyConfigOption(cfg, "check.faults.mdptCorruptRate=0.0625");

    EXPECT_EQ(cfg.check.level, 2u);
    EXPECT_EQ(cfg.check.watchdogInterval, 12345u);
    EXPECT_EQ(cfg.check.flightRecorderSize, 64u);
    EXPECT_EQ(cfg.check.faults.seed, 99u);
    EXPECT_DOUBLE_EQ(cfg.check.faults.spuriousViolationRate, 0.25);
    EXPECT_DOUBLE_EQ(cfg.check.faults.storeAddrDelayRate, 0.5);
    EXPECT_EQ(cfg.check.faults.storeAddrDelay, 16u);
    EXPECT_DOUBLE_EQ(cfg.check.faults.mdptDropRate, 0.125);
    EXPECT_DOUBLE_EQ(cfg.check.faults.mdptCorruptRate, 0.0625);
    EXPECT_TRUE(cfg.check.faults.any());
}

} // anonymous namespace
} // namespace cwsim
