/**
 * @file
 * Tests for the parallel sweep engine: serial-vs-parallel determinism
 * over the whole workload suite, the on-disk run cache (hits, stale
 * fingerprints, poisoned entries), JSONL export, and the JSON-lines
 * helpers underneath it all.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

#include "base/jsonl.hh"
#include "cache_lines.hh"
#include "mdp/dep_profile.hh"
#include "obs/cpi_stack.hh"
#include "obs/depprof.hh"
#include "sweep/bench_cli.hh"
#include "sweep/run_cache.hh"
#include "sweep/sweep.hh"

namespace cwsim
{
namespace
{

using harness::RunResult;
using harness::Runner;
using sweep::SweepEngine;
using sweep::SweepOptions;
using sweep::SweepPlan;

/**
 * A fresh scratch directory under the test's working directory
 * (inside the build tree), removed on destruction.
 */
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

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.committedLoads, b.committedLoads);
    EXPECT_EQ(a.committedStores, b.committedStores);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.replays, b.replays);
    EXPECT_EQ(a.selectiveRecoveries, b.selectiveRecoveries);
    EXPECT_EQ(a.selectiveFallbacks, b.selectiveFallbacks);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.squashedInsts, b.squashedInsts);
    EXPECT_EQ(a.falseDepLoads, b.falseDepLoads);
    EXPECT_EQ(a.falseDepLatency, b.falseDepLatency);
    EXPECT_EQ(a.injectedViolations, b.injectedViolations);
    EXPECT_EQ(a.commitWidth, b.commitWidth);
    for (size_t i = 0; i < obs::num_cpi_causes; ++i) {
        EXPECT_EQ(a.cpiSlots[i], b.cpiSlots[i])
            << obs::toString(obs::CpiCause(i));
    }
}

/** All 18 workloads under NAV with both recovery models. */
SweepPlan
fullSuitePlan()
{
    SweepPlan plan;
    for (const auto &name : workloads::allNames()) {
        SimConfig squash = withPolicy(makeW128Config(), LsqModel::NAS,
                                      SpecPolicy::Naive);
        plan.add(name, squash);
        SimConfig selective = squash;
        selective.mdp.recovery = RecoveryModel::Selective;
        plan.add(name, selective);
    }
    return plan;
}

TEST(SweepDeterminism, SerialVsParallelFullSuite)
{
    SweepPlan plan = fullSuitePlan();

    Runner serialRunner(4000);
    SweepOptions serialOpts;
    serialOpts.jobs = 1;
    serialOpts.useCache = false;
    SweepEngine serial(serialRunner, serialOpts);
    auto serialResults = serial.run(plan);

    Runner parallelRunner(4000);
    SweepOptions parallelOpts;
    parallelOpts.jobs = 8;
    parallelOpts.useCache = false;
    SweepEngine parallel(parallelRunner, parallelOpts);
    auto parallelResults = parallel.run(plan);

    ASSERT_EQ(serialResults.size(), plan.size());
    ASSERT_EQ(parallelResults.size(), plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        SCOPED_TRACE(plan.jobs()[i].workload + " / " +
                     plan.jobs()[i].config.name());
        expectSameResult(serialResults[i], parallelResults[i]);
    }
    EXPECT_TRUE(serialRunner.failures().empty());
    EXPECT_TRUE(parallelRunner.failures().empty());
}

/** RAII: route dependence profiling to @p path, reset on the way out. */
struct DepProfGuard
{
    explicit DepProfGuard(const std::string &path)
    {
        obs::DepProfManager::instance().resetForTesting();
        obs::DepProfManager::instance().enable(path);
    }

    ~DepProfGuard() { obs::DepProfManager::instance().resetForTesting(); }
};

TEST(DepProfiling, EnabledRunIsBitIdenticalToDisabled)
{
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);

    obs::DepProfManager::instance().resetForTesting();
    Runner off(3000);
    RunResult plain = off.run("129.compress", cfg);
    ASSERT_TRUE(plain.ok) << plain.error;
    EXPECT_FALSE(plain.depProfiled);
    EXPECT_EQ(plain.depLoads, 0u);
    EXPECT_TRUE(plain.depHotEdges.empty());

    ScratchDir dir("depprof_identity_test");
    std::string path = dir.path + "/one.depprof.jsonl";
    RunResult profiled;
    {
        DepProfGuard guard(path);
        Runner on(3000);
        profiled = on.run("129.compress", cfg);
    }
    ASSERT_TRUE(profiled.ok) << profiled.error;

    // The observatory contract: profiling only observes, so every
    // simulated stat is bit-identical either way (expectSameResult
    // covers them all; the dep_* summary is host-side by design).
    expectSameResult(plain, profiled);
    EXPECT_TRUE(profiled.depProfiled);
    EXPECT_GT(profiled.depLoads, 0u);
    EXPECT_GT(profiled.depStores, 0u);

    // The written block validates and agrees with the summary.
    mdp::DepProfileFile file;
    std::string err;
    ASSERT_TRUE(file.load(path, &err)) << err;
    EXPECT_TRUE(file.valid());
    ASSERT_EQ(file.runs().size(), 1u);
    const mdp::DepProfileRun *run =
        file.findRun("129.compress " + cfg.name());
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->sim, "proc");
    EXPECT_EQ(run->loads.size(), profiled.depLoads);
    EXPECT_EQ(run->stores.size(), profiled.depStores);
    EXPECT_EQ(run->edges.size(), profiled.depEdges);
}

TEST(DepProfiling, SerialVsParallelDepSummariesMatchFullSuite)
{
    SweepPlan plan = fullSuitePlan();
    ScratchDir dir("depprof_parallel_test");

    std::vector<RunResult> serial;
    {
        DepProfGuard guard(dir.path + "/serial.depprof.jsonl");
        Runner runner(4000);
        SweepOptions opts;
        opts.jobs = 1;
        opts.useCache = false;
        serial = SweepEngine(runner, opts).run(plan);
    }
    std::vector<RunResult> parallel;
    {
        DepProfGuard guard(dir.path + "/parallel.depprof.jsonl");
        Runner runner(4000);
        SweepOptions opts;
        opts.jobs = 8;
        opts.useCache = false;
        parallel = SweepEngine(runner, opts).run(plan);
    }

    ASSERT_EQ(serial.size(), plan.size());
    ASSERT_EQ(parallel.size(), plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        SCOPED_TRACE(plan.jobs()[i].workload + " / " +
                     plan.jobs()[i].config.name());
        expectSameResult(serial[i], parallel[i]);
        EXPECT_TRUE(serial[i].depProfiled);
        EXPECT_EQ(serial[i].depLoads, parallel[i].depLoads);
        EXPECT_EQ(serial[i].depStores, parallel[i].depStores);
        EXPECT_EQ(serial[i].depEdges, parallel[i].depEdges);
        EXPECT_EQ(serial[i].depHotEdges, parallel[i].depHotEdges);
    }

    // Both profile files validate whole — the block writer's mutex
    // means concurrent workers never interleave lines — and carry one
    // block per run (order may differ; content identity is already
    // proven by the dep_hot_edges comparison above).
    mdp::DepProfileFile sf, pf;
    std::string err;
    ASSERT_TRUE(sf.load(dir.path + "/serial.depprof.jsonl", &err))
        << err;
    ASSERT_TRUE(pf.load(dir.path + "/parallel.depprof.jsonl", &err))
        << err;
    EXPECT_TRUE(sf.valid());
    EXPECT_TRUE(pf.valid());
    EXPECT_EQ(sf.runs().size(), plan.size());
    EXPECT_EQ(pf.runs().size(), plan.size());
}

TEST(SweepEngine, ResultsComeBackInSpecOrder)
{
    SweepPlan plan;
    const std::vector<std::string> names = {"129.compress", "102.swim",
                                            "099.go", "130.li"};
    for (const auto &name : names) {
        plan.add(name, withPolicy(makeW128Config(), LsqModel::NAS,
                                  SpecPolicy::Naive));
    }

    Runner runner(3000);
    SweepOptions opts;
    opts.jobs = 4;
    opts.useCache = false;
    SweepEngine engine(runner, opts);
    auto results = engine.run(plan);

    ASSERT_EQ(results.size(), names.size());
    for (size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(results[i].workload, names[i]);
    EXPECT_EQ(engine.timingRuns(), names.size());
    EXPECT_EQ(engine.cacheHits(), 0u);
}

TEST(SweepCache, SecondSweepSimulatesNothing)
{
    ScratchDir dir("sweep_cache_test");
    SweepPlan plan;
    for (const auto &name :
         {"129.compress", "101.tomcatv", "124.m88ksim"}) {
        plan.add(name, withPolicy(makeW128Config(), LsqModel::NAS,
                                  SpecPolicy::Naive));
        plan.add(name, withPolicy(makeW128Config(), LsqModel::NAS,
                                  SpecPolicy::SpecSync));
    }

    SweepOptions opts;
    opts.jobs = 2;
    opts.cacheDir = dir.path;

    Runner cold(3000);
    SweepEngine coldEngine(cold, opts);
    auto coldResults = coldEngine.run(plan);
    EXPECT_EQ(coldEngine.timingRuns(), plan.size());
    EXPECT_EQ(coldEngine.cacheHits(), 0u);

    // A fresh runner + engine sharing only the cache directory: every
    // run must be served from disk, zero timing simulations.
    Runner warm(3000);
    SweepEngine warmEngine(warm, opts);
    auto warmResults = warmEngine.run(plan);
    EXPECT_EQ(warmEngine.timingRuns(), 0u);
    EXPECT_EQ(warmEngine.cacheHits(), plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        expectSameResult(coldResults[i], warmResults[i]);
        // Host-profiling metadata: cold runs were simulated (and timed),
        // warm runs are flagged as served from the cache.
        EXPECT_FALSE(coldResults[i].cacheHit);
        EXPECT_GT(coldResults[i].wallMs, 0.0);
        EXPECT_TRUE(warmResults[i].cacheHit);
    }
    EXPECT_GT(coldEngine.totalWallMs(), 0.0);
    EXPECT_GT(coldEngine.totalSimCycles(), 0u);
    EXPECT_EQ(warmEngine.totalWallMs(), 0.0);
}

TEST(SweepCache, StaleAndPoisonedEntriesAreRecomputed)
{
    ScratchDir dir("sweep_poison_test");
    SweepPlan plan;
    plan.add("129.compress", withPolicy(makeW128Config(),
                                        LsqModel::NAS,
                                        SpecPolicy::Naive));

    // Poison the cache: garbage, truncation, a record with a stale
    // fingerprint (different scale), and one with an unknown schema.
    {
        Runner other(9000);
        RunResult fake = other.run("129.compress", plan.jobs()[0].config);
        uint64_t staleFp = sweep::fingerprintRun(
            "129.compress", 9000, plan.jobs()[0].config);
        std::ofstream out(dir.path + "/runs.jsonl");
        out << "this is not json\n";
        out << "{\"v\":1,\"fp\":\"0123\",\"workload\":\"x\"\n";
        out << sweep::runRecordLine(fake, staleFp, 9000) << '\n';
        out << "{\"v\":999,\"fp\":\"00ff\",\"ok\":true}\n";
    }

    SweepOptions opts;
    opts.jobs = 2;
    opts.cacheDir = dir.path;
    Runner runner(3000);
    SweepEngine engine(runner, opts);
    auto results = engine.run(plan);

    // Nothing matched the scale-3000 fingerprint, so the run was
    // simulated fresh, and the result reflects scale 3000.
    EXPECT_EQ(engine.timingRuns(), 1u);
    EXPECT_EQ(engine.cacheHits(), 0u);
    ASSERT_TRUE(results[0].ok);
    EXPECT_LT(results[0].commits, 6000u);

    // The freshly appended record must now hit.
    Runner again(3000);
    SweepEngine engine2(again, opts);
    auto results2 = engine2.run(plan);
    EXPECT_EQ(engine2.timingRuns(), 0u);
    EXPECT_EQ(engine2.cacheHits(), 1u);
    expectSameResult(results[0], results2[0]);
}

TEST(SweepJson, OneRecordPerRunIncludingFailures)
{
    ScratchDir dir("sweep_json_test");
    std::string jsonPath = dir.path + "/results.jsonl";

    SweepPlan plan;
    plan.add("129.compress", withPolicy(makeW128Config(),
                                        LsqModel::NAS,
                                        SpecPolicy::Naive));
    // A run that cannot finish: the cycle budget is far below what
    // the workload needs, so the halt check raises a SimError.
    SimConfig doomed = withPolicy(makeW128Config(), LsqModel::NAS,
                                  SpecPolicy::Naive);
    doomed.maxCycles = 50;
    plan.add("129.compress", doomed);

    SweepOptions opts;
    opts.jobs = 2;
    opts.useCache = false;
    opts.jsonPath = jsonPath;
    Runner runner(3000);
    SweepEngine engine(runner, opts);
    auto results = engine.run(plan);

    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_FALSE(results[1].error.empty());
    EXPECT_EQ(runner.failures().size(), 1u);

    std::ifstream in(jsonPath);
    ASSERT_TRUE(in.good());
    std::vector<std::map<std::string, std::string>> records;
    std::string line;
    while (std::getline(in, line)) {
        std::map<std::string, std::string> fields;
        ASSERT_TRUE(parseFlatJson(line, fields)) << line;
        records.push_back(std::move(fields));
    }
    ASSERT_EQ(records.size(), plan.size());
    EXPECT_EQ(records[0].at("ok"), "true");
    EXPECT_EQ(records[1].at("ok"), "false");
    EXPECT_NE(records[1].at("error"), "");
    EXPECT_EQ(records[0].at("workload"), "129.compress");

    // Round trip through the record parser.
    RunResult parsed;
    ASSERT_TRUE(sweep::runRecordParse(records[1], parsed));
    expectSameResult(results[1], parsed);
}

TEST(SweepRecord, V2RoundTripsHostProfilingFields)
{
    RunResult r;
    r.workload = "129.compress";
    r.config = "NAS/NAV W128";
    r.ok = false;
    r.error = "SimError: watchdog";
    r.cycles = 5000;
    r.commits = 1234;
    r.wallMs = 250.0;
    r.cacheHit = true;
    r.diagnostic = "cycle 4999: commit seq 42\ncycle 5000: halt";
    EXPECT_DOUBLE_EQ(r.simCyclesPerSec(), 20'000.0);

    std::string line = sweep::runRecordLine(r, 0xabcdull, 3000);
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(line, fields));
    EXPECT_EQ(fields.at("v"), "6");
    EXPECT_EQ(fields.at("wall_ms"), "250");
    EXPECT_EQ(fields.at("sim_cycles_per_sec"), "20000");
    EXPECT_EQ(fields.at("cache_hit"), "true");
    EXPECT_NE(fields.at("diagnostic").find("halt"), std::string::npos);

    RunResult parsed;
    ASSERT_TRUE(sweep::runRecordParse(fields, parsed));
    expectSameResult(r, parsed);
    EXPECT_DOUBLE_EQ(parsed.wallMs, 250.0);
    EXPECT_TRUE(parsed.cacheHit);
    EXPECT_EQ(parsed.diagnostic, r.diagnostic);

    // A v2+ record missing its host-profiling fields is malformed.
    fields.erase("wall_ms");
    EXPECT_FALSE(sweep::runRecordParse(fields, parsed));
}

TEST(SweepRecord, V3RoundTripsCpiStack)
{
    RunResult r;
    r.workload = "129.compress";
    r.config = "NAS/NAV W128";
    r.cycles = 1000;
    r.commits = 2600;
    r.commitWidth = 8;
    r.cpiSlots[size_t(obs::CpiCause::Committed)] = 2600;
    r.cpiSlots[size_t(obs::CpiCause::MemDepSquash)] = 1400;
    r.cpiSlots[size_t(obs::CpiCause::CacheMiss)] = 4000;
    ASSERT_EQ(r.cpiTotalSlots(), r.cycles * 8);
    EXPECT_TRUE(r.hasCpiStack());
    EXPECT_DOUBLE_EQ(r.cpiFraction(obs::CpiCause::CacheMiss), 0.5);

    std::string line = sweep::runRecordLine(r, 0x1234ull, 3000);
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(line, fields));
    EXPECT_EQ(fields.at("commit_width"), "8");
    EXPECT_EQ(fields.at("cpi_committed"), "2600");
    EXPECT_EQ(fields.at("cpi_mem_dep_squash"), "1400");
    EXPECT_EQ(fields.at("cpi_cache_miss"), "4000");
    EXPECT_EQ(fields.at("cpi_exec"), "0");

    RunResult parsed;
    ASSERT_TRUE(sweep::runRecordParse(fields, parsed));
    expectSameResult(r, parsed);

    // A v3 record missing any CPI field is malformed.
    fields.erase("cpi_window_full");
    EXPECT_FALSE(sweep::runRecordParse(fields, parsed));

    // But the same fields relabeled v2 parse fine — the CPI columns
    // are simply unknown, signalled by commitWidth == 0.
    fields["v"] = "2";
    ASSERT_TRUE(sweep::runRecordParse(fields, parsed));
    EXPECT_FALSE(parsed.hasCpiStack());
    EXPECT_EQ(parsed.commitWidth, 0u);
    EXPECT_TRUE(std::isnan(parsed.cpiFraction(obs::CpiCause::Exec)));
}

TEST(SweepRecord, V1RecordsStayReadable)
{
    // A record written before the schema gained host-profiling fields
    // (run_record_version 1) must still parse, with the new fields
    // defaulted, so bumping the schema never invalidates a warm cache.
    JsonObject obj;
    obj.add("v", static_cast<uint64_t>(1))
        .add("fp", std::string("00000000deadbeef"))
        .add("workload", std::string("129.compress"))
        .add("config", std::string("NAS/NAV W128"))
        .add("scale", static_cast<uint64_t>(3000))
        .add("ok", true)
        .add("error", std::string())
        .add("cycles", static_cast<uint64_t>(4321))
        .add("commits", static_cast<uint64_t>(3000))
        .add("committedLoads", static_cast<uint64_t>(700))
        .add("committedStores", static_cast<uint64_t>(300))
        .add("violations", static_cast<uint64_t>(5))
        .add("replays", static_cast<uint64_t>(9))
        .add("selectiveRecoveries", static_cast<uint64_t>(2))
        .add("selectiveFallbacks", static_cast<uint64_t>(1))
        .add("branchMispredicts", static_cast<uint64_t>(40))
        .add("squashedInsts", static_cast<uint64_t>(200))
        .add("falseDepLoads", static_cast<uint64_t>(11))
        .add("falseDepLatency", 17.5)
        .add("injectedViolations", static_cast<uint64_t>(0))
        .add("ipc", 0.694);

    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(obj.str(), fields));
    RunResult parsed;
    ASSERT_TRUE(sweep::runRecordParse(fields, parsed));
    EXPECT_TRUE(parsed.ok);
    EXPECT_EQ(parsed.cycles, 4321u);
    EXPECT_EQ(parsed.commits, 3000u);
    EXPECT_DOUBLE_EQ(parsed.falseDepLatency, 17.5);
    // New fields come back defaulted.
    EXPECT_DOUBLE_EQ(parsed.wallMs, 0.0);
    EXPECT_DOUBLE_EQ(parsed.simCyclesPerSec(), 0.0);
    EXPECT_FALSE(parsed.cacheHit);
    EXPECT_TRUE(parsed.diagnostic.empty());
    // ... including the v3 CPI stack, whose absence is marked by
    // commitWidth == 0 ("unknown"), never zero-loss.
    EXPECT_FALSE(parsed.hasCpiStack());

    // Unknown future versions are still rejected outright.
    fields["v"] = "9";
    EXPECT_FALSE(sweep::runRecordParse(fields, parsed));
}

TEST(SweepRecord, V4RoundTripsFailureTaxonomy)
{
    // v4 added a failure taxonomy (fail_kind, fail_detail,
    // fail_injected) and v5 records could carry queue_ms; v6 writes
    // none of them.
    RunResult r;
    r.workload = "126.gcc";
    r.config = "NAS/NAV W128";
    r.ok = false;
    r.error = "isolated run died: crash(SIGSEGV)";
    r.wallMs = 12.5;

    std::string line = sweep::runRecordLine(r, 0x1234ull, 3000);
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(line, fields));
    EXPECT_EQ(fields.at("v"), "6");
    for (const char *dropped :
         {"fail_kind", "fail_detail", "fail_injected", "queue_ms"})
        EXPECT_EQ(fields.count(dropped), 0u) << dropped;

    // A v5 line with the taxonomy and queue_ms still loads as a failed
    // run with its error text.
    ASSERT_EQ(line.compare(0, 7, "{\"v\":6,"), 0) << line;
    line.replace(0, 7, "{\"v\":5,");
    line.pop_back(); // the closing brace
    line += ",\"fail_kind\":\"crash\",\"fail_detail\":\"SIGSEGV\","
            "\"fail_injected\":true,\"queue_ms\":3.25}";
    fields.clear();
    ASSERT_TRUE(parseFlatJson(line, fields));
    RunResult parsed;
    ASSERT_TRUE(sweep::runRecordParse(fields, parsed));
    expectSameResult(r, parsed);
    EXPECT_FALSE(parsed.ok);
    EXPECT_EQ(parsed.error, r.error);
    EXPECT_DOUBLE_EQ(parsed.wallMs, 12.5);

    // The dropped fields are ignored, not validated: a v4 record with
    // values v4 itself would have rejected loads the same way.
    fields["v"] = "4";
    fields["fail_kind"] = "exploded";
    fields["fail_injected"] = "maybe";
    ASSERT_TRUE(sweep::runRecordParse(fields, parsed));
    expectSameResult(r, parsed);
}

TEST(SweepRecord, V5RoundTripsDependenceProfileSummary)
{
    RunResult r;
    r.workload = "129.compress";
    r.config = "NAS/NAV W128";
    r.cycles = 1000;
    r.commits = 900;
    r.depProfiled = true;
    r.depLoads = 12;
    r.depStores = 7;
    r.depEdges = 3;
    r.depHotEdges = "0x200-0x100:5:0;0x210-0x104:2:1";

    std::string line = sweep::runRecordLine(r, 0x1234ull, 3000);
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(line, fields));
    EXPECT_EQ(fields.at("dep_profiled"), "true");
    EXPECT_EQ(fields.at("dep_loads"), "12");
    EXPECT_EQ(fields.at("dep_stores"), "7");
    EXPECT_EQ(fields.at("dep_edges"), "3");
    EXPECT_EQ(fields.at("dep_hot_edges"), r.depHotEdges);

    RunResult parsed;
    ASSERT_TRUE(sweep::runRecordParse(fields, parsed));
    expectSameResult(r, parsed);
    EXPECT_TRUE(parsed.depProfiled);
    EXPECT_EQ(parsed.depLoads, 12u);
    EXPECT_EQ(parsed.depStores, 7u);
    EXPECT_EQ(parsed.depEdges, 3u);
    EXPECT_EQ(parsed.depHotEdges, r.depHotEdges);

    // A v5 record missing any dependence-summary field is malformed,
    // as is a non-boolean dep_profiled.
    auto broken = fields;
    broken.erase("dep_profiled");
    EXPECT_FALSE(sweep::runRecordParse(broken, parsed));
    broken = fields;
    broken.erase("dep_hot_edges");
    EXPECT_FALSE(sweep::runRecordParse(broken, parsed));
    broken = fields;
    broken["dep_profiled"] = "maybe";
    EXPECT_FALSE(sweep::runRecordParse(broken, parsed));

    // The same fields relabeled v4 parse fine: the summary columns
    // are unknown to that schema, so they come back defaulted.
    fields["v"] = "4";
    ASSERT_TRUE(sweep::runRecordParse(fields, parsed));
    EXPECT_FALSE(parsed.depProfiled);
    EXPECT_EQ(parsed.depLoads, 0u);
    EXPECT_EQ(parsed.depEdges, 0u);
    EXPECT_TRUE(parsed.depHotEdges.empty());
}

TEST(SweepCache, TornTrailingRecordIsSilentlySkipped)
{
    ScratchDir dir("sweep_torn_test");
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);

    RunResult good;
    good.workload = "129.compress";
    good.config = cfg.name();
    good.cycles = 1234;
    good.commits = 999;
    uint64_t fp = sweep::fingerprintRun("129.compress", 3000, cfg);

    // A complete record followed by a record torn mid-line — the
    // signature of a writer killed inside append() — with no newline.
    {
        std::ofstream out(dir.path + "/runs.jsonl", std::ios::binary);
        out << sweep::runRecordLine(good, fp, 3000) << '\n';
        std::string torn = sweep::runRecordLine(good, fp + 1, 3000);
        out << torn.substr(0, torn.size() / 2);
    }

    // Reload: the torn tail is expected damage, not corruption, so it
    // is skipped without the unparseable-record warning.
    testing::internal::CaptureStderr();
    sweep::RunCache cache(dir.path);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(cache.size(), 1u);
    RunResult out;
    ASSERT_TRUE(cache.lookup(fp, out));
    EXPECT_EQ(out.cycles, 1234u);
    EXPECT_FALSE(cache.lookup(fp + 1, out));

    // The next append cuts the torn fragment off: every line of the
    // file, including the new record, ends in '\n' and parses.
    RunResult fresh = good;
    fresh.cycles = 4321;
    cache.append(fp + 2, 3000, fresh);

    sweep::RunCache reloaded(dir.path);
    EXPECT_EQ(reloaded.size(), 2u);
    ASSERT_TRUE(reloaded.lookup(fp + 2, out));
    EXPECT_EQ(out.cycles, 4321u);
    EXPECT_EQ(expectEveryCacheLineParses(dir.path + "/runs.jsonl"), 2u);
}

TEST(SweepFingerprint, SensitiveToEveryInput)
{
    SimConfig base = withPolicy(makeW128Config(), LsqModel::NAS,
                                SpecPolicy::Naive);
    uint64_t fp = sweep::fingerprintRun("129.compress", 4000, base);

    // Stable.
    EXPECT_EQ(fp, sweep::fingerprintRun("129.compress", 4000, base));

    // Workload and scale.
    EXPECT_NE(fp, sweep::fingerprintRun("130.li", 4000, base));
    EXPECT_NE(fp, sweep::fingerprintRun("129.compress", 4001, base));

    // Any config knob, including check.* and fault knobs.
    SimConfig differ = base;
    differ.mdp.recovery = RecoveryModel::Selective;
    EXPECT_NE(fp, sweep::fingerprintRun("129.compress", 4000, differ));
    differ = base;
    differ.check.level = 2;
    EXPECT_NE(fp, sweep::fingerprintRun("129.compress", 4000, differ));
    differ = base;
    differ.check.faults.seed = 99;
    EXPECT_NE(fp, sweep::fingerprintRun("129.compress", 4000, differ));
    differ = base;
    differ.check.faults.spuriousViolationRate = 0.25;
    EXPECT_NE(fp, sweep::fingerprintRun("129.compress", 4000, differ));
    differ = base;
    differ.mem.l2AccessLatency += 1;
    EXPECT_NE(fp, sweep::fingerprintRun("129.compress", 4000, differ));
}

TEST(SweepParallelFor, CoversAllIndicesOnce)
{
    std::vector<int> counts(100, 0);
    sweep::parallelFor(counts.size(), 7,
                       [&](size_t i) { counts[i]++; });
    for (int c : counts)
        EXPECT_EQ(c, 1);
}

TEST(SweepParallelFor, PropagatesExceptions)
{
    EXPECT_THROW(
        sweep::parallelFor(16, 4,
                           [](size_t i) {
                               if (i == 9)
                                   throw std::runtime_error("boom");
                           }),
        std::runtime_error);
}

TEST(SweepParallelFor, CancelsQueuePromptlyOnError)
{
    // A fatal error in one job must stop workers from claiming the
    // rest of the queue: with 10k queued jobs and a throw on the very
    // first, only the handful already claimed may still run.
    constexpr size_t n = 10'000;
    std::atomic<size_t> executed{0};
    EXPECT_THROW(
        sweep::parallelFor(n, 4,
                           [&](size_t i) {
                               if (i == 0)
                                   throw std::runtime_error("fatal");
                               executed.fetch_add(1);
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(1));
                           }),
        std::runtime_error);
    EXPECT_LT(executed.load(), n / 10);
}

TEST(JsonlTest, EscapeAndRoundTrip)
{
    JsonObject obj;
    obj.add("s", std::string("a\"b\\c\nd"))
        .add("n", static_cast<uint64_t>(42))
        .add("f", 0.5)
        .add("b", true)
        .add("nan", std::numeric_limits<double>::quiet_NaN());
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(obj.str(), fields));
    EXPECT_EQ(fields.at("s"), "a\"b\\c\nd");
    EXPECT_EQ(fields.at("n"), "42");
    EXPECT_EQ(fields.at("f"), "0.5");
    EXPECT_EQ(fields.at("b"), "true");
    EXPECT_EQ(fields.at("nan"), "nan");
}

TEST(JsonlTest, RejectsMalformedLines)
{
    std::map<std::string, std::string> fields;
    EXPECT_FALSE(parseFlatJson("", fields));
    EXPECT_FALSE(parseFlatJson("not json", fields));
    EXPECT_FALSE(parseFlatJson("{\"a\":1", fields));
    EXPECT_FALSE(parseFlatJson("{\"a\":{\"b\":1}}", fields));
    EXPECT_FALSE(parseFlatJson("{\"a\":1}trailing", fields));
    EXPECT_TRUE(parseFlatJson("{}", fields));
    EXPECT_TRUE(fields.empty());
}

TEST(ResolveJobsTest, ClampsRequestToHardwareConcurrency)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    // An explicit request is honored up to the core count; CPU-bound
    // workers beyond it only time-slice, inflating per-run wall time.
    EXPECT_EQ(sweep::resolveJobs(1), 1u);
    EXPECT_LE(sweep::resolveJobs(1000), hw);
    // The default (0) resolves to at least one worker.
    EXPECT_GE(sweep::resolveJobs(0), 1u);
    EXPECT_LE(sweep::resolveJobs(0), hw);
}

TEST(BenchCliTest, ParsesSharedFlags)
{
    const char *argv[] = {"bench",      "--jobs",  "3",
                          "--scale",    "12000",   "--filter",
                          "compress",   "--json",  "out.jsonl",
                          "--no-cache", "--cache-dir", "cdir"};
    sweep::BenchOptions opts = sweep::parseBenchArgs(
        static_cast<int>(std::size(argv)),
        const_cast<char **>(argv));
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.scale, 12000u);
    EXPECT_EQ(opts.filter, "compress");
    EXPECT_EQ(opts.jsonPath, "out.jsonl");
    EXPECT_FALSE(opts.cache);
    EXPECT_EQ(opts.cacheDir, "cdir");
}

TEST(BenchCliTest, ParsesTracingFlags)
{
    const char *argv[] = {"bench",         "--trace",    "MDP,Recovery",
                          "--trace-file",  "trace.log",  "--pipeview",
                          "pipe.out",      "--interval", "500",
                          "--interval-file", "iv.jsonl"};
    sweep::BenchOptions opts = sweep::parseBenchArgs(
        static_cast<int>(std::size(argv)),
        const_cast<char **>(argv));
    EXPECT_EQ(opts.traceSpec, "MDP,Recovery");
    EXPECT_EQ(opts.traceFile, "trace.log");
    EXPECT_EQ(opts.pipeviewPath, "pipe.out");
    EXPECT_EQ(opts.intervalCycles, 500u);
    EXPECT_EQ(opts.intervalFile, "iv.jsonl");
}

TEST(BenchCliTest, AcceptsInlineFlagValues)
{
    // Both "--flag value" and "--flag=value" forms are accepted.
    const char *argv[] = {"bench", "--trace=all", "--jobs=2",
                          "--scale=9000", "--interval=250",
                          "--filter=compress"};
    sweep::BenchOptions opts = sweep::parseBenchArgs(
        static_cast<int>(std::size(argv)),
        const_cast<char **>(argv));
    EXPECT_EQ(opts.traceSpec, "all");
    EXPECT_EQ(opts.jobs, 2u);
    EXPECT_EQ(opts.scale, 9000u);
    EXPECT_EQ(opts.intervalCycles, 250u);
    EXPECT_EQ(opts.filter, "compress");
}

TEST(BenchCliTest, ParsesDepProfFlags)
{
    const char *bare[] = {"bench", "--depprof"};
    sweep::BenchOptions opts =
        sweep::parseBenchArgs(2, const_cast<char **>(bare));
    EXPECT_TRUE(opts.depprof);
    EXPECT_TRUE(opts.depprofFile.empty());

    // --depprof-file implies --depprof; both value forms work.
    const char *with_file[] = {"bench", "--depprof-file",
                               "prof.depprof.jsonl"};
    opts = sweep::parseBenchArgs(3, const_cast<char **>(with_file));
    EXPECT_TRUE(opts.depprof);
    EXPECT_EQ(opts.depprofFile, "prof.depprof.jsonl");

    const char *inlined[] = {"bench", "--depprof-file=p.jsonl"};
    opts = sweep::parseBenchArgs(2, const_cast<char **>(inlined));
    EXPECT_TRUE(opts.depprof);
    EXPECT_EQ(opts.depprofFile, "p.jsonl");

    const char *off[] = {"bench"};
    opts = sweep::parseBenchArgs(1, const_cast<char **>(off));
    EXPECT_FALSE(opts.depprof);
}

TEST(BenchCliTest, ParsesConfigOverrides)
{
    const char *argv[] = {"bench", "--set", "core.windowSize=64",
                          "--set=mdp.policy=SYNC"};
    sweep::BenchOptions opts = sweep::parseBenchArgs(
        static_cast<int>(std::size(argv)),
        const_cast<char **>(argv));
    ASSERT_EQ(opts.configOverrides.size(), 2u);
    EXPECT_EQ(opts.configOverrides[0], "core.windowSize=64");
    EXPECT_EQ(opts.configOverrides[1], "mdp.policy=SYNC");
}

TEST(BenchCliTest, CacheDirReadsEnvDefault)
{
    const char *bare[] = {"bench"};
    unsetenv("CWSIM_CACHE_DIR");
    EXPECT_EQ(sweep::parseBenchArgs(1, const_cast<char **>(bare))
                  .cacheDir,
              ".cwsim-cache");

    // The env var points every bench at one shared corpus...
    setenv("CWSIM_CACHE_DIR", "/tmp/shared-corpus", 1);
    EXPECT_EQ(sweep::parseBenchArgs(1, const_cast<char **>(bare))
                  .cacheDir,
              "/tmp/shared-corpus");

    // ...and --cache-dir still overrides it, in both value forms.
    const char *flag[] = {"bench", "--cache-dir", "mine"};
    EXPECT_EQ(sweep::parseBenchArgs(3, const_cast<char **>(flag))
                  .cacheDir,
              "mine");
    const char *inlined[] = {"bench", "--cache-dir=inline"};
    EXPECT_EQ(sweep::parseBenchArgs(2, const_cast<char **>(inlined))
                  .cacheDir,
              "inline");

    // An empty value is ignored, not taken as the current directory.
    setenv("CWSIM_CACHE_DIR", "", 1);
    EXPECT_EQ(sweep::parseBenchArgs(1, const_cast<char **>(bare))
                  .cacheDir,
              ".cwsim-cache");

    unsetenv("CWSIM_CACHE_DIR");
}

TEST(BenchCliTest, DefaultScaleRespectsEnvAndOverride)
{
    unsetenv("CWSIM_SCALE");
    const char *bare[] = {"bench"};
    EXPECT_EQ(sweep::parseBenchArgs(1, const_cast<char **>(bare)).scale,
              80'000u);
    EXPECT_EQ(sweep::parseBenchArgs(1, const_cast<char **>(bare), 40'000)
                  .scale,
              40'000u);
    setenv("CWSIM_SCALE", "24000", 1);
    EXPECT_EQ(sweep::parseBenchArgs(1, const_cast<char **>(bare)).scale,
              24'000u);
    unsetenv("CWSIM_SCALE");
}

TEST(BenchCliTest, FilterNames)
{
    std::vector<std::string> names = {"099.go", "129.compress",
                                      "130.li"};
    EXPECT_EQ(sweep::filterNames(names, "").size(), 3u);
    EXPECT_EQ(sweep::filterNames(names, "compress").size(), 1u);
    EXPECT_EQ(sweep::filterNames(names, "1").size(), 2u);
    EXPECT_TRUE(sweep::filterNames(names, "zzz").empty());
}

TEST(SweepJobs, ResolveJobsPrefersExplicitThenEnv)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    unsetenv("CWSIM_JOBS");
    EXPECT_EQ(sweep::resolveJobs(5), std::min(5u, hw));
    EXPECT_GE(sweep::resolveJobs(0), 1u);
    setenv("CWSIM_JOBS", "3", 1);
    EXPECT_EQ(sweep::resolveJobs(0), std::min(3u, hw));
    setenv("CWSIM_JOBS", "junk", 1);
    EXPECT_GE(sweep::resolveJobs(0), 1u); // falls back with a warn
    unsetenv("CWSIM_JOBS");
}

} // anonymous namespace
} // namespace cwsim
