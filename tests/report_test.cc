/**
 * @file
 * Tests for the sweep-report toolchain: loading sweep JSONL files,
 * rendering the markdown/HTML report (IPC matrix, Figure 2/5/6
 * tables, CPI-stack breakdowns), and the stats diff that backs the CI
 * stats-diff job (simulated stats drift, host-profiling fields don't).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <unistd.h>

#include "mdp/dep_profile.hh"
#include "obs/cpi_stack.hh"
#include "obs/depprof.hh"
#include "sweep/report.hh"
#include "sweep/run_cache.hh"

namespace cwsim
{
namespace
{

using obs::CpiCause;
using sweep::DiffResult;
using sweep::ReportFormat;
using sweep::ReportRecord;

ReportRecord
makeRun(const std::string &workload, const std::string &config,
        uint64_t cycles, uint64_t commits)
{
    ReportRecord rec;
    rec.run.workload = workload;
    rec.run.config = config;
    rec.run.cycles = cycles;
    rec.run.commits = commits;
    rec.run.committedLoads = commits / 4;
    rec.run.committedStores = commits / 8;
    rec.run.violations = 3;
    rec.scale = 2000;

    // A conserving CPI stack: committed slots plus a cache-miss rest.
    rec.run.commitWidth = 8;
    rec.run.cpiSlots[size_t(CpiCause::Committed)] = commits;
    rec.run.cpiSlots[size_t(CpiCause::CacheMiss)] =
        cycles * 8 - commits;
    return rec;
}

/** The three Figure 2 configs for one workload. */
std::vector<ReportRecord>
fig2Records(const std::string &workload, uint64_t no_commits,
            uint64_t nav_commits, uint64_t oracle_commits)
{
    return {makeRun(workload, "NAS/NO", 1000, no_commits),
            makeRun(workload, "NAS/NAV", 1000, nav_commits),
            makeRun(workload, "NAS/ORACLE", 1000, oracle_commits)};
}

TEST(Report, RendersIpcMatrixFig2AndCpiStacks)
{
    std::vector<ReportRecord> records =
        fig2Records("129.compress", 1600, 2800, 3360);
    std::string md =
        sweep::renderReport(records, ReportFormat::Markdown);

    // Summary and IPC matrix.
    EXPECT_NE(md.find("1 workload(s) x 3 config(s)"),
              std::string::npos) << md;
    EXPECT_NE(md.find("## IPC by configuration"), std::string::npos);
    EXPECT_NE(md.find("| 129.compress | 1.600 | 2.800 | 3.360 |"),
              std::string::npos) << md;

    // Figure 2: NAV/NO = 2800/1600 = +75.0%, ORACLE/NO = +110.0%,
    // gap = 3360/2800 = +20.0%.
    EXPECT_NE(md.find("## Figure 2"), std::string::npos);
    EXPECT_NE(md.find("+75.0%"), std::string::npos) << md;
    EXPECT_NE(md.find("+110.0%"), std::string::npos) << md;
    EXPECT_NE(md.find("+20.0%"), std::string::npos) << md;
    EXPECT_NE(md.find("geomean (int)"), std::string::npos);

    // CPI stacks: NAS/NO committed share = 1600/8000 = 20.0%.
    EXPECT_NE(md.find("## CPI stacks"), std::string::npos);
    EXPECT_NE(md.find("| 129.compress | 20.0% | 80.0% |"),
              std::string::npos) << md;

    // Without SEL/STORE/SYNC configs, figures 5 and 6 are omitted.
    EXPECT_EQ(md.find("## Figure 5"), std::string::npos);
    EXPECT_EQ(md.find("## Figure 6"), std::string::npos);

    std::string html = sweep::renderReport(records, ReportFormat::Html);
    EXPECT_NE(html.find("<table>"), std::string::npos);
    EXPECT_NE(html.find("<td>129.compress</td>"), std::string::npos);
    EXPECT_NE(html.find("+75.0%"), std::string::npos);
}

TEST(Report, RendersFig5Fig6AndFailedRuns)
{
    std::vector<ReportRecord> records =
        fig2Records("099.go", 1600, 2000, 2400);
    records.push_back(makeRun("099.go", "NAS/SEL", 1000, 2300));
    records.push_back(makeRun("099.go", "NAS/STORE", 1000, 2100));
    records.push_back(makeRun("099.go", "NAS/SYNC", 1000, 2200));

    ReportRecord failed = makeRun("099.go", "AS/NAV", 0, 0);
    failed.run.ok = false;
    failed.run.error = "SimError: watchdog";
    records.push_back(failed);

    std::string md =
        sweep::renderReport(records, ReportFormat::Markdown);
    EXPECT_NE(md.find("## Figure 5"), std::string::npos);
    // SEL/NAV = 2300/2000 = +15.0%.
    EXPECT_NE(md.find("+15.0%"), std::string::npos) << md;
    EXPECT_NE(md.find("## Figure 6"), std::string::npos);
    // SYNC captured (2200-2000)/(2400-2000) = 50.0% of the gap.
    EXPECT_NE(md.find("50.0%"), std::string::npos) << md;

    EXPECT_NE(md.find("## Failed runs"), std::string::npos);
    EXPECT_NE(md.find("SimError: watchdog"), std::string::npos);
    EXPECT_NE(md.find("FAILED"), std::string::npos);
}

TEST(Report, OmitsCpiStackForPreV3Records)
{
    ReportRecord rec = makeRun("130.li", "NAS/NAV", 1000, 2000);
    rec.run.commitWidth = 0; // pre-v3: stack unknown, not zero-loss
    rec.run.cpiSlots = {};
    std::string md =
        sweep::renderReport({rec}, ReportFormat::Markdown);
    EXPECT_NE(md.find("No records with CPI-stack data"),
              std::string::npos) << md;
}

TEST(ReportDiff, IdenticalRecordsCompareClean)
{
    std::vector<ReportRecord> a =
        fig2Records("129.compress", 1600, 2800, 3300);
    std::vector<ReportRecord> b = a;

    // Host-profiling fields differ run-to-run by design and must not
    // drift: the CI job compares across machines and --jobs counts.
    b[0].run.wallMs = 1234.5;
    b[0].run.cacheHit = true;
    b[0].run.diagnostic = "something host-side";

    DiffResult d = sweep::diffRunRecords(a, b);
    EXPECT_TRUE(d.clean());
    EXPECT_EQ(d.compared, 3u);
    EXPECT_EQ(d.cpiSkipped, 0u);
    EXPECT_NE(sweep::formatDiff(d).find("no drift"),
              std::string::npos);
}

TEST(ReportDiff, FlagsDriftingSimulatedFieldsByName)
{
    std::vector<ReportRecord> a =
        fig2Records("129.compress", 1600, 2800, 3300);
    std::vector<ReportRecord> b = a;
    b[1].run.cycles = 1001;
    b[1].run.cpiSlots[size_t(CpiCause::MemDepSquash)] = 7;

    DiffResult d = sweep::diffRunRecords(a, b);
    EXPECT_FALSE(d.clean());
    ASSERT_EQ(d.drift.size(), 2u);
    EXPECT_EQ(d.drift[0].field, "cycles");
    EXPECT_EQ(d.drift[0].baseline, "1000");
    EXPECT_EQ(d.drift[0].current, "1001");
    EXPECT_EQ(d.drift[1].field, "cpi_mem_dep_squash");

    std::string text = sweep::formatDiff(d);
    EXPECT_NE(text.find("DRIFT 129.compress NAS/NAV (scale 2000): "
                        "cycles 1000 -> 1001"),
              std::string::npos) << text;
}

TEST(ReportDiff, MissingAndExtraRunsAreNotClean)
{
    std::vector<ReportRecord> a =
        fig2Records("129.compress", 1600, 2800, 3300);
    std::vector<ReportRecord> b(a.begin(), a.end() - 1);
    b.push_back(makeRun("099.go", "NAS/NO", 1000, 1700));

    DiffResult d = sweep::diffRunRecords(a, b);
    EXPECT_FALSE(d.clean());
    EXPECT_EQ(d.compared, 2u);
    EXPECT_EQ(d.baselineOnly, 1u);
    EXPECT_EQ(d.currentOnly, 1u);
}

TEST(ReportDiff, SkipsCpiComparisonWhenOneSidePredatesV3)
{
    std::vector<ReportRecord> a =
        fig2Records("129.compress", 1600, 2800, 3300);
    std::vector<ReportRecord> b = a;
    // The baseline predates v3: CPI columns unknown there, so only
    // the shared stats constrain the diff.
    a[0].run.commitWidth = 0;
    a[0].run.cpiSlots = {};

    DiffResult d = sweep::diffRunRecords(a, b);
    EXPECT_TRUE(d.clean());
    EXPECT_EQ(d.cpiSkipped, 1u);
    EXPECT_NE(sweep::formatDiff(d).find("without CPI data"),
              std::string::npos);
}

TEST(ReportDiff, ComparesOkAndErrorOfFailedRuns)
{
    std::vector<ReportRecord> a = {
        makeRun("130.li", "NAS/NAV", 1000, 2000)};
    a[0].run.ok = false;
    a[0].run.error = "SimError: watchdog: no commit in 2000 cycles";
    std::vector<ReportRecord> b = a;
    EXPECT_TRUE(sweep::diffRunRecords(a, b).clean());

    // A different failure is drift...
    b[0].run.error = "SimError: invariant: window overflow";
    DiffResult d = sweep::diffRunRecords(a, b);
    ASSERT_EQ(d.drift.size(), 1u);
    EXPECT_EQ(d.drift[0].field, "error");
    EXPECT_EQ(d.drift[0].current, b[0].run.error);

    // ...and so is a run that now completes.
    b[0].run.ok = true;
    b[0].run.error.clear();
    d = sweep::diffRunRecords(a, b);
    ASSERT_EQ(d.drift.size(), 2u);
    EXPECT_EQ(d.drift[0].field, "ok");
    EXPECT_EQ(d.drift[0].baseline, "false");
    EXPECT_EQ(d.drift[0].current, "true");
    EXPECT_EQ(d.drift[1].field, "error");
}

TEST(ReportDiff, NanFalseDepLatencyDoesNotSelfDrift)
{
    std::vector<ReportRecord> a = {
        makeRun("130.li", "NAS/NAV", 1000, 2000)};
    a[0].run.falseDepLatency =
        std::numeric_limits<double>::quiet_NaN();
    std::vector<ReportRecord> b = a;
    EXPECT_TRUE(sweep::diffRunRecords(a, b).clean());

    b[0].run.falseDepLatency = 17.5;
    EXPECT_FALSE(sweep::diffRunRecords(a, b).clean());
}

TEST(ReportLoad, RoundTripsRunRecordLinesAndSkipsGarbage)
{
    std::string path =
        "report_load_test." + std::to_string(::getpid()) + ".jsonl";
    {
        std::ofstream out(path);
        ReportRecord rec = makeRun("129.compress", "NAS/NAV", 1000,
                                   2800);
        out << sweep::runRecordLine(rec.run, 0xbeefull, 2000) << "\n";
        out << "this is not json\n";
        out << "{\"v\":99,\"ok\":\"true\"}\n";
    }

    std::vector<ReportRecord> records;
    std::string err;
    size_t rejected = 0;
    ASSERT_TRUE(
        sweep::loadRunRecords(path, records, &err, &rejected));
    EXPECT_EQ(records.size(), 1u);
    EXPECT_EQ(rejected, 2u);
    EXPECT_EQ(records[0].run.workload, "129.compress");
    EXPECT_EQ(records[0].scale, 2000u);
    EXPECT_EQ(records[0].fp, "000000000000beef");
    EXPECT_EQ(records[0].run.commitWidth, 8u);
    EXPECT_EQ(records[0].run.cpiSlots[size_t(CpiCause::Committed)],
              2800u);
    std::remove(path.c_str());

    std::vector<ReportRecord> none;
    EXPECT_FALSE(sweep::loadRunRecords("does-not-exist.jsonl", none,
                                       &err));
    EXPECT_FALSE(err.empty());
}

TEST(ReportLoad, RejectsGarbledScaleInsteadOfTruncating)
{
    // A record whose scale field holds trailing garbage used to parse
    // as its numeric prefix (strtoull with no end check), silently
    // mis-binning the run; it must count as malformed instead.
    std::string path = "report_load_scale_test." +
                       std::to_string(::getpid()) + ".jsonl";
    ReportRecord rec = makeRun("129.compress", "NAS/NAV", 1000, 2800);
    std::string good = sweep::runRecordLine(rec.run, 0xbeefull, 2000);
    std::string garbled = good;
    size_t at = garbled.find("\"scale\":2000");
    ASSERT_NE(at, std::string::npos);
    garbled.replace(at, strlen("\"scale\":2000"), "\"scale\":\"20x0\"");
    {
        std::ofstream out(path);
        out << good << "\n" << garbled << "\n";
    }

    std::vector<ReportRecord> records;
    std::string err;
    size_t rejected = 0;
    ASSERT_TRUE(
        sweep::loadRunRecords(path, records, &err, &rejected));
    EXPECT_EQ(records.size(), 1u);
    EXPECT_EQ(rejected, 1u);
    EXPECT_EQ(records[0].scale, 2000u);
    std::remove(path.c_str());
}

TEST(Report, RendersDependenceSectionsFromV5Summaries)
{
    std::vector<ReportRecord> records =
        fig2Records("129.compress", 1600, 2800, 3360);
    // No profiled records: the dep sections stay out of the report.
    std::string bare =
        sweep::renderReport(records, ReportFormat::Markdown);
    EXPECT_EQ(bare.find("Hot dependence edges"), std::string::npos);

    records[1].run.depProfiled = true;
    records[1].run.depLoads = 5;
    records[1].run.depStores = 3;
    records[1].run.depEdges = 2;
    records[1].run.depHotEdges = "0x200-0x100:7:0;0x210-0x104:2:1";

    std::string md =
        sweep::renderReport(records, ReportFormat::Markdown);
    EXPECT_NE(md.find("## Hot dependence edges"), std::string::npos)
        << md;
    EXPECT_NE(md.find("1 run(s) carry a dependence-profile summary"),
              std::string::npos) << md;
    // The hottest edge leads its config table.
    EXPECT_NE(md.find("| 129.compress | 0x200 | 0x100 | 7 | 0 |"),
              std::string::npos) << md;
    // And the per-PC rollup aggregates both roles.
    EXPECT_NE(md.find("## Dependence hot spots by static PC"),
              std::string::npos) << md;
    EXPECT_NE(md.find("| 0x200 | store | 7 | 0 | 1 |"),
              std::string::npos) << md;
    EXPECT_NE(md.find("| 0x100 | load | 7 | 0 | 1 |"),
              std::string::npos) << md;
}

TEST(Report, TopCapsOpenEndedTablesWithFooter)
{
    std::vector<ReportRecord> records =
        fig2Records("129.compress", 1600, 2800, 3360);
    records[1].run.depProfiled = true;
    records[1].run.depHotEdges =
        "0x200-0x100:9:0;0x210-0x104:8:0;0x220-0x108:7:0";
    records[1].run.depEdges = 3;

    std::string capped =
        sweep::renderReport(records, ReportFormat::Markdown, 2);
    EXPECT_NE(capped.find("_1 more row(s) dropped; raise --top to "
                          "see them._"),
              std::string::npos) << capped;
    EXPECT_EQ(capped.find("0x220"), std::string::npos) << capped;

    // top = 0 means unlimited: every row, no footer.
    std::string full =
        sweep::renderReport(records, ReportFormat::Markdown, 0);
    EXPECT_EQ(full.find("more row(s) dropped"), std::string::npos);
    EXPECT_NE(full.find("0x220"), std::string::npos);

    // HTML renders the footer as an emphasized note after the table.
    std::string html =
        sweep::renderReport(records, ReportFormat::Html, 2);
    EXPECT_NE(html.find("<p><em>1 more row(s) dropped; raise --top "
                        "to see them.</em></p>"),
              std::string::npos) << html;
}

TEST(Report, RendersDepProfileFiles)
{
    obs::DepProfile prof("proc", "129.compress NAS/NAV W128");
    prof.noteLoadExec(0x100, true);
    prof.noteLoadCommit(0x100);
    prof.noteStoreCommit(0x200);
    prof.noteViolation(0x200, 0x100, 5, true);
    prof.noteSyncWait(0x100, 0x200, 9);
    prof.noteMdptAlloc(0x100);
    prof.noteMdptSample(1000, 2, 0.75);

    std::vector<std::string> lines;
    prof.serialize(lines);
    mdp::DepProfileFile file;
    ASSERT_TRUE(file.parseLines(lines));

    std::string md =
        sweep::renderDepProfile(file, ReportFormat::Markdown);
    EXPECT_NE(md.find("cwsim dependence profile"), std::string::npos);
    EXPECT_NE(md.find("1 validated run block(s)."), std::string::npos)
        << md;
    EXPECT_NE(md.find("## Run: 129.compress NAS/NAV W128 (proc)"),
              std::string::npos) << md;
    // The edge row carries overlap kinds and the distance histogram.
    EXPECT_NE(md.find("| 0x200 | 0x100 | 1 | 1 | 1 | 0 |"),
              std::string::npos) << md;
    EXPECT_NE(md.find("4-7:1"), std::string::npos) << md;
    EXPECT_NE(md.find("8-15:1"), std::string::npos) << md;
    EXPECT_NE(md.find("0.750"), std::string::npos) << md;

    std::string html = sweep::renderDepProfile(file, ReportFormat::Html);
    EXPECT_NE(html.find("<table>"), std::string::npos);
    EXPECT_NE(html.find("<td>0x200</td>"), std::string::npos);

    // An empty profile still renders, saying so.
    mdp::DepProfileFile empty;
    std::string none =
        sweep::renderDepProfile(empty, ReportFormat::Markdown);
    EXPECT_NE(none.find("No validated run blocks."), std::string::npos)
        << none;
}

TEST(ReportFailureTally, SimErrorFailuresAreCampaignFailures)
{
    harness::Runner runner(3000);
    EXPECT_EQ(sweep::reportFailures(runner), 0u);

    // A livelocked run trips the watchdog: a SimError failure, which
    // makes the bench exit non-zero.
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    cfg.core.commitWidth = 0;
    cfg.check.watchdogInterval = 2'000;
    harness::RunResult r = runner.run("129.compress", cfg);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("watchdog"), std::string::npos) << r.error;
    EXPECT_EQ(sweep::reportFailures(runner), 1u);

    // A failure replayed from the cache counts the same way.
    r.workload = "130.li";
    runner.recordFailure(r);
    EXPECT_EQ(sweep::reportFailures(runner), 2u);
}

} // anonymous namespace
} // namespace cwsim
