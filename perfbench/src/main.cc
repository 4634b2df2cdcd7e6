/**
 * @file
 * cwsim_perf: the benchmark program behind perfbench/run.py.
 *
 *   cwsim_perf --workload fig2_nas --seed 0 --seconds 30 --trace 0
 *
 * One invocation runs one workload — a fixed (kernel x config) sweep —
 * repeatedly in this process until --seconds have passed, and prints
 * the medians over the repetitions as one JSON line (the last line of
 * stdout). Each repetition is a closed loop: one sweep worker per CPU
 * the process may run on takes the next run when its previous run
 * finishes.
 *
 * Untraced repetitions go through the same public entry points as the
 * bench binaries: harness::Runner for workload build and prepass,
 * sweep::SweepEngine (run cache off, default check settings) for the
 * timing runs, and runPrepass + SplitWindowSim for the split-window
 * model, as fig7_split_window does. With --trace 1 it
 * alternates untraced repetitions with traced ones. A traced
 * repetition performs the same work as Runner::run, but calls each
 * layer's public functions itself and records a span around every
 * call; the per-layer metrics come from those spans and from the
 * simulated statistics of each run.
 *
 * Every invocation first runs one check repetition: the layer-by-layer
 * path, untraced, at the canonical scale whatever the seed. Its result
 * and full-stats digests must equal the committed ones, and sim_cycles
 * is its total. Every run of every repetition is checked: SimErrors
 * (watchdog, invariant, equivalence with the functional prepass) fail
 * the run, and so does a digest that differs from the expected one or
 * from an earlier repetition at the same scale.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/arena.hh"
#include "base/logging.hh"
#include "base/sim_error.hh"
#include "base/str.hh"
#include "check/equivalence.hh"
#include "harness/harness.hh"
#include "obs/trace.hh"
#include "split/split_window.hh"
#include "sweep/sweep.hh"
#include "workloads/workload.hh"

#include "digest.hh"
#include "spans.hh"

using namespace cwsim;
using perfbench::ScopedSpan;
using perfbench::Span;
using perfbench::SpanLog;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---- workloads -------------------------------------------------------

struct ConfigSpec
{
    std::string label; ///< "NAS/NAV", or "AS/NAV@1" with the AS latency.
    SimConfig cfg;
};

struct WorkloadSpec
{
    std::string name;
    uint64_t baseScale = 0; ///< Dynamic instructions per kernel.
    std::vector<std::string> kernels;
    std::vector<ConfigSpec> configs;
    /** Also run the split-window model pair over each kernel's trace. */
    bool splitModel = false;
};

ConfigSpec
configSpec(LsqModel model, SpecPolicy policy, Cycles as_latency = 0)
{
    ConfigSpec c;
    c.cfg = withPolicy(makeW128Config(), model, policy, as_latency);
    c.label = c.cfg.name();
    if (model == LsqModel::AS)
        c.label += strfmt("@%llu",
                          static_cast<unsigned long long>(as_latency));
    return c;
}

bool
findSpec(const std::string &name, WorkloadSpec &spec)
{
    std::vector<std::string> paper = workloads::intNames();
    for (const std::string &fp : workloads::fpNames())
        paper.push_back(fp);

    spec.name = name;
    if (name == "fig2_nas") {
        spec.baseScale = 80'000;
        spec.kernels = paper;
        spec.configs = {configSpec(LsqModel::NAS, SpecPolicy::No),
                        configSpec(LsqModel::NAS, SpecPolicy::Oracle),
                        configSpec(LsqModel::NAS, SpecPolicy::Naive)};
    } else if (name == "as_mdpt") {
        spec.baseScale = 80'000;
        spec.kernels = paper;
        spec.configs = {
            configSpec(LsqModel::AS, SpecPolicy::No, 0),
            configSpec(LsqModel::AS, SpecPolicy::Naive, 1),
            configSpec(LsqModel::NAS, SpecPolicy::StoreBarrier),
            configSpec(LsqModel::NAS, SpecPolicy::SpecSync)};
    } else if (name == "long_trace") {
        spec.baseScale = 1'000'000;
        spec.kernels = {"099.go", "129.compress", "101.tomcatv",
                        "145.fpppp"};
        spec.configs = {configSpec(LsqModel::NAS, SpecPolicy::Naive)};
        spec.splitModel = true;
    } else {
        return false;
    }
    return true;
}

/**
 * The kernels' scale for @p seed: seed 0 is the unshifted scale the
 * committed digests describe; any other seed moves it by a
 * deterministic amount within +-0.25%.
 */
uint64_t
scaleFor(const WorkloadSpec &spec, uint64_t seed)
{
    if (seed == 0)
        return spec.baseScale;
    uint64_t z = seed + 0x9e3779b97f4a7c15ull; // splitmix64
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    uint64_t span = spec.baseScale / 400;
    return spec.baseScale - span + z % (2 * span + 1);
}

/** The split-window model pair of fig7_split_window: AS/NAV@0. */
SplitConfig
splitConfig(bool split)
{
    SplitConfig cfg = split ? SplitConfig{} : SplitConfig::continuous();
    cfg.lsqModel = LsqModel::AS;
    cfg.policy = SpecPolicy::Naive;
    cfg.asLatency = 0;
    return cfg;
}

const char *
splitModelName(int m)
{
    return m == 0 ? "cont:AS/NAV@0" : "split:AS/NAV@0";
}

/** Everything one invocation needs to run repetitions. */
struct Bench
{
    WorkloadSpec spec;
    uint64_t scale = 0;
    unsigned workers = 1;
    sweep::SweepPlan plan;
    std::vector<size_t> jobKernel;
    std::vector<size_t> jobConfig;
    /**
     * Run names, indexed by span run id: one per timing job ("099.go
     * NAS/NAV"), then one per kernel ("099.go") for per-kernel work.
     */
    std::vector<std::string> runNames;

    int kernelRun(size_t k) const { return int(plan.size() + k); }
};

void
buildPlan(Bench &b)
{
    for (size_t k = 0; k < b.spec.kernels.size(); ++k) {
        for (size_t c = 0; c < b.spec.configs.size(); ++c) {
            b.plan.add(b.spec.kernels[k], b.spec.configs[c].cfg);
            b.jobKernel.push_back(k);
            b.jobConfig.push_back(c);
            b.runNames.push_back(b.spec.kernels[k] + " " +
                                 b.spec.configs[c].label);
        }
    }
    for (const std::string &k : b.spec.kernels)
        b.runNames.push_back(k);
}

// ---- host measurements -----------------------------------------------

/** The sweep worker count: the CPUs this process may run on. */
unsigned
workerCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    unsigned cpus = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? static_cast<unsigned>(CPU_COUNT(&set))
                        : std::thread::hardware_concurrency();
    return sweep::resolveJobs(std::max(1u, cpus));
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
rssNowMb()
{
    std::ifstream statm("/proc/self/statm");
    unsigned long long size = 0, resident = 0;
    statm >> size >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---- one repetition --------------------------------------------------

/** One checked run: a timing run or one split-window model run. */
struct RunOutcome
{
    std::string id;
    bool ok = true;
    std::string error;
    bool timing = true;  ///< False for a split-window model run.
    double hostMs = 0;   ///< Timing runs: host time of the run.
    uint64_t cycles = 0;
    uint64_t insts = 0;  ///< Commits, or trace entries for split runs.
    std::string resultDigest;
    std::string statsDigest; ///< Empty for Runner-driven timing runs.
};

/** Simulated work counts of one layer-by-layer timing run. */
struct RunCounters
{
    uint64_t fetched = 0, commits = 0, squashed = 0, violations = 0;
    uint64_t replays = 0, forwarded = 0, syncWaits = 0, barrierHolds = 0;
    double occupancySum = 0;
    uint64_t occupancySamples = 0;
    uint64_t dcacheMisses = 0, dcacheBankRejects = 0, l2Misses = 0;
    uint64_t mispredicts = 0, bpredLookups = 0;
    uint64_t mdptAllocations = 0, mdptPairings = 0, mdptResets = 0;
    double rssGrowthMb = 0;
};

/**
 * Check: layer by layer at the canonical scale, checked against the
 * committed digests, not timed. Untraced: through Runner/SweepEngine,
 * timed. Traced: layer by layer with spans.
 */
enum class RepKind { Check, Untraced, Traced };

struct Rep
{
    unsigned index = 0; ///< Position in the invocation; tags its spans.
    RepKind kind = RepKind::Untraced;
    uint64_t scale = 0;
    double wallS = 0;
    double cpuS = 0;
    double setupS = 0;
    double simS = 0; ///< Elapsed time after setup.
    std::vector<RunOutcome> runs; ///< Timing runs, then split runs.

    // Layer-by-layer repetitions (check and traced) only.
    int64_t startNs = 0, endNs = 0, setupEndNs = 0;
    int64_t sweepStartNs = 0, sweepEndNs = 0;
    std::vector<RunCounters> counters; ///< Per timing job.
    uint64_t oracleLoads = 0;
    uint64_t prepassInsts = 0;
    uint64_t traceEntries = 0;
    uint64_t splitViolations = 0;
    double rssAfterSetupMb = 0;
};

std::string
splitDigest(const SplitWindowSim &sim)
{
    std::string text = strfmt(
        "cycles=%llu violations=%llu committed=%llu cpi=",
        static_cast<unsigned long long>(sim.cycles()),
        static_cast<unsigned long long>(sim.violations()),
        static_cast<unsigned long long>(sim.committed()));
    for (size_t i = 0; i < obs::num_cpi_causes; ++i) {
        text += strfmt("%llu,", static_cast<unsigned long long>(
                                    sim.cpiStack().slot(obs::CpiCause(i))));
    }
    return perfbench::digestText(text);
}

/** A span when @p log is set; nothing when tracing is off. */
struct MaybeSpan
{
    MaybeSpan(SpanLog *log, const char *name, int run,
              uint64_t parent = 0)
    {
        if (log)
            span.emplace(*log, name, run, parent);
    }
    uint64_t id() const { return span ? span->id() : 0; }
    std::optional<ScopedSpan> span;
};

/** The split-window model pair over one kernel's committed trace. */
struct SplitJob
{
    RunOutcome models[2]; ///< Continuous, then split.
    uint64_t prepassInsts = 0;
    uint64_t violations = 0;
};

/**
 * Record @p program's committed trace and run the split-window model
 * pair over it. With a span log, the prepass and each model's calls
 * are traced.
 */
SplitJob
runSplitPair(const Program &program, const std::string &kernel,
             SpanLog *log, int run, uint64_t parent)
{
    SplitJob job;
    for (int m = 0; m < 2; ++m) {
        job.models[m].id = kernel + " " + splitModelName(m);
        job.models[m].timing = false;
    }
    MaybeSpan pair(log, "bench.split_pair", run, parent);
    try {
        ScopedErrorTrap trap;
        PrepassOptions opts;
        opts.recordTrace = true;
        PrepassResult pre;
        {
            MaybeSpan s(log, "mdp.prepass", run);
            pre = runPrepass(program, opts);
        }
        job.prepassInsts = pre.instCount;
        for (int m = 0; m < 2; ++m) {
            std::unique_ptr<SplitWindowSim> sim;
            {
                MaybeSpan s(log, "split.construct", run);
                sim = std::make_unique<SplitWindowSim>(splitConfig(m == 1),
                                                       pre.trace);
            }
            {
                MaybeSpan s(log, "split.run", run);
                sim->run();
            }
            RunOutcome &o = job.models[m];
            o.cycles = sim->cycles();
            o.insts = pre.trace.size();
            o.resultDigest = o.statsDigest = splitDigest(*sim);
            job.violations += sim->violations();
            {
                MaybeSpan s(log, "split.destroy", run);
                sim.reset();
            }
        }
    } catch (const SimError &e) {
        for (RunOutcome &o : job.models) {
            o.ok = false;
            o.error = e.summary();
        }
    }
    return job;
}

Rep
runUntraced(const Bench &b)
{
    Rep rep;
    rep.scale = b.scale;
    const size_t nk = b.spec.kernels.size();
    double cpu0 = cpuSeconds();
    auto t0 = Clock::now();

    // Setup runs on one thread: with 18 short prepasses spread over the
    // workers, thread start-up and the last worker's tail made setup_s
    // swing by 2x between repetitions.
    harness::Runner runner(b.scale);
    for (const std::string &kernel : b.spec.kernels)
        runner.prepass(kernel);
    auto t1 = Clock::now();

    sweep::SweepOptions opts;
    opts.jobs = b.workers;
    opts.useCache = false;
    sweep::SweepEngine engine(runner, opts);
    std::vector<harness::RunResult> results = engine.run(b.plan);

    std::vector<SplitJob> split(b.spec.splitModel ? nk : 0);
    sweep::parallelFor(split.size(), b.workers, [&](size_t k) {
        split[k] = runSplitPair(runner.workload(b.spec.kernels[k]).program,
                                b.spec.kernels[k], nullptr, -1, 0);
    });
    auto t2 = Clock::now();
    rep.cpuS = cpuSeconds() - cpu0;
    rep.wallS = secondsBetween(t0, t2);
    rep.setupS = secondsBetween(t0, t1);
    rep.simS = secondsBetween(t1, t2);

    for (size_t j = 0; j < results.size(); ++j) {
        const harness::RunResult &r = results[j];
        RunOutcome o;
        o.id = b.runNames[j];
        o.ok = r.ok;
        o.error = r.error;
        o.hostMs = r.wallMs;
        o.cycles = r.cycles;
        o.insts = r.commits;
        o.resultDigest = perfbench::resultDigest(r);
        rep.runs.push_back(std::move(o));
    }
    for (SplitJob &job : split) {
        for (RunOutcome &o : job.models)
            rep.runs.push_back(std::move(o));
    }
    return rep;
}

/**
 * One timing run, layer by layer: the work of harness::Runner::run,
 * with a span around each layer call when @p log is set.
 */
RunOutcome
runOneByLayer(const Bench &b, size_t j, const Workload &w,
              const PrepassResult &pre, RunCounters &c, SpanLog *log,
              uint64_t parent)
{
    const SimConfig &cfg = b.plan.jobs()[j].config;
    const std::string &kernel = b.spec.kernels[b.jobKernel[j]];
    RunOutcome o;
    o.id = b.runNames[j];
    const int run = int(j);
    int64_t start = SpanLog::nowNs();
    {
        MaybeSpan run_span(log, "bench.run", run, parent);
        obs::setRunLabel(kernel + " " + cfg.name());
        try {
            ScopedErrorTrap trap;
            fatal_if(!pre.halted,
                     "workload %s did not halt in its functional pre-pass",
                     kernel.c_str());
            double rss0 = rssNowMb();
            std::unique_ptr<Processor> proc;
            {
                MaybeSpan s(log, "cpu.construct", run);
                proc = std::make_unique<Processor>(cfg, w.program,
                                                   &pre.deps);
            }
            {
                MaybeSpan s(log, "cpu.run", run);
                proc->run();
            }
            c.rssGrowthMb = rssNowMb() - rss0;
            fatal_if(!proc->halted(), "%s did not halt under %s",
                     kernel.c_str(), cfg.name().c_str());

            harness::RunResult r = perfbench::resultFromProcessor(*proc);
            const ProcStats &s = proc->procStats();
            c.fetched = s.fetchedInsts.value();
            c.commits = s.commits.value();
            c.squashed = s.squashedInsts.value();
            c.violations = s.memOrderViolations.value();
            c.replays = s.loadReplays.value();
            c.forwarded = s.loadsForwarded.value();
            c.syncWaits = s.syncWaits.value();
            c.barrierHolds = s.barrierHolds.value();
            c.occupancySum = s.windowOccupancy.sum();
            c.occupancySamples = s.windowOccupancy.count();
            c.dcacheMisses = proc->memorySystem().l1d().misses.value();
            c.dcacheBankRejects =
                proc->memorySystem().l1d().bankRejects.value();
            c.l2Misses = proc->memorySystem().unified().misses.value();
            c.mispredicts = s.branchMispredicts.value();
            c.bpredLookups = proc->branchPredictor().lookups.value();
            c.mdptAllocations = proc->mdpt().allocations.value();
            c.mdptPairings = proc->mdpt().pairings.value();
            c.mdptResets = proc->mdpt().resets.value();

            if (cfg.check.level > 0 && cfg.maxInsts == 0) {
                std::string diff;
                {
                    MaybeSpan s(log, "check.equivalence", run);
                    diff = check::compareWithGolden(
                        proc->archState(), proc->memory().fingerprint(),
                        proc->totalCommits(), pre);
                }
                if (!diff.empty()) {
                    throw SimError(SimErrorKind::Equivalence,
                                   kernel + " under " + cfg.name() +
                                       " diverged from the functional "
                                       "pre-pass",
                                   __FILE__, __LINE__, diff);
                }
            }
            o.cycles = r.cycles;
            o.insts = r.commits;
            o.resultDigest = perfbench::resultDigest(r);
            o.statsDigest = perfbench::statsDigest(*proc);
            {
                MaybeSpan s(log, "cpu.destroy", run);
                proc.reset();
            }
        } catch (const SimError &e) {
            o.ok = false;
            o.error = e.summary();
        }
        runArena().reset();
    }
    o.hostMs = (SpanLog::nowNs() - start) / 1e6;
    return o;
}

/**
 * A repetition that calls each layer itself rather than through
 * Runner::run, so every run yields its full stats digest and counters.
 * With @p log it is a traced repetition; without, the check repetition.
 */
Rep
runByLayer(const Bench &b, SpanLog *log)
{
    Rep rep;
    rep.kind = log ? RepKind::Traced : RepKind::Check;
    rep.scale = b.scale;
    const size_t nk = b.spec.kernels.size();
    const size_t nj = b.plan.size();
    std::vector<std::unique_ptr<Workload>> work(nk);
    std::vector<std::unique_ptr<PrepassResult>> pre(nk);

    double cpu0 = cpuSeconds();
    rep.startNs = SpanLog::nowNs();
    for (size_t k = 0; k < nk; ++k) {
        const int run = b.kernelRun(k);
        {
            MaybeSpan s(log, "workloads.build", run);
            work[k] = std::make_unique<Workload>(
                workloads::build(b.spec.kernels[k], b.scale));
        }
        MaybeSpan s(log, "mdp.prepass", run);
        pre[k] = std::make_unique<PrepassResult>(
            runPrepass(work[k]->program));
    }
    rep.setupEndNs = SpanLog::nowNs();
    rep.rssAfterSetupMb = rssNowMb();
    for (size_t k = 0; k < nk; ++k) {
        rep.oracleLoads += pre[k]->deps.size();
        rep.prepassInsts += pre[k]->instCount;
    }

    std::vector<RunOutcome> timing(nj);
    rep.counters.resize(nj);
    {
        MaybeSpan phase(log, "sweep.parallel_for", -1);
        uint64_t parent = phase.id();
        rep.sweepStartNs = SpanLog::nowNs();
        sweep::parallelFor(nj, b.workers, [&](size_t j) {
            size_t k = b.jobKernel[j];
            timing[j] = runOneByLayer(b, j, *work[k], *pre[k],
                                      rep.counters[j], log, parent);
        });
        rep.sweepEndNs = SpanLog::nowNs();
    }

    std::vector<SplitJob> split(b.spec.splitModel ? nk : 0);
    if (!split.empty()) {
        MaybeSpan phase(log, "sweep.parallel_for", -1);
        uint64_t parent = phase.id();
        sweep::parallelFor(nk, b.workers, [&](size_t k) {
            split[k] = runSplitPair(work[k]->program, b.spec.kernels[k],
                                    log, b.kernelRun(k), parent);
        });
    }
    rep.endNs = SpanLog::nowNs();
    rep.cpuS = cpuSeconds() - cpu0;
    rep.wallS = (rep.endNs - rep.startNs) / 1e9;
    rep.setupS = (rep.setupEndNs - rep.startNs) / 1e9;
    rep.simS = (rep.endNs - rep.setupEndNs) / 1e9;

    for (RunOutcome &o : timing)
        rep.runs.push_back(std::move(o));
    for (SplitJob &job : split) {
        rep.prepassInsts += job.prepassInsts;
        rep.traceEntries += job.models[0].insts;
        rep.splitViolations += job.violations;
        for (RunOutcome &o : job.models)
            rep.runs.push_back(std::move(o));
    }
    return rep;
}

// ---- statistics ------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Linear-interpolated percentile @p p (0..100) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/**
 * The highest percentile (in steps of 5) with at least 10 of @p n
 * samples beyond it; 100 (the maximum) when n is too small for any.
 */
int
tailPercentile(size_t n)
{
    for (int p = 95; p >= 50; p -= 5) {
        if (static_cast<double>(n) * (100 - p) / 100.0 >= 10.0)
            return p;
    }
    return 100;
}

std::vector<double>
timingRunMs(const Rep &rep)
{
    std::vector<double> ms;
    for (const RunOutcome &o : rep.runs) {
        if (o.timing)
            ms.push_back(o.hostMs);
    }
    return ms;
}

// ---- output ----------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string line = strfmt(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
        line += strfmt("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                       i ? ", " : "", metrics[i].name.c_str(), v,
                       metrics[i].unit.c_str());
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

/** "AS/NAV@1" -> "AS-NAV-1": the metric-name form of a config label. */
std::string
metricLabel(const std::string &label)
{
    std::string out = label;
    for (char &ch : out) {
        if (ch == '/' || ch == '@')
            ch = '-';
    }
    return out;
}

/** Every config any workload runs, for the per-config metrics. */
std::vector<std::string>
allConfigLabels()
{
    std::vector<std::string> labels;
    for (const char *name : {"fig2_nas", "as_mdpt", "long_trace"}) {
        WorkloadSpec spec;
        findSpec(name, spec);
        for (const ConfigSpec &c : spec.configs) {
            if (std::find(labels.begin(), labels.end(), c.label) ==
                labels.end())
                labels.push_back(c.label);
        }
    }
    return labels;
}

std::vector<Metric>
endToEndMetrics(const Rep &check, const std::vector<const Rep *> &reps)
{
    std::vector<double> wall, cpu, setup, rate, p50, tail;
    for (const Rep *r : reps) {
        wall.push_back(r->wallS);
        cpu.push_back(r->cpuS);
        setup.push_back(r->setupS);
        uint64_t insts = 0;
        for (const RunOutcome &o : r->runs)
            insts += o.insts;
        rate.push_back(r->simS > 0 ? insts / r->simS / 1e6 : 0);
        std::vector<double> ms = timingRunMs(*r);
        p50.push_back(percentile(ms, 50));
        tail.push_back(percentile(ms, tailPercentile(ms.size())));
    }
    uint64_t cycles = 0;
    for (const RunOutcome &o : check.runs)
        cycles += o.cycles;
    return {
        {"wall_s", median(wall), "s"},
        {"cpu_s", median(cpu), "s"},
        {"setup_s", median(setup), "s"},
        {"sim_minst_per_s", median(rate), "Minst/s"},
        {"run_ms_p50", median(p50), "ms"},
        {"run_ms_tail", median(tail), "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_cycles", static_cast<double>(cycles), "count"},
    };
}

std::vector<Metric>
perLayerMetrics(const Bench &b, const std::vector<const Rep *> &traced,
                const std::vector<const Rep *> &untraced,
                const std::vector<Span> &spans)
{
    // Spans by repetition.
    std::map<unsigned, std::vector<Span>> by_rep;
    for (const Span &s : spans)
        by_rep[s.rep].push_back(s);

    std::vector<double> build_ms, prepass_ms, prepass_ns_inst, check_ms,
        split_ms, split_ns_entry, idle, coverage, rss_setup, rss_growth;
    std::vector<double> construct_call_ms, run_call_ms;
    double run_ns = 0, run_cycles = 0, run_fetched = 0;
    std::map<std::string, std::pair<double, double>> per_config; // ns, cyc

    for (const Rep *r : traced) {
        const std::vector<Span> &list = by_rep[r->index];
        double b_ms = 0, p_ms = 0, c_ms = 0, s_ms = 0, busy_ns = 0;
        // Coverage is thread time in layer calls over thread time doing
        // the repetition's work: setup on the main thread plus every job
        // a worker ran. The jobs' own code outside layer calls (stats,
        // digests) is what stays uncovered; idle workers are not work,
        // they are sweep.worker_idle_frac.
        double layer_ns = 0;
        double work_ns = static_cast<double>(r->setupEndNs - r->startNs);
        for (const Span &s : list) {
            double ms = s.durNs() / 1e6;
            std::string name = s.name;
            if (name == "bench.run" || name == "bench.split_pair")
                work_ns += s.durNs();
            else if (name.rfind("sweep.", 0) != 0)
                layer_ns += s.durNs();
            if (name == "workloads.build")
                b_ms += ms;
            else if (name == "mdp.prepass")
                p_ms += ms;
            else if (name == "check.equivalence")
                c_ms += ms;
            else if (name == "split.run")
                s_ms += ms;
            else if (name == "cpu.construct")
                construct_call_ms.push_back(ms);
            else if (name == "bench.run")
                busy_ns += s.durNs();
            if (name == "cpu.run") {
                run_call_ms.push_back(ms);
                const RunCounters &c = r->counters[s.run];
                const RunOutcome &o = r->runs[s.run];
                run_ns += s.durNs();
                run_cycles += o.cycles;
                run_fetched += c.fetched;
                auto &pc = per_config[b.spec.configs[b.jobConfig[s.run]]
                                          .label];
                pc.first += s.durNs();
                pc.second += o.cycles;
            }
        }
        build_ms.push_back(b_ms);
        prepass_ms.push_back(p_ms);
        prepass_ns_inst.push_back(
            r->prepassInsts ? p_ms * 1e6 / r->prepassInsts : 0);
        check_ms.push_back(c_ms);
        split_ms.push_back(s_ms);
        split_ns_entry.push_back(
            r->traceEntries ? s_ms * 1e6 / (2.0 * r->traceEntries) : 0);
        double worker_ns = static_cast<double>(b.workers) *
                           (r->sweepEndNs - r->sweepStartNs);
        idle.push_back(worker_ns > 0 ? 1.0 - busy_ns / worker_ns : 0);
        coverage.push_back(work_ns > 0 ? layer_ns / work_ns : 0);
        rss_setup.push_back(r->rssAfterSetupMb);
        double growth = 0;
        for (const RunCounters &c : r->counters)
            growth = std::max(growth, c.rssGrowthMb);
        rss_growth.push_back(growth);
    }

    // Simulated work counts: identical in every correct repetition.
    const Rep &last = *traced.back();
    RunCounters sum;
    for (const RunCounters &c : last.counters) {
        sum.fetched += c.fetched;
        sum.commits += c.commits;
        sum.squashed += c.squashed;
        sum.violations += c.violations;
        sum.replays += c.replays;
        sum.forwarded += c.forwarded;
        sum.syncWaits += c.syncWaits;
        sum.barrierHolds += c.barrierHolds;
        sum.occupancySum += c.occupancySum;
        sum.occupancySamples += c.occupancySamples;
        sum.dcacheMisses += c.dcacheMisses;
        sum.dcacheBankRejects += c.dcacheBankRejects;
        sum.l2Misses += c.l2Misses;
        sum.mispredicts += c.mispredicts;
        sum.bpredLookups += c.bpredLookups;
        sum.mdptAllocations += c.mdptAllocations;
        sum.mdptPairings += c.mdptPairings;
        sum.mdptResets += c.mdptResets;
    }
    auto d = [](uint64_t v) { return static_cast<double>(v); };
    auto frac = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };

    std::vector<double> traced_wall, untraced_wall;
    for (const Rep *r : traced)
        traced_wall.push_back(r->wallS);
    for (const Rep *r : untraced)
        untraced_wall.push_back(r->wallS);

    std::vector<Metric> m = {
        {"cpu.run_ms", median(run_call_ms), "ms"},
        {"cpu.ns_per_sim_cycle", frac(run_ns, run_cycles), "ns"},
        {"cpu.ns_per_fetched_inst", frac(run_ns, run_fetched), "ns"},
    };
    for (const std::string &label : allConfigLabels()) {
        auto it = per_config.find(label);
        double v = it == per_config.end()
                       ? 0
                       : frac(it->second.first, it->second.second);
        m.push_back({"cpu.ns_per_sim_cycle." + metricLabel(label), v, "ns"});
    }
    std::vector<Metric> rest = {
        {"cpu.construct_ms", median(construct_call_ms), "ms"},
        {"workloads.build_ms", median(build_ms), "ms"},
        {"mdp.prepass_ms", median(prepass_ms), "ms"},
        {"mdp.prepass_ns_per_inst", median(prepass_ns_inst), "ns"},
        {"mdp.oracle_loads", d(last.oracleLoads), "count"},
        {"mdp.trace_entries", d(last.traceEntries), "count"},
        {"mdp.rss_after_setup_mb", median(rss_setup), "MB"},
        {"cpu.rss_growth_mb", median(rss_growth), "MB"},
        {"split.run_ms", median(split_ms), "ms"},
        {"split.ns_per_trace_entry", median(split_ns_entry), "ns"},
        {"split.violations", d(last.splitViolations), "count"},
        {"check.equivalence_ms", median(check_ms), "ms"},
        {"sweep.worker_idle_frac", median(idle), "fraction"},
        {"cpu.fetched_insts", d(sum.fetched), "count"},
        {"cpu.commits", d(sum.commits), "count"},
        {"cpu.useful_fetch_frac", frac(d(sum.commits), d(sum.fetched)),
         "fraction"},
        {"cpu.squashed_insts", d(sum.squashed), "count"},
        {"cpu.violations", d(sum.violations), "count"},
        {"cpu.replays", d(sum.replays), "count"},
        {"cpu.loads_forwarded", d(sum.forwarded), "count"},
        {"cpu.sync_waits", d(sum.syncWaits), "count"},
        {"cpu.barrier_holds", d(sum.barrierHolds), "count"},
        {"cpu.window_occupancy_mean",
         frac(sum.occupancySum, d(sum.occupancySamples)), "entries"},
        {"mem.dcache_misses", d(sum.dcacheMisses), "count"},
        {"mem.dcache_bank_rejects", d(sum.dcacheBankRejects), "count"},
        {"mem.l2_misses", d(sum.l2Misses), "count"},
        {"bpred.mispredict_frac",
         frac(d(sum.mispredicts), d(sum.bpredLookups)), "fraction"},
        {"mdp.mdpt_allocations", d(sum.mdptAllocations), "count"},
        {"mdp.mdpt_pairings", d(sum.mdptPairings), "count"},
        {"mdp.mdpt_resets", d(sum.mdptResets), "count"},
        {"trace.overhead_frac",
         frac(median(traced_wall), median(untraced_wall)) - 1.0,
         "fraction"},
        {"trace.coverage_frac", median(coverage), "fraction"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

void
printSelfTimes(const std::vector<Span> &spans, size_t traced_reps)
{
    std::printf("per-layer time per traced repetition (ms; self = minus "
                "child spans):\n");
    std::printf("  %-20s %12s %12s %8s\n", "span", "total", "self",
                "calls");
    for (const auto &[name, t] : perfbench::layerTimes(spans)) {
        double n = static_cast<double>(traced_reps);
        std::printf("  %-20s %12.2f %12.2f %8.0f\n", name.c_str(),
                    t.totalMs / n, t.selfMs / n, t.calls / n);
    }
}

// ---- command line ----------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 30;
    bool trace = false;
    std::string digests;   ///< Expected digests at the canonical scale.
    std::string writeDigests;
    std::string outDir;    ///< Where spans are written.
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "cwsim_perf: %s\n"
                 "usage: cwsim_perf --workload fig2_nas|as_mdpt|long_trace"
                 " [--seed N] [--seconds S] [--trace 0|1]\n"
                 "       (--digests FILE | --write-digests FILE) "
                 "[--out DIR]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--digests")
                o.digests = value();
            else if (a == "--write-digests")
                o.writeDigests = value();
            else if (a == "--out")
                o.outDir = value();
            else
                usage(("unknown argument " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (o.digests.empty() == o.writeDigests.empty())
        usage("give one of --digests and --write-digests");
    return o;
}

const char *
kindName(RepKind kind)
{
    switch (kind) {
      case RepKind::Check:
        return "check   ";
      case RepKind::Traced:
        return "traced  ";
      default:
        return "untraced";
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    Bench b;
    if (!findSpec(opt.workload, b.spec))
        usage(("unknown workload " + opt.workload).c_str());
    b.scale = scaleFor(b.spec, opt.seed);
    b.workers = workerCount();
    buildPlan(b);
    Bench canonical = b;
    canonical.scale = b.spec.baseScale;

    perfbench::DigestTable expected;
    if (!opt.digests.empty() &&
        !perfbench::loadDigests(opt.digests, expected))
        usage(("cannot read expected digests " + opt.digests).c_str());

    std::printf("perfbench: workload=%s seed=%llu scale=%llu workers=%u "
                "timing_runs=%zu trace=%d\n",
                b.spec.name.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(b.scale), b.workers,
                b.plan.size(), int(opt.trace));

    // The check repetition, then the measured ones until --seconds.
    SpanLog log;
    std::vector<Rep> reps;
    reps.push_back(runByLayer(canonical, nullptr));
    const unsigned min_reps = opt.trace ? 4 : 3;
    auto start = Clock::now();
    for (;;) {
        unsigned measured = static_cast<unsigned>(reps.size() - 1);
        bool traced = opt.trace && measured % 2 == 1;
        if (traced) {
            log.setRep(static_cast<unsigned>(reps.size()));
            reps.push_back(runByLayer(b, &log));
        } else {
            reps.push_back(runUntraced(b));
        }
        // Stop at the repetition boundary nearest to --seconds.
        double elapsed = secondsBetween(start, Clock::now());
        double per_rep = elapsed / (measured + 1);
        if (measured + 1 >= min_reps && elapsed + per_rep / 2 >= opt.seconds)
            break;
    }
    for (size_t i = 0; i < reps.size(); ++i) {
        Rep &r = reps[i];
        r.index = static_cast<unsigned>(i);
        std::printf("rep %zu %s scale=%llu wall=%.3fs cpu=%.3fs "
                    "setup=%.3fs sim=%.3fs\n",
                    i, kindName(r.kind),
                    static_cast<unsigned long long>(r.scale), r.wallS,
                    r.cpuS, r.setupS, r.simS);
    }

    // Correctness: every run ok; the check repetition's digests as
    // expected; every digest the same in all repetitions of one scale.
    uint64_t attempted = 0, failed = 0;
    std::map<std::pair<uint64_t, std::string>, perfbench::RunDigests> seen;
    std::vector<std::string> failures;
    for (const Rep &r : reps) {
        for (const RunOutcome &o : r.runs) {
            ++attempted;
            std::string why;
            if (!o.ok) {
                why = o.error;
            } else if (r.kind == RepKind::Check && opt.writeDigests.empty()) {
                auto it = expected.find(o.id);
                if (it == expected.end())
                    why = "no expected digest";
                else if (it->second.result != o.resultDigest)
                    why = "result digest " + o.resultDigest +
                          " != expected " + it->second.result;
                else if (it->second.stats != o.statsDigest)
                    why = "stats digest " + o.statsDigest +
                          " != expected " + it->second.stats;
            }
            if (why.empty()) {
                auto [it, fresh] = seen.try_emplace(
                    {r.scale, o.id},
                    perfbench::RunDigests{o.resultDigest, ""});
                if (!fresh && it->second.result != o.resultDigest)
                    why = "result digest differs between repetitions";
                if (!o.statsDigest.empty()) {
                    if (it->second.stats.empty())
                        it->second.stats = o.statsDigest;
                    else if (it->second.stats != o.statsDigest)
                        why = "stats digest differs between repetitions";
                }
            }
            if (!why.empty()) {
                ++failed;
                failures.push_back(std::string(r.kind == RepKind::Check
                                                   ? "check "
                                                   : "") +
                                   o.id + ": " + why);
            }
        }
    }
    for (const std::string &f : failures)
        std::printf("FAILED %s\n", f.c_str());
    std::printf("runs_failed_frac=%.6f (%llu of %llu runs)\n",
                attempted ? static_cast<double>(failed) / attempted : 0.0,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));

    // Digests of a scale, in spec order (stats digests only for runs a
    // layer-by-layer repetition made at that scale).
    auto digestRows = [&](uint64_t scale) {
        std::vector<std::pair<std::string, perfbench::RunDigests>> rows;
        for (const RunOutcome &o : reps.front().runs) {
            auto it = seen.find({scale, o.id});
            rows.emplace_back(o.id, it == seen.end()
                                        ? perfbench::RunDigests{"-", "-"}
                                        : it->second);
        }
        return rows;
    };
    if (b.scale != canonical.scale) {
        for (const auto &[id, dg] : digestRows(b.scale)) {
            std::printf("digest\t%s\t%s\t%s\n", id.c_str(),
                        dg.result.c_str(),
                        dg.stats.empty() ? "-" : dg.stats.c_str());
        }
    }
    if (!opt.writeDigests.empty()) {
        if (failed || !perfbench::writeDigests(opt.writeDigests,
                                               digestRows(canonical.scale))) {
            std::fprintf(stderr, "cwsim_perf: not writing digests to %s\n",
                         opt.writeDigests.c_str());
            return 1;
        }
        std::printf("wrote %zu digests to %s\n", reps.front().runs.size(),
                    opt.writeDigests.c_str());
    }

    std::vector<const Rep *> untraced, traced;
    for (const Rep &r : reps) {
        if (r.kind == RepKind::Untraced)
            untraced.push_back(&r);
        else if (r.kind == RepKind::Traced)
            traced.push_back(&r);
    }
    std::vector<double> first_ms = timingRunMs(*untraced.front());
    int tail_p = tailPercentile(first_ms.size());
    std::printf("run_ms_tail is %s of %zu timing runs per repetition; "
                "medians over %zu untraced repetitions\n",
                tail_p == 100 ? "the maximum" : strfmt("p%d", tail_p).c_str(),
                first_ms.size(), untraced.size());

    std::vector<Metric> metrics;
    if (opt.trace) {
        std::vector<Span> spans = log.spans();
        printSelfTimes(spans, traced.size());
        metrics = perLayerMetrics(b, traced, untraced, spans);
        if (!opt.outDir.empty()) {
            std::string path = strfmt(
                "%s/spans-%s-seed%llu.jsonl", opt.outDir.c_str(),
                b.spec.name.c_str(),
                static_cast<unsigned long long>(opt.seed));
            if (perfbench::writeSpans(path, spans, b.runNames))
                std::printf("spans: %zu written to %s\n", spans.size(),
                            path.c_str());
        }
    } else {
        metrics = endToEndMetrics(reps.front(), untraced);
    }
    printResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}
