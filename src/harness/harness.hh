/**
 * @file
 * The experiment harness shared by every bench binary: builds
 * workloads, caches their functional pre-passes (oracle dependence
 * info), runs timing simulations, and aggregates results the way the
 * paper reports them (per-benchmark bars plus int/fp averages).
 */

#ifndef CWSIM_HARNESS_HARNESS_HH
#define CWSIM_HARNESS_HARNESS_HH

#include <array>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cpu/processor.hh"
#include "obs/cpi_stack.hh"
#include "mdp/oracle.hh"
#include "sim/config.hh"
#include "workloads/workload.hh"

namespace cwsim
{
namespace harness
{

/** Everything a bench needs from one (workload, config) timing run. */
struct RunResult
{
    std::string workload;
    std::string config;
    uint64_t cycles = 0;
    uint64_t commits = 0;
    uint64_t committedLoads = 0;
    uint64_t committedStores = 0;
    uint64_t violations = 0;
    uint64_t replays = 0;
    uint64_t selectiveRecoveries = 0;
    uint64_t selectiveFallbacks = 0;
    uint64_t branchMispredicts = 0;
    uint64_t squashedInsts = 0;
    uint64_t falseDepLoads = 0;
    double falseDepLatency = 0;
    uint64_t injectedViolations = 0;

    /**
     * Commit-slot cycle accounting, indexed by obs::CpiCause. Sums to
     * cycles * commitWidth for a completed run. commitWidth == 0 marks
     * a record that predates the accounting (schema v1/v2 cache or
     * JSONL records): the slots are unknown, not zero-loss.
     */
    std::array<uint64_t, obs::num_cpi_causes> cpiSlots{};
    unsigned commitWidth = 0;

    /**
     * Fail-soft sweeps: false when the run raised a SimError (watchdog
     * trip, invariant failure, panic, oracle-equivalence mismatch…).
     * Failed runs yield NaN metrics, which the formatters render as
     * "n/a" and geomean() skips, so one poisoned (workload, config)
     * pair cannot abort or silently skew a whole sweep.
     */
    bool ok = true;
    /** One-line failure summary (empty when ok). */
    std::string error;
    /**
     * Failure diagnostics: the last few flight-recorder events (or
     * whatever dump the SimError carried), so a FAILED RUNS row is
     * self-diagnosing without rerunning under a debugger.
     */
    std::string diagnostic;

    // Dependence-profile surface (schema v5). Host-adjacent: the
    // profile is deterministic per run but only collected when
    // CWSIM_DEPPROF / --depprof is on, so diffRunRecords excludes
    // these fields — dedicated tests compare them directly instead.
    bool depProfiled = false; ///< A DepProfile was collected.
    uint64_t depLoads = 0;    ///< Distinct load PCs profiled.
    uint64_t depStores = 0;   ///< Distinct store PCs profiled.
    uint64_t depEdges = 0;    ///< Distinct (store,load) edges.
    /** Top edges, hotEdges() encoding: "0xS-0xL:viol:syncs;...". */
    std::string depHotEdges;

    // Host-side profiling (not part of the simulated result; excluded
    // from determinism comparisons).
    double wallMs = 0;     ///< Wall-clock time of this run.
    bool cacheHit = false; ///< Served from the sweep's run cache.

    double
    simCyclesPerSec() const
    {
        return wallMs > 0 ? static_cast<double>(cycles) /
                                (wallMs / 1000.0)
                          : 0;
    }

    double
    ipc() const
    {
        if (!ok)
            return std::numeric_limits<double>::quiet_NaN();
        return cycles ? static_cast<double>(commits) / cycles : 0;
    }

    double
    misspecRate() const
    {
        if (!ok)
            return std::numeric_limits<double>::quiet_NaN();
        return committedLoads
            ? static_cast<double>(violations) / committedLoads
            : 0;
    }

    double
    falseDepFraction() const
    {
        if (!ok)
            return std::numeric_limits<double>::quiet_NaN();
        return committedLoads
            ? static_cast<double>(falseDepLoads) / committedLoads
            : 0;
    }

    /** True when this record carries CPI-stack data (schema >= v3). */
    bool hasCpiStack() const { return commitWidth != 0; }

    uint64_t
    cpiTotalSlots() const
    {
        uint64_t total = 0;
        for (uint64_t s : cpiSlots)
            total += s;
        return total;
    }

    /** Share of all commit slots spent on @p cause (NaN without data). */
    double
    cpiFraction(obs::CpiCause cause) const
    {
        if (!hasCpiStack() || cpiTotalSlots() == 0)
            return std::numeric_limits<double>::quiet_NaN();
        return static_cast<double>(cpiSlots[size_t(cause)]) /
               static_cast<double>(cpiTotalSlots());
    }
};

/**
 * Thread-safe: run() may be called concurrently from sweep workers.
 * The workload and pre-pass caches use per-entry once-latches so the
 * expensive functional pre-pass runs exactly once per workload no
 * matter how many workers ask for it simultaneously, and each run()
 * arms its own (thread-local) ScopedErrorTrap, so one worker's
 * failure cannot be swallowed by — or abort — another worker's run.
 */
class Runner
{
  public:
    /** @param scale Dynamic-instruction target per workload. */
    explicit Runner(uint64_t scale = workloads::default_scale);

    /** The workload (built once, cached). */
    const Workload &workload(const std::string &name);

    /** The functional pre-pass for @p name (run once, cached). */
    const PrepassResult &prepass(const std::string &name);

    /**
     * Run @p name under @p cfg to completion, fail-soft: library-level
     * panic/fatal, watchdog trips, invariant failures, and
     * oracle-equivalence mismatches are caught as SimError, recorded in
     * the returned RunResult (ok=false) and in failures(), and the
     * sweep continues with the next run.
     */
    RunResult run(const std::string &name, const SimConfig &cfg);

    uint64_t scale() const { return runScale; }

    /**
     * Record a failed run that did not come from run() — e.g. a cached
     * failure the sweep engine replayed — so reportFailures() sees it.
     */
    void recordFailure(const RunResult &result);

    /**
     * Every failed run seen so far. Arrival order is nondeterministic
     * under a parallel sweep; reportFailures() sorts before printing.
     * Do not call while a sweep is still running.
     */
    const std::vector<RunResult> &failures() const { return failedRuns; }

  private:
    /**
     * A map node holding a once-latch next to its value. Node
     * addresses in std::map are stable, so the latch can be used
     * outside the map lock: workers contend on the cheap map lookup,
     * then exactly one of them builds the value while the others block
     * on the latch instead of redoing the work.
     */
    template <typename T>
    struct CacheSlot
    {
        std::once_flag once;
        std::unique_ptr<T> value;
    };

    CacheSlot<Workload> &workloadSlot(const std::string &name);
    CacheSlot<PrepassResult> &prepassSlot(const std::string &name);

    uint64_t runScale;
    std::mutex cacheMutex;
    std::map<std::string, CacheSlot<Workload>> workloadCache;
    std::map<std::string, CacheSlot<PrepassResult>> prepassCache;
    std::mutex failMutex;
    std::vector<RunResult> failedRuns;
};

/**
 * A campaign's failed runs, collected for reporting: sorted by
 * (workload, config) so parallel sweeps summarize deterministically.
 * Pure data — rendering (the FAILED RUNS table) lives in
 * sweep::reportFailures() so this library stays printf-free.
 */
struct FailureSummary
{
    /** Every failed run, sorted by (workload, config, error). */
    std::vector<RunResult> failures;

    bool empty() const { return failures.empty(); }
};

/** Snapshot @p runner's failed runs as a sorted FailureSummary. */
FailureSummary collectFailures(const Runner &runner);

/**
 * Geometric mean of the positive, finite entries of @p values.
 * NaN/inf/non-positive entries (failed runs) are skipped — but
 * counted: when any entry is dropped a warn() reports how many, so a
 * half-failed sweep cannot masquerade as a clean average. Returns NaN
 * when nothing usable remains, including an empty input.
 */
double geomean(const std::vector<double> &values);

/** Format a ratio as "+12.3%" / "-4.5%" relative change ("n/a" for NaN). */
std::string formatSpeedup(double ratio);

/** Format 0.0123 as "1.23%" ("n/a" for NaN). */
std::string formatPct(double fraction, int decimals = 1);

/**
 * Paper-style summary: geometric-mean speedup of @p num over @p den
 * IPCs across the given short-name keys.
 */
double
meanSpeedup(const std::map<std::string, double> &num,
            const std::map<std::string, double> &den,
            const std::vector<std::string> &keys);

/**
 * Dynamic-instruction target for bench binaries: the CWSIM_SCALE
 * environment variable, or 80000.
 */
uint64_t benchScale();

} // namespace harness
} // namespace cwsim

#endif // CWSIM_HARNESS_HARNESS_HH
