/**
 * @file
 * The parallel sweep engine: every paper figure/table walks a
 * (workload, config) matrix of independent timing simulations, and
 * this subsystem executes that matrix on a worker thread pool instead
 * of one run at a time.
 *
 * Determinism contract: results come back in SPEC ORDER — the order
 * jobs were added to the SweepPlan — regardless of which worker
 * finished which job when. Each simulation is a self-contained
 * Processor instance fed by a shared (once-latched, read-only after
 * construction) functional pre-pass, so a run's RunResult is a pure
 * function of its (workload, scale, config) triple and serial and
 * parallel sweeps produce bit-identical tables. The host-profiling
 * fields (RunResult::wallMs and friends, the wall_ms /
 * sim_cycles_per_sec / cache_hit JSONL fields) are the one deliberate
 * exception: they describe the host, not the simulation, and must be
 * excluded from any determinism comparison.
 *
 * Caching: completed runs are fingerprinted and persisted under
 * .cwsim-cache/ (see run_cache.hh), so re-running a bench — or
 * resuming an interrupted sweep — skips every run already on disk.
 *
 * Export: with a JSONL path set, every RunResult of the sweep
 * (including failed runs, with their SimError summary) is appended to
 * that file in spec order, giving benches machine-readable trajectory
 * output alongside their human-readable tables.
 */

#ifndef CWSIM_SWEEP_SWEEP_HH
#define CWSIM_SWEEP_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/harness.hh"
#include "sim/config.hh"

namespace cwsim
{
namespace sweep
{

/** One cell of a sweep matrix. */
struct SweepJob
{
    std::string workload;
    SimConfig config;
};

/**
 * An ordered list of sweep jobs. add() returns the job's index, which
 * is also the index of its result in SweepEngine::run()'s return —
 * benches enqueue their matrix in one pass, then read results back
 * with the same loop structure.
 */
class SweepPlan
{
  public:
    size_t
    add(std::string workload, SimConfig config)
    {
        jobList.push_back({std::move(workload), std::move(config)});
        return jobList.size() - 1;
    }

    const std::vector<SweepJob> &jobs() const { return jobList; }
    size_t size() const { return jobList.size(); }
    bool empty() const { return jobList.empty(); }

  private:
    std::vector<SweepJob> jobList;
};

struct SweepOptions
{
    /** Worker threads; 0 = CWSIM_JOBS env, else hardware_concurrency. */
    unsigned jobs = 0;
    /** Consult/fill the on-disk run cache. */
    bool useCache = true;
    std::string cacheDir = ".cwsim-cache";
    /** Append every RunResult as JSONL here ("" = no export). */
    std::string jsonPath;
};

/**
 * Resolve a --jobs request: @p requested, CWSIM_JOBS, or core count —
 * always clamped to the hardware thread count, since oversubscribing
 * CPU-bound workers only inflates per-run wall time.
 */
unsigned resolveJobs(unsigned requested);

class SweepEngine
{
  public:
    explicit SweepEngine(harness::Runner &runner,
                         SweepOptions opts = {});

    /**
     * Execute every job of @p plan (thread pool + cache) and return
     * results in spec order. Cached failures are re-recorded in the
     * runner so reportFailures() sees them exactly as cold runs.
     */
    std::vector<harness::RunResult> run(const SweepPlan &plan);

    /** Timing simulations actually executed (cumulative). */
    uint64_t timingRuns() const { return executed; }
    /** Runs served from the on-disk cache (cumulative). */
    uint64_t cacheHits() const { return hits; }
    /** The resolved worker count. */
    unsigned workers() const { return workerCount; }

    // Host-side profiling (cumulative over run() calls; simulated
    // runs only — cache hits contribute nothing).
    /** Total wall-clock ms spent inside timing simulations. */
    double totalWallMs() const { return wallMsSum; }
    /** Total simulated cycles across executed timing runs. */
    uint64_t totalSimCycles() const { return simCycleSum; }

  private:
    harness::Runner &runner;
    SweepOptions opts;
    unsigned workerCount;
    uint64_t executed = 0;
    uint64_t hits = 0;
    double wallMsSum = 0;
    uint64_t simCycleSum = 0;
};

/**
 * Deterministic-order parallel map: invoke fn(0..n-1) on up to
 * @p jobs worker threads. fn must not touch shared mutable state
 * except through its index (each index owns its output slot). Used by
 * benches whose per-workload work is not a Runner timing run (e.g.
 * the split-window model). The first exception thrown by any fn
 * cancels the remaining queue — workers stop claiming new indices and
 * drain promptly — and is rethrown on the caller after all workers
 * join, so a fatal (non-run) error cannot burn minutes finishing work
 * whose results will be discarded.
 */
void parallelFor(size_t n, unsigned jobs,
                 const std::function<void(size_t)> &fn);

} // namespace sweep
} // namespace cwsim

#endif // CWSIM_SWEEP_SWEEP_HH
