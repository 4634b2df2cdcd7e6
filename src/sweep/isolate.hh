/**
 * @file
 * The sandboxed run executor behind the sweep engine's --isolate mode.
 *
 * Each pending run executes in a forked child process: the child runs
 * the timing simulation through the ordinary fail-soft Runner, streams
 * its RunResult back over a pipe as one run-record line (the same wire
 * format the run cache and --json export use), and _exit()s. The
 * parent manages up to `slots` children at once — workers become
 * process slots — enforcing a wall-clock deadline (SIGKILL on expiry)
 * plus RLIMIT_AS / RLIMIT_CPU caps inside the child, and classifying
 * every child's demise into the harness::FailKind taxonomy:
 *
 *   sim_error  the child caught a SimError in-process and said so in
 *              its record — byte-identical to a non-isolated failure
 *   crash      killed by a signal (SIGSEGV, SIGABRT, …) or exited
 *              nonzero
 *   timeout    the parent's wall-clock deadline fired, or RLIMIT_CPU
 *              delivered SIGXCPU
 *   oom        operator new failed under RLIMIT_AS (the child's
 *              new-handler exits with a reserved code) or the kernel
 *              OOM killer SIGKILLed it unprompted
 *   protocol   the child exited 0 but its record did not parse
 *
 * Host-level failure classes (everything but sim_error) get bounded
 * retries with exponential backoff; a SimError is a deterministic
 * property of the run and is never retried. Results land in
 * spec-order slots, so a sweep is bit-identical at any slot count,
 * and the surviving runs of a fault-storm are bit-identical to a
 * clean serial sweep.
 */

#ifndef CWSIM_SWEEP_ISOLATE_HH
#define CWSIM_SWEEP_ISOLATE_HH

#include <cstdint>
#include <vector>

#include "harness/harness.hh"
#include "sweep/sweep.hh"

namespace cwsim
{
namespace sweep
{

struct IsolateOptions
{
    /** Concurrent child processes. */
    unsigned slots = 1;
    /** Wall-clock deadline per attempt, seconds (0 = none). */
    double timeoutSec = 0;
    /** RLIMIT_AS cap per child, MiB (0 = none). */
    uint64_t memLimitMb = 0;
    /** Extra attempts for host-level (crash/timeout/oom/protocol)
     * failures; SimErrors are deterministic and never retried. */
    unsigned retries = 1;
};

/**
 * Execute jobs[i] for every i in @p pending, each in its own forked
 * child, writing into results[i] (which must be sized to jobs.size()).
 * @p fps holds the per-job fingerprints used on the record wire
 * format. Failed runs come back ok == false with their FailKind set;
 * they are NOT recorded in @p runner — the caller records them so a
 * cold and a cached failure report identically. Blocks until every
 * pending run has a final result.
 */
void runIsolated(harness::Runner &runner,
                 const std::vector<SweepJob> &jobs,
                 const std::vector<size_t> &pending,
                 const std::vector<uint64_t> &fps,
                 const IsolateOptions &opts,
                 std::vector<harness::RunResult> &results);

} // namespace sweep
} // namespace cwsim

#endif // CWSIM_SWEEP_ISOLATE_HH
