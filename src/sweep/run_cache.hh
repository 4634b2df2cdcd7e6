/**
 * @file
 * The on-disk run cache behind the sweep engine.
 *
 * Every (workload, scale, SimConfig) triple is fingerprinted — a
 * 64-bit FNV-1a hash over the workload name, the dynamic-instruction
 * scale, and the exhaustive serializeConfig() text, so ANY config
 * field (including check.* and fault-injection knobs) that changes the
 * simulation changes the key. Completed RunResults are appended to
 * <dir>/runs.jsonl, one flat JSON object per line; re-running a bench
 * or resuming an interrupted sweep then skips every run whose
 * fingerprint is already present. Entries with unknown schema
 * versions, malformed JSON, or stale fingerprints are silently
 * ignored (and recomputed) — a poisoned cache can cost time, never
 * correctness.
 */

#ifndef CWSIM_SWEEP_RUN_CACHE_HH
#define CWSIM_SWEEP_RUN_CACHE_HH

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness/harness.hh"
#include "sim/config.hh"

namespace cwsim
{
namespace sweep
{

/**
 * Cache-entry schema; bump when RunResult's serialized shape changes.
 * v6 dropped the fields only the retired forked-run executor wrote
 * (fail_kind, fail_detail, fail_injected and the queue-wait time); v5
 * added the dependence-profile summary (dep_profiled, dep_loads,
 * dep_stores, dep_edges, dep_hot_edges — filled only when
 * CWSIM_DEPPROF / --depprof was on for the run); v4 added the failure taxonomy; v3
 * added the commit-slot CPI stack (commit_width + one cpi_* field per
 * obs::CpiCause); v2 added host-profiling (wall_ms,
 * sim_cycles_per_sec, cache_hit) and the failure diagnostic. Older
 * records are still accepted on read with the newer fields defaulted
 * and the dropped ones ignored — a v1/v2 record parses with
 * commit_width == 0 ("CPI stack unknown", never zero loss), a v4/v5
 * failure loads as a failed run with its error text, and a pre-v5
 * record simply carries no dependence profile (dep_profiled == false).
 */
constexpr unsigned run_record_version = 6;

/** Fingerprint of one run: workload name + scale + full config. */
uint64_t fingerprintRun(const std::string &workload, uint64_t scale,
                        const SimConfig &cfg);

/** One JSONL record for @p r (also the exported-results format). */
std::string runRecordLine(const harness::RunResult &r, uint64_t fp,
                          uint64_t scale);

/**
 * Rebuild a RunResult from a parsed record. Returns false when the
 * record is from another schema version or any field is missing or
 * malformed.
 */
bool runRecordParse(const std::map<std::string, std::string> &fields,
                    harness::RunResult &out);

/**
 * Safe against dirty shutdowns and concurrent writers: two benches
 * may share one cache directory, so appends are a single write(2) to
 * an O_APPEND descriptor under an advisory flock, followed by an
 * explicit fdatasync — their record bytes can never interleave, and a
 * record is durable before append() returns. A process killed
 * mid-append leaves at most one torn trailing line, which reload
 * silently skips (it is expected damage, not corruption) and the next
 * append cuts off.
 */
class RunCache
{
  public:
    /**
     * Open (creating if needed) the cache under @p dir and index every
     * parseable record of <dir>/runs.jsonl. Later records win, so a
     * re-run after a schema bump supersedes old lines in place.
     */
    explicit RunCache(const std::string &dir);
    ~RunCache();

    RunCache(const RunCache &) = delete;
    RunCache &operator=(const RunCache &) = delete;

    /** Look up a completed run; true and fills @p out on a hit. */
    bool lookup(uint64_t fp, harness::RunResult &out) const;

    /**
     * Append @p r under @p fp: one atomic O_APPEND write under flock,
     * fdatasync'd before return. Thread-safe.
     */
    void append(uint64_t fp, uint64_t scale,
                const harness::RunResult &r);

    size_t size() const { return entries.size(); }
    const std::string &path() const { return filePath; }

  private:
    std::string filePath;
    int fd = -1; ///< O_RDWR|O_APPEND|O_CLOEXEC; -1 when unusable.
    std::mutex appendMutex; ///< flock() excludes processes, not threads.
    std::map<uint64_t, harness::RunResult> entries;
};

} // namespace sweep
} // namespace cwsim

#endif // CWSIM_SWEEP_RUN_CACHE_HH
