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
 * v5 added the dependence-profile summary (dep_profiled, dep_loads,
 * dep_stores, dep_edges, dep_hot_edges — filled only when CWSIM_DEPPROF
 * / --depprof was on for the run); v4 added the failure taxonomy
 * (fail_kind, fail_detail, fail_injected) introduced with the
 * --isolate executor; v3 added the commit-slot CPI stack (commit_width
 * + one cpi_* field per obs::CpiCause); v2 added host-profiling
 * (wall_ms, sim_cycles_per_sec, cache_hit) and the failure diagnostic.
 * Older records are still accepted on read with the newer fields
 * defaulted — a v1/v2 record parses with commit_width == 0 ("CPI stack
 * unknown", never zero loss), a pre-v4 record's fail_kind is derived
 * from its ok flag (none when ok, sim_error otherwise — the only
 * failure class that existed before process isolation), and a pre-v5
 * record simply carries no dependence profile (dep_profiled == false).
 */
constexpr unsigned run_record_version = 5;

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
 * Crash-safe against dirty shutdowns and concurrent writers: appends
 * are a single write(2) to an O_APPEND descriptor under an advisory
 * flock, followed by an explicit fdatasync, so two processes sweeping
 * into the same cache directory can never interleave record bytes and
 * a record is durable before append() returns. A process killed
 * mid-append leaves at most one torn trailing line, which reload
 * silently skips (it is expected damage, not corruption) and the next
 * append repairs by prefixing a newline.
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

/** What fsckRunCache() found in a cache file. */
struct CacheFsckReport
{
    size_t lines = 0;       ///< Non-blank lines examined.
    size_t valid = 0;       ///< Parseable, current-or-older schema.
    size_t unparseable = 0; ///< Garbage / unknown schema (torn tail excluded).
    size_t duplicates = 0;  ///< Valid records superseded by a later one.
    bool tornTail = false;  ///< Final line truncated (no newline, unparseable).
    bool ioError = false;   ///< The file could not be read.

    size_t distinct() const { return valid - duplicates; }
    /** Nothing but valid records (a torn tail is expected damage). */
    bool clean() const { return unparseable == 0 && !ioError; }
    std::string summary() const;
};

/** Scan <dir>/runs.jsonl without modifying it. */
CacheFsckReport fsckRunCache(const std::string &dir);

/**
 * Rewrite <dir>/runs.jsonl keeping only the newest valid record per
 * fingerprint (first-appearance order). The rewrite happens in place —
 * truncate + rewrite of the SAME inode under the advisory flock every
 * appender takes — so it is safe while a live writer (a concurrent
 * bench) holds the cache open: its O_APPEND descriptor
 * keeps landing records in the surviving file instead of a renamed-
 * away orphan. Returns false with @p err set on I/O failure.
 */
bool compactRunCache(const std::string &dir, std::string *err = nullptr,
                     CacheFsckReport *report = nullptr);

} // namespace sweep
} // namespace cwsim

#endif // CWSIM_SWEEP_RUN_CACHE_HH
