/**
 * @file
 * Per-run digests of simulated results: the benchmark's correctness
 * gate. A speed-only change to cwsim must leave every digest unchanged.
 */

#ifndef CWSIM_PERFBENCH_DIGEST_HH
#define CWSIM_PERFBENCH_DIGEST_HH

#include <map>
#include <string>
#include <vector>

#include "cpu/processor.hh"
#include "harness/harness.hh"

namespace perfbench
{

/** 64-bit FNV-1a of @p text as 16 hex digits. */
std::string digestText(const std::string &text);

/**
 * Digest of every simulated field of a RunResult. Host fields (wall
 * and queue time, cache hit) and the optional dependence-profile
 * summary are left out.
 */
std::string resultDigest(const cwsim::harness::RunResult &r);

/**
 * The simulated RunResult fields of a finished Processor, filled the
 * way harness::Runner::run fills them.
 */
cwsim::harness::RunResult resultFromProcessor(cwsim::Processor &proc);

/** Digest of the Processor's full stats group plus its MDPT counters. */
std::string statsDigest(cwsim::Processor &proc);

/** Expected digests of one run. */
struct RunDigests
{
    std::string result;
    std::string stats; ///< Equal to result for split-model runs.
};

/** Run id ("099.go NAS/NAV") to its expected digests. */
using DigestTable = std::map<std::string, RunDigests>;

/**
 * Read a tab-separated "run id, result digest, stats digest" file.
 * Lines starting with '#' are comments. @return false if unreadable.
 */
bool loadDigests(const std::string &path, DigestTable &out);

/** Write @p rows in the loadDigests() format. */
bool writeDigests(const std::string &path,
                  const std::vector<std::pair<std::string, RunDigests>>
                      &rows);

} // namespace perfbench

#endif // CWSIM_PERFBENCH_DIGEST_HH
