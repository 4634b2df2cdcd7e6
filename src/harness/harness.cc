#include "harness/harness.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "base/logging.hh"
#include "base/sim_error.hh"
#include "base/str.hh"
#include "check/equivalence.hh"
#include "obs/trace.hh"

namespace cwsim
{
namespace harness
{

const char *
toString(FailKind kind)
{
    switch (kind) {
      case FailKind::None:
        return "none";
      case FailKind::SimError:
        return "sim_error";
      case FailKind::Crash:
        return "crash";
      case FailKind::Timeout:
        return "timeout";
      case FailKind::Oom:
        return "oom";
      case FailKind::Protocol:
        return "protocol";
    }
    return "none";
}

bool
failKindFromString(const std::string &text, FailKind &out)
{
    for (FailKind k :
         {FailKind::None, FailKind::SimError, FailKind::Crash,
          FailKind::Timeout, FailKind::Oom, FailKind::Protocol}) {
        if (text == toString(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

std::string
RunResult::failLabel() const
{
    if (failKind == FailKind::None)
        return "-";
    if (failDetail.empty())
        return toString(failKind);
    return strfmt("%s(%s)", toString(failKind), failDetail.c_str());
}

Runner::Runner(uint64_t scale) : runScale(scale)
{
}

Runner::CacheSlot<Workload> &
Runner::workloadSlot(const std::string &name)
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    return workloadCache[name];
}

Runner::CacheSlot<PrepassResult> &
Runner::prepassSlot(const std::string &name)
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    return prepassCache[name];
}

const Workload &
Runner::workload(const std::string &name)
{
    CacheSlot<Workload> &slot = workloadSlot(name);
    // On a SimError (bad workload name under a trap) call_once leaves
    // the latch unset, so a later caller retries instead of deadlocking
    // or seeing a half-built value.
    std::call_once(slot.once, [&] {
        slot.value = std::make_unique<Workload>(
            workloads::build(name, runScale));
    });
    return *slot.value;
}

const PrepassResult &
Runner::prepass(const std::string &name)
{
    CacheSlot<PrepassResult> &slot = prepassSlot(name);
    std::call_once(slot.once, [&] {
        const Workload &w = workload(name);
        auto result = std::make_unique<PrepassResult>(
            runPrepass(w.program));
        fatal_if(!result->halted,
                 "workload %s did not halt in its functional pre-pass",
                 name.c_str());
        slot.value = std::move(result);
    });
    return *slot.value;
}

void
Runner::recordFailure(const RunResult &result)
{
    std::lock_guard<std::mutex> lock(failMutex);
    failedRuns.push_back(result);
}

RunResult
Runner::run(const std::string &name, const SimConfig &cfg)
{
    RunResult r;
    r.workload = name;
    r.config = cfg.name();

    // Tag this worker's trace lines with "workload config" so parallel
    // sweeps stay attributable. Cheap enough to do unconditionally.
    obs::setRunLabel(name + " " + r.config);

    auto wall_start = std::chrono::steady_clock::now();
    auto stamp_wall = [&] {
        r.wallMs = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
    };

    try {
        // While the trap is live, panic()/fatal() anywhere below us
        // throw SimError instead of aborting the process.
        ScopedErrorTrap trap;

        const Workload &w = workload(name);
        const PrepassResult &pre = prepass(name);

        Processor proc(cfg, w.program, &pre.deps);
        proc.run();
        fatal_if(!proc.halted(), "%s did not halt under %s (after %llu "
                 "cycles, %llu commits)", name.c_str(),
                 cfg.name().c_str(),
                 static_cast<unsigned long long>(proc.curCycle()),
                 static_cast<unsigned long long>(proc.totalCommits()));

        const ProcStats &s = proc.procStats();
        r.cycles = s.cycles.value();
        r.commits = s.commits.value();
        r.committedLoads = s.committedLoads.value();
        r.committedStores = s.committedStores.value();
        r.violations = s.memOrderViolations.value();
        r.replays = s.loadReplays.value();
        r.selectiveRecoveries = s.selectiveRecoveries.value();
        r.selectiveFallbacks = s.selectiveFallbacks.value();
        r.branchMispredicts = s.branchMispredicts.value();
        r.squashedInsts = s.squashedInsts.value();
        r.falseDepLoads = s.falseDepLoads.value();
        r.falseDepLatency = s.falseDepLatency.mean();
        r.injectedViolations = s.injectedViolations.value();

        const obs::CpiStack &cpi = proc.cpiStack();
        r.commitWidth = cpi.width();
        for (size_t i = 0; i < obs::num_cpi_causes; ++i)
            r.cpiSlots[i] = cpi.slot(obs::CpiCause(i));

        // Dependence-profile surface: the full profile already went to
        // the .depprof.jsonl writer; the record carries the summary.
        if (const obs::DepProfile *dp = proc.depProfile()) {
            r.depProfiled = true;
            r.depLoads = dp->numLoads();
            r.depStores = dp->numStores();
            r.depEdges = dp->numEdges();
            r.depHotEdges = dp->hotEdges(8);
        }

        // Architectural-state equivalence against the functional
        // pre-pass. Only meaningful when the timing run retired the
        // whole program (maxInsts == 0 means run to completion).
        if (cfg.check.level > 0 && cfg.maxInsts == 0) {
            std::string diff = check::compareWithGolden(
                proc.archState(), proc.memory().fingerprint(),
                proc.totalCommits(), prepass(name));
            if (!diff.empty()) {
                throw SimError(SimErrorKind::Equivalence,
                               strfmt("%s under %s diverged from the "
                                      "functional pre-pass",
                                      name.c_str(), cfg.name().c_str()),
                               __FILE__, __LINE__, diff);
            }
        }
        stamp_wall();
    } catch (const SimError &e) {
        stamp_wall();
        r.ok = false;
        r.failKind = FailKind::SimError;
        r.error = e.summary();
        // The last few flight-recorder events (the dump's tail) make
        // the FAILED RUNS row self-diagnosing.
        r.diagnostic = lastLines(e.diagnostic(), 8);
        recordFailure(r);
        warn("run failed (%s, %s): %s", name.c_str(),
             cfg.name().c_str(), e.summary().c_str());
    }
    return r;
}

FailureSummary
collectFailures(const Runner &runner)
{
    FailureSummary summary;
    // Copy and sort: under a parallel sweep the arrival order of
    // failures depends on worker scheduling, and the FAILED RUNS table
    // must be byte-identical at any --jobs count.
    summary.failures = runner.failures();
    std::sort(summary.failures.begin(), summary.failures.end(),
              [](const RunResult &a, const RunResult &b) {
                  return std::tie(a.workload, a.config, a.error) <
                         std::tie(b.workload, b.config, b.error);
              });
    for (const RunResult &f : summary.failures) {
        if (f.injectedHostFault)
            ++summary.injected;
    }
    return summary;
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0;
    size_t n = 0;
    for (double v : values) {
        if (!std::isfinite(v) || v <= 0)
            continue; // failed run: NaN metric, or degenerate value
        log_sum += std::log(v);
        ++n;
    }
    size_t skipped = values.size() - n;
    if (skipped > 0) {
        warn("geomean: skipped %zu of %zu entries (failed runs or "
             "non-positive values)", skipped, values.size());
    }
    if (n == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return std::exp(log_sum / static_cast<double>(n));
}

std::string
formatSpeedup(double ratio)
{
    if (!std::isfinite(ratio))
        return "n/a";
    return strfmt("%+.1f%%", (ratio - 1.0) * 100.0);
}

std::string
formatPct(double fraction, int decimals)
{
    if (!std::isfinite(fraction))
        return "n/a";
    return strfmt("%.*f%%", decimals, fraction * 100.0);
}

uint64_t
benchScale()
{
    return envUint64("CWSIM_SCALE", 1000, 80'000);
}

double
meanSpeedup(const std::map<std::string, double> &num,
            const std::map<std::string, double> &den,
            const std::vector<std::string> &keys)
{
    std::vector<double> ratios;
    for (const auto &k : keys) {
        auto n = num.find(k), d = den.find(k);
        if (n == num.end() || d == den.end())
            continue; // run failed before recording this key
        ratios.push_back(n->second / d->second);
    }
    return geomean(ratios);
}

} // namespace harness
} // namespace cwsim
