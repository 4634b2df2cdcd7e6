#include "digest.hh"

#include <fstream>
#include <sstream>

#include "base/str.hh"

using namespace cwsim;

namespace perfbench
{

std::string
digestText(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return strfmt("%016llx", static_cast<unsigned long long>(h));
}

std::string
resultDigest(const harness::RunResult &r)
{
    auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
    std::string text = strfmt(
        "cycles=%llu commits=%llu loads=%llu stores=%llu violations=%llu "
        "replays=%llu selrec=%llu selfb=%llu bmiss=%llu squashed=%llu "
        "fdloads=%llu fdlat=%.17g injected=%llu width=%u ok=%d cpi=",
        u(r.cycles), u(r.commits), u(r.committedLoads),
        u(r.committedStores), u(r.violations), u(r.replays),
        u(r.selectiveRecoveries), u(r.selectiveFallbacks),
        u(r.branchMispredicts), u(r.squashedInsts), u(r.falseDepLoads),
        r.falseDepLatency, u(r.injectedViolations), r.commitWidth,
        int(r.ok));
    for (uint64_t slot : r.cpiSlots)
        text += strfmt("%llu,", u(slot));
    return digestText(text);
}

harness::RunResult
resultFromProcessor(Processor &proc)
{
    harness::RunResult r;
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
    return r;
}

std::string
statsDigest(Processor &proc)
{
    const MdpTable &mdpt = proc.mdpt();
    return digestText(
        proc.statsGroup().jsonString() +
        strfmt(" mdpt=%llu,%llu,%llu",
               static_cast<unsigned long long>(mdpt.allocations.value()),
               static_cast<unsigned long long>(mdpt.pairings.value()),
               static_cast<unsigned long long>(mdpt.resets.value())));
}

bool
loadDigests(const std::string &path, DigestTable &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string id, result, stats;
        if (!std::getline(fields, id, '\t') ||
            !std::getline(fields, result, '\t') ||
            !std::getline(fields, stats, '\t'))
            return false;
        out[id] = {result, stats};
    }
    return true;
}

bool
writeDigests(const std::string &path,
             const std::vector<std::pair<std::string, RunDigests>> &rows)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "# run id\tresult digest\tstats digest\n";
    for (const auto &[id, d] : rows)
        out << id << '\t' << d.result << '\t' << d.stats << '\n';
    return bool(out);
}

} // namespace perfbench
