#include "obs/depprof.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "base/jsonl.hh"
#include "base/logging.hh"
#include "base/str.hh"

namespace cwsim
{
namespace obs
{

namespace detail
{
std::atomic<bool> depprof_on{false};
} // namespace detail

size_t
depDistBucket(uint64_t distance)
{
    if (distance < 2)
        return 0;
    size_t b = 0;
    while (distance > 1) {
        distance >>= 1;
        ++b;
    }
    return std::min(b, dep_dist_buckets - 1);
}

std::string
depDistBucketLabel(size_t bucket)
{
    if (bucket == 0)
        return "0-1";
    if (bucket >= dep_dist_buckets - 1)
        return strfmt("%llu+", 1ull << (dep_dist_buckets - 1));
    return strfmt("%llu-%llu", 1ull << bucket,
                  (1ull << (bucket + 1)) - 1);
}

DepProfile::DepProfile(std::string sim_name, std::string run_label,
                       stats::StatGroup *parent)
    : sim(std::move(sim_name)), run(std::move(run_label))
{
    if (parent)
        group = std::make_unique<stats::StatGroup>("depprof", parent);
}

DepLoadCounters &
DepProfile::loadRec(Addr pc)
{
    auto [it, fresh] = loadMap.try_emplace(pc);
    DepLoadCounters &rec = it->second;
    if (fresh && group) {
        // Map nodes are address-stable, so registering pointers into
        // the freshly inserted record is safe for the group's lifetime.
        std::string base = strfmt("load_0x%llx",
                                  static_cast<unsigned long long>(pc));
        group->addScalar(base + ".execs", &rec.execs);
        group->addScalar(base + ".forwards", &rec.forwards);
        group->addScalar(base + ".replays", &rec.replays);
        group->addScalar(base + ".violations", &rec.violations);
        group->addScalar(base + ".sync_waits", &rec.syncWaits);
        group->addScalar(base + ".sel_holds", &rec.selHolds);
        group->addScalar(base + ".barrier_holds", &rec.barrierHolds);
        group->addScalar(base + ".false_dep_loads",
                         &rec.falseDepLoads);
        group->addScalar(base + ".false_dep_cycles",
                         &rec.falseDepCycles);
        group->addScalar(base + ".true_dep_loads", &rec.trueDepLoads);
        group->addScalar(base + ".commits", &rec.commits);
    }
    return rec;
}

DepStoreCounters &
DepProfile::storeRec(Addr pc)
{
    auto [it, fresh] = storeMap.try_emplace(pc);
    DepStoreCounters &rec = it->second;
    if (fresh && group) {
        std::string base = strfmt("store_0x%llx",
                                  static_cast<unsigned long long>(pc));
        group->addScalar(base + ".commits", &rec.commits);
        group->addScalar(base + ".violations_caused",
                         &rec.violationsCaused);
        group->addScalar(base + ".barriers", &rec.barriers);
        group->addScalar(base + ".sync_produces", &rec.syncProduces);
    }
    return rec;
}

DepEdgeCounters &
DepProfile::edgeRec(Addr store_pc, Addr load_pc)
{
    return edgeMap[DepEdgeKey(store_pc, load_pc)];
}

DepMdptCounters &
DepProfile::mdptRec(Addr pc)
{
    return mdptMap[pc];
}

void
DepProfile::noteLoadExec(Addr pc, bool forwarded)
{
    DepLoadCounters &rec = loadRec(pc);
    ++rec.execs;
    if (forwarded)
        ++rec.forwards;
}

void
DepProfile::noteLoadReplay(Addr pc)
{
    ++loadRec(pc).replays;
}

void
DepProfile::noteSelHold(Addr pc)
{
    ++loadRec(pc).selHolds;
}

void
DepProfile::noteBarrierHold(Addr pc)
{
    ++loadRec(pc).barrierHolds;
}

void
DepProfile::noteLoadCommit(Addr pc)
{
    ++loadRec(pc).commits;
}

void
DepProfile::noteFalseDep(Addr pc, uint64_t stall_cycles)
{
    DepLoadCounters &rec = loadRec(pc);
    ++rec.falseDepLoads;
    rec.falseDepCycles += stall_cycles;
}

void
DepProfile::noteTrueDep(Addr pc)
{
    ++loadRec(pc).trueDepLoads;
}

void
DepProfile::noteStoreCommit(Addr pc)
{
    ++storeRec(pc).commits;
}

void
DepProfile::noteStoreBarrier(Addr pc)
{
    ++storeRec(pc).barriers;
}

void
DepProfile::noteViolation(Addr store_pc, Addr load_pc,
                          uint64_t distance, bool full_overlap)
{
    ++loadRec(load_pc).violations;
    ++storeRec(store_pc).violationsCaused;
    DepEdgeCounters &edge = edgeRec(store_pc, load_pc);
    ++edge.violations;
    if (full_overlap)
        ++edge.fullOverlaps;
    else
        ++edge.partialOverlaps;
    ++edge.dist[depDistBucket(distance)];
}

void
DepProfile::noteSyncWait(Addr load_pc, Addr store_pc,
                         uint64_t distance)
{
    ++loadRec(load_pc).syncWaits;
    ++storeRec(store_pc).syncProduces;
    DepEdgeCounters &edge = edgeRec(store_pc, load_pc);
    ++edge.syncs;
    ++edge.dist[depDistBucket(distance)];
}

void
DepProfile::noteMdptAlloc(Addr pc)
{
    ++mdptRec(pc).allocs;
}

void
DepProfile::noteMdptEvict(Addr victim_pc)
{
    ++mdptRec(victim_pc).evicts;
}

void
DepProfile::noteMdptPair(Addr load_pc, Addr store_pc, bool merged)
{
    DepMdptCounters &load_rec = mdptRec(load_pc);
    ++load_rec.pairs;
    if (merged)
        ++load_rec.merges;
    if (store_pc != load_pc) {
        DepMdptCounters &store_rec = mdptRec(store_pc);
        ++store_rec.pairs;
        if (merged)
            ++store_rec.merges;
    }
}

void
DepProfile::noteMdptMissSpec(Addr pc)
{
    ++mdptRec(pc).missSpecs;
}

void
DepProfile::noteMdptSample(uint64_t cycle, uint64_t occupancy,
                           double mean_confidence)
{
    samples.push_back({cycle, occupancy, mean_confidence});
}

namespace
{

std::string
pcString(Addr pc)
{
    return strfmt("0x%llx", static_cast<unsigned long long>(pc));
}

std::string
distString(const std::array<uint64_t, dep_dist_buckets> &dist)
{
    std::string out;
    for (size_t b = 0; b < dep_dist_buckets; ++b) {
        if (!dist[b])
            continue;
        if (!out.empty())
            out += ';';
        out += strfmt("%zu:%llu", b,
                      static_cast<unsigned long long>(dist[b]));
    }
    return out;
}

} // anonymous namespace

std::string
DepProfile::hotEdges(size_t k) const
{
    std::vector<std::pair<DepEdgeKey, const DepEdgeCounters *>> ranked;
    ranked.reserve(edgeMap.size());
    for (const auto &[key, edge] : edgeMap)
        ranked.emplace_back(key, &edge);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  uint64_t av = a.second->violations.value();
                  uint64_t bv = b.second->violations.value();
                  if (av != bv)
                      return av > bv;
                  uint64_t as = a.second->syncs.value();
                  uint64_t bs = b.second->syncs.value();
                  if (as != bs)
                      return as > bs;
                  return a.first < b.first;
              });
    if (ranked.size() > k)
        ranked.resize(k);

    std::string out;
    for (const auto &[key, edge] : ranked) {
        if (!out.empty())
            out += ';';
        out += strfmt(
            "%s-%s:%llu:%llu", pcString(key.first).c_str(),
            pcString(key.second).c_str(),
            static_cast<unsigned long long>(edge->violations.value()),
            static_cast<unsigned long long>(edge->syncs.value()));
    }
    return out;
}

void
DepProfile::serialize(std::vector<std::string> &out) const
{
    const uint64_t v = dep_profile_version;
    {
        JsonObject obj;
        obj.add("v", v)
            .add("kind", "header")
            .add("run", run)
            .add("sim", sim)
            .add("loads", static_cast<uint64_t>(loadMap.size()))
            .add("stores", static_cast<uint64_t>(storeMap.size()))
            .add("edges", static_cast<uint64_t>(edgeMap.size()))
            .add("mdpt_pcs", static_cast<uint64_t>(mdptMap.size()))
            .add("mdpt_samples", static_cast<uint64_t>(samples.size()));
        out.push_back(obj.str());
    }
    for (const auto &[pc, rec] : loadMap) {
        JsonObject obj;
        obj.add("v", v)
            .add("kind", "load")
            .add("run", run)
            .add("pc", pcString(pc))
            .add("execs", rec.execs.value())
            .add("forwards", rec.forwards.value())
            .add("replays", rec.replays.value())
            .add("violations", rec.violations.value())
            .add("sync_waits", rec.syncWaits.value())
            .add("sel_holds", rec.selHolds.value())
            .add("barrier_holds", rec.barrierHolds.value())
            .add("false_dep_loads", rec.falseDepLoads.value())
            .add("false_dep_cycles", rec.falseDepCycles.value())
            .add("true_dep_loads", rec.trueDepLoads.value())
            .add("commits", rec.commits.value());
        out.push_back(obj.str());
    }
    for (const auto &[pc, rec] : storeMap) {
        JsonObject obj;
        obj.add("v", v)
            .add("kind", "store")
            .add("run", run)
            .add("pc", pcString(pc))
            .add("commits", rec.commits.value())
            .add("violations_caused", rec.violationsCaused.value())
            .add("barriers", rec.barriers.value())
            .add("sync_produces", rec.syncProduces.value());
        out.push_back(obj.str());
    }
    for (const auto &[key, edge] : edgeMap) {
        JsonObject obj;
        obj.add("v", v)
            .add("kind", "edge")
            .add("run", run)
            .add("store_pc", pcString(key.first))
            .add("load_pc", pcString(key.second))
            .add("violations", edge.violations.value())
            .add("syncs", edge.syncs.value())
            .add("full_overlaps", edge.fullOverlaps.value())
            .add("partial_overlaps", edge.partialOverlaps.value())
            .add("dist", distString(edge.dist));
        out.push_back(obj.str());
    }
    for (const auto &[pc, rec] : mdptMap) {
        JsonObject obj;
        obj.add("v", v)
            .add("kind", "mdpt")
            .add("run", run)
            .add("pc", pcString(pc))
            .add("allocs", rec.allocs.value())
            .add("evicts", rec.evicts.value())
            .add("pairs", rec.pairs.value())
            .add("merges", rec.merges.value())
            .add("miss_specs", rec.missSpecs.value());
        out.push_back(obj.str());
    }
    for (const DepMdptSample &s : samples) {
        JsonObject obj;
        obj.add("v", v)
            .add("kind", "mdpt_sample")
            .add("run", run)
            .add("cycle", s.cycle)
            .add("occupancy", s.occupancy)
            .add("mean_confidence", s.meanConfidence);
        out.push_back(obj.str());
    }
}

DepProfManager::DepProfManager()
{
    const char *env = std::getenv("CWSIM_DEPPROF");
    if (!env || !*env || std::string(env) == "0")
        return;
    enable(std::string(env) == "1" ? "" : env);
}

DepProfManager &
DepProfManager::instance()
{
    static DepProfManager mgr;
    return mgr;
}

void
DepProfManager::enable(const std::string &path)
{
    std::lock_guard<std::mutex> lock(writeMutex);
    outPath = path.empty() ? "cwsim.depprof.jsonl" : path;
    detail::depprof_on.store(true);
}

void
DepProfManager::disable()
{
    std::lock_guard<std::mutex> lock(writeMutex);
    detail::depprof_on.store(false);
}

void
DepProfManager::resetForTesting()
{
    std::lock_guard<std::mutex> lock(writeMutex);
    detail::depprof_on.store(false);
    outPath.clear();
}

void
DepProfManager::writeRun(const DepProfile &prof)
{
    std::vector<std::string> lines;
    prof.serialize(lines);

    std::string block;
    for (const std::string &line : lines) {
        block += line;
        block += '\n';
    }

    std::lock_guard<std::mutex> lock(writeMutex);
    if (outPath.empty())
        return;
    int fd = ::open(outPath.c_str(),
                    O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
        warn("depprof: cannot append profile to %s", outPath.c_str());
        return;
    }
    // One block per run, appended as a single write(2): the mutex
    // covers in-process sweep workers, and O_APPEND covers separate
    // processes sharing the file — either way the validator never
    // sees interleaved lines. Not stdio: fwrite splits a block
    // larger than its buffer into several writes, and another
    // process's block can land between them.
    ssize_t n;
    do {
        n = ::write(fd, block.data(), block.size());
    } while (n < 0 && errno == EINTR);
    if (n != static_cast<ssize_t>(block.size()))
        warn("depprof: short append to %s", outPath.c_str());
    ::close(fd);
}

} // namespace obs
} // namespace cwsim
