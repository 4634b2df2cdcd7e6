#include "sweep/run_cache.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>

#include "base/jsonl.hh"
#include "base/logging.hh"
#include "base/str.hh"

namespace cwsim
{
namespace sweep
{

namespace
{

constexpr uint64_t fnv_offset = 0xcbf29ce484222325ull;
constexpr uint64_t fnv_prime = 0x100000001b3ull;

uint64_t
fnv1a(uint64_t hash, const std::string &data)
{
    for (unsigned char c : data) {
        hash ^= c;
        hash *= fnv_prime;
    }
    return hash;
}

bool
getU64(const std::map<std::string, std::string> &fields,
       const char *key, uint64_t &out)
{
    auto it = fields.find(key);
    if (it == fields.end() || it->second.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(it->second.c_str(), &end, 10);
    return *end == '\0' && errno != ERANGE;
}

bool
getF64(const std::map<std::string, std::string> &fields,
       const char *key, double &out)
{
    auto it = fields.find(key);
    if (it == fields.end() || it->second.empty())
        return false;
    if (it->second == "nan") {
        out = std::numeric_limits<double>::quiet_NaN();
        return true;
    }
    char *end = nullptr;
    out = std::strtod(it->second.c_str(), &end);
    return *end == '\0';
}

bool
getStr(const std::map<std::string, std::string> &fields,
       const char *key, std::string &out)
{
    auto it = fields.find(key);
    if (it == fields.end())
        return false;
    out = it->second;
    return true;
}

/** write(2) all of @p data to @p fd, retrying partial writes/EINTR. */
bool
writeFully(int fd, const char *data, size_t len)
{
    while (len > 0) {
        ssize_t n = ::write(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<size_t>(n);
    }
    return true;
}

} // anonymous namespace

uint64_t
fingerprintRun(const std::string &workload, uint64_t scale,
               const SimConfig &cfg)
{
    uint64_t hash = fnv_offset;
    hash = fnv1a(hash, workload);
    hash = fnv1a(hash, strfmt("\nscale=%llu\n",
                              static_cast<unsigned long long>(scale)));
    hash = fnv1a(hash, serializeConfig(cfg));
    return hash;
}

std::string
runRecordLine(const harness::RunResult &r, uint64_t fp, uint64_t scale)
{
    JsonObject obj;
    obj.add("v", static_cast<uint64_t>(run_record_version))
        .add("fp", strfmt("%016llx",
                          static_cast<unsigned long long>(fp)))
        .add("workload", r.workload)
        .add("config", r.config)
        .add("scale", scale)
        .add("ok", r.ok)
        .add("error", r.error)
        .add("cycles", r.cycles)
        .add("commits", r.commits)
        .add("committedLoads", r.committedLoads)
        .add("committedStores", r.committedStores)
        .add("violations", r.violations)
        .add("replays", r.replays)
        .add("selectiveRecoveries", r.selectiveRecoveries)
        .add("selectiveFallbacks", r.selectiveFallbacks)
        .add("branchMispredicts", r.branchMispredicts)
        .add("squashedInsts", r.squashedInsts)
        .add("falseDepLoads", r.falseDepLoads)
        .add("falseDepLatency", r.falseDepLatency)
        .add("injectedViolations", r.injectedViolations)
        .add("ipc", r.ipc())
        // v2 host-profiling and diagnostic fields. wall_ms and
        // sim_cycles_per_sec vary run to run; determinism comparisons
        // must ignore them.
        .add("wall_ms", r.wallMs)
        .add("sim_cycles_per_sec", r.simCyclesPerSec())
        .add("cache_hit", r.cacheHit)
        .add("diagnostic", r.diagnostic);
    // v3 commit-slot accounting. commit_width == 0 round-trips the
    // "predates the accounting" marker for records rebuilt from older
    // caches.
    obj.add("commit_width", static_cast<uint64_t>(r.commitWidth));
    for (size_t i = 0; i < obs::num_cpi_causes; ++i) {
        obj.add(std::string("cpi_") + obs::statKey(obs::CpiCause(i)),
                r.cpiSlots[i]);
    }
    // v5 dependence-profile summary. Host-adjacent (only filled when
    // profiling was enabled for the run), so diffRunRecords leaves
    // these out of the simulated-field comparison.
    obj.add("dep_profiled", r.depProfiled)
        .add("dep_loads", r.depLoads)
        .add("dep_stores", r.depStores)
        .add("dep_edges", r.depEdges)
        .add("dep_hot_edges", r.depHotEdges);
    return obj.str();
}

bool
runRecordParse(const std::map<std::string, std::string> &fields,
               harness::RunResult &out)
{
    // Older records lack the fields later schemas added; every prior
    // version stays readable with those fields defaulted so a schema
    // bump never invalidates a warm cache. Future (unknown) versions
    // are rejected: their semantics are unknowable here.
    uint64_t version = 0;
    if (!getU64(fields, "v", version) || version < 1 ||
        version > run_record_version) {
        return false;
    }

    harness::RunResult r;
    auto okField = fields.find("ok");
    if (okField == fields.end())
        return false;
    if (okField->second == "true")
        r.ok = true;
    else if (okField->second == "false")
        r.ok = false;
    else
        return false;

    bool valid = getStr(fields, "workload", r.workload) &&
                 getStr(fields, "config", r.config) &&
                 getStr(fields, "error", r.error) &&
                 getU64(fields, "cycles", r.cycles) &&
                 getU64(fields, "commits", r.commits) &&
                 getU64(fields, "committedLoads", r.committedLoads) &&
                 getU64(fields, "committedStores",
                        r.committedStores) &&
                 getU64(fields, "violations", r.violations) &&
                 getU64(fields, "replays", r.replays) &&
                 getU64(fields, "selectiveRecoveries",
                        r.selectiveRecoveries) &&
                 getU64(fields, "selectiveFallbacks",
                        r.selectiveFallbacks) &&
                 getU64(fields, "branchMispredicts",
                        r.branchMispredicts) &&
                 getU64(fields, "squashedInsts", r.squashedInsts) &&
                 getU64(fields, "falseDepLoads", r.falseDepLoads) &&
                 getF64(fields, "falseDepLatency",
                        r.falseDepLatency) &&
                 getU64(fields, "injectedViolations",
                        r.injectedViolations);
    if (!valid)
        return false;

    if (version >= 2) {
        if (!getF64(fields, "wall_ms", r.wallMs) ||
            !getStr(fields, "diagnostic", r.diagnostic)) {
            return false;
        }
        auto hit = fields.find("cache_hit");
        if (hit == fields.end())
            return false;
        if (hit->second == "true")
            r.cacheHit = true;
        else if (hit->second == "false")
            r.cacheHit = false;
        else
            return false;
    }

    // v4/v5 records also carry the failure-taxonomy fields (fail_kind,
    // fail_detail, fail_injected) and the queue-wait time that v6
    // dropped; every failure they describe loads as a failed run with
    // its error text, and the dropped fields are ignored, not validated.

    if (version >= 3) {
        uint64_t width = 0;
        if (!getU64(fields, "commit_width", width) ||
            width > std::numeric_limits<unsigned>::max()) {
            return false;
        }
        r.commitWidth = static_cast<unsigned>(width);
        for (size_t i = 0; i < obs::num_cpi_causes; ++i) {
            std::string key =
                std::string("cpi_") + obs::statKey(obs::CpiCause(i));
            if (!getU64(fields, key.c_str(), r.cpiSlots[i]))
                return false;
        }
    }

    if (version >= 5) {
        auto profiled = fields.find("dep_profiled");
        if (profiled == fields.end())
            return false;
        if (profiled->second == "true")
            r.depProfiled = true;
        else if (profiled->second == "false")
            r.depProfiled = false;
        else
            return false;
        if (!getU64(fields, "dep_loads", r.depLoads) ||
            !getU64(fields, "dep_stores", r.depStores) ||
            !getU64(fields, "dep_edges", r.depEdges) ||
            !getStr(fields, "dep_hot_edges", r.depHotEdges)) {
            return false;
        }
    }

    out = r;
    return true;
}

RunCache::RunCache(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("run cache: cannot create %s (%s); caching disabled "
             "for this process", dir.c_str(), ec.message().c_str());
        return;
    }
    filePath = dir + "/runs.jsonl";

    // Later records win. An unterminated, unparseable final line is
    // the signature of a writer killed mid-append: expected damage,
    // not corruption, so it is skipped silently and the next append()
    // cuts it off. getline() sets eof only on such an unterminated line.
    std::ifstream in(filePath, std::ios::binary);
    std::string line;
    size_t rejected = 0;
    while (std::getline(in, line)) {
        if (trim(line).empty())
            continue;
        std::map<std::string, std::string> fields;
        harness::RunResult r;
        unsigned long long fp = 0;
        if (parseFlatJson(line, fields) && runRecordParse(fields, r) &&
            std::sscanf(fields["fp"].c_str(), "%llx", &fp) == 1) {
            entries[fp] = r;
        } else if (!in.eof()) {
            ++rejected;
        }
    }
    if (rejected > 0) {
        warn("run cache: ignored %zu unparseable record(s) in %s "
             "(stale schema or corruption); they will be recomputed",
             rejected, filePath.c_str());
    }

    // O_RDWR, not O_WRONLY: append() pread()s the last byte to detect
    // (and repair) a torn tail, which a write-only descriptor forbids.
    fd = ::open(filePath.c_str(),
                O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
        warn("run cache: cannot open %s for append (%s); new results "
             "will not persist", filePath.c_str(),
             std::strerror(errno));
    }
}

RunCache::~RunCache()
{
    if (fd >= 0)
        ::close(fd);
}

bool
RunCache::lookup(uint64_t fp, harness::RunResult &out) const
{
    auto it = entries.find(fp);
    if (it == entries.end())
        return false;
    out = it->second;
    return true;
}

void
RunCache::append(uint64_t fp, uint64_t scale,
                 const harness::RunResult &r)
{
    {
        std::lock_guard<std::mutex> lock(appendMutex);
        entries[fp] = r;
    }
    if (fd < 0)
        return; // cache directory was unusable

    std::string line = runRecordLine(r, fp, scale);
    line += '\n';

    std::lock_guard<std::mutex> lock(appendMutex);
    // flock() excludes other processes; the mutex above excludes other
    // threads of this one (they share this fd, so flock alone is a
    // no-op between them).
    while (::flock(fd, LOCK_EX) < 0 && errno == EINTR) {
    }
    // Repair a torn tail left by a writer that died mid-append: if the
    // file does not end in a newline, cut it back to its last one, so
    // the fragment neither glues onto this record nor lingers as an
    // unparseable line every later load warns about. Every appender
    // holds the flock, so none can write between the cut and the
    // append. Should the cut fail, lead with a newline instead.
    struct stat st;
    char last = '\n';
    if (::fstat(fd, &st) == 0 && st.st_size > 0 &&
        ::pread(fd, &last, 1, st.st_size - 1) == 1 && last != '\n') {
        std::ifstream in(filePath, std::ios::binary);
        std::string text{std::istreambuf_iterator<char>(in), {}};
        size_t nl = text.rfind('\n');
        off_t keep = nl == std::string::npos ? 0 : off_t(nl + 1);
        if (!in || ::ftruncate(fd, keep) < 0)
            line.insert(line.begin(), '\n');
    }
    // One write(2): O_APPEND makes the offset update atomic, so
    // concurrent appenders cannot interleave bytes within a record.
    if (!writeFully(fd, line.data(), line.size())) {
        warn("run cache: append to %s failed (%s)", filePath.c_str(),
             std::strerror(errno));
    } else if (::fdatasync(fd) < 0 && errno != EINVAL &&
               errno != ENOSYS) {
        warn("run cache: fdatasync of %s failed (%s)",
             filePath.c_str(), std::strerror(errno));
    }
    while (::flock(fd, LOCK_UN) < 0 && errno == EINTR) {
    }
}

} // namespace sweep
} // namespace cwsim
