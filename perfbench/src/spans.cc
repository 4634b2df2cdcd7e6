#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

namespace perfbench
{

namespace
{

/** The calling thread's innermost open span (0 = none). */
thread_local uint64_t openSpan = 0;

unsigned
threadNumber()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned number = next.fetch_add(1);
    return number;
}

/** Length of the union of [start, end) intervals, clipped to a range. */
int64_t
unionLength(std::vector<std::pair<int64_t, int64_t>> iv, int64_t from,
            int64_t to)
{
    std::sort(iv.begin(), iv.end());
    int64_t total = 0;
    int64_t cur_start = 0, cur_end = 0;
    bool open = false;
    for (auto [s, e] : iv) {
        s = std::max(s, from);
        e = std::min(e, to);
        if (e <= s)
            continue;
        if (open && s <= cur_end) {
            cur_end = std::max(cur_end, e);
            continue;
        }
        if (open)
            total += cur_end - cur_start;
        cur_start = s;
        cur_end = e;
        open = true;
    }
    if (open)
        total += cur_end - cur_start;
    return total;
}

} // anonymous namespace

int64_t
SpanLog::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
SpanLog::record(const Span &span)
{
    std::lock_guard<std::mutex> lock(mutex);
    log.push_back(span);
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return log;
}

ScopedSpan::ScopedSpan(SpanLog &log, const char *name, int run,
                       uint64_t parent)
    : log(log), outer(openSpan)
{
    span.name = name;
    span.id = log.nextId();
    span.parent = parent ? parent : outer;
    span.run = run;
    span.thread = threadNumber();
    span.rep = log.rep();
    openSpan = span.id;
    span.startNs = SpanLog::nowNs();
}

ScopedSpan::~ScopedSpan()
{
    span.endNs = SpanLog::nowNs();
    openSpan = outer;
    log.record(span);
}

std::map<std::string, LayerTime>
layerTimes(const std::vector<Span> &spans)
{
    std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
        children;
    for (const Span &s : spans) {
        if (s.parent)
            children[s.parent].emplace_back(s.startNs, s.endNs);
    }
    std::map<std::string, LayerTime> out;
    for (const Span &s : spans) {
        LayerTime &t = out[s.name];
        int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end())
            covered = unionLength(it->second, s.startNs, s.endNs);
        t.totalMs += s.durNs() / 1e6;
        t.selfMs += (s.durNs() - covered) / 1e6;
        ++t.calls;
    }
    return out;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans,
           const std::vector<std::string> &run_names)
{
    std::ofstream out(path);
    if (!out)
        return false;
    for (const Span &s : spans) {
        out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << ",\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
            << ",\"rep\":" << s.rep << ",\"run\":\"";
        if (s.run >= 0 && size_t(s.run) < run_names.size())
            out << run_names[s.run];
        out << "\"}\n";
    }
    return bool(out);
}

} // namespace perfbench
