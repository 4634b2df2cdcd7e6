/**
 * @file
 * In-memory span log for the benchmark's traced run.
 *
 * A span times one call into a cwsim layer (workloads::build,
 * runPrepass, the Processor constructor, Processor::run, ...). Spans
 * are recorded from the benchmark's own code, around the public calls;
 * nothing inside the simulator is instrumented. They stay in memory
 * until the benchmark writes them out at exit.
 */

#ifndef CWSIM_PERFBENCH_SPANS_HH
#define CWSIM_PERFBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** One timed layer call. Times are steady-clock nanoseconds. */
struct Span
{
    const char *name = ""; ///< "layer.call", a string literal.
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 for a root span.
    int run = -1;        ///< Index into the run-name table, -1 = none.
    unsigned thread = 0; ///< Small per-thread number.
    unsigned rep = 0;    ///< Repetition the span belongs to.

    int64_t durNs() const { return endNs - startNs; }
};

/** Thread-safe process-wide span log. */
class SpanLog
{
  public:
    static int64_t nowNs();

    uint64_t nextId() { return ++lastId; }
    void record(const Span &span);
    void setRep(unsigned rep) { curRep = rep; }
    unsigned rep() const { return curRep; }

    /** All spans recorded so far (copy; call between phases). */
    std::vector<Span> spans() const;

  private:
    mutable std::mutex mutex;
    std::vector<Span> log;
    std::atomic<uint64_t> lastId{0};
    unsigned curRep = 0;
};

/**
 * RAII span. It nests under the calling thread's innermost open span,
 * or under @p parent when one is given — a sweep worker's job nests
 * under the phase span of the thread that started the workers.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, int run = -1,
               uint64_t parent = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return span.id; }

  private:
    SpanLog &log;
    Span span;
    uint64_t outer; ///< The thread's open span before this one.
};

/** Total and self time of one span name. */
struct LayerTime
{
    double totalMs = 0;
    double selfMs = 0; ///< Minus the time its child spans cover.
    uint64_t calls = 0;
};

/** Per-name totals and self times over @p spans. */
std::map<std::string, LayerTime>
layerTimes(const std::vector<Span> &spans);

/** Write @p spans as JSON lines, naming runs from @p run_names. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans,
                const std::vector<std::string> &run_names);

} // namespace perfbench

#endif // CWSIM_PERFBENCH_SPANS_HH
