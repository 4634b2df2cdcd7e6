#include "sweep/isolate.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <new>
#include <thread>

#include "base/jsonl.hh"
#include "base/logging.hh"
#include "base/sim_error.hh"
#include "base/str.hh"
#include "sweep/run_cache.hh"

namespace cwsim
{
namespace sweep
{

namespace
{

using Clock = std::chrono::steady_clock;
using harness::FailKind;
using harness::RunResult;

// Reserved child exit codes. Anything else nonzero is a crash.
constexpr int exit_oom = 33;      ///< operator new failed (RLIMIT_AS).
constexpr int exit_uncaught = 34; ///< non-SimError exception escaped.

const char *
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV: return "SIGSEGV";
      case SIGABRT: return "SIGABRT";
      case SIGBUS:  return "SIGBUS";
      case SIGILL:  return "SIGILL";
      case SIGFPE:  return "SIGFPE";
      case SIGKILL: return "SIGKILL";
      case SIGTERM: return "SIGTERM";
      case SIGXCPU: return "SIGXCPU";
      default: return nullptr;
    }
}

bool
writePipeFully(int fd, const char *data, size_t len)
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

/** One run to execute in a sandboxed child. */
struct Task
{
    /** Caller's correlation key, echoed back in Done. */
    size_t token = 0;
    /** Runner owning the (pre-warmed) workload/prepass caches. */
    harness::Runner *runner = nullptr;
    SweepJob job;
    uint64_t fp = 0;
};

/** A finished task: the final result after any retries. */
struct Done
{
    size_t token = 0;
    /** Carries the pool queue wait (enqueue → final fork) in
     * queueMs. */
    RunResult result;
};

/** Child-side: run the simulation and stream the record back. */
[[noreturn]] void
childMain(const Task &task, const IsolateOptions &opts, int wfd)
{
    // Allocation failure (RLIMIT_AS, alloc storms) exits with the
    // reserved OOM code instead of an unclassifiable abort. The
    // handler must not allocate.
    std::set_new_handler([] { _exit(exit_oom); });

    if (opts.memLimitMb > 0) {
        rlim_t bytes =
            static_cast<rlim_t>(opts.memLimitMb) * 1024 * 1024;
        struct rlimit rl = {bytes, bytes};
        ::setrlimit(RLIMIT_AS, &rl);
    }
    if (opts.timeoutSec > 0) {
        // CPU-time backstop behind the parent's wall-clock deadline:
        // if the parent dies, a spinning child still gets SIGXCPU.
        rlim_t secs = static_cast<rlim_t>(
            std::ceil(opts.timeoutSec)) + 10;
        struct rlimit rl = {secs, secs};
        ::setrlimit(RLIMIT_CPU, &rl);
    }

    RunResult r;
    try {
        // SimErrors are caught inside run() (fail-soft) and travel in
        // the record; only host-level surprises reach the catches.
        r = task.runner->run(task.job.workload, task.job.config);
    } catch (const std::bad_alloc &) {
        _exit(exit_oom);
    } catch (...) {
        _exit(exit_uncaught);
    }

    std::string line = runRecordLine(r, task.fp, task.runner->scale());
    line += '\n';
    if (!writePipeFully(wfd, line.data(), line.size()))
        _exit(exit_uncaught);
    _exit(0);
}

struct Classified
{
    FailKind kind = FailKind::None;
    std::string detail;
    RunResult parsed; ///< Valid only when kind is None or SimError.
};

Classified
classifyExit(const std::string &buf, bool killed, int status,
             const IsolateOptions &opts)
{
    Classified out;
    if (WIFEXITED(status)) {
        int code = WEXITSTATUS(status);
        if (code == 0) {
            std::string record = buf.substr(0, buf.find('\n'));
            std::map<std::string, std::string> fields;
            if (parseFlatJson(record, fields) &&
                runRecordParse(fields, out.parsed)) {
                out.kind = out.parsed.ok ? FailKind::None
                                         : FailKind::SimError;
                return out;
            }
            out.kind = FailKind::Protocol;
            out.detail = buf.empty() ? "empty record"
                                     : "unparseable record";
            return out;
        }
        if (code == exit_oom) {
            out.kind = FailKind::Oom;
            out.detail = opts.memLimitMb > 0
                ? strfmt("alloc failed under %llu MiB",
                         static_cast<unsigned long long>(
                             opts.memLimitMb))
                : "alloc failed";
            return out;
        }
        out.kind = FailKind::Crash;
        out.detail = strfmt("exit=%d", code);
        return out;
    }
    if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        if (killed) {
            out.kind = FailKind::Timeout;
            out.detail = strfmt("wall-clock %.1fs", opts.timeoutSec);
            return out;
        }
        if (sig == SIGXCPU) {
            out.kind = FailKind::Timeout;
            out.detail = "rlimit-cpu";
            return out;
        }
        if (sig == SIGKILL) {
            // Not ours, so the kernel's (the OOM killer is the usual
            // sender of unsolicited SIGKILLs).
            out.kind = FailKind::Oom;
            out.detail = "SIGKILL (host oom killer?)";
            return out;
        }
        out.kind = FailKind::Crash;
        const char *name = signalName(sig);
        out.detail = name ? name : strfmt("signal %d", sig);
        return out;
    }
    out.kind = FailKind::Protocol;
    out.detail = strfmt("wait status 0x%x", status);
    return out;
}

bool
retryable(FailKind kind)
{
    // Host-level failures may be environmental (a loaded machine, a
    // flaky OOM); a SimError is a deterministic property of the run.
    return kind == FailKind::Crash || kind == FailKind::Timeout ||
           kind == FailKind::Oom || kind == FailKind::Protocol;
}

/** The final RunResult for a task, names and taxonomy filled. */
RunResult
finalizeResult(const Task &task, const Classified &cls,
               unsigned attempts)
{
    if (cls.kind == FailKind::None || cls.kind == FailKind::SimError) {
        RunResult r = cls.parsed;
        // Names travel with the record, but trust the spec's (the
        // same rule cache hits follow).
        r.workload = task.job.workload;
        r.config = task.job.config.name();
        return r;
    }
    RunResult r;
    r.workload = task.job.workload;
    r.config = task.job.config.name();
    r.ok = false;
    r.failKind = cls.kind;
    r.failDetail = cls.detail;
    r.injectedHostFault = task.job.config.check.faults.hostAny();
    r.error = strfmt("isolated run died: %s after %u attempt(s)",
                     r.failLabel().c_str(), attempts);
    return r;
}

/** Milliseconds between two steady-clock points, clamped at 0. */
double
elapsedMs(Clock::time_point from, Clock::time_point to)
{
    if (to <= from)
        return 0;
    return std::chrono::duration_cast<
               std::chrono::duration<double, std::milli>>(to - from)
        .count();
}

/**
 * A non-blocking pool of isolated run slots, driven by runIsolated()'s
 * poll(2) loop. Lifecycle of a task: enqueue() → pump() forks it into
 * a free slot → the poll wakes on its pipe → service() drains, reaps,
 * classifies, retries host-level failures, and returns it as a Done
 * with a fully-finalized RunResult (names from the spec, failure
 * taxonomy filled).
 */
class IsolatePool
{
  public:
    explicit IsolatePool(IsolateOptions opts) : opts(opts) {}
    /** Kills and reaps any children still live (abandoned work). */
    ~IsolatePool();

    IsolatePool(const IsolatePool &) = delete;
    IsolatePool &operator=(const IsolatePool &) = delete;

    /** Queue a task; it forks when a slot frees up (see pump()). */
    void enqueue(Task task);

    /** No task left that service() has not returned. */
    bool idle() const { return queue.empty() && live.empty(); }

    /** Fork queued tasks into free slots (respecting retry backoff). */
    void pump();

    /** Append one POLLIN pollfd per live child pipe to @p out. */
    void addPollFds(std::vector<struct pollfd> &out) const;

    /**
     * Milliseconds until the pool next needs attention regardless of
     * fd readiness (a wall-clock deadline or a retry backoff expiring),
     * or -1 when it can wait forever.
     */
    int timeoutMs() const;

    /**
     * One non-blocking maintenance pass: drain readable child pipes,
     * SIGKILL deadline overruns, reap + classify exited children,
     * requeue retryable failures, fork queued work into free slots.
     * Returns every task that reached a final result.
     */
    std::vector<Done> service();

  private:
    struct Attempt
    {
        Task task;
        unsigned attempt = 0; ///< 0-based attempt number.
        /** Earliest fork time (retry backoff). */
        Clock::time_point notBefore;
        /** First enqueue() time; survives retries so queueMs measures
         * the task's whole wait, not the last backoff's. */
        Clock::time_point enqueuedAt;
    };

    struct Child
    {
        Task task;
        pid_t pid = -1;
        int fd = -1;
        unsigned attempt = 0;
        bool killed = false; ///< We delivered SIGKILL (wall timeout).
        bool eof = false;
        std::string buf; ///< Record bytes read so far.
        Clock::time_point deadline;
        bool hasDeadline = false;
        Clock::time_point spawnedAt;
        Clock::time_point enqueuedAt;
    };

    void spawn(const Attempt &a);
    void drainPipes();
    void enforceDeadlines();
    void reap(std::vector<Done> &out);

    IsolateOptions opts;
    std::deque<Attempt> queue;
    std::vector<Child> live;
    /** Results finished synchronously (in-process fallback when
     * pipe2/fork fails), held for the next service() call. */
    std::vector<Done> fallbackDone;
};

IsolatePool::~IsolatePool()
{
    // Abandoned work (the owner is going away mid-flight): make sure
    // no orphaned child outlives the pool.
    for (Child &c : live) {
        ::kill(c.pid, SIGKILL);
        ::close(c.fd);
        int status = 0;
        pid_t w;
        do {
            w = ::waitpid(c.pid, &status, 0);
        } while (w < 0 && errno == EINTR);
    }
}

void
IsolatePool::enqueue(Task task)
{
    Clock::time_point now = Clock::now();
    queue.push_back({std::move(task), 0, now, now});
}

void
IsolatePool::spawn(const Attempt &a)
{
    const Task &task = a.task;
    // The in-process fallback finishes synchronously; the next
    // service() call returns it.
    auto runInProcess = [&]() {
        Done d;
        d.token = task.token;
        double queueMs = elapsedMs(a.enqueuedAt, Clock::now());
        d.result = task.runner->run(task.job.workload,
                                    task.job.config);
        d.result.queueMs = queueMs;
        fallbackDone.push_back(std::move(d));
    };
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) < 0) {
        warn("isolate: pipe2 failed (%s); running %s in-process",
             std::strerror(errno), task.job.workload.c_str());
        runInProcess();
        return;
    }
    // The child _exit()s, so any bytes sitting in stdio buffers
    // would otherwise be flushed by both processes.
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        warn("isolate: fork failed (%s); running %s in-process",
             std::strerror(errno), task.job.workload.c_str());
        runInProcess();
        return;
    }
    if (pid == 0) {
        ::close(fds[0]);
        childMain(task, opts, fds[1]);
    }
    ::close(fds[1]);
    int flags = ::fcntl(fds[0], F_GETFL, 0);
    ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
    Child c;
    c.task = task;
    c.pid = pid;
    c.fd = fds[0];
    c.attempt = a.attempt;
    c.spawnedAt = Clock::now();
    c.enqueuedAt = a.enqueuedAt;
    if (opts.timeoutSec > 0) {
        c.deadline = Clock::now() +
                     std::chrono::microseconds(static_cast<int64_t>(
                         opts.timeoutSec * 1e6));
        c.hasDeadline = true;
    }
    live.push_back(std::move(c));
}

void
IsolatePool::pump()
{
    unsigned slots = std::max(1u, opts.slots);
    Clock::time_point now = Clock::now();
    for (auto it = queue.begin();
         it != queue.end() && live.size() < slots;) {
        if (it->notBefore <= now) {
            spawn(*it);
            it = queue.erase(it);
        } else {
            ++it;
        }
    }
}

void
IsolatePool::addPollFds(std::vector<struct pollfd> &out) const
{
    for (const Child &c : live)
        out.push_back({c.fd, POLLIN, 0});
}

int
IsolatePool::timeoutMs() const
{
    Clock::time_point now = Clock::now();
    int64_t best = -1;
    auto consider = [&](Clock::time_point t) {
        int64_t ms = std::chrono::duration_cast<
                         std::chrono::milliseconds>(t - now)
                         .count();
        ms = std::max<int64_t>(0, ms) + 1;
        best = best < 0 ? ms : std::min(best, ms);
    };
    for (const Child &c : live) {
        if (c.hasDeadline && !c.killed)
            consider(c.deadline);
    }
    unsigned slots = std::max(1u, opts.slots);
    if (live.size() < slots) {
        for (const Attempt &a : queue)
            consider(a.notBefore);
    }
    return best > std::numeric_limits<int>::max()
        ? std::numeric_limits<int>::max()
        : static_cast<int>(best);
}

void
IsolatePool::drainPipes()
{
    for (Child &c : live) {
        if (c.eof)
            continue;
        char chunk[4096];
        for (;;) {
            ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
            if (n > 0) {
                c.buf.append(chunk, static_cast<size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && errno == EAGAIN)
                break;
            c.eof = true; // 0 (EOF) or a hard error
            break;
        }
    }
}

void
IsolatePool::enforceDeadlines()
{
    Clock::time_point now = Clock::now();
    for (Child &c : live) {
        if (!c.eof && c.hasDeadline && !c.killed && now >= c.deadline) {
            ::kill(c.pid, SIGKILL);
            c.killed = true;
        }
    }
}

void
IsolatePool::reap(std::vector<Done> &out)
{
    for (size_t k = 0; k < live.size();) {
        if (!live[k].eof) {
            ++k;
            continue;
        }
        Child c = std::move(live[k]);
        live.erase(live.begin() + k);
        ::close(c.fd);
        int status = 0;
        pid_t w;
        do {
            w = ::waitpid(c.pid, &status, 0);
        } while (w < 0 && errno == EINTR);
        Classified cls = classifyExit(c.buf, c.killed, status, opts);
        if (retryable(cls.kind) && c.attempt < opts.retries) {
            warn("isolate: %s under %s died (%s, attempt %u/%u); "
                 "retrying",
                 c.task.job.workload.c_str(),
                 c.task.job.config.name().c_str(),
                 cls.detail.c_str(), c.attempt + 1,
                 opts.retries + 1);
            // Exponential backoff so a thrashing host gets air.
            auto backoff =
                std::chrono::milliseconds(100u << c.attempt);
            queue.push_back({std::move(c.task), c.attempt + 1,
                             Clock::now() + backoff, c.enqueuedAt});
        } else {
            Done d;
            d.token = c.task.token;
            d.result = finalizeResult(c.task, cls, c.attempt + 1);
            d.result.queueMs = elapsedMs(c.enqueuedAt, c.spawnedAt);
            out.push_back(std::move(d));
        }
    }
}

std::vector<Done>
IsolatePool::service()
{
    std::vector<Done> out;
    for (Done &d : fallbackDone)
        out.push_back(std::move(d));
    fallbackDone.clear();
    drainPipes();
    enforceDeadlines();
    reap(out);
    pump();
    // A just-pumped fallback (fork failure) is already final too.
    for (Done &d : fallbackDone)
        out.push_back(std::move(d));
    fallbackDone.clear();
    return out;
}

} // anonymous namespace

void
runIsolated(harness::Runner &runner,
            const std::vector<SweepJob> &jobs,
            const std::vector<size_t> &pending,
            const std::vector<uint64_t> &fps,
            const IsolateOptions &opts,
            std::vector<RunResult> &results)
{
    if (pending.empty())
        return;

    // Pre-warm every workload's functional pre-pass in the parent so
    // each forked child inherits it copy-on-write instead of redoing
    // it. Per-call error traps keep a bad workload fail-soft here (the
    // child will then fail the same way and say so in its record).
    {
        std::vector<std::string> names;
        for (size_t i : pending) {
            const std::string &w = jobs[i].workload;
            if (std::find(names.begin(), names.end(), w) == names.end())
                names.push_back(w);
        }
        parallelFor(names.size(), opts.slots, [&](size_t n) {
            try {
                ScopedErrorTrap trap;
                runner.prepass(names[n]);
            } catch (const SimError &) {
            }
        });
    }

    IsolatePool pool(opts);
    for (size_t i : pending) {
        Task t;
        t.token = i;
        t.runner = &runner;
        t.job = jobs[i];
        t.fp = fps[i];
        pool.enqueue(std::move(t));
    }

    while (!pool.idle()) {
        pool.pump();
        std::vector<struct pollfd> pfds;
        pool.addPollFds(pfds);
        int timeout = pool.timeoutMs();
        if (!pfds.empty()) {
            int rc = ::poll(pfds.data(), pfds.size(), timeout);
            if (rc < 0 && errno != EINTR) {
                panic("isolate: poll failed (%s)",
                      std::strerror(errno));
            }
        } else if (timeout > 0) {
            // Only backoff-delayed retries remain: sleep it off.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(timeout));
        }
        for (Done &d : pool.service())
            results[d.token] = std::move(d.result);
    }
}

} // namespace sweep
} // namespace cwsim
