/**
 * @file
 * A distributed, split-window processor model (Section 3.7).
 *
 * The instruction window is divided into sub-windows (units), each
 * assigned a contiguous chunk of the dynamic execution trace
 * (Multiscalar-style tasks). Units fetch their chunks INDEPENDENTLY and
 * in parallel, so — unlike the continuous-window core in src/cpu/ — a
 * load in a later unit can compute its address (and speculatively
 * access memory) before an older store in an earlier unit has even been
 * fetched. This is exactly why the paper finds that an address-based
 * scheduler with naive speculation, which eliminates virtually all
 * miss-speculations under a continuous window, fails to do so under a
 * split window (Figure 7).
 *
 * The model is trace-driven over the committed path from the functional
 * pre-pass (equivalently: perfect task/control prediction, a
 * simplification documented in DESIGN.md). Register dependences resolve
 * dataflow-style with an extra inter-unit forwarding latency; loads and
 * stores follow the same AS/NAS x NO/NAV policy definitions as the
 * continuous core. Setting numUnits=1 with a full-size chunk recovers a
 * continuous-window machine, which is how bench/fig7 contrasts the two.
 */

#ifndef CWSIM_SPLIT_SPLIT_WINDOW_HH
#define CWSIM_SPLIT_SPLIT_WINDOW_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "mdp/mdp_table.hh"
#include "mdp/oracle.hh"
#include "obs/cpi_stack.hh"
#include "obs/depprof.hh"
#include "obs/pipeview.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace cwsim
{

struct SplitConfig
{
    unsigned numUnits = 4;
    /** Trace instructions per unit assignment (= sub-window size). */
    unsigned chunkSize = 32;
    unsigned unitFetchWidth = 2; ///< Insts fetched per unit per cycle.
    unsigned unitIssueWidth = 2; ///< Insts issued per unit per cycle.
    unsigned commitWidth = 8;    ///< Global in-order commit width.
    Cycles interUnitLatency = 1; ///< Extra cycles crossing units.
    Cycles memLatency = 2;       ///< Load-to-use / cache-hit latency.
    Cycles squashPenalty = 4;    ///< Re-dispatch delay after a squash.

    LsqModel lsqModel = LsqModel::AS;
    /**
     * No, Naive, or SpecSync. SpecSync pairs violating (load, store)
     * PCs in an MDPT and synchronizes later instances — the mechanism
     * the paper's prior work showed split windows NEED, since even a
     * 0-cycle address scheduler cannot save them (Section 3.7).
     */
    SpecPolicy policy = SpecPolicy::Naive;
    Cycles asLatency = 0;

    /**
     * Continuous mode: a single in-order fetch stream feeding one
     * sliding window of numUnits*chunkSize entries — the Figure 7(b)
     * reference machine. Split mode fetches each in-flight chunk
     * independently (Figure 7(c)).
     */
    bool continuousFetch = false;

    /**
     * Forward-progress watchdog: cycles without a commit before the
     * model raises a structured SimError describing the stuck head
     * instruction (0 disables). A healthy trace-driven model commits
     * within squashPenalty + a few latencies of any stall.
     */
    uint64_t watchdogInterval = 100'000;

    /** A continuous-window reference machine with equal resources. */
    static SplitConfig
    continuous(unsigned window = 128)
    {
        SplitConfig cfg;
        cfg.numUnits = 1;
        cfg.chunkSize = window;
        cfg.unitFetchWidth = 8;
        cfg.unitIssueWidth = 8;
        cfg.interUnitLatency = 0;
        cfg.continuousFetch = true;
        return cfg;
    }
};

class SplitWindowSim
{
  public:
    /**
     * @param cfg Model parameters.
     * @param trace Committed-path trace from runPrepass(recordTrace).
     *        Held by reference: it must outlive the model.
     */
    SplitWindowSim(const SplitConfig &cfg,
                   const std::vector<TraceEntry> &trace);

    /** Simulate the whole trace. @return elapsed cycles. */
    uint64_t run();

    uint64_t cycles() const { return curCycle; }
    uint64_t violations() const { return numViolations; }
    uint64_t committed() const { return numCommitted; }
    /** Commit-slot cycle accounting (conserves by construction). */
    const obs::CpiStack &cpiStack() const { return cpi; }
    /** The run's dependence profile, or nullptr when profiling is off. */
    const obs::DepProfile *depProfile() const { return dprof.get(); }

    double
    ipc() const
    {
        return curCycle ? static_cast<double>(numCommitted) / curCycle
                        : 0;
    }

    double
    misspecRate() const
    {
        return numLoads ? static_cast<double>(numViolations) / numLoads
                        : 0;
    }

  private:
    /**
     * Per-slot flags: the dynamic execution state plus the entry's
     * memory kind, copied from the trace when the slot is armed so the
     * per-cycle scans (loadMayIssue's walk over every older in-flight
     * instruction, executeStore's walk over every younger one) test a
     * single dense byte per index.
     */
    enum SlotFlag : uint8_t
    {
        Fetched = 1 << 0,
        Issued = 1 << 1,
        Done = 1 << 2,
        AddrPosted = 1 << 3,
        IsLoad = 1 << 4,
        IsStore = 1 << 5,
    };

    /** The rest of one in-flight trace index's state. */
    struct Slot
    {
        TraceIndex src1Producer = invalid_trace_index;
        TraceIndex src2Producer = invalid_trace_index;
        /** For loads: youngest older store whose value was consumed. */
        TraceIndex sourceSeen = invalid_trace_index;
        Tick doneAt = 0;       ///< Completion time once Done.
        Tick addrPostedAt = 0; ///< AS address-post time.
        Tick notBefore = 0;    ///< Earliest re-issue after a squash.
        Tick fetchedAt = 0;    ///< Pipeline timeline (O3PipeView).
        Tick issuedAt = 0;
        uint16_t timesSquashed = 0;
    };

    size_t slotOf(TraceIndex i) const { return i & ringMask; }
    uint8_t &flagsOf(TraceIndex i) { return flags[slotOf(i)]; }
    uint8_t flagsOf(TraceIndex i) const { return flags[slotOf(i)]; }
    Slot &state(TraceIndex i) { return slots[slotOf(i)]; }
    const Slot &state(TraceIndex i) const { return slots[slotOf(i)]; }
    unsigned chunkOf(TraceIndex i) const
    {
        return static_cast<unsigned>(i / cfg.chunkSize);
    }

    /**
     * One past the youngest index the model may touch this cycle: the
     * end of the chunk numUnits past headChunk, which executeStore and
     * squashFrom scan (continuous fetch also reaches into it).
     */
    TraceIndex windowEnd() const;
    /** Reset the ring slots of every index below @p end, in order. */
    void armThrough(TraceIndex end);

    bool regReady(TraceIndex producer, TraceIndex consumer_chunk_begin) const;
    bool loadMayIssue(TraceIndex idx) const;
    void executeStore(TraceIndex idx);
    void squashFrom(TraceIndex idx);
    /** Blame for this cycle's residual commit slots (DESIGN.md §11). */
    obs::CpiCause classifyResidual() const;

    SplitConfig cfg;
    /** Caller-owned; must outlive the model. Static facts come from here. */
    const std::vector<TraceEntry> &trace;
    MdpTable mdpt;

    /**
     * In-flight state in a power-of-two ring indexed by trace index,
     * sized from the config (numUnits + 2 chunks, rounded up), never
     * from the trace length. An index's slot is armed when its chunk
     * comes within windowEnd(); by then the index one ring length
     * older has committed, and every index below headCommit counts as
     * committed without looking at its slot.
     */
    TraceIndex ringMask = 0;
    std::vector<uint8_t> flags; ///< SlotFlag bits.
    std::vector<Slot> slots;
    TraceIndex armedEnd = 0; ///< Indices below this have been armed.
    /** Last writer of each register among the armed indices. */
    std::array<TraceIndex, 256> lastWriter;

    /** Pipeline-trace writer (nullptr when not recording). */
    obs::PipeViewWriter *pipe = nullptr;

    TraceIndex headCommit = 0; ///< Next instruction to commit.
    unsigned headChunk = 0;    ///< Oldest in-flight chunk.
    std::vector<TraceIndex> fetchCursor; ///< Next fetch per unit slot.
    TraceIndex globalCursor = 0; ///< Continuous-mode fetch cursor.

    Tick curCycle = 0;
    uint64_t numViolations = 0;
    uint64_t numCommitted = 0;
    uint64_t numLoads = 0;
    obs::CpiStack cpi;
    /**
     * Per-static-PC dependence attribution (nullptr when profiling is
     * off). Stats-less here: the split model has no StatGroup, so the
     * profile only feeds the .depprof.jsonl writer. Observation only.
     */
    std::unique_ptr<obs::DepProfile> dprof;
};

} // namespace cwsim

#endif // CWSIM_SPLIT_SPLIT_WINDOW_HH
