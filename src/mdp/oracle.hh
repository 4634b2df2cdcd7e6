/**
 * @file
 * The oracle disambiguator and the functional pre-pass that builds it.
 *
 * The pre-pass runs the program through the functional interpreter and
 * records, for every committed dynamic load, the trace index of the
 * most recent store that wrote any byte the load reads. Because the
 * ISA is deterministic, committed-path trace indices in the timing run
 * line up exactly with the pre-pass, so the NAS/ORACLE configuration
 * can wake each load the moment its producing store has executed —
 * "perfect, a priori knowledge of all memory dependences" (Section
 * 3.2).
 *
 * The pre-pass also yields the committed-path trace (consumed by the
 * split-window model of Section 3.7), workload characteristics for
 * Table 1, and golden architectural state for the equivalence tests.
 */

#ifndef CWSIM_MDP_ORACLE_HH
#define CWSIM_MDP_ORACLE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "isa/executor.hh"
#include "isa/program.hh"

namespace cwsim
{

/**
 * Per-dynamic-load producing-store information, stored flat: the
 * indices of loads that have a producer in trace order, and one
 * contiguous run of producer indices per load.
 */
class OracleDeps
{
  public:
    /**
     * The distinct stores that produce at least one byte of a load,
     * oldest first. A load reads at most 8 bytes, so at most 8 stores.
     * Partial overlaps make the full set necessary: waking the load
     * after only the youngest producer would forward stale bytes from
     * the ranges the other producers cover. Empty if the load has no
     * producer. (A span; this header also builds as C++17.)
     */
    struct Producers
    {
        const TraceIndex *first = nullptr;
        const TraceIndex *last = nullptr;

        const TraceIndex *begin() const { return first; }
        const TraceIndex *end() const { return last; }
        size_t size() const { return static_cast<size_t>(last - first); }
        bool empty() const { return first == last; }
    };

    /**
     * Trace index of the last store conflicting with the load at trace
     * index @p load_idx, or invalid_trace_index if the load has no
     * producer.
     */
    TraceIndex
    producerOf(TraceIndex load_idx) const
    {
        Producers set = producersOf(load_idx);
        return set.empty() ? invalid_trace_index : *(set.end() - 1);
    }

    /** All distinct byte producers of @p load_idx (binary search). */
    Producers
    producersOf(TraceIndex load_idx) const
    {
        auto it = std::lower_bound(loads.begin(), loads.end(), load_idx);
        if (it == loads.end() || *it != load_idx)
            return {};
        size_t k = static_cast<size_t>(it - loads.begin());
        return {producers.data() + offsets[k],
                producers.data() + offsets[k + 1]};
    }

    /** Append @p load_idx's producers; loads arrive in trace order. */
    void record(TraceIndex load_idx, Producers stores);

    size_t size() const { return loads.size(); }

  private:
    std::vector<TraceIndex> loads; ///< Sorted; loads with a producer.
    /** loads[k]'s producers are producers[offsets[k], offsets[k+1]). */
    std::vector<uint32_t> offsets{0};
    std::vector<TraceIndex> producers;
};

/** One committed-path instruction, as the split-window model needs it. */
struct TraceEntry
{
    Addr pc = 0;
    StaticInst inst;
    Addr memAddr = invalid_addr;
    uint8_t memSize = 0;
    bool taken = false;
};

struct PrepassOptions
{
    /** Stop after this many committed instructions (0 = run to HALT). */
    uint64_t maxInsts = 0;
    /** Record the full committed trace (split-window model input). */
    bool recordTrace = false;
};

struct PrepassResult
{
    OracleDeps deps;
    std::vector<TraceEntry> trace;

    uint64_t instCount = 0;
    uint64_t loadCount = 0;
    uint64_t storeCount = 0;
    uint64_t branchCount = 0;
    uint64_t takenBranches = 0;
    uint64_t fpOps = 0;
    bool halted = false;

    /** Golden final state for the equivalence tests. */
    ArchState finalState;
    uint64_t memFingerprint = 0;
};

/** Run the functional pre-pass over @p program. */
PrepassResult runPrepass(const Program &program,
                         const PrepassOptions &opts = {});

} // namespace cwsim

#endif // CWSIM_MDP_ORACLE_HH
