/**
 * @file
 * Configuration structs for the whole simulated machine.
 *
 * The defaults encode Table 2 of Moshovos & Sohi (HPCA 2000): the
 * 128-entry-window, 8-wide centralized continuous-window processor. The
 * 64-entry preset follows the paper's Figure 1 text: issue width reduced
 * to 4, load/store ports to 2, and all functional units to 2 copies.
 */

#ifndef CWSIM_SIM_CONFIG_HH
#define CWSIM_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "base/types.hh"

namespace cwsim
{

/**
 * Whether an address-based load/store scheduler is present.
 *
 * NAS: no address-based scheduler. Store addresses are not visible to
 * loads before the store issues; a violation-detection table records
 * speculative loads so stores can catch true-dependence violations.
 *
 * AS: an address-based scheduler. Stores post their addresses as soon as
 * the base register is available (before data), and loads inspect
 * preceding store addresses before accessing memory.
 */
enum class LsqModel
{
    NAS,
    AS,
};

/**
 * Miss-speculation recovery mechanism (Section 2).
 *
 * Squash invalidation — "the hardware-based miss-speculation recovery
 * method used today" — re-fetches everything from the violated load.
 * Selective invalidation re-executes only the instructions that used
 * erroneous data (the alternative the paper cites from value-locality
 * work); cwsim implements it as an extension, falling back to a squash
 * when control flow consumed the bad value.
 */
enum class RecoveryModel
{
    Squash,
    Selective,
};

/** The five speculation policies of Section 2.1, plus the oracle. */
enum class SpecPolicy
{
    No,           ///< Loads wait for all preceding stores (no speculation).
    Naive,        ///< Loads issue as soon as their address is ready.
    Selective,    ///< Predicted-dependent loads wait for all older stores.
    StoreBarrier, ///< Predicted-dependent stores block all younger loads.
    SpecSync,     ///< MDPT speculation/synchronization via synonyms.
    Oracle,       ///< Perfect a-priori dependence knowledge.
};

const char *toString(LsqModel model);
const char *toString(SpecPolicy policy);

/** Paper-style configuration name, e.g. "NAS/SYNC" or "AS/NAV". */
std::string configName(LsqModel model, SpecPolicy policy);

/** One cache level (values per Table 2). */
struct CacheConfig
{
    std::string name = "cache";
    uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 2;
    unsigned banks = 4;
    unsigned blockSize = 32;
    Cycles hitLatency = 2;
    /** Max primary (distinct-block) misses outstanding per bank. */
    unsigned primaryMshrsPerBank = 8;
    /** Max secondary misses (merged requests) per primary miss. */
    unsigned secondaryPerPrimary = 8;
};

/** The whole memory hierarchy. */
struct MemConfig
{
    CacheConfig icache{"icache", 64 * 1024, 2, 8, 32, 2, 2, 1};
    CacheConfig dcache{"dcache", 32 * 1024, 2, 4, 32, 2, 8, 8};
    CacheConfig l2{"l2", 4 * 1024 * 1024, 2, 4, 128, 8, 4, 3};
    /** L1 miss, L2 hit latency (cycles, plus word-transfer time). */
    Cycles l2AccessLatency = 10;
    /** L1/L2 miss to main memory (cycles). */
    Cycles memAccessLatency = 50;
    /** Main-memory access: 34 cycles + 4-word transfers * 2 cycles. */
    Cycles memBaseLatency = 34;
    Cycles memTransferPer4Words = 2;
    /** L2 transfer adder: 1 cycle per 4-word chunk. */
    Cycles l2TransferPer4Words = 1;
};

/** Branch predictor parameters (Table 2). */
struct BPredConfig
{
    /** Entries in each of the two predictors and the selector. */
    unsigned predictorEntries = 64 * 1024;
    /** Global history bits for the gselect component. */
    unsigned gselectHistoryBits = 5;
    unsigned btbEntries = 2 * 1024;
    unsigned rasEntries = 64;
    unsigned predictionsPerCycle = 4;
    unsigned resolutionsPerCycle = 4;
};

/** Out-of-order core parameters (Table 2). */
struct CoreConfig
{
    unsigned fetchWidth = 8;
    /** Up to this many non-contiguous blocks combined per fetch cycle. */
    unsigned fetchMaxBlocks = 4;
    /** Maximum in-flight fetch requests. */
    unsigned maxFetchRequests = 4;
    /** Front-end depth: cycles from fetch to window insertion. */
    Cycles fetchToDispatch = 4;
    unsigned windowSize = 128;   ///< Reorder buffer / RUU entries.
    unsigned lsqSize = 128;      ///< Combined load/store queue entries.
    unsigned storeBufferSize = 128;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;
    unsigned memPorts = 4;
    /** Copies of each functional-unit class (all fully pipelined). */
    unsigned fuCopies = 8;
    /**
     * LSQ input ports: address/data insertions per cycle (Table 2's
     * "4 input and 4 output ports"; the output side is memPorts).
     */
    unsigned lsqInputPorts = 4;
};

/** Memory dependence speculation machinery (the paper's contribution). */
struct MdpConfig
{
    LsqModel lsqModel = LsqModel::NAS;
    SpecPolicy policy = SpecPolicy::No;
    /** Extra load/store latency through the address-based scheduler. */
    Cycles asLatency = 0;
    /** MDPT geometry for SEL / STORE / SYNC (4K, 2-way in the paper). */
    unsigned mdptEntries = 4 * 1024;
    unsigned mdptAssoc = 2;
    /** Confidence counter width for SEL / STORE. */
    unsigned counterBits = 2;
    /** Miss-speculations on a static load/store before predicting. */
    unsigned predictThreshold = 3;
    /** Periodic predictor reset / MDPT flush interval (cycles). */
    Cycles resetInterval = 1'000'000;
    /** Miss-speculation recovery mechanism (NAS configurations). */
    RecoveryModel recovery = RecoveryModel::Squash;
};

/**
 * Deterministic fault injection (all rates are per-opportunity
 * probabilities drawn from a seeded base/random.hh PRNG). Used to storm
 * the miss-speculation recovery paths and prove they restore correct
 * architectural state; every fault is recorded in the flight recorder.
 */
struct FaultConfig
{
    /** PRNG seed; runs with equal seeds inject identical faults. */
    uint64_t seed = 0x5eed;
    /**
     * Per executed store: chance of forcing a spurious dependence
     * miss-speculation against a younger issued load (exercises the
     * squash / selective recovery machinery with no real violation).
     */
    double spuriousViolationRate = 0;
    /** AS only: chance of delaying a posted store address, and by how
     * many extra cycles. */
    double storeAddrDelayRate = 0;
    Cycles storeAddrDelay = 8;
    /** Per cycle: chance of invalidating a random valid MDPT entry. */
    double mdptDropRate = 0;
    /** Per cycle: chance of scrambling a random MDPT entry's
     * confidence/synonym (the predictor must stay prediction-only). */
    double mdptCorruptRate = 0;

    bool
    any() const
    {
        return spuriousViolationRate > 0 || storeAddrDelayRate > 0 ||
               mdptDropRate > 0 || mdptCorruptRate > 0;
    }
};

/** Checked-simulation knobs: watchdog, invariants, flight recorder. */
struct CheckConfig
{
    /**
     * 0 — unchecked: no watchdog, no recording, no invariants.
     * 1 — cheap (default): forward-progress watchdog, flight recorder,
     *     O(1) per-cycle invariants, post-run oracle equivalence in the
     *     harness.
     * 2 — heavy: adds full per-cycle structural scans (window order,
     *     store-buffer FIFO discipline, rename-map consistency, MDPT
     *     sanity).
     */
    unsigned level = 1;
    /** Watchdog trip threshold: cycles without a single commit. */
    uint64_t watchdogInterval = 100'000;
    /** Flight-recorder capacity (events kept; 0 disables recording). */
    unsigned flightRecorderSize = 128;
    FaultConfig faults;
};

/** Everything needed to instantiate one simulated machine. */
struct SimConfig
{
    CoreConfig core;
    MemConfig mem;
    BPredConfig bpred;
    MdpConfig mdp;
    CheckConfig check;

    /** Stop after this many committed instructions (0 = run to halt). */
    uint64_t maxInsts = 0;
    /** Safety net: stop after this many cycles. */
    uint64_t maxCycles = 500'000'000;

    /** Paper-style name of this load/store configuration. */
    std::string
    name() const
    {
        return configName(mdp.lsqModel, mdp.policy);
    }
};

/** The default 128-entry-window machine of Table 2. */
SimConfig makeW128Config();

/** The 64-entry-window machine of Figure 1. */
SimConfig makeW64Config();

/**
 * A machine with an arbitrary window size (ablations): window, LSQ and
 * store buffer scale together; all other parameters stay at the
 * 128-entry machine's Table 2 values.
 */
SimConfig makeWindowConfig(unsigned window_size);

/** Apply a load/store scheduling model + policy to a config. */
SimConfig withPolicy(SimConfig cfg, LsqModel model, SpecPolicy policy,
                     Cycles as_latency = 0);

/**
 * Canonical, exhaustive key=value rendering of @p cfg — every field of
 * every sub-struct (including check.* and check.faults.*) in a fixed
 * order. Two configs serialize identically iff they would simulate
 * identically, which is what the sweep run cache keys on; keep this in
 * sync when adding config fields, or stale cache entries will be
 * served for runs the new field changes.
 */
std::string serializeConfig(const SimConfig &cfg);

} // namespace cwsim

#endif // CWSIM_SIM_CONFIG_HH
