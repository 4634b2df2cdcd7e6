/**
 * @file
 * Direct unit tests for the memory dependence prediction structures:
 * the MDPT (confidence counters, synonym pairing, set-associative
 * replacement, periodic reset) and the oracle pre-pass.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "isa/builder.hh"
#include "mdp/mdp_table.hh"
#include "mdp/oracle.hh"
#include "sim/config.hh"
#include "stress_programs.hh"
#include "workloads/workload.hh"

namespace cwsim
{
namespace
{

MdpConfig
smallMdpt()
{
    MdpConfig cfg;
    cfg.mdptEntries = 16;
    cfg.mdptAssoc = 2;
    return cfg;
}

// ---------------------------------------------------------------------
// MdpTable: confidence behaviour (SEL / STORE policies).
// ---------------------------------------------------------------------

TEST(MdpTableTest, PredictsAfterThreshold)
{
    // Paper: "It takes 3 miss-speculations on a specific load or store
    // before the existence of a dependence is predicted."
    MdpTable table{MdpConfig{}};
    const Addr pc = 0x1000;
    EXPECT_FALSE(table.predictsDependence(pc));
    EXPECT_FALSE(table.recordMissSpeculation(pc)); // 1
    EXPECT_FALSE(table.predictsDependence(pc));
    EXPECT_FALSE(table.recordMissSpeculation(pc)); // 2
    EXPECT_FALSE(table.predictsDependence(pc));
    EXPECT_TRUE(table.recordMissSpeculation(pc));  // 3
    EXPECT_TRUE(table.predictsDependence(pc));
}

TEST(MdpTableTest, CounterSaturates)
{
    MdpTable table{MdpConfig{}};
    for (int i = 0; i < 10; ++i)
        table.recordMissSpeculation(0x2000);
    EXPECT_TRUE(table.predictsDependence(0x2000));
}

TEST(MdpTableTest, DistinctPcsIndependent)
{
    MdpTable table{MdpConfig{}};
    for (int i = 0; i < 3; ++i)
        table.recordMissSpeculation(0x3000);
    EXPECT_TRUE(table.predictsDependence(0x3000));
    EXPECT_FALSE(table.predictsDependence(0x3004));
}

TEST(MdpTableTest, ResetClearsEverything)
{
    MdpTable table{MdpConfig{}};
    for (int i = 0; i < 3; ++i)
        table.recordMissSpeculation(0x4000);
    Synonym syn = table.pair(0x5000, 0x6000);
    EXPECT_TRUE(table.predictsDependence(0x4000));
    EXPECT_EQ(table.synonymOf(0x5000), syn);

    table.reset();
    EXPECT_FALSE(table.predictsDependence(0x4000));
    EXPECT_EQ(table.synonymOf(0x5000), invalid_synonym);
    EXPECT_EQ(table.resets.value(), 1u);
}

// ---------------------------------------------------------------------
// MdpTable: synonym pairing (SYNC policy).
// ---------------------------------------------------------------------

TEST(MdpTableTest, PairAssignsSharedSynonym)
{
    MdpTable table{MdpConfig{}};
    Synonym syn = table.pair(0x1000, 0x2000);
    EXPECT_NE(syn, invalid_synonym);
    EXPECT_EQ(table.synonymOf(0x1000), syn);
    EXPECT_EQ(table.synonymOf(0x2000), syn);
}

TEST(MdpTableTest, ChainsMergeThroughSharedStore)
{
    // Two loads that both depend on one store end up in one chain (the
    // "level of indirection" of Section 3.6).
    MdpTable table{MdpConfig{}};
    Synonym a = table.pair(0x1000, 0x9000);
    Synonym b = table.pair(0x1004, 0x9000);
    EXPECT_EQ(a, b);
    EXPECT_EQ(table.synonymOf(0x1000), table.synonymOf(0x1004));
}

TEST(MdpTableTest, ChainsMergeThroughSharedLoad)
{
    MdpTable table{MdpConfig{}};
    Synonym a = table.pair(0x1000, 0x9000);
    Synonym b = table.pair(0x1000, 0x9008);
    EXPECT_EQ(a, b);
    EXPECT_EQ(table.synonymOf(0x9000), table.synonymOf(0x9008));
}

TEST(MdpTableTest, UnrelatedPairsGetDistinctSynonyms)
{
    MdpTable table{MdpConfig{}};
    Synonym a = table.pair(0x1000, 0x9000);
    Synonym b = table.pair(0x2000, 0xa000);
    EXPECT_NE(a, b);
}

TEST(MdpTableTest, PairSurvivesSameSetEviction)
{
    // A pairing whose load allocation evicts the store's entry (same
    // set, direct-mapped) must still hand the load the store's EXISTING
    // synonym. Reading the store's entry through a reference held
    // across the load's allocation instead sees the freshly reset
    // entry, loses the chain, and mints a new synonym every time.
    MdpConfig cfg;
    cfg.mdptEntries = 2;
    cfg.mdptAssoc = 1; // two direct-mapped sets
    MdpTable table{cfg};

    const Addr store_pc = 0x100; // set 0
    const Addr load_a = 0x104;   // set 1: no conflict
    const Addr load_b = 0x108;   // set 0: evicts the store

    Synonym first = table.pair(load_a, store_pc);
    ASSERT_NE(first, invalid_synonym);
    ASSERT_EQ(table.synonymOf(store_pc), first);

    Synonym second = table.pair(load_b, store_pc);
    EXPECT_EQ(second, first)
        << "the store's chain membership must survive the eviction";
    EXPECT_EQ(table.synonymOf(load_b), first);
}

TEST(MdpTableTest, LruReplacementWithinSet)
{
    // With 16 entries 2-way, PCs 4*(8k + s) map to set s.
    MdpTable table{smallMdpt()};
    Addr set0_a = 4 * (8 * 0 + 0);
    Addr set0_b = 4 * (8 * 1 + 0);
    Addr set0_c = 4 * (8 * 2 + 0);
    table.allocate(set0_a);
    table.allocate(set0_b);
    // Touch a to make b the LRU victim.
    EXPECT_NE(table.find(set0_a), nullptr);
    table.allocate(set0_c);
    EXPECT_NE(table.find(set0_a), nullptr);
    EXPECT_EQ(table.find(set0_b), nullptr); // evicted
    EXPECT_NE(table.find(set0_c), nullptr);
}

TEST(MdpTableTest, AllocationCountsTracked)
{
    MdpTable table{MdpConfig{}};
    table.allocate(0x1000);
    table.allocate(0x1000); // hit, no new allocation
    table.allocate(0x2000);
    EXPECT_EQ(table.allocations.value(), 2u);
}

// ---------------------------------------------------------------------
// Oracle pre-pass.
// ---------------------------------------------------------------------

TEST(OracleTest, RecordsStoreToLoadProducer)
{
    ProgramBuilder b;
    Addr slot = b.dataAlloc(4);
    b.la(ir(1), slot);            // idx 0..1 (la = 1-2 insts)
    b.addi(ir(2), reg_zero, 42);
    b.sw(ir(2), ir(1), 0);
    b.lw(ir(3), ir(1), 0);
    b.halt();
    PrepassResult pre = runPrepass(b.build());

    // Find the dynamic indices of the store and load.
    TraceIndex store_idx = invalid_trace_index;
    TraceIndex load_idx = invalid_trace_index;
    PrepassOptions opts;
    opts.recordTrace = true;
    PrepassResult traced = runPrepass(b.build(), opts);
    for (size_t i = 0; i < traced.trace.size(); ++i) {
        if (traced.trace[i].inst.isStore())
            store_idx = i;
        if (traced.trace[i].inst.isLoad())
            load_idx = i;
    }
    ASSERT_NE(store_idx, invalid_trace_index);
    ASSERT_NE(load_idx, invalid_trace_index);
    EXPECT_EQ(pre.deps.producerOf(load_idx), store_idx);
}

TEST(OracleTest, NoProducerForColdLoads)
{
    ProgramBuilder b;
    Addr slot = b.dataAlloc(4);
    b.dataW32(slot, 7);
    b.la(ir(1), slot);
    b.lw(ir(2), ir(1), 0); // reads initialized data, never stored
    b.halt();
    PrepassOptions opts;
    opts.recordTrace = true;
    PrepassResult pre = runPrepass(b.build(), opts);
    for (size_t i = 0; i < pre.trace.size(); ++i) {
        if (pre.trace[i].inst.isLoad())
            EXPECT_EQ(pre.deps.producerOf(i), invalid_trace_index);
    }
}

TEST(OracleTest, PartialOverlapDetected)
{
    // A byte store into the middle of a later word load.
    ProgramBuilder b;
    Addr slot = b.dataAlloc(8);
    b.la(ir(1), slot);
    b.addi(ir(2), reg_zero, 0x5a);
    b.sb(ir(2), ir(1), 2);
    b.lw(ir(3), ir(1), 0);
    b.halt();
    PrepassOptions opts;
    opts.recordTrace = true;
    PrepassResult pre = runPrepass(b.build(), opts);
    TraceIndex store_idx = invalid_trace_index;
    for (size_t i = 0; i < pre.trace.size(); ++i) {
        if (pre.trace[i].inst.isStore())
            store_idx = i;
        if (pre.trace[i].inst.isLoad())
            EXPECT_EQ(pre.deps.producerOf(i), store_idx);
    }
}

TEST(OracleTest, YoungestProducerWins)
{
    ProgramBuilder b;
    Addr slot = b.dataAlloc(4);
    b.la(ir(1), slot);
    b.addi(ir(2), reg_zero, 1);
    b.sw(ir(2), ir(1), 0);  // older store
    b.addi(ir(2), reg_zero, 2);
    b.sw(ir(2), ir(1), 0);  // younger store
    b.lw(ir(3), ir(1), 0);
    b.halt();
    PrepassOptions opts;
    opts.recordTrace = true;
    PrepassResult pre = runPrepass(b.build(), opts);
    TraceIndex last_store = invalid_trace_index;
    TraceIndex load_idx = invalid_trace_index;
    for (size_t i = 0; i < pre.trace.size(); ++i) {
        if (pre.trace[i].inst.isStore())
            last_store = i;
        if (pre.trace[i].inst.isLoad())
            load_idx = i;
    }
    EXPECT_EQ(pre.deps.producerOf(load_idx), last_store);
}

TEST(OracleTest, CountsCharacteristics)
{
    ProgramBuilder b;
    Addr slot = b.dataAlloc(16);
    b.la(ir(1), slot);
    auto loop = b.newLabel();
    b.addi(ir(2), reg_zero, 10);
    b.bind(loop);
    b.sw(ir(2), ir(1), 0);
    b.lw(ir(3), ir(1), 0);
    b.addi(ir(2), ir(2), -1);
    b.bne(ir(2), reg_zero, loop);
    b.halt();
    PrepassResult pre = runPrepass(b.build());
    EXPECT_EQ(pre.loadCount, 10u);
    EXPECT_EQ(pre.storeCount, 10u);
    EXPECT_EQ(pre.branchCount, 10u);
    EXPECT_EQ(pre.takenBranches, 9u);
    EXPECT_TRUE(pre.halted);
}

TEST(OracleTest, MaxInstsStopsEarly)
{
    ProgramBuilder b;
    auto forever = b.hereLabel();
    b.addi(ir(1), ir(1), 1);
    b.j(forever);
    PrepassOptions opts;
    opts.maxInsts = 500;
    PrepassResult pre = runPrepass(b.build(), opts);
    EXPECT_EQ(pre.instCount, 500u);
    EXPECT_FALSE(pre.halted);
}

TEST(OracleTest, TraceMatchesInstCount)
{
    ProgramBuilder b;
    b.addi(ir(1), reg_zero, 5);
    auto loop = b.hereLabel();
    b.addi(ir(1), ir(1), -1);
    b.bne(ir(1), reg_zero, loop);
    b.halt();
    PrepassOptions opts;
    opts.recordTrace = true;
    PrepassResult pre = runPrepass(b.build(), opts);
    EXPECT_EQ(pre.trace.size(), pre.instCount);
    // Trace entries carry the PCs in execution order.
    EXPECT_EQ(pre.trace[0].pc, b.build().entry());
}

/**
 * Check every load's oracle producers against a reference built here
 * with a per-byte last-writer map, independently of the oracle's own
 * storage. @return the number of loads with more than one producer.
 */
size_t
expectOracleMatchesReference(const Program &prog, const std::string &what)
{
    PrepassOptions opts;
    opts.recordTrace = true;
    PrepassResult pre = runPrepass(prog, opts);
    EXPECT_TRUE(pre.halted) << what;

    std::unordered_map<Addr, TraceIndex> last_writer;
    size_t loads_with_producers = 0;
    size_t multi_producer_loads = 0;
    for (TraceIndex i = 0; i < pre.trace.size(); ++i) {
        const TraceEntry &te = pre.trace[i];
        std::vector<TraceIndex> expect;
        if (te.inst.isLoad()) {
            for (unsigned b = 0; b < te.memSize; ++b) {
                auto it = last_writer.find(te.memAddr + b);
                if (it != last_writer.end())
                    expect.push_back(it->second);
            }
            std::sort(expect.begin(), expect.end());
            expect.erase(std::unique(expect.begin(), expect.end()),
                         expect.end());
            loads_with_producers += !expect.empty();
        } else if (te.inst.isStore()) {
            for (unsigned b = 0; b < te.memSize; ++b)
                last_writer[te.memAddr + b] = i;
        }
        OracleDeps::Producers got = pre.deps.producersOf(i);
        if (std::vector<TraceIndex>(got.begin(), got.end()) != expect) {
            ADD_FAILURE() << what << ": producers differ at trace index "
                          << i;
            return multi_producer_loads;
        }
        EXPECT_EQ(pre.deps.producerOf(i),
                  expect.empty() ? invalid_trace_index : expect.back());
        multi_producer_loads += expect.size() > 1;
    }
    EXPECT_EQ(pre.deps.size(), loads_with_producers) << what;
    return multi_producer_loads;
}

TEST(OracleTest, ProducersMatchPerByteReferenceOnAllKernels)
{
    for (const std::string &name : workloads::allNames())
        expectOracleMatchesReference(workloads::build(name, 4000).program,
                                     name);
}

TEST(OracleTest, ProducersMatchPerByteReferenceOnPartialOverlaps)
{
    // 1-, 4- and 8-byte stores and loads clashing in one 16-byte cell:
    // loads with several distinct producers.
    size_t multi_producer_loads = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        multi_producer_loads += expectOracleMatchesReference(
            partialOverlapStress(seed), "stress seed " + std::to_string(seed));
    }
    EXPECT_GT(multi_producer_loads, 0u);
}

} // anonymous namespace
} // namespace cwsim
