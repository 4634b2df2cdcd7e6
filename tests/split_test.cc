/**
 * @file
 * Tests for the split-window model, including the Section 3.7 claim:
 * under a split window, a 0-cycle address-based scheduler with naive
 * speculation can NOT avoid memory dependence miss-speculations,
 * whereas the continuous configuration of the same engine can.
 */

#include <gtest/gtest.h>
#include <malloc.h>

#include <array>
#include <memory>

#include "isa/builder.hh"
#include "mdp/oracle.hh"
#include "split/split_window.hh"
#include "workloads/workload.hh"

namespace cwsim
{
namespace
{

/**
 * The paper's Figure 7 loop, unrolled: iteration i stores a[i] (behind
 * a multiply chain) and iteration i+1 reloads it. Addresses come from a
 * base register set before the loop, so — as in a Multiscalar task,
 * where each unit knows its iteration range — a later unit can compute
 * a load address without waiting for earlier units. The ONLY
 * cross-iteration dependence is the memory recurrence, plus independent
 * side loads that an aggressive machine can hoist.
 */
Program
figure7Loop(int n = 400)
{
    ProgramBuilder b;
    Addr a = b.dataAlloc(4 * (n + 2));
    Addr side = b.dataAlloc(4 * (2 * n + 2));
    b.dataW32(a, 3);
    b.la(ir(1), a);
    b.la(ir(10), side);
    for (int i = 0; i < n; ++i) {
        int32_t off = 4 * i;
        b.lw(ir(3), ir(1), off);          // load a[i-1]
        b.mul(ir(4), ir(3), ir(3));       // slow data
        b.andi(ir(4), ir(4), 1023);
        b.sw(ir(4), ir(1), off + 4);      // store a[i]
        b.lw(ir(5), ir(10), off);         // independent loads
        b.lw(ir(6), ir(10), off + 4);
        b.add(ir(7), ir(5), ir(6));
    }
    b.halt();
    return b.build();
}

/**
 * Independent loads behind scatter stores whose ADDRESSES trail loads:
 * everything is ambiguous until each store posts, but no dependence is
 * ever real. No-speculation machines crawl; naive speculation flies.
 */
Program
ambiguousStream(int n = 300)
{
    ProgramBuilder b;
    Addr side = b.dataAlloc(4 * (2 * n + 4));
    Addr scatter = b.dataAlloc(4 * 1024);
    b.la(ir(10), side);
    b.la(ir(11), scatter);
    for (int i = 0; i < n; ++i) {
        int32_t off = 4 * i;
        b.lw(ir(8), ir(10), off + 8);     // index feed for the store
        b.mul(ir(8), ir(8), ir(8));       // slow the address down
        b.andi(ir(8), ir(8), 1020);
        b.add(ir(9), ir(11), ir(8));
        b.sw(ir(8), ir(9), 0);            // late-address scatter store
        b.lw(ir(5), ir(10), off);         // independent loads
        b.lw(ir(6), ir(10), off + 4);
        b.add(ir(7), ir(5), ir(6));
    }
    b.halt();
    return b.build();
}

/**
 * Figure 7's recurrence as an outer loop over an 8-iteration unrolled
 * body: the induction update sits at the TOP of the body (software-
 * pipelined), so later units can compute load addresses early, while
 * the static (load, store) pairs REPEAT across outer iterations — the
 * shape speculation/synchronization needs to learn.
 */
Program
rolledFigure7Loop(int outer = 120)
{
    constexpr int unroll = 8;
    ProgramBuilder b;
    Addr a = b.dataAlloc(4 * (outer * unroll + 2));
    Addr side = b.dataAlloc(4 * (2 * unroll + 2));
    b.dataW32(a, 3);
    b.la(ir(1), a);
    b.la(ir(10), side);
    b.li32(ir(2), static_cast<uint32_t>(outer));
    auto loop = b.hereLabel();
    b.addi(ir(1), ir(1), 4 * unroll); // induction first
    for (int u = 0; u < unroll; ++u) {
        int32_t off = 4 * (u - unroll); // relative to advanced base
        b.lw(ir(3), ir(1), off);        // load a[i-1]
        b.mul(ir(4), ir(3), ir(3));     // slow data
        b.andi(ir(4), ir(4), 1023);
        b.sw(ir(4), ir(1), off + 4);    // store a[i]
        b.lw(ir(5), ir(10), 4 * u);     // independent loads
        b.add(ir(7), ir(5), ir(4));
    }
    b.addi(ir(2), ir(2), -1);
    b.bne(ir(2), reg_zero, loop);
    b.halt();
    return b.build();
}

std::vector<TraceEntry>
traceOf(const Program &prog)
{
    PrepassOptions opts;
    opts.recordTrace = true;
    PrepassResult pre = runPrepass(prog, opts);
    EXPECT_TRUE(pre.halted);
    return pre.trace;
}

TEST(SplitWindowTest, RunsTraceToCompletion)
{
    auto trace = traceOf(figure7Loop());
    SplitConfig cfg;
    SplitWindowSim sim(cfg, trace);
    uint64_t cycles = sim.run();
    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(sim.committed(), trace.size());
}

TEST(SplitWindowTest, ContinuousAsNavAvoidsMisspeculation)
{
    // Continuous window + 0-cycle AS + naive speculation: by the time
    // a dependent load computes its address, all older store addresses
    // are posted (Figure 7b).
    auto trace = traceOf(figure7Loop());
    SplitConfig cfg = SplitConfig::continuous();
    cfg.lsqModel = LsqModel::AS;
    cfg.policy = SpecPolicy::Naive;
    cfg.asLatency = 0;
    SplitWindowSim sim(cfg, trace);
    sim.run();
    EXPECT_EQ(sim.violations(), 0u);
}

TEST(SplitWindowTest, SplitAsNavStillMisspeculates)
{
    // Split window: iteration i+1's load is fetched (in a later unit)
    // before iteration i's store, so even a 0-cycle address-based
    // scheduler cannot save it (Figure 7c).
    auto trace = traceOf(figure7Loop());
    SplitConfig cfg;
    cfg.numUnits = 4;
    cfg.chunkSize = 32;
    cfg.lsqModel = LsqModel::AS;
    cfg.policy = SpecPolicy::Naive;
    cfg.asLatency = 0;
    SplitWindowSim sim(cfg, trace);
    sim.run();
    EXPECT_GT(sim.violations(), 10u)
        << "the split window must expose the recurrence";
    EXPECT_EQ(sim.committed(), trace.size());
}

TEST(SplitWindowTest, NoSpeculationNeverViolates)
{
    auto trace = traceOf(figure7Loop());
    for (LsqModel model : {LsqModel::NAS, LsqModel::AS}) {
        SplitConfig cfg;
        cfg.lsqModel = model;
        cfg.policy = SpecPolicy::No;
        SplitWindowSim sim(cfg, trace);
        sim.run();
        EXPECT_EQ(sim.violations(), 0u) << toString(model);
    }
}

TEST(SplitWindowTest, ContinuousSpeculationOutperformsNoSpeculation)
{
    // Under the continuous window, AS/NAV speculation is pure win: the
    // independent loads bypass ambiguous stores and no dependence is
    // ever violated.
    auto trace = traceOf(ambiguousStream());
    SplitConfig no_cfg = SplitConfig::continuous();
    no_cfg.policy = SpecPolicy::No;
    SplitWindowSim no_sim(no_cfg, trace);
    no_sim.run();

    SplitConfig nav_cfg = SplitConfig::continuous();
    nav_cfg.policy = SpecPolicy::Naive;
    SplitWindowSim nav_sim(nav_cfg, trace);
    nav_sim.run();

    EXPECT_LT(nav_sim.cycles(), no_sim.cycles());
    EXPECT_EQ(nav_sim.violations(), 0u);
}

TEST(SplitWindowTest, NaiveSpeculationPenaltyHurtsSplitWindow)
{
    // The section 3.7 punchline from the other side: under the split
    // window naive speculation keeps miss-speculating on the
    // recurrence, so (unlike the continuous machine) AS/NAV is NOT an
    // adequate solution there — advanced dependence prediction is
    // needed.
    auto trace = traceOf(figure7Loop());
    SplitConfig nav_cfg;
    nav_cfg.policy = SpecPolicy::Naive;
    SplitWindowSim nav_sim(nav_cfg, trace);
    nav_sim.run();
    EXPECT_GT(nav_sim.violations(), 10u);

    SplitConfig cont_cfg = SplitConfig::continuous();
    cont_cfg.policy = SpecPolicy::Naive;
    SplitWindowSim cont_sim(cont_cfg, trace);
    cont_sim.run();
    EXPECT_EQ(cont_sim.violations(), 0u);
}

TEST(SplitWindowTest, MoreUnitsMoreParallelFetch)
{
    // With independent per-unit fetch, total fetch bandwidth grows with
    // units; an embarrassingly parallel trace must speed up.
    ProgramBuilder b;
    Addr arr = b.dataAlloc(4 * 4096);
    b.la(ir(1), arr);
    b.addi(ir(2), reg_zero, 1000);
    auto loop = b.hereLabel();
    b.lw(ir(3), ir(1), 0);
    b.addi(ir(3), ir(3), 1);
    b.addi(ir(1), ir(1), 4);
    b.addi(ir(2), ir(2), -1);
    b.bne(ir(2), reg_zero, loop);
    b.halt();
    auto trace = traceOf(b.build());

    SplitConfig one;
    one.numUnits = 1;
    one.chunkSize = 32;
    SplitWindowSim sim_one(one, trace);
    sim_one.run();

    SplitConfig four;
    four.numUnits = 4;
    four.chunkSize = 32;
    SplitWindowSim sim_four(four, trace);
    sim_four.run();

    EXPECT_LT(sim_four.cycles(), sim_one.cycles());
}

TEST(SplitWindowTest, WorkloadTracesRunUnderAllPolicies)
{
    Workload w = workloads::build("129.compress", 15'000);
    PrepassOptions opts;
    opts.recordTrace = true;
    PrepassResult pre = runPrepass(w.program, opts);
    for (LsqModel model : {LsqModel::NAS, LsqModel::AS}) {
        for (SpecPolicy policy :
             {SpecPolicy::No, SpecPolicy::Naive}) {
            SplitConfig cfg;
            cfg.lsqModel = model;
            cfg.policy = policy;
            SplitWindowSim sim(cfg, pre.trace);
            sim.run();
            EXPECT_EQ(sim.committed(), pre.trace.size())
                << configName(model, policy);
        }
    }
}

TEST(SplitWindowTest, AsLatencyDegradesPerformance)
{
    auto trace = traceOf(figure7Loop());
    uint64_t prev = 0;
    for (Cycles lat : {0u, 2u}) {
        SplitConfig cfg;
        cfg.lsqModel = LsqModel::AS;
        cfg.policy = SpecPolicy::Naive;
        cfg.asLatency = lat;
        SplitWindowSim sim(cfg, trace);
        sim.run();
        if (lat > 0) {
            EXPECT_GE(sim.cycles(), prev);
        }
        prev = sim.cycles();
    }
}


TEST(SplitWindowTest, SyncRescuesTheSplitWindow)
{
    // The paper's prior work [19] in one test: the split window cannot
    // be saved by address-based scheduling (see above), but
    // speculation/synchronization can — after the first few pairings
    // the violating (load, store) pair synchronizes and
    // miss-speculation collapses, recovering performance.
    auto trace = traceOf(rolledFigure7Loop());

    // One unrolled body per sub-window: the cross-body recurrence pair
    // always spans units.
    SplitConfig nav_cfg;
    nav_cfg.chunkSize = 51; // 8 slots * 6 insts + 3 loop insts
    nav_cfg.policy = SpecPolicy::Naive;
    SplitWindowSim nav_sim(nav_cfg, trace);
    nav_sim.run();
    EXPECT_GT(nav_sim.violations(), 20u)
        << "the rolled recurrence must miss-speculate under split NAV";

    SplitConfig sync_cfg = nav_cfg;
    sync_cfg.policy = SpecPolicy::SpecSync;
    SplitWindowSim sync_sim(sync_cfg, trace);
    sync_sim.run();

    EXPECT_LT(sync_sim.violations(), nav_sim.violations() / 4);
    EXPECT_LE(sync_sim.cycles(), nav_sim.cycles());
    EXPECT_EQ(sync_sim.committed(), trace.size());
}


TEST(SplitWindowTest, InterUnitLatencySlowsCrossUnitChains)
{
    // A serial register chain crossing unit boundaries pays the
    // forwarding latency; raising it must not speed anything up.
    auto trace = traceOf(figure7Loop(200));
    uint64_t prev = 0;
    for (Cycles lat : {0u, 1u, 4u}) {
        SplitConfig cfg;
        cfg.interUnitLatency = lat;
        cfg.policy = SpecPolicy::No;
        SplitWindowSim sim(cfg, trace);
        sim.run();
        EXPECT_GE(sim.cycles() + 1, prev) << "latency " << lat;
        prev = sim.cycles();
    }
}

TEST(SplitWindowTest, EmptyTraceIsFine)
{
    std::vector<TraceEntry> empty;
    SplitConfig cfg;
    SplitWindowSim sim(cfg, empty);
    EXPECT_EQ(sim.run(), 0u);
    EXPECT_EQ(sim.committed(), 0u);
}

// ---------------------------------------------------------------------
// The in-flight ring: the model keeps per-instruction state in a ring
// of bit_ceil((numUnits + 2) * chunkSize) slots, so traces just below,
// at, just above and far beyond one ring length exercise every
// wrap-around. Expected values were recorded from the earlier model
// that kept one state record per trace entry.
// ---------------------------------------------------------------------

enum class Shape
{
    Continuous128, ///< SplitConfig::continuous(128): ring 512
    Split4x32,     ///< SplitConfig{} (4 units x 32): ring 256
    Split4x51,     ///< fig7's rolled-loop chunking: ring 512
};

SplitConfig
configOf(Shape shape)
{
    SplitConfig cfg;
    if (shape == Shape::Continuous128)
        cfg = SplitConfig::continuous(128);
    else if (shape == Shape::Split4x51)
        cfg.chunkSize = 51;
    return cfg;
}

struct RingCase
{
    Shape shape;
    LsqModel model;
    SpecPolicy policy;
    size_t traceLength;
    uint64_t cycles;
    uint64_t violations;
    uint64_t committed;
    std::array<uint64_t, obs::num_cpi_causes> cpiSlots;
};

using enum Shape;

const RingCase ring_cases[] = {
    {Continuous128, LsqModel::NAS, SpecPolicy::No, 511, 565, 0, 511,
     {511, 0, 0, 0, 0, 0, 0, 1133, 0, 0, 7, 2869}},
    {Continuous128, LsqModel::NAS, SpecPolicy::No, 512, 566, 0, 512,
     {512, 0, 0, 0, 0, 0, 0, 1133, 0, 0, 7, 2876}},
    {Continuous128, LsqModel::NAS, SpecPolicy::No, 513, 566, 0, 513,
     {513, 0, 0, 0, 0, 0, 0, 1133, 0, 0, 6, 2876}},
    {Continuous128, LsqModel::NAS, SpecPolicy::No, 5123, 5627, 0, 5123,
     {5123, 0, 0, 0, 0, 0, 0, 11255, 0, 0, 7, 28631}},
    {Continuous128, LsqModel::NAS, SpecPolicy::Naive, 511, 879, 79, 511,
     {511, 6446, 0, 0, 0, 0, 0, 13, 0, 0, 5, 57}},
    {Continuous128, LsqModel::NAS, SpecPolicy::Naive, 512, 880, 79, 512,
     {512, 6451, 0, 0, 0, 0, 0, 13, 0, 0, 7, 57}},
    {Continuous128, LsqModel::NAS, SpecPolicy::Naive, 513, 880, 79, 513,
     {513, 6451, 0, 0, 0, 0, 0, 13, 0, 0, 6, 57}},
    {Continuous128, LsqModel::NAS, SpecPolicy::Naive, 5123, 8833, 802, 5123,
     {5123, 65464, 0, 0, 0, 0, 0, 13, 0, 0, 7, 57}},
    {Continuous128, LsqModel::NAS, SpecPolicy::SpecSync, 511, 595, 8, 511,
     {511, 1554, 0, 0, 0, 0, 0, 359, 0, 0, 5, 2331}},
    {Continuous128, LsqModel::NAS, SpecPolicy::SpecSync, 512, 596, 8, 512,
     {512, 1554, 0, 0, 0, 0, 0, 359, 0, 0, 7, 2336}},
    {Continuous128, LsqModel::NAS, SpecPolicy::SpecSync, 513, 596, 8, 513,
     {513, 1554, 0, 0, 0, 0, 0, 359, 0, 0, 6, 2336}},
    {Continuous128, LsqModel::NAS, SpecPolicy::SpecSync, 5123, 5657, 8, 5123,
     {5123, 1554, 0, 0, 0, 0, 0, 5147, 0, 0, 7, 33425}},
    {Continuous128, LsqModel::AS, SpecPolicy::No, 511, 563, 0, 511,
     {511, 0, 0, 0, 0, 0, 0, 539, 0, 0, 5, 3449}},
    {Continuous128, LsqModel::AS, SpecPolicy::No, 512, 564, 0, 512,
     {512, 0, 0, 0, 0, 0, 0, 539, 0, 0, 7, 3454}},
    {Continuous128, LsqModel::AS, SpecPolicy::No, 513, 564, 0, 513,
     {513, 0, 0, 0, 0, 0, 0, 539, 0, 0, 6, 3454}},
    {Continuous128, LsqModel::AS, SpecPolicy::No, 5123, 5625, 0, 5123,
     {5123, 0, 0, 0, 0, 0, 0, 5327, 0, 0, 7, 34543}},
    {Continuous128, LsqModel::AS, SpecPolicy::Naive, 511, 563, 0, 511,
     {511, 0, 0, 0, 0, 0, 0, 539, 0, 0, 5, 3449}},
    {Continuous128, LsqModel::AS, SpecPolicy::Naive, 512, 564, 0, 512,
     {512, 0, 0, 0, 0, 0, 0, 539, 0, 0, 7, 3454}},
    {Continuous128, LsqModel::AS, SpecPolicy::Naive, 513, 564, 0, 513,
     {513, 0, 0, 0, 0, 0, 0, 539, 0, 0, 6, 3454}},
    {Continuous128, LsqModel::AS, SpecPolicy::Naive, 5123, 5625, 0, 5123,
     {5123, 0, 0, 0, 0, 0, 0, 5327, 0, 0, 7, 34543}},
    {Continuous128, LsqModel::AS, SpecPolicy::SpecSync, 511, 563, 0, 511,
     {511, 0, 0, 0, 0, 0, 0, 539, 0, 0, 5, 3449}},
    {Continuous128, LsqModel::AS, SpecPolicy::SpecSync, 512, 564, 0, 512,
     {512, 0, 0, 0, 0, 0, 0, 539, 0, 0, 7, 3454}},
    {Continuous128, LsqModel::AS, SpecPolicy::SpecSync, 513, 564, 0, 513,
     {513, 0, 0, 0, 0, 0, 0, 539, 0, 0, 6, 3454}},
    {Continuous128, LsqModel::AS, SpecPolicy::SpecSync, 5123, 5625, 0, 5123,
     {5123, 0, 0, 0, 0, 0, 0, 5327, 0, 0, 7, 34543}},
    {Split4x32, LsqModel::NAS, SpecPolicy::No, 255, 326, 0, 255,
     {255, 0, 0, 0, 0, 0, 0, 564, 0, 0, 6, 1783}},
    {Split4x32, LsqModel::NAS, SpecPolicy::No, 256, 328, 0, 256,
     {256, 0, 0, 0, 0, 0, 0, 578, 0, 0, 7, 1783}},
    {Split4x32, LsqModel::NAS, SpecPolicy::No, 257, 330, 0, 257,
     {257, 0, 0, 0, 0, 0, 0, 578, 0, 0, 7, 1798}},
    {Split4x32, LsqModel::NAS, SpecPolicy::No, 2563, 3202, 0, 2563,
     {2563, 0, 0, 0, 0, 0, 0, 5642, 0, 0, 7, 17404}},
    {Split4x32, LsqModel::NAS, SpecPolicy::Naive, 255, 445, 45, 255,
     {255, 3221, 0, 0, 0, 0, 0, 15, 0, 0, 6, 63}},
    {Split4x32, LsqModel::NAS, SpecPolicy::Naive, 256, 445, 45, 256,
     {256, 3221, 0, 0, 0, 0, 0, 15, 0, 0, 5, 63}},
    {Split4x32, LsqModel::NAS, SpecPolicy::Naive, 257, 447, 45, 257,
     {257, 3234, 0, 0, 0, 0, 0, 15, 0, 0, 7, 63}},
    {Split4x32, LsqModel::NAS, SpecPolicy::Naive, 2563, 4453, 430, 2563,
     {2563, 32976, 0, 0, 0, 0, 0, 15, 0, 0, 7, 63}},
    {Split4x32, LsqModel::NAS, SpecPolicy::SpecSync, 255, 343, 8, 255,
     {255, 1515, 0, 0, 0, 0, 0, 229, 0, 0, 6, 739}},
    {Split4x32, LsqModel::NAS, SpecPolicy::SpecSync, 256, 343, 8, 256,
     {256, 1515, 0, 0, 0, 0, 0, 229, 0, 0, 5, 739}},
    {Split4x32, LsqModel::NAS, SpecPolicy::SpecSync, 257, 345, 8, 257,
     {257, 1515, 0, 0, 0, 0, 0, 229, 0, 0, 7, 752}},
    {Split4x32, LsqModel::NAS, SpecPolicy::SpecSync, 2563, 3265, 8, 2563,
     {2563, 1515, 0, 0, 0, 0, 0, 5289, 0, 0, 7, 16746}},
    {Split4x32, LsqModel::AS, SpecPolicy::No, 255, 326, 0, 255,
     {255, 0, 0, 0, 0, 0, 0, 558, 0, 0, 6, 1789}},
    {Split4x32, LsqModel::AS, SpecPolicy::No, 256, 326, 0, 256,
     {256, 0, 0, 0, 0, 0, 0, 558, 0, 0, 5, 1789}},
    {Split4x32, LsqModel::AS, SpecPolicy::No, 257, 328, 0, 257,
     {257, 0, 0, 0, 0, 0, 0, 558, 0, 0, 7, 1802}},
    {Split4x32, LsqModel::AS, SpecPolicy::No, 2563, 3202, 0, 2563,
     {2563, 0, 0, 0, 0, 0, 0, 5288, 0, 0, 7, 17758}},
    {Split4x32, LsqModel::AS, SpecPolicy::Naive, 255, 330, 1, 255,
     {255, 891, 0, 0, 0, 0, 0, 354, 0, 0, 6, 1134}},
    {Split4x32, LsqModel::AS, SpecPolicy::Naive, 256, 330, 1, 256,
     {256, 891, 0, 0, 0, 0, 0, 354, 0, 0, 5, 1134}},
    {Split4x32, LsqModel::AS, SpecPolicy::Naive, 257, 332, 1, 257,
     {257, 891, 0, 0, 0, 0, 0, 354, 0, 0, 7, 1147}},
    {Split4x32, LsqModel::AS, SpecPolicy::Naive, 2563, 3206, 1, 2563,
     {2563, 891, 0, 0, 0, 0, 0, 5084, 0, 0, 7, 17103}},
    {Split4x32, LsqModel::AS, SpecPolicy::SpecSync, 255, 330, 1, 255,
     {255, 891, 0, 0, 0, 0, 0, 354, 0, 0, 6, 1134}},
    {Split4x32, LsqModel::AS, SpecPolicy::SpecSync, 256, 330, 1, 256,
     {256, 891, 0, 0, 0, 0, 0, 354, 0, 0, 5, 1134}},
    {Split4x32, LsqModel::AS, SpecPolicy::SpecSync, 257, 332, 1, 257,
     {257, 891, 0, 0, 0, 0, 0, 354, 0, 0, 7, 1147}},
    {Split4x32, LsqModel::AS, SpecPolicy::SpecSync, 2563, 3211, 1, 2563,
     {2563, 891, 0, 0, 0, 0, 0, 5121, 0, 0, 7, 17106}},
    {Split4x51, LsqModel::NAS, SpecPolicy::No, 511, 636, 0, 511,
     {511, 0, 0, 0, 0, 0, 0, 1135, 0, 0, 7, 3435}},
    {Split4x51, LsqModel::NAS, SpecPolicy::No, 512, 637, 0, 512,
     {512, 0, 0, 0, 0, 0, 0, 1135, 0, 0, 7, 3442}},
    {Split4x51, LsqModel::NAS, SpecPolicy::No, 513, 637, 0, 513,
     {513, 0, 0, 0, 0, 0, 0, 1135, 0, 0, 6, 3442}},
    {Split4x51, LsqModel::NAS, SpecPolicy::No, 5123, 6330, 0, 5123,
     {5123, 0, 0, 0, 0, 0, 0, 11257, 0, 0, 7, 34253}},
    {Split4x51, LsqModel::NAS, SpecPolicy::Naive, 511, 880, 80, 511,
     {511, 6446, 0, 0, 0, 0, 0, 15, 0, 0, 5, 63}},
    {Split4x51, LsqModel::NAS, SpecPolicy::Naive, 512, 882, 80, 512,
     {512, 6459, 0, 0, 0, 0, 0, 15, 0, 0, 7, 63}},
    {Split4x51, LsqModel::NAS, SpecPolicy::Naive, 513, 882, 80, 513,
     {513, 6459, 0, 0, 0, 0, 0, 15, 0, 0, 6, 63}},
    {Split4x51, LsqModel::NAS, SpecPolicy::Naive, 5123, 8834, 803, 5123,
     {5123, 65464, 0, 0, 0, 0, 0, 15, 0, 0, 7, 63}},
    {Split4x51, LsqModel::NAS, SpecPolicy::SpecSync, 511, 658, 8, 511,
     {511, 1904, 0, 0, 0, 0, 0, 669, 0, 0, 5, 2175}},
    {Split4x51, LsqModel::NAS, SpecPolicy::SpecSync, 512, 660, 8, 512,
     {512, 1904, 0, 0, 0, 0, 0, 669, 0, 0, 7, 2188}},
    {Split4x51, LsqModel::NAS, SpecPolicy::SpecSync, 513, 660, 8, 513,
     {513, 1904, 0, 0, 0, 0, 0, 669, 0, 0, 6, 2188}},
    {Split4x51, LsqModel::NAS, SpecPolicy::SpecSync, 5123, 6443, 8, 5123,
     {5123, 1904, 0, 0, 0, 0, 0, 10513, 0, 0, 7, 33997}},
    {Split4x51, LsqModel::AS, SpecPolicy::No, 511, 634, 0, 511,
     {511, 0, 0, 0, 0, 0, 0, 1065, 0, 0, 5, 3491}},
    {Split4x51, LsqModel::AS, SpecPolicy::No, 512, 636, 0, 512,
     {512, 0, 0, 0, 0, 0, 0, 1065, 0, 0, 7, 3504}},
    {Split4x51, LsqModel::AS, SpecPolicy::No, 513, 636, 0, 513,
     {513, 0, 0, 0, 0, 0, 0, 1065, 0, 0, 6, 3504}},
    {Split4x51, LsqModel::AS, SpecPolicy::No, 5123, 6328, 0, 5123,
     {5123, 0, 0, 0, 0, 0, 0, 10545, 0, 0, 7, 34949}},
    {Split4x51, LsqModel::AS, SpecPolicy::Naive, 511, 670, 9, 511,
     {511, 4352, 0, 0, 0, 0, 0, 120, 0, 0, 5, 372}},
    {Split4x51, LsqModel::AS, SpecPolicy::Naive, 512, 672, 9, 512,
     {512, 4365, 0, 0, 0, 0, 0, 120, 0, 0, 7, 372}},
    {Split4x51, LsqModel::AS, SpecPolicy::Naive, 513, 672, 9, 513,
     {513, 4365, 0, 0, 0, 0, 0, 120, 0, 0, 6, 372}},
    {Split4x51, LsqModel::AS, SpecPolicy::Naive, 5123, 6728, 100, 5123,
     {5123, 48202, 0, 0, 0, 0, 0, 120, 0, 0, 7, 372}},
    {Split4x51, LsqModel::AS, SpecPolicy::SpecSync, 511, 646, 1, 511,
     {511, 1394, 0, 0, 0, 0, 0, 774, 0, 0, 5, 2484}},
    {Split4x51, LsqModel::AS, SpecPolicy::SpecSync, 512, 648, 1, 512,
     {512, 1394, 0, 0, 0, 0, 0, 774, 0, 0, 7, 2497}},
    {Split4x51, LsqModel::AS, SpecPolicy::SpecSync, 513, 648, 1, 513,
     {513, 1394, 0, 0, 0, 0, 0, 774, 0, 0, 6, 2497}},
    {Split4x51, LsqModel::AS, SpecPolicy::SpecSync, 5123, 6431, 1, 5123,
     {5123, 1394, 0, 0, 0, 0, 0, 10618, 0, 0, 7, 34306}},
};

TEST(SplitWindowRingTest, WrapAroundMatchesRecordedResults)
{
    auto full = traceOf(rolledFigure7Loop());
    for (const RingCase &c : ring_cases) {
        ASSERT_LE(c.traceLength, full.size());
        std::vector<TraceEntry> trace(full.begin(),
                                      full.begin() + c.traceLength);
        SplitConfig cfg = configOf(c.shape);
        cfg.lsqModel = c.model;
        cfg.policy = c.policy;
        SplitWindowSim sim(cfg, trace);
        sim.run();
        SCOPED_TRACE(testing::Message()
                     << "shape " << int(c.shape) << " "
                     << configName(c.model, c.policy) << " length "
                     << c.traceLength);
        EXPECT_EQ(sim.cycles(), c.cycles);
        EXPECT_EQ(sim.violations(), c.violations);
        EXPECT_EQ(sim.committed(), c.committed);
        for (size_t k = 0; k < obs::num_cpi_causes; ++k) {
            EXPECT_EQ(sim.cpiStack().slot(obs::CpiCause(k)),
                      c.cpiSlots[k])
                << obs::toString(obs::CpiCause(k));
        }
    }
}

/**
 * Heap bytes in use per glibc: arena chunks plus mmapped ones (large
 * vectors are served by mmap and never show up in uordblks). Sanitizer
 * runtimes replace malloc and may report zeros here, which makes the
 * footprint test below vacuous under those builds only.
 */
size_t
heapInUse()
{
    struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
}

TEST(SplitWindowRingTest, HeapFootprintDoesNotGrowWithTraceLength)
{
    Workload w = workloads::build("129.compress", 250'000);
    PrepassOptions opts;
    opts.recordTrace = true;
    opts.maxInsts = 200'000;
    const std::vector<TraceEntry> full = runPrepass(w.program, opts).trace;
    ASSERT_EQ(full.size(), 200'000u);
    const std::vector<TraceEntry> short_trace(full.begin(),
                                              full.begin() + 20'000);

    for (Shape shape : {Continuous128, Split4x32}) {
        size_t held[2];
        int k = 0;
        for (const auto *trace : {&short_trace, &full}) {
            size_t before = heapInUse();
            auto sim = std::make_unique<SplitWindowSim>(configOf(shape),
                                                        *trace);
            sim->run();
            ASSERT_EQ(sim->committed(), trace->size());
            size_t after = heapInUse();
            held[k++] = after > before ? after - before : 0;
        }
        SCOPED_TRACE(testing::Message() << "shape " << int(shape));
        // The window state plus a default MDPT; one record per trace
        // entry would be megabytes here.
        EXPECT_LT(held[0], 512u * 1024);
        EXPECT_LT(held[1], 512u * 1024);
        EXPECT_LT(held[1] > held[0] ? held[1] - held[0]
                                    : held[0] - held[1],
                  4u * 1024);
    }
}

} // anonymous namespace
} // namespace cwsim
