#include "mdp/oracle.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>

#include "base/logging.hh"
#include "isa/opcodes.hh"
#include "mem/functional_memory.hh"

namespace cwsim
{

void
OracleDeps::record(TraceIndex load_idx, Producers stores)
{
    panic_if(!loads.empty() && loads.back() >= load_idx,
             "oracle loads must be recorded in trace order");
    panic_if(producers.size() + stores.size() > UINT32_MAX,
             "oracle producer list overflows its 32-bit offsets");
    loads.push_back(load_idx);
    producers.insert(producers.end(), stores.begin(), stores.end());
    offsets.push_back(static_cast<uint32_t>(producers.size()));
}

namespace
{

/** Committed instructions up to @p limit: a bare functional run. */
uint64_t
countInsts(const Program &program, uint64_t limit)
{
    FunctionalMemory mem;
    program.loadInto(mem);
    Executor ex(mem, program.entry());
    uint64_t n = 0;
    for (; !ex.halted() && n < limit; ++n)
        ex.step();
    return n;
}

} // anonymous namespace

PrepassResult
runPrepass(const Program &program, const PrepassOptions &opts)
{
    PrepassResult result;
    uint64_t limit = opts.maxInsts ? opts.maxInsts : ~uint64_t(0);
    // Size the trace exactly up front. Growing it by doubling briefly
    // holds two copies at the end (~2x its final size), and the freed
    // smaller copies stay resident in the allocator's heaps.
    if (opts.recordTrace)
        result.trace.reserve(countInsts(program, limit));

    FunctionalMemory mem;
    program.loadInto(mem);
    Executor ex(mem, program.entry());

    // Last store (by trace index) to write each byte.
    std::unordered_map<Addr, TraceIndex> last_writer;
    last_writer.reserve(1 << 16);

    while (!ex.halted() && result.instCount < limit) {
        TraceIndex idx = result.instCount;
        StepInfo info = ex.step();
        ++result.instCount;

        if (info.isLoad) {
            ++result.loadCount;
            std::array<TraceIndex, 8> set;
            unsigned count = 0;
            for (unsigned i = 0; i < info.memSize; ++i) {
                auto it = last_writer.find(info.memAddr + i);
                if (it == last_writer.end())
                    continue;
                bool dup = false;
                for (unsigned j = 0; j < count; ++j)
                    dup = dup || set[j] == it->second;
                if (!dup)
                    set[count++] = it->second;
            }
            if (count) {
                std::sort(set.begin(), set.begin() + count);
                result.deps.record(idx, {set.data(), set.data() + count});
            }
        } else if (info.isStore) {
            ++result.storeCount;
            for (unsigned i = 0; i < info.memSize; ++i)
                last_writer[info.memAddr + i] = idx;
        } else if (info.inst.isBranch()) {
            ++result.branchCount;
            if (info.taken)
                ++result.takenBranches;
        }
        if (info.inst.fuClass() == FuClass::FpAdd ||
            info.inst.fuClass() == FuClass::FpMul ||
            info.inst.fuClass() == FuClass::FpDiv) {
            ++result.fpOps;
        }

        if (opts.recordTrace) {
            TraceEntry te;
            te.pc = info.pc;
            te.inst = info.inst;
            te.memAddr = info.memAddr;
            te.memSize = static_cast<uint8_t>(info.memSize);
            te.taken = info.taken;
            result.trace.push_back(te);
        }
    }

    result.halted = ex.halted();
    result.finalState = ex.state();
    result.memFingerprint = mem.fingerprint();
    return result;
}

} // namespace cwsim
