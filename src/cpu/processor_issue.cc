/**
 * @file
 * The issue phase: oldest-first selection, the load scheduling gates
 * for every (LsqModel x SpecPolicy) combination, store address/data
 * posting, dependence-violation detection and recovery. This file is
 * the paper's mechanism-under-study.
 */

#include <algorithm>

#include "base/addr_range.hh"
#include "base/logging.hh"
#include "cpu/processor.hh"
#include "isa/exec_fn.hh"
#include "obs/trace.hh"

namespace cwsim
{

void
Processor::doIssue()
{
    unsigned slots = cfg.core.issueWidth;
    if (rob.empty())
        return;

    // Walk the pending bitmap in age order instead of scanning every
    // window entry. The window occupies slots [head, head+count) with
    // wraparound and bits exist only on live slots, so the [head, cap)
    // segment holds the older part and [0, head) the wrapped younger
    // part. The head cannot move during issue (commit already ran this
    // cycle), and every in-visit mutation — a squash clearing bits, a
    // selective replay setting bits — only touches instructions younger
    // than the one being visited, i.e. positions the walk has not
    // reached; nextSet re-reads the words, so the historical full-scan
    // semantics are preserved exactly.
    size_t head = rob.slotOf(rob.front());
    bool wrapped = false;
    size_t s = pendingBits.nextSet(head);
    while (slots > 0) {
        if (s == SlotBitmap::npos || (wrapped && s >= head)) {
            if (wrapped)
                break;
            wrapped = true;
            s = pendingBits.nextSet(0);
            continue;
        }
        tryIssue(rob.slot(s), slots);
        // Advance only after the visit: a selective replay inside it
        // may have set a bit between this slot and the next.
        s = pendingBits.nextSet(s + 1);
    }
}

void
Processor::tryIssue(DynInst &inst, unsigned &slots)
{
    {
        if (inst.done)
            return;

        if (inst.isStore()) {
            SbEntry &entry = sb.slot(inst.sbSlot);
            if (lsqModel == LsqModel::AS) {
                // Two-phase store: post the address as soon as the base
                // register is available, the data whenever it arrives.
                if (!entry.addrValid && inst.src1.ready &&
                    lsqInPortsLeft > 0) {
                    postStoreAddr(inst);
                    --slots;
                    --lsqInPortsLeft;
                }
                if (!inst.done && !entry.dataValid && inst.src2.ready)
                    postStoreData(inst);
            } else {
                // Table 2 base model: stores wait for both data and
                // address operands before issuing.
                if (!inst.issued && inst.srcsReady() &&
                    cycle >= inst.storeExecNotBefore &&
                    lsqInPortsLeft > 0) {
                    executeStoreNas(inst);
                    --slots;
                    --lsqInPortsLeft;
                }
            }
            return;
        }

        if (inst.isLoad()) {
            if (inst.memIssued || !inst.src1.ready)
                return;
            // Recompute on every attempt: a port-blocked load can sit
            // with a cached address while selective recovery replaces
            // its base register value underneath it.
            inst.effAddr =
                exec::effectiveAddr(inst.si, inst.src1.value);
            if (!loadMayIssue(inst)) {
                noteFalseDepStall(inst);
                return;
            }
            if (memPortsLeft == 0 || lsqInPortsLeft == 0)
                return;
            executeLoad(inst);
            if (inst.memIssued) {
                --slots;
                --memPortsLeft;
                --lsqInPortsLeft;
            }
            return;
        }

        // Plain computational / control instructions. Once issued they
        // complete through the event queue and need no further issue
        // attention; drop them from the pending set.
        if (inst.issued || !inst.srcsReady())
            return;
        unsigned fu = static_cast<unsigned>(inst.si.fuClass());
        if (fuUsed[fu] >= cfg.core.fuCopies)
            return;
        ++fuUsed[fu];
        --slots;

        inst.issued = true;
        inst.issuedAt = cycle;
        ++inst.epoch;
        pendingBits.clear(rob.slotOf(inst));
        if (inst.si.writesReg()) {
            inst.result = exec::compute(inst.si, inst.src1.value,
                                        inst.src2.value, inst.pc);
        }
        InstSeqNum seq = inst.seq;
        uint32_t epoch = inst.epoch;
        eq.scheduleIn(inst.si.latency(), [this, seq, epoch]() {
            DynInst *p = findInst(seq);
            if (p && p->epoch == epoch && p->issued && !p->done)
                completeInst(*p);
        });
    }
}

// ---------------------------------------------------------------------
// Load scheduling gates (the heart of the study).
// ---------------------------------------------------------------------

bool
Processor::loadMayIssue(DynInst &inst)
{
    if (lsqModel == LsqModel::AS) {
        // AS configurations pair with NO or NAV only. The AS gate
        // records its own (two-valued) block cause.
        return gateAddressScheduler(inst,
                                    policy == SpecPolicy::Naive);
    }

    // Evaluate the policy gate, and record WHY a refused load is
    // gate-blocked so the commit-slot accounting can classify a
    // stalled window head (obs/cpi_stack.hh). Observation only: the
    // issue decision is exactly the gate's verdict.
    bool may = true;
    GateBlock cause = GateBlock::None;
    switch (policy) {
      case SpecPolicy::No:
        may = gateNasAllOlderStoresIssued(inst);
        cause = GateBlock::StoreSet;
        break;
      case SpecPolicy::Naive:
        break;
      case SpecPolicy::Selective:
        may = inst.waitAllStores ? gateNasAllOlderStoresIssued(inst)
                                 : true;
        cause = GateBlock::StoreSet;
        break;
      case SpecPolicy::StoreBarrier:
        may = gateStoreBarrier(inst);
        cause = GateBlock::Barrier;
        break;
      case SpecPolicy::SpecSync:
        may = gateSync(inst);
        cause = GateBlock::Sync;
        break;
      case SpecPolicy::Oracle:
        may = gateOracle(inst);
        cause = GateBlock::OracleWait;
        break;
    }
    inst.gateBlock = may ? GateBlock::None : cause;
    return may;
}

bool
Processor::gateNasAllOlderStoresIssued(const DynInst &inst) const
{
    return unissuedStores.empty() ||
           *unissuedStores.begin() > inst.seq;
}

bool
Processor::gateStoreBarrier(const DynInst &inst)
{
    bool blocked = !unissuedBarriers.empty() &&
                   *unissuedBarriers.begin() < inst.seq;
    if (blocked && !inst.fdStallStarted) {
        ++pstats.barrierHolds;
        if (__builtin_expect(dprof != nullptr, 0))
            dprof->noteBarrierHold(inst.pc);
    }
    return !blocked;
}

bool
Processor::gateSync(DynInst &inst)
{
    if (!inst.hasSyncWait)
        return true;
    SbEntry *store = sb.findSeq(inst.syncWaitStore);
    if (!store || store->seq >= inst.seq) {
        // The store was squashed or has fully retired; nothing to wait
        // for any more.
        inst.hasSyncWait = false;
        return true;
    }
    // "A waiting load is free to issue one cycle after the store it
    // speculatively depends upon issues."
    return store->executed && cycle >= store->executedAt + 1;
}

bool
Processor::gateOracle(DynInst &inst)
{
    // Wait for EVERY producing store, not just the youngest: with
    // partial overlaps a load reads bytes from several stores, and
    // issuing after only one of them would forward stale bytes from
    // the ranges the others cover.
    for (unsigned i = 0; i < inst.oracleProducerCount; ++i) {
        TraceIndex producer = inst.oracleProducers[i];
        if (producer >= inst.traceIdx) {
            // Wrong-path garbage mapping; never deadlock on it.
            continue;
        }
        if (producer < commitCount)
            continue; // the producing store already committed
        const SbEntry *entry = sb.findTraceIdx(producer);
        if (entry && !entry->executed)
            return false;
    }
    return true;
}

bool
Processor::gateAddressScheduler(DynInst &inst, bool speculate)
{
    // Known true dependence: an older store with a visible address
    // overlapping the load and no data yet — the load always waits.
    if (sb.blockingOlderStore(inst.effAddr, inst.memSize, inst.seq,
                              cycle)) {
        inst.gateBlock = GateBlock::AsTrueDep;
        return false;
    }
    // Otherwise NAV issues through ambiguity, NO waits it out.
    if (!speculate && sb.ambiguousOlderThan(inst.seq, cycle)) {
        inst.gateBlock = GateBlock::AsAmbiguous;
        return false;
    }
    inst.gateBlock = GateBlock::None;
    return true;
}

// ---------------------------------------------------------------------
// Load execution.
// ---------------------------------------------------------------------

uint64_t
Processor::assembleLoadBytes(Addr addr, unsigned size,
                             InstSeqNum load_seq,
                             InstSeqNum *byte_sources) const
{
    // Per byte: the youngest older store with valid data covering it
    // (one pass over the store buffer's executed stores for all
    // bytes), else architectural memory. When the caller passes
    // @p byte_sources (size elements), each byte's forwarding store
    // seq is recorded (0 = memory) — the violation checks test
    // staleness byte-wise against these.
    ByteSeqIndex::Ref srcs[ByteSeqIndex::max_access_bytes];
    unsigned forwarded = sb.forwardingSources(addr, size, load_seq, srcs);
    uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i) {
        Addr byte_addr = addr + i;
        if (forwarded & (1u << i)) {
            value |= static_cast<uint64_t>(
                         sb.slot(srcs[i].slot).byteAt(byte_addr))
                     << (8 * i);
            if (byte_sources)
                byte_sources[i] = srcs[i].seq;
        } else {
            value |= static_cast<uint64_t>(funcMem.read8(byte_addr))
                     << (8 * i);
            if (byte_sources)
                byte_sources[i] = 0;
        }
    }
    return value;
}

void
Processor::executeLoad(DynInst &inst)
{
    // Sample memory at access time: stores executing later than this
    // point are exactly the ones that can violate the load.
    InstSeqNum sources[8] = {};
    uint64_t raw = assembleLoadBytes(inst.effAddr, inst.memSize,
                                     inst.seq, sources);
    InstSeqNum source = 0;
    bool all_forwarded = true;
    for (unsigned i = 0; i < inst.memSize; ++i) {
        source = std::max(source, sources[i]);
        all_forwarded = all_forwarded && sources[i] != 0;
    }

    // Did the load execute with ambiguous older stores outstanding?
    if (lsqModel == LsqModel::NAS) {
        inst.speculativeLoad = !unissuedStores.empty() &&
                               *unissuedStores.begin() < inst.seq;
    } else {
        inst.speculativeLoad = sb.ambiguousOlderThan(inst.seq, cycle);
    }

    Cycles as_extra =
        lsqModel == LsqModel::AS ? cfg.mdp.asLatency : 0;
    InstSeqNum seq = inst.seq;
    uint32_t epoch = inst.epoch + 1;

    auto finish = [this, seq, epoch]() {
        DynInst *p = findInst(seq);
        if (p && p->epoch == epoch && p->memIssued && !p->done) {
            p->memDone = true;
            completeInst(*p);
        }
    };

    if (all_forwarded) {
        // Store-to-load forward: same latency as an L1 hit, no cache
        // bank consumed.
        ++pstats.loadsForwarded;
        eq.scheduleIn(cfg.mem.dcache.hitLatency + as_extra, finish);
    } else {
        bool accepted;
        if (as_extra == 0) {
            accepted = memSys.dataAccess(inst.effAddr, inst.memSize,
                                         false, finish);
        } else {
            accepted = memSys.dataAccess(
                inst.effAddr, inst.memSize, false,
                [this, finish, as_extra]() {
                    eq.scheduleIn(as_extra, finish);
                });
        }
        if (!accepted)
            return; // bank/MSHR conflict; retry next cycle
    }

    ++inst.epoch;
    inst.issued = true;
    inst.memIssued = true;
    inst.issuedAt = cycle;
    inst.loadRaw = raw;
    inst.loadSourceSeq = source;
    for (unsigned i = 0; i < inst.memSize; ++i)
        inst.loadByteSource[i] = sources[i];
    inst.result = exec::loadExtend(inst.si, raw);
    indexLoadBytes(inst);
    // Issued: completion arrives through the event queue; violation
    // checks reach the load through loadBytes, not the issue walk.
    pendingBits.clear(rob.slotOf(inst));
    CWSIM_TRACE(Issue, "load seq %llu pc 0x%llx addr 0x%llx%s%s%s",
                static_cast<unsigned long long>(inst.seq),
                static_cast<unsigned long long>(inst.pc),
                static_cast<unsigned long long>(inst.effAddr),
                all_forwarded ? " [forwarded]" : "",
                inst.speculativeLoad ? " [speculative]" : "",
                source ? strfmt(" [src-store seq %llu]",
                                static_cast<unsigned long long>(source))
                             .c_str()
                       : "");
    if (__builtin_expect(dprof != nullptr, 0))
        dprof->noteLoadExec(inst.pc, all_forwarded);
    finishFalseDepStall(inst);
}

void
Processor::replayLoad(DynInst &inst)
{
    unbroadcast(inst);
    deindexLoadBytes(inst);
    ++inst.epoch; // invalidate any in-flight completion
    inst.issued = false;
    inst.memIssued = false;
    inst.memDone = false;
    inst.done = false;
    pendingBits.set(rob.slotOf(inst));
    ++inst.timesReplayed;
    ++pstats.loadReplays;
    if (__builtin_expect(dprof != nullptr, 0))
        dprof->noteLoadReplay(inst.pc);
    CWSIM_TRACE(Recovery, "silent replay: load seq %llu pc 0x%llx "
                "(replay #%u)",
                static_cast<unsigned long long>(inst.seq),
                static_cast<unsigned long long>(inst.pc),
                unsigned{inst.timesReplayed});
    frec.record(cycle, check::EventKind::Replay, inst.seq, inst.pc);
}

// ---------------------------------------------------------------------
// Store execution / posting.
// ---------------------------------------------------------------------

void
Processor::executeStoreNas(DynInst &inst)
{
    size_t slot = static_cast<size_t>(inst.sbSlot);
    SbEntry &entry = sb.slot(slot);
    Addr addr = exec::effectiveAddr(inst.si, inst.src1.value);
    // Single-phase store: address immediately visible, data with it.
    sb.postAddr(slot, addr, cycle, cycle);
    sb.postData(slot, exec::storeValue(inst.si, inst.src2.value));
    inst.effAddr = addr;
    CWSIM_TRACE(Issue, "store seq %llu pc 0x%llx addr 0x%llx",
                static_cast<unsigned long long>(inst.seq),
                static_cast<unsigned long long>(inst.pc),
                static_cast<unsigned long long>(entry.addr));
    storeBecameExecuted(inst, entry);
}

void
Processor::postStoreAddr(DynInst &inst)
{
    size_t slot = static_cast<size_t>(inst.sbSlot);
    SbEntry &entry = sb.slot(slot);
    Addr addr = exec::effectiveAddr(inst.si, inst.src1.value);
    Tick visible_at = cycle + cfg.mdp.asLatency;
    if (Cycles delay = faults.injectStoreAddrDelay()) {
        visible_at += delay;
        ++pstats.injectedAddrDelays;
        frec.record(cycle, check::EventKind::InjectedAddrDelay,
                    inst.seq, inst.pc, delay);
    }
    sb.postAddr(slot, addr, visible_at, cycle);
    inst.effAddr = addr;
    CWSIM_TRACE(LSQ, "store addr posted: seq %llu pc 0x%llx "
                "addr 0x%llx visible at cycle %llu",
                static_cast<unsigned long long>(inst.seq),
                static_cast<unsigned long long>(inst.pc),
                static_cast<unsigned long long>(entry.addr),
                static_cast<unsigned long long>(entry.addrVisibleAt));
    if (entry.dataValid)
        storeBecameExecuted(inst, entry);
}

void
Processor::postStoreData(DynInst &inst)
{
    size_t slot = static_cast<size_t>(inst.sbSlot);
    SbEntry &entry = sb.slot(slot);
    sb.postData(slot, exec::storeValue(inst.si, inst.src2.value));
    CWSIM_TRACE(LSQ, "store data posted: seq %llu pc 0x%llx",
                static_cast<unsigned long long>(inst.seq),
                static_cast<unsigned long long>(inst.pc));
    if (entry.addrValid)
        storeBecameExecuted(inst, entry);
}

void
Processor::storeBecameExecuted(DynInst &inst, SbEntry &entry)
{
    sb.setExecuted(static_cast<size_t>(inst.sbSlot), cycle);
    unissuedStores.erase(inst.seq);
    unissuedBarriers.erase(inst.seq);
    inst.issued = true;
    inst.done = true;
    inst.issuedAt = cycle;
    pendingBits.clear(rob.slotOf(inst));

    if (policy != SpecPolicy::Oracle) {
        // The oracle skips detection: gateOracle holds every load
        // until ALL of its byte-producing stores have executed (not
        // just the youngest — see OracleDeps::Producers), so a
        // correct-path load can never forward a stale byte. Wrong-path
        // loads can, but a control squash discards them before they
        // commit, and flagging them here would charge the idealized
        // oracle with violations it never architecturally commits.
        if (lsqModel == LsqModel::AS)
            checkStaleLoadsAs(entry);
        else
            checkViolationsNas(entry);
    }

    // Fault injection rides AFTER real violation detection so a genuine
    // dependence can never be masked by an induced one.
    if (faults.injectSpuriousViolation())
        injectSpuriousViolation(entry);
}

// ---------------------------------------------------------------------
// Violation detection and recovery.
// ---------------------------------------------------------------------

void
Processor::trainPredictors(const DynInst &load, const SbEntry &store)
{
    CWSIM_TRACE(MDP, "train: load pc 0x%llx / store pc 0x%llx",
                static_cast<unsigned long long>(load.pc),
                static_cast<unsigned long long>(store.pc));
    switch (policy) {
      case SpecPolicy::SpecSync:
        mdpTable.pair(load.pc, store.pc);
        break;
      case SpecPolicy::Selective:
        mdpTable.recordMissSpeculation(load.pc);
        break;
      case SpecPolicy::StoreBarrier:
        mdpTable.recordMissSpeculation(store.pc);
        break;
      default:
        break;
    }
}

void
Processor::checkViolationsNas(const SbEntry &entry)
{
    // Every younger load that read a value this store should have
    // supplied, oldest first. One store can violate several
    // independent loads; a squash from the oldest victim wipes the
    // rest implicitly, but selective recovery must repair each one or
    // the younger victims keep their stale values forever (this store
    // never re-executes to re-check them).
    //
    // Candidates come from the loadBytes index (the younger issued
    // loads reading any byte this store writes) instead of a window
    // sweep; each is re-validated at visit time because a selective
    // recovery for an older victim can reset or squash later ones.
    checkScratch.clear();
    loadBytes.collectYoungerThan(entry.addr, entry.size, entry.seq,
                                 checkScratch);
    if (checkScratch.empty())
        return;
    std::sort(checkScratch.begin(), checkScratch.end(),
              [](const ByteSeqIndex::Ref &a, const ByteSeqIndex::Ref &b)
              { return a.seq < b.seq; });
    InstSeqNum visited = 0;
    for (const ByteSeqIndex::Ref &ref : checkScratch) {
        if (ref.seq == visited)
            continue; // one ref per byte read; visit each load once
        visited = ref.seq;
        if (!refLive(ref.slot, ref.seq))
            continue;
        DynInst &load = rob.slot(ref.slot);
        if (!load.memIssued || !loadHasStaleByteFrom(load, entry))
            continue; // every shared byte came from a younger store

        ++pstats.memOrderViolations;
        if (__builtin_expect(dprof != nullptr, 0)) {
            dprof->noteViolation(
                entry.pc, load.pc, load.seq - entry.seq,
                entry.addr <= load.effAddr &&
                    entry.addr + entry.size >=
                        load.effAddr + load.memSize);
        }
        CWSIM_TRACE(Recovery, "mem-order violation: load seq %llu "
                    "pc 0x%llx vs store seq %llu pc 0x%llx "
                    "addr 0x%llx",
                    static_cast<unsigned long long>(load.seq),
                    static_cast<unsigned long long>(load.pc),
                    static_cast<unsigned long long>(entry.seq),
                    static_cast<unsigned long long>(entry.pc),
                    static_cast<unsigned long long>(entry.addr));
        frec.record(cycle, check::EventKind::Violation, load.seq,
                    load.pc, entry.pc);
        trainPredictors(load, entry);

        if (cfg.mdp.recovery == RecoveryModel::Selective) {
            if (replayDependenceSlice(load)) {
                // Recovered without discarding unrelated work. Loads
                // in the replayed slice are memIssued=false now, so
                // the scan skips them and only genuinely independent
                // further victims are repaired.
                continue;
            }
            ++pstats.selectiveFallbacks;
            CWSIM_TRACE(Recovery, "selective recovery fell back to "
                        "squash: load seq %llu pc 0x%llx",
                        static_cast<unsigned long long>(load.seq),
                        static_cast<unsigned long long>(load.pc));
            frec.record(cycle, check::EventKind::SelectiveFallback,
                        load.seq, load.pc);
        }

        // Squash invalidation: re-fetch from the load itself. This
        // also disposes of any younger victims.
        Addr restart_pc = load.pc;
        TraceIndex restart_idx = load.traceIdx;
        squashYoungerThan(load.seq - 1, restart_pc, restart_idx,
                          /*repair_bpred=*/true,
                          SquashCause::MemOrderViolation);
        return;
    }
}

// ---------------------------------------------------------------------
// Selective invalidation (the Section 2 alternative to squashing).
// ---------------------------------------------------------------------

void
Processor::resetForReplay(DynInst &inst)
{
    if (inst.isLoad())
        deindexLoadBytes(inst); // before the address is forgotten
    ++inst.epoch; // kill in-flight completion events
    inst.issued = false;
    inst.done = false;
    inst.memIssued = false;
    inst.memDone = false;
    inst.effAddr = invalid_addr;
    ++inst.timesReplayed;
    pendingBits.set(rob.slotOf(inst));

    if (inst.isStore() && inst.sbSlot >= 0) {
        SbEntry &entry = sb.slot(inst.sbSlot);
        panic_if(entry.seq != inst.seq, "replaying foreign SB entry");
        sb.invalidateForReplay(static_cast<size_t>(inst.sbSlot));
        unissuedStores.insert(inst.seq);
        if (entry.barrier)
            unissuedBarriers.insert(inst.seq);
    }
    if (inst.isLoad()) {
        inst.loadRaw = 0;
        inst.loadSourceSeq = 0;
        inst.loadByteSource.fill(0);
        inst.speculativeLoad = false;
    }
}

bool
Processor::replayDependenceSlice(DynInst &victim)
{
    // Replay-storm guard: a load cycling through many re-executions is
    // cheaper to squash.
    if (victim.epoch > 60)
        return false;

    std::vector<InstSeqNum> work{victim.seq};
    std::set<InstSeqNum> slice;
    // Not checkScratch: the violation check that called us is still
    // iterating that.
    std::vector<ByteSeqIndex::Ref> readers;

    while (!work.empty()) {
        InstSeqNum seq = work.back();
        work.pop_back();
        if (slice.count(seq))
            continue;
        DynInst *inst = findInst(seq);
        if (!inst)
            continue;

        // A resolved control instruction that consumed bad data may
        // have steered fetch the wrong way; only a squash can repair
        // that.
        if (inst->si.isControl() && inst->issued)
            return false;

        slice.insert(seq);

        // Register consumers of this instruction's (stale) result,
        // straight off its consumer list. Unissued consumers recapture
        // from the re-broadcast; the ones that already acted on the
        // stale value (issued, or posted it into the store buffer)
        // must replay.
        for (const ConsumerRef &ref : consumers[rob.slotOf(*inst)]) {
            if (!refLive(ref.slot, ref.seq))
                continue;
            DynInst &c = rob.slot(ref.slot);
            bool consumes =
                (c.src1.hasProducer && c.src1.producer == seq) ||
                (c.src2.hasProducer && c.src2.producer == seq);
            if (consumes && consumerCapturedResult(c))
                work.push_back(c.seq);
        }

        // Loads that forwarded any byte from this (stale) store. The
        // loadBytes index narrows the search to loads reading the
        // store's range; the per-byte source test catches partial
        // forwards the scalar loadSourceSeq used to hide.
        if (inst->isStore() && inst->sbSlot >= 0) {
            const SbEntry &se = sb.slot(inst->sbSlot);
            if (se.addrValid && se.dataValid) {
                readers.clear();
                loadBytes.collectYoungerThan(se.addr, se.size, seq,
                                             readers);
                for (const ByteSeqIndex::Ref &ref : readers) {
                    if (!refLive(ref.slot, ref.seq))
                        continue;
                    DynInst &c = rob.slot(ref.slot);
                    if (c.memIssued && loadForwardedFrom(c, seq))
                        work.push_back(c.seq);
                }
            }
        }
    }

    // If half the window is tainted, a squash is no more expensive.
    if (slice.size() > rob.size() / 2)
        return false;

    for (InstSeqNum seq : slice) {
        DynInst *inst = findInst(seq);
        panic_if(!inst, "slice member vanished");
        // Un-ready everyone who captured the stale value (issued
        // capturers are themselves in the slice and will recapture
        // from the re-broadcast).
        unbroadcast(*inst);
        resetForReplay(*inst);
    }

    ++pstats.selectiveRecoveries;
    pstats.sliceSize.sample(static_cast<double>(slice.size()));
    CWSIM_TRACE(Recovery, "selective recovery: victim seq %llu "
                "pc 0x%llx, slice of %zu insts replayed",
                static_cast<unsigned long long>(victim.seq),
                static_cast<unsigned long long>(victim.pc),
                slice.size());
    frec.record(cycle, check::EventKind::SelectiveRecovery, victim.seq,
                victim.pc, slice.size());
    return true;
}

void
Processor::checkStaleLoadsAs(const SbEntry &entry)
{
    // Section 3.4's three conditions: the load read memory, obtained a
    // different value than the store writes, and propagated it. The
    // loadBytes index yields exactly the memory-issued younger loads
    // touching the store's range; the byte-wise source test replaces
    // the scalar loadSourceSeq skip, which wrongly cleared loads that
    // forwarded only part of their bytes from a younger store.
    checkScratch.clear();
    loadBytes.collectYoungerThan(entry.addr, entry.size, entry.seq,
                                 checkScratch);
    if (checkScratch.empty())
        return;
    std::sort(checkScratch.begin(), checkScratch.end(),
              [](const ByteSeqIndex::Ref &a, const ByteSeqIndex::Ref &b) {
                  return a.seq < b.seq;
              });
    InstSeqNum visited = 0;
    for (const ByteSeqIndex::Ref &ref : checkScratch) {
        if (ref.seq == visited)
            continue; // one ref per byte; visit each load once
        visited = ref.seq;
        if (!refLive(ref.slot, ref.seq))
            continue;
        DynInst &load = rob.slot(ref.slot);
        if (!load.memIssued || !loadHasStaleByteFrom(load, entry))
            continue;

        uint64_t correct = assembleLoadBytes(load.effAddr, load.memSize,
                                             load.seq, nullptr);
        if (correct == load.loadRaw)
            continue; // same value: speculation was harmless

        if (anyConsumerIssued(load)) {
            ++pstats.memOrderViolations;
            if (__builtin_expect(dprof != nullptr, 0)) {
                dprof->noteViolation(
                    entry.pc, load.pc, load.seq - entry.seq,
                    entry.addr <= load.effAddr &&
                        entry.addr + entry.size >=
                            load.effAddr + load.memSize);
            }
            CWSIM_TRACE(Recovery, "stale AS load with consumers: "
                        "seq %llu pc 0x%llx vs store seq %llu "
                        "pc 0x%llx",
                        static_cast<unsigned long long>(load.seq),
                        static_cast<unsigned long long>(load.pc),
                        static_cast<unsigned long long>(entry.seq),
                        static_cast<unsigned long long>(entry.pc));
            frec.record(cycle, check::EventKind::Violation, load.seq,
                        load.pc, entry.pc);
            trainPredictors(load, entry);
            Addr restart_pc = load.pc;
            TraceIndex restart_idx = load.traceIdx;
            squashYoungerThan(load.seq - 1, restart_pc, restart_idx,
                              /*repair_bpred=*/true,
                              SquashCause::MemOrderViolation);
            return;
        }

        // No consumer used the stale value yet: silently re-execute.
        replayLoad(load);
    }
}

// ---------------------------------------------------------------------
// False-dependence probes (Table 3).
// ---------------------------------------------------------------------

void
Processor::noteFalseDepStall(DynInst &inst)
{
    if (inst.fdStallStarted)
        return;
    inst.fdStallStarted = true;
    inst.fdStallStart = cycle;

    // Classify using oracle knowledge: a stalled load with no in-flight
    // producing store is delayed by a false dependence.
    bool true_dep = false;
    for (unsigned i = 0; oracle && i < inst.oracleProducerCount; ++i) {
        TraceIndex p = inst.oracleProducers[i];
        if (p >= inst.traceIdx || p < commitCount)
            continue;
        const SbEntry *producer = sb.findTraceIdx(p);
        if (producer && !producer->executed) {
            true_dep = true;
            break;
        }
    }
    inst.fdIsFalse = !true_dep;
    CWSIM_TRACE(LSQ, "load stalled by %s dependence: seq %llu "
                "pc 0x%llx",
                true_dep ? "a true" : "a false",
                static_cast<unsigned long long>(inst.seq),
                static_cast<unsigned long long>(inst.pc));
}

void
Processor::finishFalseDepStall(DynInst &inst)
{
    if (!inst.fdStallStarted || inst.fdEvaluated)
        return;
    inst.fdEvaluated = true;
    inst.fdLatency = cycle - inst.fdStallStart;
    pstats.loadIssueDelay.sample(static_cast<double>(inst.fdLatency));
}

} // namespace cwsim
