#include "split/split_window.hh"

#include <algorithm>
#include <bit>

#include "base/addr_range.hh"
#include "base/logging.hh"
#include "base/sim_error.hh"
#include "check/watchdog.hh"
#include "obs/trace.hh"

namespace cwsim
{

SplitWindowSim::SplitWindowSim(const SplitConfig &cfg,
                               const std::vector<TraceEntry> &trace)
    : cfg(cfg), trace(trace), mdpt(MdpConfig{}),
      fetchCursor(cfg.numUnits, invalid_trace_index), cpi(cfg.commitWidth)
{
    fatal_if(cfg.numUnits == 0 || cfg.chunkSize == 0,
             "split config needs at least one unit and chunk");
    fatal_if(cfg.policy != SpecPolicy::No &&
                 cfg.policy != SpecPolicy::Naive &&
                 cfg.policy != SpecPolicy::SpecSync,
             "the split-window model supports NO, NAV and SYNC");

    // windowEnd() spans numUnits + 1 chunks from headChunk's start; the
    // extra chunk is margin.
    TraceIndex ring = std::bit_ceil(
        (TraceIndex{cfg.numUnits} + 2) * cfg.chunkSize);
    ringMask = ring - 1;
    flags.assign(ring, 0);
    slots.resize(ring);
    lastWriter.fill(invalid_trace_index);

    pipe = obs::TraceManager::instance().pipeView();

    if (obs::DepProfManager::instance().active()) {
        dprof = std::make_unique<obs::DepProfile>(
            "split",
            obs::runLabel().empty() ? "split" : obs::runLabel());
        mdpt.setProfile(dprof.get());
    }

    for (unsigned u = 0; u < cfg.numUnits; ++u) {
        TraceIndex start = static_cast<TraceIndex>(u) * cfg.chunkSize;
        fetchCursor[u] = start < trace.size() ? start
                                              : invalid_trace_index;
    }
    armThrough(windowEnd());
}

TraceIndex
SplitWindowSim::windowEnd() const
{
    return std::min<TraceIndex>(
        (TraceIndex{headChunk} + cfg.numUnits + 1) * cfg.chunkSize,
        trace.size());
}

void
SplitWindowSim::armThrough(TraceIndex end)
{
    for (; armedEnd < end; ++armedEnd) {
        const StaticInst &si = trace[armedEnd].inst;
        // writesReg() excludes reg_zero, so it never has a producer.
        auto producer = [&](RegId reg) {
            return reg == reg_invalid ? invalid_trace_index
                                      : lastWriter[reg];
        };
        Slot &s = state(armedEnd);
        s = Slot{};
        s.src1Producer = producer(si.rs1);
        s.src2Producer = producer(si.rs2);
        flagsOf(armedEnd) = si.isLoad() ? IsLoad
                            : si.isStore() ? IsStore
                                           : 0;
        if (si.isLoad())
            ++numLoads;
        if (si.writesReg())
            lastWriter[si.rd] = armedEnd;
    }
}

bool
SplitWindowSim::regReady(TraceIndex producer,
                         TraceIndex consumer_chunk_begin) const
{
    // Below the commit head means committed; that slot may already
    // hold a younger index.
    if (producer == invalid_trace_index || producer < headCommit)
        return true;
    if (!(flagsOf(producer) & Done))
        return false;
    // A producer is always older than its consumer, so it sits in
    // another chunk exactly when it precedes the consumer's chunk.
    Cycles forward =
        producer < consumer_chunk_begin ? cfg.interUnitLatency : 0;
    return state(producer).doneAt + forward <= curCycle;
}

bool
SplitWindowSim::loadMayIssue(TraceIndex idx) const
{
    const TraceEntry &load = trace[idx];
    bool speculate = cfg.policy != SpecPolicy::No;

    // SYNC: a load whose PC carries a synonym waits for the closest
    // older store instance producing the same synonym. If no such
    // store is visible yet but older instructions remain unfetched,
    // the load keeps waiting — the synchronizing signal may simply not
    // have arrived from an earlier unit (Multiscalar-style wait).
    if (cfg.policy == SpecPolicy::SpecSync) {
        Synonym syn = mdpt.synonymOf(load.pc);
        if (syn != invalid_synonym) {
            bool found_producer = false;
            bool all_fetched = true;
            for (TraceIndex j = idx; j-- > headCommit;) {
                uint8_t f = flagsOf(j);
                if (!(f & Fetched)) {
                    all_fetched = false;
                    continue;
                }
                if (!(f & IsStore))
                    continue;
                if (mdpt.synonymOf(trace[j].pc) == syn) {
                    found_producer = true;
                    if (!(f & Done) ||
                        state(j).doneAt + cfg.interUnitLatency >
                            curCycle) {
                        // Per refused cycle, so the counter reads as
                        // cycles spent synchronizing on this edge.
                        if (__builtin_expect(dprof != nullptr, 0)) {
                            dprof->noteSyncWait(load.pc, trace[j].pc,
                                                idx - j);
                        }
                        return false;
                    }
                    break; // synchronized with the closest instance
                }
            }
            if (!found_producer && !all_fetched)
                return false; // the producer may not be fetched yet
        }
    }

    // Older instructions not yet fetched are invisible to any
    // scheduler: ambiguous by definition.
    bool all_older_fetched = true;
    bool ambiguous = false;

    for (TraceIndex j = headCommit; j < idx; ++j) {
        uint8_t f = flagsOf(j);
        if (!(f & Fetched)) {
            all_older_fetched = false;
            continue;
        }
        if (!(f & IsStore))
            continue;
        if (cfg.lsqModel == LsqModel::AS) {
            if ((f & AddrPosted) && state(j).addrPostedAt <= curCycle) {
                const TraceEntry &older = trace[j];
                bool overlap = rangesOverlap(older.memAddr, older.memSize,
                                             load.memAddr, load.memSize);
                if (overlap && !(f & Done))
                    return false; // known true dependence: wait
            } else {
                ambiguous = true;
            }
        } else if (!(f & Done)) {
            ambiguous = true; // NAS: unexecuted older store
        }
    }

    if (speculate)
        return true;
    return all_older_fetched && !ambiguous;
}

void
SplitWindowSim::executeStore(TraceIndex idx)
{
    const TraceEntry &store = trace[idx];
    flagsOf(idx) |= Issued | Done;
    state(idx).issuedAt = curCycle;
    state(idx).doneAt = curCycle;

    // Detect the oldest younger load that consumed a stale value.
    for (TraceIndex j = idx + 1, end = windowEnd(); j < end; ++j) {
        if ((flagsOf(j) & (IsLoad | Done)) != (IsLoad | Done))
            continue;
        const TraceEntry &load = trace[j];
        bool overlap = rangesOverlap(store.memAddr, store.memSize,
                                     load.memAddr, load.memSize);
        if (!overlap)
            continue;
        TraceIndex seen = state(j).sourceSeen;
        if (seen != invalid_trace_index && seen >= idx)
            continue; // already forwarded from this store or younger
        ++numViolations;
        if (__builtin_expect(dprof != nullptr, 0)) {
            dprof->noteViolation(
                store.pc, load.pc, j - idx,
                store.memAddr <= load.memAddr &&
                    store.memAddr + store.memSize >=
                        load.memAddr + load.memSize);
        }
        CWSIM_TRACE(Split, "violation: load idx %llu pc 0x%llx "
                    "vs store idx %llu pc 0x%llx addr 0x%llx",
                    static_cast<unsigned long long>(j),
                    static_cast<unsigned long long>(load.pc),
                    static_cast<unsigned long long>(idx),
                    static_cast<unsigned long long>(store.pc),
                    static_cast<unsigned long long>(store.memAddr));
        if (cfg.policy == SpecPolicy::SpecSync)
            mdpt.pair(load.pc, store.pc);
        squashFrom(j);
        return;
    }
}

void
SplitWindowSim::squashFrom(TraceIndex idx)
{
    unsigned squashed = 0;
    // Only in-flight chunks can have made progress.
    for (TraceIndex j = idx, end = windowEnd(); j < end; ++j) {
        uint8_t &f = flagsOf(j);
        if (!(f & (Fetched | Done | AddrPosted)))
            continue;
        f &= static_cast<uint8_t>(~(Issued | Done | AddrPosted));
        Slot &s = state(j);
        s.sourceSeen = invalid_trace_index;
        s.notBefore = curCycle + cfg.squashPenalty;
        ++s.timesSquashed;
        ++squashed;
    }
    CWSIM_TRACE(Split, "squash: %u insts from idx %llu, re-dispatch "
                "at cycle %llu",
                squashed, static_cast<unsigned long long>(idx),
                static_cast<unsigned long long>(curCycle +
                                                cfg.squashPenalty));
}

uint64_t
SplitWindowSim::run()
{
    const uint64_t max_cycles = 100'000'000;
    const TraceIndex n = trace.size();
    if (n == 0)
        return 0;

    check::Watchdog wdog(cfg.watchdogInterval);

    while (headCommit < n && curCycle < max_cycles) {
        if (obs::tracingActive())
            obs::setTraceCycle(curCycle);

        // ---- fetch ----
        if (cfg.continuousFetch) {
            // One in-order stream feeding a sliding window: older
            // instructions are always fetched before younger ones.
            TraceIndex window_end =
                headCommit +
                static_cast<TraceIndex>(cfg.numUnits) * cfg.chunkSize;
            unsigned budget =
                cfg.unitFetchWidth * cfg.numUnits;
            while (budget > 0 && globalCursor < n &&
                   globalCursor < window_end) {
                flagsOf(globalCursor) |= Fetched;
                state(globalCursor).fetchedAt = curCycle;
                ++globalCursor;
                --budget;
            }
        } else {
            // Each in-flight chunk fetches independently: a later
            // unit's loads can be fetched before an earlier unit's
            // stores.
            for (unsigned u = 0; u < cfg.numUnits; ++u) {
                TraceIndex cursor = fetchCursor[u];
                if (cursor == invalid_trace_index)
                    continue;
                unsigned chunk = chunkOf(cursor);
                if (chunk >= headChunk + cfg.numUnits)
                    continue; // not yet in flight
                TraceIndex chunk_end = std::min<TraceIndex>(
                    static_cast<TraceIndex>(chunk + 1) * cfg.chunkSize,
                    n);
                unsigned budget = cfg.unitFetchWidth;
                while (budget > 0 && cursor < chunk_end) {
                    flagsOf(cursor) |= Fetched;
                    state(cursor).fetchedAt = curCycle;
                    ++cursor;
                    --budget;
                }
                if (cursor == chunk_end) {
                    // This slot's next assigned chunk.
                    TraceIndex next =
                        static_cast<TraceIndex>(chunk + cfg.numUnits) *
                        cfg.chunkSize;
                    fetchCursor[u] =
                        next < n ? next : invalid_trace_index;
                } else {
                    fetchCursor[u] = cursor;
                }
            }
        }

        // ---- execute: per unit, oldest-first, bounded issue ----
        // Continuous mode issues from one sliding window with a global
        // budget; split mode gives each in-flight chunk its own budget.
        unsigned first_chunk = headChunk;
        unsigned last_chunk = std::min<unsigned>(
            headChunk + cfg.numUnits + (cfg.continuousFetch ? 1 : 0),
            static_cast<unsigned>((n + cfg.chunkSize - 1) /
                                  cfg.chunkSize));
        unsigned budget = cfg.unitIssueWidth * cfg.numUnits;
        for (unsigned chunk = first_chunk; chunk < last_chunk;
             ++chunk) {
            if (!cfg.continuousFetch)
                budget = cfg.unitIssueWidth;
            TraceIndex begin =
                static_cast<TraceIndex>(chunk) * cfg.chunkSize;
            TraceIndex end =
                std::min<TraceIndex>(begin + cfg.chunkSize, n);
            for (TraceIndex i = std::max(begin, headCommit);
                 i < end && budget > 0; ++i) {
                uint8_t f = flagsOf(i);
                Slot &s = state(i);
                if (!(f & Fetched) || s.notBefore > curCycle)
                    continue;

                // AS stores post addresses as soon as the base register
                // arrives (no issue slot consumed).
                if ((f & IsStore) && cfg.lsqModel == LsqModel::AS &&
                    !(f & AddrPosted) && regReady(s.src1Producer, begin)) {
                    flagsOf(i) |= AddrPosted;
                    s.addrPostedAt = curCycle + cfg.asLatency;
                }

                if (f & Done)
                    continue;

                if (f & IsStore) {
                    if (regReady(s.src1Producer, begin) &&
                        regReady(s.src2Producer, begin)) {
                        --budget;
                        executeStore(i);
                    }
                    continue;
                }

                if (f & IsLoad) {
                    if (!regReady(s.src1Producer, begin))
                        continue;
                    if (!loadMayIssue(i))
                        continue;
                    --budget;
                    // Record the youngest older executed store the
                    // load forwards from (if any).
                    const TraceEntry &load = trace[i];
                    TraceIndex source = invalid_trace_index;
                    for (TraceIndex j = headCommit; j < i; ++j) {
                        if ((flagsOf(j) & (IsStore | Done)) ==
                                (IsStore | Done) &&
                            rangesOverlap(trace[j].memAddr,
                                          trace[j].memSize, load.memAddr,
                                          load.memSize)) {
                            source = j;
                        }
                    }
                    s.sourceSeen = source;
                    if (__builtin_expect(dprof != nullptr, 0)) {
                        dprof->noteLoadExec(
                            load.pc, source != invalid_trace_index);
                    }
                    flagsOf(i) |= Issued | Done;
                    s.issuedAt = curCycle;
                    s.doneAt = curCycle + cfg.memLatency +
                               (cfg.lsqModel == LsqModel::AS
                                    ? cfg.asLatency
                                    : 0);
                    continue;
                }

                // Plain computational / control work.
                if (regReady(s.src1Producer, begin) &&
                    regReady(s.src2Producer, begin)) {
                    --budget;
                    flagsOf(i) |= Issued | Done;
                    s.issuedAt = curCycle;
                    s.doneAt = curCycle + trace[i].inst.latency();
                }
            }
        }

        // ---- commit: global, in order ----
        unsigned commits = 0;
        while (headCommit < n && commits < cfg.commitWidth) {
            uint8_t f = flagsOf(headCommit);
            const Slot &s = state(headCommit);
            if (!(f & Done) || s.doneAt > curCycle)
                break;
            const TraceEntry &head = trace[headCommit];
            if (__builtin_expect(dprof != nullptr, 0)) {
                if (f & IsLoad)
                    dprof->noteLoadCommit(head.pc);
                else if (f & IsStore)
                    dprof->noteStoreCommit(head.pc);
            }
            if (pipe) {
                // Record fields are cycles; the writer scales to ticks.
                obs::PipeViewWriter::Record r;
                r.seq = headCommit + 1; // pipeview seqs start at 1
                r.pc = head.pc;
                r.fetch = s.fetchedAt;
                r.decode = r.fetch;
                r.rename = r.fetch;
                r.dispatch = r.fetch;
                r.issue = s.issuedAt;
                r.complete = s.doneAt;
                r.retire = curCycle;
                if (f & IsStore)
                    r.storeComplete = r.retire;
                r.disasm = head.inst.disassemble();
                if (s.timesSquashed) {
                    r.disasm += strfmt(" [squashed x%u]",
                                       unsigned{s.timesSquashed});
                }
                pipe->write(r);
            }
            ++headCommit;
            ++numCommitted;
            ++commits;
        }
        // Commit-slot accounting: blame this cycle's leftover slots on
        // why the next-to-commit instruction is not done yet.
        cpi.account(commits, commits < cfg.commitWidth
                                 ? classifyResidual()
                                 : obs::CpiCause::Committed);

        if (commits > 0)
            wdog.progress(curCycle);
        if (wdog.expired(curCycle)) {
            uint8_t f = flagsOf(headCommit);
            throw SimError(
                SimErrorKind::Watchdog,
                strfmt("split-window: no commit in %llu cycles",
                       static_cast<unsigned long long>(
                           cfg.watchdogInterval)),
                __FILE__, __LINE__,
                strfmt("head %llu/%zu (chunk %u, pc 0x%llx): "
                       "fetched=%d issued=%d done=%d addrPosted=%d "
                       "notBefore=%llu, headChunk %u\n",
                       static_cast<unsigned long long>(headCommit),
                       trace.size(), chunkOf(headCommit),
                       static_cast<unsigned long long>(
                           trace[headCommit].pc),
                       bool(f & Fetched), bool(f & Issued),
                       bool(f & Done), bool(f & AddrPosted),
                       static_cast<unsigned long long>(
                           state(headCommit).notBefore),
                       headChunk));
        }

        // Advance the chunk window and arm the chunks that enter it.
        // Slot fetch cursors self-advance to their next assigned
        // chunk; advancing headChunk just widens the in-flight window.
        headChunk = headCommit < n ? chunkOf(headCommit) : chunkOf(n - 1);
        armThrough(windowEnd());

        ++curCycle;
    }

    panic_if(headCommit < n, "split-window simulation did not converge");
    panic_if(cpi.totalSlots() != curCycle * uint64_t{cfg.commitWidth} ||
                 cpi.slot(obs::CpiCause::Committed) != numCommitted,
             "split-window CPI-stack conservation broken: %llu slots / "
             "%llu committed over %llu cycles x width %u",
             static_cast<unsigned long long>(cpi.totalSlots()),
             static_cast<unsigned long long>(
                 cpi.slot(obs::CpiCause::Committed)),
             static_cast<unsigned long long>(curCycle),
             cfg.commitWidth);
    if (dprof) {
        // Final predictor snapshot, then hand the block to the shared
        // writer (SYNC is the only split policy with MDPT state, but
        // the sample is cheap and keeps the block shape uniform).
        dprof->noteMdptSample(curCycle, mdpt.validEntries(),
                              mdpt.meanConfidence());
        obs::DepProfManager::instance().writeRun(*dprof);
    }
    return curCycle;
}

obs::CpiCause
SplitWindowSim::classifyResidual() const
{
    using obs::CpiCause;

    // Everything committed: only the trailing cycle's spare slots.
    if (headCommit >= trace.size())
        return CpiCause::FrontEndIdle;

    uint8_t f = flagsOf(headCommit);
    if (!(f & Fetched))
        return CpiCause::FrontEndIdle;
    // Squash penalty wait or post-squash re-execution: recovery cost.
    if (state(headCommit).timesSquashed > 0)
        return CpiCause::MemDepSquash;

    if ((f & Done) && (f & IsLoad)) {
        // In flight (doneAt > curCycle). AS loads spend the first
        // asLatency cycles in the address-scheduler pipeline.
        return (cfg.lsqModel == LsqModel::AS &&
                curCycle - state(headCommit).issuedAt <
                    Tick{cfg.asLatency})
            ? CpiCause::AddrSched
            : CpiCause::CacheMiss;
    }
    // Never a dependence or sync wait: loadMayIssue(headCommit) always
    // holds, since both of its scans cover the empty range below the
    // head (DESIGN.md §11).
    return CpiCause::Exec;
}

} // namespace cwsim
