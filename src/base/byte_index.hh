/**
 * @file
 * A byte-granular interval index mapping memory addresses to the
 * in-flight instructions that touch them, ordered by age. The store
 * buffer keeps one over executed store data (forwarding lookups: the
 * youngest older store writing a byte), and the processor keeps one
 * over issued loads (violation checks: the younger loads reading any
 * byte a store writes).
 *
 * Storage is one seq-ordered vector of the live accesses, so it is
 * bounded by what is in flight (at most a window's or a store buffer's
 * worth of entries), never by how many addresses a run has touched.
 * Every query is a dense scan over that vector, starting from the age
 * bound it is given: the paper's 128-entry structures make the scan
 * cheaper than any per-byte map (see DESIGN.md §10).
 *
 * Entries are (seq, slot) pairs where slot is the owner's stable
 * CircularQueue slot; stale slots are the caller's problem (verify seq
 * against the slot's current occupant). Byte coverage is evaluated
 * modulo the address space (rangeCoversByte), exactly as a per-byte
 * table keyed by `addr + i` would see it.
 */

#ifndef CWSIM_BASE_BYTE_INDEX_HH
#define CWSIM_BASE_BYTE_INDEX_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "base/addr_range.hh"
#include "base/logging.hh"
#include "base/types.hh"

namespace cwsim
{

class ByteSeqIndex
{
  public:
    struct Ref
    {
        InstSeqNum seq = 0;
        size_t slot = 0;
    };

    /** Largest access newestBeforeEach() can answer for. */
    static constexpr unsigned max_access_bytes = 8;

    /** Register [addr, addr+size) as written/read by (@p seq, @p slot). */
    void
    add(Addr addr, unsigned size, InstSeqNum seq, size_t slot)
    {
        if (size == 0)
            return;
        // Mostly appended in age order; walk back over the few
        // younger entries when not.
        size_t pos = entries.size();
        while (pos > 0 && entries[pos - 1].seq > seq)
            --pos;
        entries.insert(entries.begin() + pos, Entry{addr, size, seq, slot});
        population += size;
    }

    /** Remove a registration made with the same (addr, size, seq). */
    void
    remove(Addr addr, unsigned size, InstSeqNum seq)
    {
        if (size == 0)
            return;
        auto it = firstAtOrAfter(seq);
        panic_if(it == entries.end() || it->seq != seq,
                 "ByteSeqIndex::remove of unindexed seq");
        panic_if(it->addr != addr || it->size != size,
                 "ByteSeqIndex::remove of unindexed byte");
        entries.erase(it);
        population -= size;
    }

    /**
     * The youngest entry with seq < @p before covering @p byte_addr.
     * @return true and fill @p out if one exists.
     */
    bool
    newestBefore(Addr byte_addr, InstSeqNum before, Ref &out) const
    {
        for (auto it = firstAtOrAfter(before); it != entries.begin();) {
            --it;
            if (rangeCoversByte(it->addr, it->size, byte_addr)) {
                out = Ref{it->seq, it->slot};
                return true;
            }
        }
        return false;
    }

    /**
     * newestBefore() for every byte of [addr, addr+size) in one
     * backward pass: byte i's youngest older entry goes to @p out[i].
     * @p size is at most max_access_bytes.
     * @return A mask with bit i set when @p out[i] was filled.
     */
    unsigned
    newestBeforeEach(Addr addr, unsigned size, InstSeqNum before,
                     Ref *out) const
    {
        panic_if(size > max_access_bytes,
                 "ByteSeqIndex::newestBeforeEach of a %u-byte access",
                 size);
        const unsigned all = (1u << size) - 1;
        unsigned mask = 0;
        for (auto it = firstAtOrAfter(before);
             mask != all && it != entries.begin();) {
            --it;
            if (!overlaps(*it, addr, size))
                continue;
            for (unsigned i = 0; i < size; ++i) {
                if (!(mask & (1u << i)) &&
                    rangeCoversByte(it->addr, it->size, addr + i)) {
                    out[i] = Ref{it->seq, it->slot};
                    mask |= 1u << i;
                }
            }
        }
        return mask;
    }

    /**
     * Append every entry with seq > @p after touching any byte of
     * [addr, addr+size) to @p out. Entries touching several bytes
     * appear once per byte; callers sort/deduplicate.
     */
    void
    collectYoungerThan(Addr addr, unsigned size, InstSeqNum after,
                       std::vector<Ref> &out) const
    {
        for (size_t pos = entries.size();
             pos > 0 && entries[pos - 1].seq > after; --pos) {
            const Entry &e = entries[pos - 1];
            if (!overlaps(e, addr, size))
                continue;
            for (unsigned i = 0; i < size; ++i) {
                if (rangeCoversByte(e.addr, e.size, addr + i))
                    out.push_back(Ref{e.seq, e.slot});
            }
        }
    }

    /** Total (byte, entry) registrations — for invariant checking. */
    size_t size() const { return population; }
    bool empty() const { return population == 0; }

    void
    clear()
    {
        entries.clear();
        population = 0;
    }

    /**
     * Structural self-check: entries strictly ordered by seq,
     * population consistent. @return "" when healthy.
     */
    std::string
    selfCheck() const
    {
        size_t n = 0;
        for (size_t i = 0; i < entries.size(); ++i) {
            if (i > 0 && entries[i - 1].seq >= entries[i].seq)
                return "entries out of seq order";
            n += entries[i].size;
        }
        if (n != population)
            return "population count drifted";
        return "";
    }

  private:
    struct Entry
    {
        Addr addr;
        unsigned size;
        InstSeqNum seq;
        size_t slot;
    };

    /** Does @p e share a byte with [addr, addr+size), modulo 2^64? */
    static bool
    overlaps(const Entry &e, Addr addr, unsigned size)
    {
        return addr - e.addr < e.size || e.addr - addr < size;
    }

    /** The first entry with seq >= @p seq (end() if none). */
    std::vector<Entry>::const_iterator
    firstAtOrAfter(InstSeqNum seq) const
    {
        return std::lower_bound(
            entries.begin(), entries.end(), seq,
            [](const Entry &e, InstSeqNum s) { return e.seq < s; });
    }

    /** Live accesses, strictly ordered by seq. */
    std::vector<Entry> entries;
    size_t population = 0;
};

} // namespace cwsim

#endif // CWSIM_BASE_BYTE_INDEX_HH
