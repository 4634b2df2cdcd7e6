/**
 * @file
 * A bump-pointer arena: allocate() is a pointer bump, deallocate() a
 * no-op, and reset() reclaims everything at once while keeping the
 * chunks for reuse.
 *
 * The simulator itself no longer allocates from it. Its per-run
 * containers are plain std:: containers sized by the window they
 * track, because a no-op deallocate made the arena grow with run
 * length instead (see DESIGN.md §13). The class and runArena() remain
 * only for the benchmark under perfbench/, which still resets
 * it.
 *
 * Lifetime rules:
 *  - runArena() returns this thread's arena; sweep workers are
 *    threads, so runs never share one.
 *  - Everything allocated from the arena must be destroyed before
 *    reset().
 */

#ifndef CWSIM_BASE_ARENA_HH
#define CWSIM_BASE_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace cwsim
{

class Arena
{
  public:
    explicit Arena(size_t chunk_bytes = 1u << 18) : chunkBytes(chunk_bytes) {}

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    void *
    allocate(size_t bytes, size_t align)
    {
        uintptr_t p = (cur + (align - 1)) & ~(uintptr_t(align) - 1);
        if (p + bytes > chunkEnd) [[unlikely]]
            return allocateSlow(bytes, align);
        cur = p + bytes;
        return reinterpret_cast<void *>(p);
    }

    /** Individual frees are no-ops; reset() reclaims everything. */
    void deallocate(void *, size_t) {}

    /**
     * Rewind to empty, keeping every chunk for reuse. Must not be
     * called while any arena-backed object is alive.
     */
    void
    reset()
    {
        active = 0;
        if (!chunks.empty()) {
            cur = reinterpret_cast<uintptr_t>(chunks[0].mem.get());
            chunkEnd = cur + chunks[0].bytes;
        } else {
            cur = 0;
            chunkEnd = 0;
        }
    }

    /** Total bytes reserved across all chunks (growth diagnostic). */
    size_t
    reservedBytes() const
    {
        size_t n = 0;
        for (const Chunk &c : chunks)
            n += c.bytes;
        return n;
    }

  private:
    struct Chunk
    {
        std::unique_ptr<std::byte[]> mem;
        size_t bytes;
    };

    void *
    allocateSlow(size_t bytes, size_t align)
    {
        // Advance through already-reserved chunks first (post-reset
        // reuse); only reserve a new one when all are exhausted. An
        // oversized request gets a dedicated chunk so chunkBytes need
        // not anticipate the largest vector the window ever grows.
        size_t need = bytes + align;
        while (active + 1 < chunks.size()) {
            ++active;
            if (chunks[active].bytes >= need) {
                cur = reinterpret_cast<uintptr_t>(chunks[active].mem.get());
                chunkEnd = cur + chunks[active].bytes;
                return allocate(bytes, align);
            }
        }
        size_t sz = need > chunkBytes ? need : chunkBytes;
        chunks.push_back(Chunk{std::make_unique<std::byte[]>(sz), sz});
        active = chunks.size() - 1;
        cur = reinterpret_cast<uintptr_t>(chunks.back().mem.get());
        chunkEnd = cur + sz;
        return allocate(bytes, align);
    }

    size_t chunkBytes;
    std::vector<Chunk> chunks;
    size_t active = 0;
    uintptr_t cur = 0;
    uintptr_t chunkEnd = 0;
};

/**
 * This thread's arena. Code that never resets it wastes memory but is
 * always correct.
 */
Arena &runArena();

} // namespace cwsim

#endif // CWSIM_BASE_ARENA_HH
